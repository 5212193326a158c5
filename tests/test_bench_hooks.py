"""Every name the benchmark's span hooks wrap still exists.

``bench/spans.py`` replaces module-level names of ``rigidity`` at run time
and reports a hook whose target is gone as a missing metric, not as an
error.  This test turns such a rename or deletion into a failure here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    return module.HOOKS


HOOKS = _load_hooks()


@pytest.mark.parametrize("module, attr", [hook[:2] for hook in HOOKS],
                         ids=[f"{hook[0]}.{hook[1]}" for hook in HOOKS])
def test_hooked_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
