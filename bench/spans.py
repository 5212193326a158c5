"""In-memory span recorder, call hooks, and span-tree arithmetic.

A traced benchmark process installs hooks around the functions of the
``rigidity`` modules (see ``HOOKS``), records one span per hooked call and
writes every span once, when the process ends.  Nothing under ``src/``
changes: a hook replaces the module-level name that callers look up, in
the defining module and in every ``rigidity`` module that imported it.

Spans are stored column-wise (name index, start, end, parent index,
operation id) so that hundreds of thousands of counter calls stay cheap to
record and to write.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name, extra).  A span hook times the call and
# nests under whatever hooked call is open; ``extra`` names a per-call
# quantity to accumulate on the span (see ``_EXTRAS``).  Hooks whose span
# name is None only count calls, attributed to the innermost open span:
# they sit on functions called too often for a span each.
HOOKS = (
    ("rigidity.cli", "main", "cli.main", None),
    ("rigidity.cli", "_write_json", "cli.write", "file_bytes"),
    ("rigidity.cli", "_write_text", "cli.write", "file_bytes"),
    ("rigidity.sets", "load_descriptor", "sets.load", None),
    ("rigidity.sets", "descriptor_to_json_dict", "sets.to_json", None),
    ("rigidity.covering", "exact_counter", None, "wrap_counter"),
    ("rigidity.covering", "covering_number_1d", "covering.count", "result"),
    ("rigidity.covering", "covering_number_power", "covering.power", "result"),
    ("rigidity.bounds", "rigidity_bound", "bounds.rigidity_bound", None),
    ("rigidity.bounds", "epsilon0", "bounds.epsilon0", None),
    ("rigidity.bounds", "solve_eta", "bounds.solve_eta", None),
    ("rigidity.bounds", "in_E", None, "truthy"),
    ("rigidity.bounds", "rhs_polynomial", None, None),
    ("rigidity.witness", "sandwich_check", "witness.sandwich", None),
    ("rigidity.witness", "build_witness", "witness.build", None),
    ("rigidity.witness", "witness_derivative_scale", "witness.scale", None),
    ("rigidity.critical", "SampledMap.from_callable", "critical.sample", "grid_nodes"),
    ("rigidity.critical", "SampledMap.from_grid_csv", "critical.sample", "grid_nodes"),
    ("rigidity.critical", "semi_axis_field", "critical.semi_axis", "semi_axis_bytes"),
    ("rigidity.critical", "near_critical_set", "critical.select", None),
    ("rigidity.critical", "empirical_forward_check", "critical.check", None),
)

# the counter returned by ``exact_counter`` is timed under this name
COUNTER_SPAN = "covering.count"


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _grid_nodes(args, result):
    return result.values.size // result.m


def _semi_axis_bytes(args, result):
    # computed, not measured: the sampled values are read once and the
    # (nodes, m, n) float64 Jacobian field is written once and read once
    sm = args[0]
    nodes = sm.values.size // sm.m
    return 8 * nodes * sm.m * (1 + 2 * sm.n)


def _result(args, result):
    return int(result)


_EXTRAS = {
    "file_bytes": _file_bytes,
    "grid_nodes": _grid_nodes,
    "semi_axis_bytes": _semi_axis_bytes,
    "result": _result,
}


class Recorder:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.extra: dict[int, float] = {}
        self._counts: dict[tuple, int] = defaultdict(int)
        self.op_id = 0
        self._open: list[int] = []

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx


    def span(self, fn, name: str, extra=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        name_idx = self._intern(name)
        rec = self

        def hooked(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(name_idx)
            rec.parent.append(rec._open[-1] if rec._open else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec._open.append(idx)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = time.perf_counter()
                rec._open.pop()
            if extra is not None:
                rec.extra[idx] = extra(args, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    def counter(self, fn, key: str, truthy: bool):
        """Wrap ``fn`` so that calls are counted per innermost open span."""
        rec = self

        counts = self._counts
        hit_key = f"{key}:true"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            where = rec.name[rec._open[-1]] if rec._open else -1
            counts[key, where] += 1
            if truthy and result:
                counts[hit_key, where] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "extra": {str(k): v for k, v in self.extra.items()},
            # "<counted name>@<innermost open span name>" -> calls
            "counts": {
                f"{key}@{self.names[where] if where >= 0 else '-'}": n
                for (key, where), n in self._counts.items()
            },
        }


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(rec: Recorder, hooks=HOOKS) -> list[str]:
    """Install ``hooks`` into the loaded ``rigidity`` modules.

    Returns the hooks whose target no longer exists; those are skipped so
    that a renamed function shows up as a missing metric, not a crash.
    """
    missing = []
    for mod_name, attr, span_name, extra in hooks:
        module = sys.modules.get(mod_name)
        label = f"{mod_name}.{attr}"
        try:
            owner, leaf = _resolve(module, attr)
            static = inspect.getattr_static(owner, leaf)
        except AttributeError:
            missing.append(label)
            continue
        original = getattr(owner, leaf)
        if extra == "wrap_counter":
            def factory(*args, _make=original, **kwargs):
                return rec.span(_make(*args, **kwargs), COUNTER_SPAN, _result)
            wrapped = factory
        elif span_name is None:
            wrapped = rec.counter(original, attr, truthy=extra == "truthy")
        else:
            wrapped = rec.span(original, span_name, _EXTRAS.get(extra))
        if isinstance(owner, type):
            # class-level names: a classmethod stays bound to its class
            if isinstance(static, classmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, leaf, wrapped)
            continue
        for name, mod in list(sys.modules.items()):
            if name == "rigidity" or name.startswith("rigidity."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return missing


# ---------------------------------------------------------------- arithmetic


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(trace: dict, which=None) -> dict[int, float]:
    """Span index -> its duration minus the part of it its children cover.

    ``which`` limits the result to those span indices (default: all).
    """
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    if which is None:
        which = range(len(start))
    wanted = set(which)
    children = defaultdict(list)
    for idx, par in enumerate(parent):
        if par in wanted:
            children[par].append(idx)
    out = {}
    for idx in wanted:
        lo, hi = start[idx], end[idx]
        covered = union_length(
            (max(lo, start[c]), min(hi, end[c]))
            for c in children.get(idx, ())
            if start[c] < hi and end[c] > lo
        )
        out[idx] = (hi - lo) - covered
    return out
