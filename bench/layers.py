"""Per-layer metrics derived from the spans of one traced pass.

Each metric names the hooks it is built from (``spans.HOOKS`` entries as
``module.attribute``) and the end-to-end metric it should move, on which
workload.  A metric whose hooks are gone from the program is reported as
missing instead of as a wrong number.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times, union_length

_COUNTER = ("rigidity.covering.exact_counter", "rigidity.covering.covering_number_1d",
            "rigidity.covering.covering_number_power")
_POWER = ("rigidity.covering.covering_number_power",)
# sampling a built-in map and loading a grid CSV both produce the sampled grid
_SAMPLE = ("rigidity.critical.SampledMap.from_callable",
           "rigidity.critical.SampledMap.from_grid_csv")
_WRITE = ("rigidity.cli._write_json", "rigidity.cli._write_text")

COVERING = ("covering.count", "covering.power")


class PassSpans:
    """Spans of every process of one pass, with the lookups metrics share."""

    def __init__(self, traces: list[dict]):
        self.traces = traces
        self.missing = {label for t in traces for label in t.get("missing", ())}
        self._cache = {}

    def _named(self, trace, names):
        key = (id(trace), names)
        hit = self._cache.get(key)
        if hit is None:
            wanted = {i for i, n in enumerate(trace["names"]) if n in names}
            hit = self._cache[key] = [i for i, k in enumerate(trace["name"]) if k in wanted]
        return hit

    def busy(self, *names) -> float:
        """Time in which at least one span of ``names`` was open."""
        total = 0.0
        for t in self.traces:
            total += union_length((t["start"][i], t["end"][i]) for i in self._named(t, names))
        return total

    def self_time(self, *names) -> float:
        return sum(sum(self_times(t, self._named(t, names)).values()) for t in self.traces)

    def calls(self, *names, parent=None) -> int:
        total = 0
        for t in self.traces:
            parents = set(self._named(t, (parent,))) if parent else None
            total += sum(1 for i in self._named(t, names)
                         if parents is None or t["parent"][i] in parents)
        return total

    def extra_sum(self, *names) -> float:
        return sum(t["extra"].get(str(i), 0) for t in self.traces for i in self._named(t, names))

    def outer_counter_calls(self):
        """(trace, span index) of counter calls not nested in another counter call."""
        for t in self.traces:
            covering = set(self._named(t, COVERING))
            for i in covering:
                if t["parent"][i] not in covering:
                    yield t, i

    def count(self, key: str, where: str | None = None) -> int:
        total = 0
        for t in self.traces:
            for k, v in t["counts"].items():
                name, _, at = k.partition("@")
                if name == key and (where is None or at == where):
                    total += v
        return total


def _distinct_ratio(p: PassSpans) -> float:
    distinct = defaultdict(set)
    calls = 0
    for t, i in p.outer_counter_calls():
        distinct[(id(t), t["op"][i])].add(t["extra"].get(str(i)))
        calls += 1
    return sum(len(v) for v in distinct.values()) / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better, hooks it needs, what it should move, value)
METRICS = {
    "covering.busy_s": (
        "s", "lower", _COUNTER, "wall_s on bound_large",
        lambda p: p.busy(*COVERING)),
    "covering.balls": (
        "count", "lower", _COUNTER, "wall_s on bound_large",
        lambda p: sum(t["extra"].get(str(i), 0) for t, i in p.outer_counter_calls())),
    "covering.calls": (
        "count", "lower", _COUNTER, "op_p50_ms on sandwich_small",
        lambda p: sum(1 for _ in p.outer_counter_calls())),
    "covering.distinct_ratio": (
        "ratio", "higher", _COUNTER, "op_p50_ms on sandwich_small",
        _distinct_ratio),
    "covering.power.busy_s": (
        "s", "lower", _POWER, "wall_s on bound_large",
        lambda p: p.busy("covering.power")),
    "bounds.self_s": (
        "s", "lower",
        ("rigidity.bounds.rigidity_bound", "rigidity.bounds.epsilon0",
         "rigidity.bounds.solve_eta") + _COUNTER,
        "op_p50_ms on sandwich_small",
        lambda p: p.self_time("bounds.rigidity_bound", "bounds.epsilon0", "bounds.solve_eta")),
    "bounds.scan_points": (
        "count", "lower", ("rigidity.bounds.in_E",), "op_p50_ms on sandwich_small",
        lambda p: p.count("in_E")),
    "bounds.qualify_ratio": (
        "ratio", "higher", ("rigidity.bounds.in_E",), "op_p50_ms on sandwich_small",
        lambda p: _ratio(p.count("in_E:true"), p.count("in_E"))),
    "bounds.epsilon0.busy_s": (
        "s", "lower", ("rigidity.bounds.epsilon0",), "op_p50_ms on sandwich_small",
        lambda p: p.busy("bounds.epsilon0")),
    "bounds.epsilon0.counter_calls": (
        "count", "lower", ("rigidity.bounds.epsilon0",) + _COUNTER,
        "op_p50_ms on sandwich_small",
        lambda p: p.calls(*COVERING, parent="bounds.epsilon0")),
    "bounds.solve_eta.calls": (
        "count", "lower", ("rigidity.bounds.solve_eta",), "wall_s on bound_large",
        lambda p: p.calls("bounds.solve_eta")),
    "bounds.solve_eta.busy_s": (
        "s", "lower", ("rigidity.bounds.solve_eta",), "wall_s on bound_large",
        lambda p: p.busy("bounds.solve_eta")),
    "bounds.rhs_evals": (
        "count", "lower", ("rigidity.bounds.solve_eta", "rigidity.bounds.rhs_polynomial"),
        "wall_s on bound_large",
        lambda p: p.count("rhs_polynomial", where="bounds.solve_eta")),
    "witness.build.busy_s": (
        "s", "lower", ("rigidity.witness.build_witness",), "ops_per_s on sandwich_small",
        lambda p: p.busy("witness.build")),
    "witness.scale.busy_s": (
        "s", "lower", ("rigidity.witness.witness_derivative_scale",),
        "ops_per_s on sandwich_small",
        lambda p: p.busy("witness.scale")),
    "critical.sample.busy_s": (
        "s", "lower", _SAMPLE, "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("critical.sample")),
    "critical.grid_nodes": (
        "count", "lower", _SAMPLE, "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.extra_sum("critical.sample")),
    "critical.semi_axis.busy_s": (
        "s", "lower", ("rigidity.critical.semi_axis_field",),
        "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("critical.semi_axis")),
    "critical.semi_axis.bytes": (
        "bytes", "lower", ("rigidity.critical.semi_axis_field",),
        "wall_s, peak_rss_mb on extract_grid (computed from array sizes)",
        lambda p: p.extra_sum("critical.semi_axis")),
    "critical.select.self_s": (
        "s", "lower", ("rigidity.critical.near_critical_set",
                       "rigidity.critical.semi_axis_field"),
        "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.self_time("critical.select")),
    "critical.check.busy_s": (
        "s", "lower", ("rigidity.critical.empirical_forward_check",),
        "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("critical.check")),
    "sets.load.busy_s": (
        "s", "lower", ("rigidity.sets.load_descriptor",), "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("sets.load")),
    "sets.to_json.busy_s": (
        "s", "lower", ("rigidity.sets.descriptor_to_json_dict",),
        "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("sets.to_json")),
    "cli.write.busy_s": (
        "s", "lower", _WRITE, "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.busy("cli.write")),
    "cli.write.bytes": (
        "bytes", "lower", _WRITE, "wall_s, peak_rss_mb on extract_grid",
        lambda p: p.extra_sum("cli.write")),
    "cli.import_s": (
        "s", "lower", (), "setup_s on every workload",
        lambda p: statistics.median(t["import_s"] for t in p.traces)),
}


def layer_metrics(traces: list[dict]) -> dict:
    """Metric name -> value (None when a hook it needs is missing)."""
    if not traces:
        return dict.fromkeys(METRICS)
    p = PassSpans(traces)
    out = {}
    for name, (_unit, _better, hooks, _moves, fn) in METRICS.items():
        out[name] = None if p.missing.intersection(hooks) else float(fn(p))
    return out
