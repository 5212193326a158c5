"""Command-line interface.

Subcommands:

* ``cover``    — exact covering curve of a value set, written as CSV.
* ``bound``    — certified derivative-scale lower bound, written as JSON.
* ``witness``  — bound plus explicit staircase witness, cross-checked.
* ``extract``  — near-critical values of a sampled map, optionally checked
                 against the forward bound.
* ``classify`` — decay-rate dichotomy for power-law sequences.

Exit codes: 0 success (including an empty qualifying region), 2 malformed
input (unreadable files, bad descriptors, unknown maps, usage errors), 3
invalid parameters (c below its floor, say), an eta, gamma, witness scale or
sample beyond float range, or a size beyond memory, 4 witness falsified.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import sys

import numpy as np

from .bounds import (
    LambdaProfile,
    ProblemParams,
    classify_power_sequence,
    rigidity_bound,
)
from .covering import covering_counts, default_grid
from .critical import (
    SampledMap,
    empirical_forward_check,
    near_critical_set,
)
from .maps import UnknownMapError, available, builtin_map
from .sets import (
    DescriptorError,
    PowerSequence,
    descriptor_to_json_dict,
    load_descriptor,
)
from .util import atomic_write, dump_json, fit_loglog_slope, log_grid
# the imports' objects live until exit, so no collection, exit's own included, need walk them
gc.freeze()

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_PARAMS = 3
EXIT_FALSIFIED = 4


class _ArgumentParser(argparse.ArgumentParser):
    """Reads ``-1e-1`` as a negative number, where argparse's own pattern takes
    no exponent and reads an option; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def _parse_eps_spec(text: str) -> np.ndarray:
    """Parse ``min:max:points_per_decade`` into a decreasing grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "expected min:max:points_per_decade, e.g. 1e-6:1.0:200"
        )
    try:
        lo, hi, ppd = float(parts[0]), float(parts[1]), int(parts[2])
        return log_grid(lo, hi, ppd)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_set_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--set", dest="set_source",
        help="value-set descriptor: a JSON file path or an inline JSON object",
    )
    group.add_argument(
        "--power", type=float, metavar="ALPHA",
        help="shortcut for the power sequence descriptor with this exponent",
    )


def _add_param_arguments(parser: argparse.ArgumentParser, *,
                         need_dims: bool = True) -> None:
    if need_dims:
        parser.add_argument("--n", type=int, default=1, help="domain dimension")
        parser.add_argument("--m", type=int, default=1, help="target dimension")
    parser.add_argument("--d", type=int, default=1, help="smoothness order")
    parser.add_argument("--r", type=float, default=1.0, help="domain ball radius")
    parser.add_argument(
        "--c", type=float, default=None,
        help="entropy constant; defaults to d + 1 when n = 1, required for n >= 2 and "
             "at least max(2, (d - 2)**n) there",
    )
    parser.add_argument(
        "--lambda", dest="lambdas", type=float, nargs="+", default=None,
        metavar="L", help="near-criticality thresholds (default: all zero)",
    )


def _resolve_set(args):
    if args.power is not None:
        return PowerSequence(args.power)
    return load_descriptor(args.set_source)


def _resolve_profile(args, m: int) -> LambdaProfile:
    if args.lambdas is None:
        return LambdaProfile.zeros(m)
    profile = LambdaProfile(tuple(args.lambdas))
    if len(profile) != m:
        raise ValueError(f"expected {m} thresholds, got {len(profile)}")
    return profile


def _write_json(path, payload: dict) -> None:
    with atomic_write(path) as fh:
        dump_json(payload, fh)
        fh.write("\n")


def _write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _cmd_cover(args) -> int:
    s = _resolve_set(args)
    grid = args.eps if args.eps is not None else default_grid(s)
    counts = covering_counts(s, grid)
    rows = "".join(f"{e!r},{c}\n" for e, c in zip(grid.tolist(), counts.tolist()))
    _write_text(args.out, "epsilon,count\n" + rows)
    grow = counts > 1
    print(f"wrote {args.out} ({grid.size} resolutions)")
    if np.count_nonzero(grow) >= 2:
        slope = fit_loglog_slope(grid[grow], counts[grow])
        print(f"log-log slope over growing counts: {slope:.4f}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    s = _resolve_set(args)
    params = ProblemParams(n=args.n, m=args.m, d=args.d, r=args.r, c=args.c)
    profile = _resolve_profile(args, params.m)
    report = rigidity_bound(params, profile, s, args.eps)
    _write_json(args.out, report.to_json_dict())
    print(f"gamma = {report.gamma!r}")
    if report.epsilon0 is not None:
        print(f"epsilon0 = {report.epsilon0!r}")
    if report.gamma_closed_form is not None:
        print(f"gamma_closed_form = {report.gamma_closed_form!r}")
    print(f"wrote {args.out}")
    if report.gamma == 0.0:
        print(
            "warning: E empty -- no resolution beat the baseline, the bound is vacuous",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_witness(args) -> int:
    from .witness import sandwich_check

    # refused before the first write: a report that cannot land takes the
    # samples with it, and one file cannot hold both
    for path in (args.out, args.samples):
        if path is not None and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if args.samples is not None and os.path.realpath(args.out) == os.path.realpath(args.samples):
        raise OSError(f"--out and --samples name the same file {args.samples!r}")
    s = _resolve_set(args)
    params = ProblemParams(n=1, m=1, d=args.d, r=args.r, c=args.c)
    profile = _resolve_profile(args, params.m)
    result = sandwich_check(params, profile, s, args.eps)
    # all work ends before the first write, and both files land or neither
    samples = None if args.samples is None else result.witness.sample_csv_text()
    landed = False
    try:
        with atomic_write(args.out) as fh:
            dump_json(result.to_json_dict(), fh)
            fh.write("\n")
            if samples is not None:
                _write_text(args.samples, samples)
                landed = True
    except BaseException:
        if landed:  # the report failed to land after the samples did
            os.remove(args.samples)
        raise
    print(f"gamma = {result.gamma!r}")
    print(f"witness derivative scale = {result.witness_scale!r}")
    print(f"ok = {result.ok}")
    print(f"wrote {args.out}")
    if samples is not None:
        print(f"wrote {args.samples}")
    if not result.ok:
        print(
            "error: certified lower bound exceeds the witness's scale; "
            "this falsifies the bound implementation",
            file=sys.stderr,
        )
        return EXIT_FALSIFIED
    return EXIT_OK


def _cmd_extract(args) -> int:
    if args.map is not None:
        entry = builtin_map(args.map)
        r = 1.0 if args.r is None else args.r
        sm = SampledMap.from_callable(entry.func, entry.n, entry.m, r, args.divisions)
    else:
        for option, value in (("--divisions", args.divisions), ("--r", args.r)):
            if value is not None:
                print(f"error: the --grid file fixes {option}", file=sys.stderr)
                return EXIT_BAD_INPUT
        sm = SampledMap.from_grid_csv(args.grid)
    profile = _resolve_profile(args, sm.m)
    extraction = near_critical_set(sm, profile)
    if args.check:  # before the first write, so a refused check leaves no file
        params = ProblemParams(n=sm.n, m=sm.m, d=args.d, r=sm.radius, c=args.c)
        report = empirical_forward_check(sm, params, profile, args.eps, extraction)
        check_text = report.to_csv_text()
    set_path = f"{args.out_prefix}.set.json"
    if extraction.descriptor is None:
        _write_json(set_path, {"type": "finite", "points": []})
        print(
            "warning: no near-critical points found at these thresholds",
            file=sys.stderr,
        )
    else:
        _write_json(set_path, descriptor_to_json_dict(extraction.descriptor))
    print(f"extracted {extraction.count} near-critical point(s)")
    print(f"wrote {set_path}")
    if args.check:
        check_path = f"{args.out_prefix}.check.csv"
        _write_text(check_path, check_text)
        print(f"measured derivative scale = {report.derivative_scale!r}")
        if report.slope is not None:
            print(
                f"count slope {report.slope:.4f} "
                f"(forward-bound reference {report.slope_reference:.4f})"
            )
        print(f"forward bound held at every resolution: {report.all_passed}")
        print(f"wrote {check_path}")
        if report.flag is not None:
            print(f"warning: {report.flag}", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args) -> int:
    verdict = classify_power_sequence(args.alpha, args.d, args.n)
    print(f"{verdict.verdict}, exponent {verdict.exponent:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rigidity",
        description=(
            "Certified lower bounds on derivative scales from the covering "
            "geometry of near-critical values."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="exact covering curve of a value set")
    _add_set_arguments(cover)
    cover.add_argument("--eps", type=_parse_eps_spec, default=None,
                       help="resolution grid as min:max:points_per_decade")
    cover.add_argument("--out", default="covering_curve.csv")
    cover.set_defaults(handler=_cmd_cover)

    bound = sub.add_parser("bound", help="certified derivative-scale lower bound")
    _add_set_arguments(bound)
    _add_param_arguments(bound)
    bound.add_argument("--eps", type=_parse_eps_spec, default=None)
    bound.add_argument("--out", default="bound_report.json")
    bound.set_defaults(handler=_cmd_bound)

    witness = sub.add_parser(
        "witness", help="bound plus explicit witness, cross-checked"
    )
    _add_set_arguments(witness)
    _add_param_arguments(witness, need_dims=False)
    witness.add_argument("--eps", type=_parse_eps_spec, default=None)
    witness.add_argument("--out", default="sandwich_report.json")
    witness.add_argument("--samples", default=None,
                         help="also write an x,f,f1,..,fd sample CSV here")
    witness.set_defaults(handler=_cmd_witness)

    extract = sub.add_parser(
        "extract", help="near-critical values of a sampled map"
    )
    source = extract.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--map", choices=available(), help="built-in map name"
    )
    source.add_argument("--grid", help="grid-sample CSV (header x1,..,xn,f1,..,fm)")
    extract.add_argument("--divisions", type=int, default=None,
                         help="grid divisions per radius for built-in maps")
    _add_param_arguments(extract, need_dims=False)
    extract.add_argument("--check", action="store_true",
                         help="also run the empirical forward check")
    extract.add_argument("--eps", type=_parse_eps_spec, default=None,
                         help="resolution grid for --check")
    extract.add_argument("--out-prefix", default="extraction")
    extract.set_defaults(handler=_cmd_extract, r=None)  # --r is refused with --grid

    classify = sub.add_parser(
        "classify", help="decay-rate dichotomy for power sequences"
    )
    classify.add_argument("--alpha", type=float, required=True)
    classify.add_argument("--n", type=int, default=1, help="domain dimension")
    classify.add_argument("--d", type=int, default=1, help="smoothness order")
    classify.set_defaults(handler=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
        return EXIT_OK if code is None else int(code)
    # must precede the ValueError clause: all but OSError subclass ValueError
    except (DescriptorError, UnknownMapError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_PARAMS


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
