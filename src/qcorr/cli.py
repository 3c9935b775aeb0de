"""Command-line driver.

Subcommands::

    qcorr sweep --config cfg.json [--out table.csv]
    qcorr limits --chi 0.5 --n 8
    qcorr measure --state state.json --measure D

Exit codes: 0 on success, 2 on configuration errors (bad JSON, schema,
arguments, unreadable or unwritable files, inputs outside the domain), 3 on
numerical failures (invalid states, diagonalization problems).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .errors import QcorrError, SweepConfigError
from .statekit import BipartiteLayout, from_json
from .sweep import ALL_MEASURES, load_config, measure_state, render_csv, report_limits, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantum correlation measures of qudit-qubit states and XY spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a field sweep from a JSON configuration")
    p_sweep.add_argument("--config", required=True, help="path to the JSON sweep configuration")
    p_sweep.add_argument("--out", help="CSV output path (overrides the config)")

    p_limits = sub.add_parser(
        "limits", help="reference pair measures at the transverse factorizing field"
    )
    p_limits.add_argument("--chi", type=float, required=True, help="coupling anisotropy in (0, 1)")
    p_limits.add_argument("--n", type=int, required=True, help="number of sites")

    p_measure = sub.add_parser("measure", help="evaluate one measure on a serialized state")
    p_measure.add_argument("--state", required=True, help="path to a state JSON file")
    p_measure.add_argument("--measure", required=True, choices=ALL_MEASURES)
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg = replace(cfg, output=args.out)
    rows = run_sweep(cfg)
    if cfg.output:
        print(f"wrote {len(rows)} rows to {cfg.output}")
    else:
        sys.stdout.write(render_csv(cfg, rows))
    return EXIT_OK


def _cmd_limits(args) -> int:
    if not 0.0 < args.chi < 1.0:  # chi = 1 has no factorizing field
        raise SweepConfigError(f"chi must be in (0, 1), got {args.chi}")
    if args.n < 2:  # the side limits are closed forms, so any ring of 2 or more sites
        raise SweepConfigError(f"n must be at least 2, got {args.n}")
    print(json.dumps(report_limits(args.chi, args.n), indent=2))
    return EXIT_OK


def _cmd_measure(args) -> int:
    try:
        with open(args.state, "r", encoding="utf-8") as handle:
            rho = from_json(handle.read())
    except OSError as exc:
        raise SweepConfigError(f"cannot read state file: {exc}") from None
    except ValueError as exc:
        raise SweepConfigError(f"bad state file: {exc}") from None
    if rho.dim < 4 or rho.dim % 2 != 0:
        raise SweepConfigError(f"state dimension must be even and at least 4, got {rho.dim}")
    d_a = rho.dim // 2
    if d_a != 2 and args.measure in ("concurrence", "eof"):
        raise SweepConfigError(f"{args.measure} requires a two-qubit state")
    cell = measure_state(rho, args.measure, layout=BipartiteLayout(d_a, 2))
    print(
        json.dumps(
            {"measure": args.measure, "value": cell.value, "theta": cell.theta, "phi": cell.phi}
        )
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {"sweep": _cmd_sweep, "limits": _cmd_limits, "measure": _cmd_measure}
    try:
        return handlers[args.command](args)
    except SweepConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QcorrError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
