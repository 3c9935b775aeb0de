"""Field-sweep driver: scan a chain, compute pair measures, emit CSV tables.

A sweep walks either the transverse field h_z or the field tilt gamma (in
degrees, at fixed magnitude), diagonalizes the chain at every point, reduces
the ground state to spin pairs at the requested separations and evaluates
the selected correlation measures with their minimizing measurement angles.
Points that land on a parity crossing emit the two definite-parity side
limits as sub-rows tagged "+" and "-" instead of an arbitrary superposition.

Output is a deterministic CSV: re-running the same configuration produces a
byte-identical file.  Columns are named ``L{n}_{measure}`` with
``_theta`` / ``_phi`` companions for measures defined through an optimized
measurement; angles are reported in radians with 12 significant digits.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from ._pairstate import pair_context
from .deficit import _i2_row, _renyi_from
from .discord import SearchConfig, _optimize, _s2_closed
from .entropy import QUADRATIC, VON_NEUMANN, entanglement_of_formation
from .errors import QcorrError, SweepConfigError
from .spinchain import (
    MAX_SITES,
    GroundState,
    PairObservables,
    SpinChainSpec,
    concurrence_side_limits,
    factorizing_field,
    ground_state,
    reduced_pair,
    rho_theta,
)
from .statekit import BipartiteLayout, DensityMatrix

TWO_QUBIT = BipartiteLayout(2, 2)

#: Measures with a minimizing-measurement direction attached.
ANGLED_MEASURES = ("D", "I1", "I2", "IR2", "S2cond")
#: The ``_optimize`` job of a measure: D and I1 are searched, as the discord
#: ("D") and the von Neumann deficit ("I"); I2 and IR2 share the I2 closed form.
_JOBS = {"D": ("D", VON_NEUMANN), "I1": ("I", VON_NEUMANN)}
_JOBS.update(dict.fromkeys(("I2", "IR2"), (_i2_row, QUADRATIC)))
ALL_MEASURES = ("D", "I1", "I2", "IR2", "concurrence", "eof", "S2cond")

SWEEP_VARIABLES = ("h_z", "gamma")


@dataclass(frozen=True, slots=True)
class MeasureCell:
    """One (separation, measure) entry of a sweep row."""

    value: float
    theta: float | None = None
    phi: float | None = None


@dataclass(frozen=True, slots=True)
class SweepRow:
    """All measures of one sweep point (or one side limit of a crossing)."""

    variable_value: float
    branch: str  # "", "+" or "-"
    parity: str
    degenerate: bool
    cells: dict


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description; see :func:`parse_config` for the schema."""

    n_sites: int
    j_x: float
    chi: float
    variable: str
    start: float
    stop: float
    points: int
    h_mag: float | None
    separations: tuple[int, ...]
    measures: tuple[str, ...]
    search: SearchConfig
    output: str | None


def _require_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise SweepConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise SweepConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(value, where: str) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are refused."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise SweepConfigError(f"{where} must be a finite number, got {value!r}")


def _integer(value, where: str) -> int:
    """A JSON number with an integral value, such as 8 or 8.0; booleans are refused."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise SweepConfigError(f"{where} must be an integer, got {value!r}")


def _no_repeats(items: tuple, where: str) -> None:
    if len(set(items)) != len(items):
        raise SweepConfigError(f"{where} must not repeat an entry, got {list(items)}")


def parse_config(payload: dict) -> SweepConfig:
    """Build a :class:`SweepConfig` from a JSON-style dict.

    Schema (unknown keys are rejected at every level)::

        {
          "chain":  {"n_sites": 8, "j_x": 1.0, "chi": 0.5},
          "sweep":  {"variable": "h_z" | "gamma", "from": 0.0, "to": 1.25,
                      "points": 200},
          "fixed":  {"h_mag": 1.0},            # required for gamma sweeps
          "separations": [1, 2, 3, 4],          # optional, default 1..N/2
          "measures": ["D", "I1", ...],         # optional, default all
          "search": {"grid_theta": 60, ...},    # optional
          "output": "sweep.csv"                 # optional
        }

    ``gamma`` is the field angle from the z axis in degrees.  Numbers must
    be finite JSON numbers, counts and separations integral, and the
    ``separations`` and ``measures`` lists free of repeats.
    """
    if not isinstance(payload, dict):
        raise SweepConfigError("configuration must be a JSON object")
    _require_keys(
        payload, {"chain", "sweep", "fixed", "separations", "measures", "search", "output"}, "root"
    )
    try:
        chain = payload["chain"]
        sweep = payload["sweep"]
    except KeyError as exc:
        raise SweepConfigError(f"missing required section {exc}") from None
    _require_keys(chain, {"n_sites", "j_x", "chi"}, "chain")
    _require_keys(sweep, {"variable", "from", "to", "points"}, "sweep")
    try:
        n_sites = _integer(chain["n_sites"], "chain.n_sites")
        j_x = _number(chain.get("j_x", 1.0), "chain.j_x")
        chi = _number(chain["chi"], "chain.chi")
        variable = sweep["variable"]
        start = _number(sweep["from"], "sweep.from")
        stop = _number(sweep["to"], "sweep.to")
        points = _integer(sweep["points"], "sweep.points")
    except KeyError as exc:
        raise SweepConfigError(f"bad chain/sweep section: missing {exc}") from None
    if not 2 <= n_sites <= MAX_SITES:
        raise SweepConfigError(f"n_sites must be in 2..{MAX_SITES}, got {n_sites}")
    if variable not in SWEEP_VARIABLES:
        raise SweepConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}")
    if points < 2:
        raise SweepConfigError("sweep needs at least 2 points")
    if not start < stop:
        raise SweepConfigError("sweep requires from < to")

    fixed = payload.get("fixed", {})
    _require_keys(fixed, {"h_mag"}, "fixed")
    h_mag = _number(fixed["h_mag"], "fixed.h_mag") if "h_mag" in fixed else None
    if variable == "gamma" and h_mag is None:
        raise SweepConfigError("gamma sweeps require fixed.h_mag")

    for key in ("separations", "measures"):
        if not isinstance(payload.get(key, []), list):
            raise SweepConfigError(f"{key} must be a JSON list, got {payload[key]!r}")
    separations = tuple(
        _integer(s, "separations entry")
        for s in payload.get("separations", range(1, n_sites // 2 + 1))
    )
    if not separations:
        raise SweepConfigError("separations must be nonempty")
    for sep in separations:
        if not 1 <= sep <= n_sites // 2:
            raise SweepConfigError(f"separation {sep} outside 1..{n_sites // 2}")
    _no_repeats(separations, "separations")

    measures = tuple(payload.get("measures", ALL_MEASURES))
    for m in measures:
        if m not in ALL_MEASURES:
            raise SweepConfigError(f"unknown measure {m!r}; choose from {ALL_MEASURES}")
    _no_repeats(measures, "measures")

    search_raw = payload.get("search", {})
    _require_keys(
        search_raw, {"grid_theta", "grid_phi", "refine_tol", "refine_max_iter"}, "search"
    )
    try:
        search = SearchConfig(
            **{
                key: (_number if key == "refine_tol" else _integer)(value, f"search.{key}")
                for key, value in search_raw.items()
            }
        )
    except ValueError as exc:
        raise SweepConfigError(f"bad search section: {exc}") from None

    output = payload.get("output")
    if output is not None and not isinstance(output, str):
        raise SweepConfigError(f"output must be a file path, got {output!r}")

    return SweepConfig(
        n_sites=n_sites,
        j_x=j_x,
        chi=chi,
        variable=variable,
        start=start,
        stop=stop,
        points=points,
        h_mag=h_mag,
        separations=separations,
        measures=measures,
        search=search,
        output=output,
    )


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SweepConfigError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON or UTF-8
        raise SweepConfigError(f"{path} is not UTF-8 JSON: {exc}") from None
    return parse_config(payload)


def _spec_at(cfg: SweepConfig, value: float) -> SpinChainSpec:
    if cfg.variable == "h_z":
        field_vec = (0.0, 0.0, value)
    else:
        gamma = np.deg2rad(value)
        field_vec = (cfg.h_mag * float(np.sin(gamma)), 0.0, cfg.h_mag * float(np.cos(gamma)))
    return SpinChainSpec(n_sites=cfg.n_sites, j_x=cfg.j_x, chi=cfg.chi, field=field_vec)


def measure_state(
    rho: DensityMatrix, measure: str, layout: BipartiteLayout = TWO_QUBIT
) -> MeasureCell:
    """Evaluate one named measure on a qudit-qubit state."""
    if measure not in ALL_MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    return _pair_cells([rho], (measure,), None, layout)[0][measure]


def _pair_cells(pairs, measures, search: SearchConfig | None, layout=TWO_QUBIT) -> list[dict]:
    """Requested measures of several pairs of one layout, as one batch.

    D, I1 and I2 of all pairs are jobs of one :func:`qcorr.discord._optimize`
    call: the searches run as one stack and the residuals come from one call.
    IR2 takes I2's result, S2cond reads the context's Bloch decomposition, and
    concurrence and eof share one EoF evaluation.
    """
    ctxs = [pair_context(p, layout) for p in pairs]
    kinds = list(dict.fromkeys(_JOBS[m] for m in measures if m in _JOBS))
    done = iter(_optimize([(ctx, *kind) for ctx in ctxs for kind in kinds], search))
    cells = []
    for pair, ctx in zip(pairs, ctxs):
        found = {kind: next(done) for kind in kinds}
        res = {m: found[_JOBS[m]] for m in measures if m in _JOBS}
        ent = entanglement_of_formation(pair) if {"concurrence", "eof"} & set(measures) else None
        if "S2cond" in measures:
            res["S2cond"] = _s2_closed(ctx)
        if "IR2" in measures:
            res["IR2"] = _renyi_from(res["IR2"], ctx.joint_spectrum, 2.0)
        cells.append({
            m: MeasureCell(res[m].value, res[m].theta, res[m].phi)
            if m in res else MeasureCell(getattr(ent, m))
            for m in measures
        })
    return cells


def pair_observables(
    gs: GroundState,
    i: int,
    j: int,
    measures: tuple[str, ...] = ALL_MEASURES,
) -> PairObservables:
    """Reduced pair state of a ground state with all requested measures."""
    pair = reduced_pair(gs, i, j)
    cells = _pair_cells([pair], measures, None)[0]
    return PairObservables(rho_pair=pair, separation=j - i, measures=cells)


def _rows_for_point(cfg: SweepConfig, value: float, keys) -> list[SweepRow]:
    try:
        gs = ground_state(_spec_at(cfg, value))
        if gs.degenerate and gs.side_limits is not None:
            branches = [("+", gs.side_limits[0]), ("-", gs.side_limits[1])]
        else:
            branches = [("", gs)]
        pairs = [reduced_pair(state, 0, sep) for _, state in branches for sep in cfg.separations]
        found = _pair_cells(pairs, cfg.measures, cfg.search)
    except QcorrError as exc:
        # abort with the offending field value attached
        raise type(exc)(f"sweep point {cfg.variable} = {value:g}: {exc}") from exc
    cells = iter([cell for pair_cells in found for cell in pair_cells.values()])
    return [
        SweepRow(value, branch, state.parity_label, gs.degenerate, {k: next(cells) for k in keys})
        for branch, state in branches
    ]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def render_csv(cfg: SweepConfig, rows: list[SweepRow]) -> str:
    header = [cfg.variable, "branch", "parity", "degenerate"]
    for sep in cfg.separations:
        for measure in cfg.measures:
            header.append(f"L{sep}_{measure}")
            if measure in ANGLED_MEASURES:
                header.append(f"L{sep}_{measure}_theta")
                header.append(f"L{sep}_{measure}_phi")
    lines = [",".join(header)]
    for row in rows:
        parts = [_fmt(row.variable_value), row.branch, row.parity, str(int(row.degenerate))]
        for sep in cfg.separations:
            for measure in cfg.measures:
                cell = row.cells[(sep, measure)]
                parts.append(_fmt(cell.value))
                if measure in ANGLED_MEASURES:
                    parts.append(_fmt(cell.theta))
                    parts.append(_fmt(cell.phi))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Run the sweep, optionally writing the CSV declared in the config.

    The output is opened before the first point is solved, so an unwritable
    path fails at once, and rewritten only after every point has succeeded.
    """
    try:
        handle = open(cfg.output, "a", encoding="utf-8") if cfg.output else nullcontext()
    except OSError as exc:
        raise SweepConfigError(f"cannot write output {cfg.output}: {exc}") from None
    with handle:
        values = np.linspace(cfg.start, cfg.stop, cfg.points)
        keys = [(sep, m) for sep in cfg.separations for m in cfg.measures]  # shared by every row
        rows = [row for v in values for row in _rows_for_point(cfg, float(v), keys)]
        if cfg.output:
            handle.truncate(0)  # "a" left an existing file intact until now
            handle.write(render_csv(cfg, rows))
    return rows


def report_limits(chi: float, n_sites: int) -> dict:
    """Reference values of the pair measures at the transverse factorizing field.

    Computes the overlap-neglected common pair state and the two exact
    definite-parity side limits, and evaluates discord, the one-way and
    quadratic deficits and the concurrences on them with this library's own
    optimizers.  Returned as a plain dict, ready for JSON output.
    """
    fac = factorizing_field(chi, 1.0)
    mixed, (side_plus, side_minus) = rho_theta(fac.theta, n_sites)
    c_plus, c_minus = concurrence_side_limits(chi, n_sites)
    cells = _pair_cells([mixed, side_plus, side_minus], ("D", "I1", "I2", "concurrence", "eof"), None)
    mix, plus, minus = (
        {m: asdict(c) if m in ANGLED_MEASURES else c.value for m, c in state.items()} for state in cells
    )
    return {
        "chi": chi,
        "n_sites": n_sites,
        "theta": fac.theta,
        "h_zs": fac.h_zs,
        "rho_theta": mix,
        "side_plus": {**plus, "concurrence_formula": c_plus},
        "side_minus": {**minus, "concurrence_formula": c_minus},
    }
