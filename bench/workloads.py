"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload calls qcorr only through its public entry points and splits a
pass into operations, the unit that ``attempted`` and ``failed`` count:

* ``sweep-n8`` - one operation per sweep point of the README configuration.
* ``chain-ed`` - one per sweep point of three chain sweeps, plus the
  ``parity_crossings`` scan.
* ``states`` - one per state of a seeded qudit-qubit ensemble, taken through
  every public measure call.  Single calls are bimodal (closed forms take
  under a millisecond, searches tens), so their median would sit on the
  edge between the two groups and jump from run to run.

Checks use the independent routes in :mod:`oracles`, never the fast path
under test.  A sweep point's latency runs from its ground-state solve to the
next one, captured by wrapping ``qcorr.sweep.ground_state``; the captured
ground states also feed the residual checks.
"""

from __future__ import annotations

import dataclasses
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

import oracles
import probe
import qcorr
from qcorr.errors import QcorrError

TOL_AT = 1e-9  # reported value against the oracle at its direction and on the grid
TOL_PURE = 1e-8  # pure-state reductions D = I1 = S(rho_A), I2 = C^2
# Wootters' route takes square roots of eigenvalues that vanish up to
# rounding on low-rank states, so it pins a mixed-state concurrence to ~1e-8.
TOL_WOOTTERS = 1e-6
ORACLE_GRID = oracles.hemisphere_grid(3.0)
CHI = 0.5
J_X = 1.0
H_ZS = J_X * np.sqrt(CHI)
CLOSED_MEASURES = probe.CLOSED_MEASURES
LIGHT = qcorr.SearchConfig(**probe.LIGHT)

# Oracle objective per minimized measure, as a function of (rho, d_a, block
# spectra), with the tolerance its value is certified to.  Entropies with
# q < 1 take w**q of eigenvalues that round to about 1e-16 instead of 0, so
# they are only sqrt(machine epsilon) conditioned on rank-deficient states.
TOL_SQRT = 1e-6
OBJECTIVES = {
    "D": (oracles.discord, TOL_AT),
    "I1": (oracles.deficit, TOL_AT),
    "T0.5": (partial(oracles.deficit, family="tsallis", q=0.5), TOL_SQRT),
    "T3": (partial(oracles.deficit, family="tsallis", q=3.0), TOL_AT),
    "R0.5": (partial(oracles.deficit, family="renyi", q=0.5), TOL_SQRT),
    "R2": (oracles.renyi2_deficit, TOL_AT),
    "IR2": (oracles.renyi2_deficit, TOL_AT),
    "I2": (oracles.quadratic_deficit, TOL_AT),
    "S2cond": (oracles.quadratic_conditional, TOL_AT),
}


@dataclass
class PassOutput:
    """Operations of one pass, in a fixed order, with what each produced."""

    ops: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


@contextmanager
def capture_calls(module_name: str, attr: str):
    """Record (start time, args, result) of every call made through module.attr."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = []

    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        calls.append((start, args, result))
        return result

    setattr(module, attr, wrapper)
    try:
        yield calls
    finally:
        setattr(module, attr, original)


# -- measure checks -----------------------------------------------------------


def check_measures(rho: np.ndarray, d_a: int, results: dict, psi=None) -> list[str]:
    """Certify named results on one state; returns failure messages.

    ``results`` maps a measure name to ``(value, k)``; ``k`` is the reported
    direction for optimized and closed-form measures and None otherwise.
    ``psi`` is the state vector when the state is pure.
    """
    bad = []
    grid = None
    for name, (value, k) in results.items():
        if name not in OBJECTIVES:
            continue
        objective, tol = OBJECTIVES[name]
        grid = grid or oracles.pinched_spectra(rho, d_a, ORACLE_GRID)
        at_k = float(objective(rho, d_a, oracles.pinched_spectra(rho, d_a, k))[0])
        grid_min = float(objective(rho, d_a, grid).min())
        if abs(value - at_k) > tol:
            bad.append(f"{name}={value!r} but oracle at reported k gives {at_k!r}")
        if value > grid_min + tol:
            bad.append(f"{name}={value!r} above oracle grid minimum {grid_min!r}")
        if value < -tol:
            bad.append(f"{name}={value!r} negative")
    if "D" in results and "I1" in results and results["D"][0] > results["I1"][0] + TOL_AT:
        bad.append(f"D={results['D'][0]!r} exceeds I1={results['I1'][0]!r}")
    rho_a, _ = oracles.marginals(rho, d_a)
    if psi is not None:
        s_a = oracles.entropy(rho_a)
        for name in ("D", "I1", "eof"):
            if name in results and abs(results[name][0] - s_a) > TOL_PURE:
                bad.append(f"pure state: {name}={results[name][0]!r} but S(rho_A)={s_a!r}")
    if "concurrence" in results:
        c_ref = oracles.pure_concurrence(psi) if psi is not None else oracles.concurrence(rho)
        c = results["concurrence"][0]
        if abs(c - c_ref) > (TOL_PURE if psi is not None else TOL_WOOTTERS):
            bad.append(f"concurrence={c!r} but Wootters gives {c_ref!r}")
        if psi is not None and "I2" in results and abs(results["I2"][0] - c_ref**2) > TOL_PURE:
            bad.append(f"pure state: I2={results['I2'][0]!r} but C^2={c_ref**2!r}")
        if "eof" in results and psi is None:
            eof_ref = oracles.eof_from_concurrence(c_ref)
            if abs(results["eof"][0] - eof_ref) > 10 * TOL_WOOTTERS:
                bad.append(f"eof={results['eof'][0]!r} but h(C) gives {eof_ref!r}")
    if "semi_axes" in results:
        axes = results["semi_axes"][0]
        if np.any(axes < -1e-12) or np.any(np.diff(axes) > 1e-12):
            bad.append(f"semi-axes {axes!r} not descending and nonnegative")
        s2_a = 2.0 * (1.0 - float(np.vdot(rho_a, rho_a).real))
        implied = s2_a - 2.0 * float(axes[0]) ** 2 / d_a
        if "S2cond" in results and abs(results["S2cond"][0] - implied) > TOL_AT:
            bad.append(f"S2cond={results['S2cond'][0]!r} but major semi-axis implies {implied!r}")
    return bad


# -- sweeps -------------------------------------------------------------------


def sweep_config(n_sites, variable, start, stop, points, separations, measures, **extra):
    payload = {
        "chain": {"n_sites": n_sites, "j_x": J_X, "chi": CHI},
        "sweep": {"variable": variable, "from": float(start), "to": float(stop), "points": points},
        "separations": list(separations),
        "measures": list(measures),
        **extra,
    }
    return qcorr.parse_config(payload)


def run_sweep_op(cfg, prefix: str, out: PassOutput) -> None:
    """Run one sweep and append one operation per point to ``out``."""
    values = np.linspace(cfg.start, cfg.stop, cfg.points)
    labels = [f"{prefix}:{cfg.variable}={v:.12g}" for v in values]
    out.ops.extend(labels)
    with capture_calls("qcorr.sweep", "ground_state") as calls:
        try:
            rows = qcorr.run_sweep(cfg)
            end = perf_counter()
        except QcorrError as exc:
            rows, end = None, perf_counter()
            out.errors.update((label, str(exc)) for label in labels)
    starts = [c[0] for c in calls] + [end]
    out.latencies.extend(b - a for a, b in zip(starts[:-1], starts[1:]))
    out.latencies.extend([float("nan")] * (len(labels) - len(calls)))
    if rows is None:
        out.data[prefix] = None
        return
    csv = qcorr.render_csv(cfg, rows)
    point_of = dict(zip(values, labels))
    lines: dict[str, list[str]] = {label: [] for label in labels}
    for row, line in zip(rows, csv.splitlines()[1:]):
        lines[point_of[row.variable_value]].append(line)
    out.fingerprints.update((label, "\n".join(ls)) for label, ls in lines.items())
    out.data[prefix] = {"cfg": cfg, "labels": labels, "rows": rows, "calls": calls}


def check_sweep(run: dict) -> dict[str, list[str]]:
    """Ground-state and pair-measure checks for every point of one sweep."""
    cfg, labels, rows, calls = run["cfg"], run["labels"], run["rows"], run["calls"]
    bad: dict[str, list[str]] = {}
    if len(calls) != cfg.points:
        return {label: [f"captured {len(calls)} ground states for {cfg.points} points"] for label in labels}
    row_iter = iter(rows)
    values = np.linspace(cfg.start, cfg.stop, cfg.points)
    for label, value, (_, args, gs) in zip(labels, values, calls):
        spec = args[0]
        msgs = bad.setdefault(label, [])
        states = gs.side_limits if gs.side_limits is not None else (gs,)
        expect_degenerate = cfg.variable == "h_z" and abs(spec.field[2] - H_ZS) < 1e-12
        if gs.degenerate != expect_degenerate:
            msgs.append(f"degenerate={gs.degenerate}, expected {expect_degenerate}")
        msgs.extend(check_ground_states(spec, states))
        for branch_state in states:
            row = next(row_iter)
            if row.variable_value != value:
                msgs.append(f"row at {row.variable_value!r} out of sweep order")
            msgs.extend(check_row(cfg, row, branch_state, spec))
    return {label: msgs for label, msgs in bad.items() if msgs}


def check_ground_states(spec, states) -> list[str]:
    ham = oracles.xy_hamiltonian(spec.n_sites, spec.j_x, spec.chi, spec.field)
    scale = oracles.hamiltonian_scale(ham)
    e_min = oracles.lowest_energy(ham)
    parity = oracles.parity_diagonal(spec.n_sites) if spec.transverse else None
    bad = []
    for st in states:
        v = np.asarray(st.vector)
        residual = float(np.linalg.norm(ham @ v - st.energy * v))
        if residual > 1e-8 * scale:
            bad.append(f"ground-state residual {residual:.3e} > 1e-8 * {scale:.3g}")
        if abs(st.energy - e_min) > 1e-8 * scale:
            bad.append(f"energy {st.energy!r} but Lanczos minimum is {e_min!r}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            bad.append("ground vector not normalized")
        if parity is not None and np.linalg.norm(parity * v - st.parity * v) > 1e-10:
            bad.append(f"vector not in the parity sector {st.parity}")
    return bad


def check_row(cfg, row, state, spec) -> list[str]:
    n = spec.n_sites
    bad = []
    if row.parity != state.parity_label:
        bad.append(f"row parity {row.parity} but state parity {state.parity_label}")
    for sep in cfg.separations:
        rho = oracles.pair_state(np.asarray(state.vector), n, 0, sep)
        results = {}
        for measure in cfg.measures:
            cell = row.cells[(sep, measure)]
            k = oracles.direction(cell.theta, cell.phi) if cell.theta is not None else None
            results[measure] = (cell.value, k)
        bad.extend(f"L{sep}: {msg}" for msg in check_measures(rho, 2, results))
        if row.branch and "concurrence" in results:
            c_even, c_odd = qcorr.concurrence_side_limits(cfg.chi, n)
            c_ref = c_even if row.branch == "+" else c_odd
            if abs(results["concurrence"][0] - c_ref) > 1e-9:
                bad.append(f"L{sep}: side-limit concurrence {results['concurrence'][0]!r} vs {c_ref!r}")
    return bad


def perturb_sweep(run: dict) -> dict:
    """Copy of a sweep run with the first side-limit concurrence raised by 1e-6."""
    rows = list(run["rows"])
    for i, row in enumerate(rows):
        if row.branch:
            key = (run["cfg"].separations[0], "concurrence")
            cells = dict(row.cells)
            cells[key] = dataclasses.replace(cells[key], value=cells[key].value + 1e-6)
            rows[i] = dataclasses.replace(row, cells=cells)
            return {**run, "rows": rows}
    raise ValueError("sweep has no side-limit row to perturb")


class SweepN8:
    """README sweep (N=8, chi=0.5, all measures, 60x120 grid) cut to 36 points."""

    name = "sweep-n8"
    POINTS = 36
    INDEX_ZS = 19  # grid index that lands exactly on h_zs
    direct_pairs = 0
    exact_repeat = True  # the CSV of every pass must match byte for byte

    def __init__(self, seed: int):
        u = np.random.default_rng(seed).uniform(0.0, 0.8)
        step = H_ZS / (self.INDEX_ZS + u)
        start = u * step
        self.cfg = sweep_config(
            8, "h_z", start, start + (self.POINTS - 1) * step, self.POINTS,
            [1, 2, 3, 4], qcorr.ALL_MEASURES, search={"grid_theta": 60, "grid_phi": 120},
        )

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        run_sweep_op(self.cfg, "n8", out)
        return out

    @staticmethod
    def check(out: PassOutput) -> dict[str, list[str]]:
        run = out.data["n8"]
        return check_sweep(run) if run is not None else {}

    def selfcheck(self, out: PassOutput) -> bool:
        return bool(check_sweep(perturb_sweep(out.data["n8"])))


class ChainEd:
    """Exact diagonalization: N=12 transverse, N=12/14 tilted, one N=8 crossing scan."""

    name = "chain-ed"
    direct_pairs = 0
    # Ten operations a pass, so two passes give op_tail_ms the ten samples
    # above its percentile that it needs.
    # The N=14 eigsh branch starts ARPACK from a random vector, so repeated
    # passes agree only to rounding; they are compared within TOL_AT.
    exact_repeat = False

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        start = rng.uniform(0.15, 0.35)  # the middle of three points is h_zs
        gamma12 = rng.uniform(20.0, 30.0)
        gamma14 = rng.uniform(5.0, 15.0)
        fixed = {"fixed": {"h_mag": 1.0}}
        self.sweeps = {
            "n12-transverse": sweep_config(12, "h_z", start, 2 * H_ZS - start, 3, range(1, 7), CLOSED_MEASURES),
            # gamma = 0 is transverse, so this sweep costs one full dense solve.
            "n12-gamma": sweep_config(12, "gamma", 0.0, gamma12, 2, range(1, 7), CLOSED_MEASURES, **fixed),
            "n14-tilted": sweep_config(14, "gamma", gamma14, gamma14 + 30.0, 4, range(1, 8), CLOSED_MEASURES, **fixed),
        }
        self.scan_spec = qcorr.SpinChainSpec(n_sites=8, j_x=J_X, chi=CHI)
        self.scan_max = rng.uniform(1.2, 1.3)

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        for prefix, cfg in self.sweeps.items():
            run_sweep_op(cfg, prefix, out)
        out.ops.append("parity_crossings")
        t0 = perf_counter()
        try:
            crossings = qcorr.parity_crossings(self.scan_spec, 0.0, self.scan_max)
            out.fingerprints["parity_crossings"] = repr(crossings.tolist())
        except QcorrError as exc:
            crossings = None
            out.errors["parity_crossings"] = str(exc)
        out.latencies.append(perf_counter() - t0)
        out.data["crossings"] = crossings
        return out

    def check(self, out: PassOutput) -> dict[str, list[str]]:
        bad = {}
        for prefix in self.sweeps:
            if out.data[prefix] is not None:
                bad.update(check_sweep(out.data[prefix]))
        if out.data["crossings"] is not None:
            msgs = self.check_crossings(out.data["crossings"])
            if msgs:
                bad["parity_crossings"] = msgs
        return bad

    def check_crossings(self, crossings) -> list[str]:
        spec = self.scan_spec
        n = spec.n_sites
        bad = []
        if len(crossings) != n // 2:
            bad.append(f"{len(crossings)} crossings, expected N/2 = {n // 2}")
        if len(crossings) and abs(crossings[-1] - H_ZS) > 1e-8:
            bad.append(f"last crossing {crossings[-1]!r} is not h_zs = {H_ZS!r}")
        parity = oracles.parity_diagonal(n)

        def splitting(h):
            ham = oracles.xy_hamiltonian(n, spec.j_x, spec.chi, (0.0, 0.0, h)).toarray()
            energies = [np.linalg.eigvalsh(ham[np.ix_(parity == s, parity == s)])[0] for s in (1, -1)]
            return energies[0] - energies[1]

        for h in crossings:
            if splitting(h - 1e-7) * splitting(h + 1e-7) >= 0.0:
                bad.append(f"no sign change of the parity splitting around {h!r}")
        return bad

    def selfcheck(self, out: PassOutput) -> bool:
        return bool(check_sweep(perturb_sweep(out.data["n12-transverse"])))


def _ginibre(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _pure(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class States:
    """Seeded qudit-qubit ensemble through every state-level measure, coarse search."""

    name = "states"
    KINDS = ("mixed", "pure", "near-pure-b")
    PER_KIND = 12
    direct_pairs = 2 * len(KINDS) * PER_KIND
    exact_repeat = True

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.states = []
        for d_a in (2, 3):
            for kind in self.KINDS:
                for _ in range(self.PER_KIND):
                    psi = None
                    if kind == "mixed":
                        mat = _ginibre(rng, 2 * d_a)
                    elif kind == "pure":
                        psi = _pure(rng, 2 * d_a)
                        mat = np.outer(psi, psi.conj())
                    else:
                        eps = 10.0 ** rng.uniform(-7.0, -3.0)
                        b = _pure(rng, 2)
                        product = np.kron(_ginibre(rng, d_a), np.outer(b, b.conj()))
                        mat = (1.0 - eps) * product + eps * _ginibre(rng, 2 * d_a)
                    self.states.append((d_a, psi, qcorr.make_density(mat)))
        self.tsallis = {q: qcorr.tsallis(q) for q in (0.5, 3.0)}

    def calls(self, d_a, rho):
        lay = qcorr.BipartiteLayout(d_a, 2)
        calls = [
            ("D", lambda: qcorr.discord(rho, lay, LIGHT)),
            ("I1", lambda: qcorr.deficit(rho, lay, qcorr.VON_NEUMANN, LIGHT)),
            ("T0.5", lambda: qcorr.deficit(rho, lay, self.tsallis[0.5], LIGHT)),
            ("T3", lambda: qcorr.deficit(rho, lay, self.tsallis[3.0], LIGHT)),
            ("R0.5", lambda: qcorr.renyi_deficit(rho, lay, 0.5, LIGHT)),
            ("R2", lambda: qcorr.renyi_deficit(rho, lay, 2.0, LIGHT)),
            ("S2cond", lambda: qcorr.quadratic_closed_form(rho, lay)),
            ("I2", lambda: qcorr.quadratic_deficit_closed(rho, lay)),
            ("semi_axes", lambda: qcorr.ellipsoid(rho, lay)),
        ]
        if d_a == 2:
            calls.append(("eof", lambda: qcorr.entanglement_of_formation(rho)))
        return calls

    def run_pass(self) -> PassOutput:
        out = PassOutput()
        results = []
        for i, (d_a, _, rho) in enumerate(self.states):
            label = f"s{i}"
            out.ops.append(label)
            per_state, errors = {}, []
            t0 = perf_counter()
            for name, call in self.calls(d_a, rho):
                try:
                    per_state[name] = call()
                except QcorrError as exc:
                    errors.append(f"{name}: {exc}")
            out.latencies.append(perf_counter() - t0)
            out.fingerprints[label] = "\n".join(
                f"{name} {_fingerprint(res)}" for name, res in per_state.items()
            )
            if errors:
                out.errors[label] = "; ".join(errors)
            results.append(per_state)
        out.data["results"] = results
        return out

    def _check_state(self, i: int, per_state: dict) -> list[str]:
        d_a, psi, rho = self.states[i]
        flat = {}
        for name, res in per_state.items():
            if name == "semi_axes":
                flat[name] = (np.asarray(res.semi_axes), None)
            elif name == "eof":
                flat["concurrence"] = (res.concurrence, None)
                flat["eof"] = (res.eof, None)
            else:
                flat[name] = (res.value, np.asarray(res.k_star.k))
        return check_measures(rho.entries, d_a, flat, psi)

    def check(self, out: PassOutput) -> dict[str, list[str]]:
        bad = {}
        for i, per_state in enumerate(out.data["results"]):
            msgs = self._check_state(i, per_state)
            if msgs:
                bad[f"s{i}"] = msgs
        return bad

    def selfcheck(self, out: PassOutput) -> bool:
        per_state = dict(out.data["results"][0])
        per_state["D"] = dataclasses.replace(per_state["D"], value=per_state["D"].value + 1e-6)
        return bool(self._check_state(0, per_state))


def _fingerprint(res) -> str:
    if hasattr(res, "semi_axes"):
        return repr((res.semi_axes.tolist(), res.axis_dirs_b.tolist()))
    if hasattr(res, "eof"):
        return repr((res.concurrence, res.eof))
    return repr((res.value, res.k_star.k.tolist()))


WORKLOADS = {cls.name: cls for cls in (SweepN8, ChainEd, States)}
