"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Oracles are independent routes: grids evaluate the
defining formulas through explicit projector contractions, never the closed
forms they certify.
"""

import time

import numpy as np

from helpers import (
    degree_grid,
    degree_grid_minima,
    local_zoom,
    majorizes,
    oracle_quadratic_conditional,
    oracle_quadratic_deficit,
    oracle_vn_conditional,
    random_density,
    random_direction,
    random_pure,
    random_rank_one_povm,
    random_semi_quantum,
    vn_entropy_bits,
)
from qcorr.deficit import deficit, quadratic_deficit_closed, renyi_deficit
from qcorr.discord import SearchConfig, discord, quadratic_closed_form
from qcorr.entropy import (
    QUADRATIC,
    VON_NEUMANN,
    concurrence,
    entanglement_of_formation,
    entropy,
    tsallis,
)
from qcorr.measurement import QubitPOVM, conditional_entropy, unread_state
from qcorr.spinchain import (
    SpinChainSpec,
    concurrence_side_limits,
    ground_state,
    parity_crossings,
    reduced_pair,
    rho_theta,
)
from qcorr.statekit import BipartiteLayout, partial_trace

LAY22 = BipartiteLayout(2, 2)
LIGHT = SearchConfig(grid_theta=16, grid_phi=32, refine_tol=1e-9, refine_max_iter=80)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_pure_state_reductions():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_d = worst_i1 = worst_i2 = 0.0
    for _ in range(200):
        rho = random_pure(rng, 4)
        s_a = entropy(partial_trace(rho, LAY22, "A"), VON_NEUMANN)
        worst_d = max(worst_d, abs(discord(rho, LAY22).value - s_a))
        worst_i1 = max(worst_i1, abs(deficit(rho, LAY22, VON_NEUMANN).value - s_a))
        c = concurrence(rho)
        worst_i2 = max(worst_i2, abs(quadratic_deficit_closed(rho, LAY22).value - c * c))
    elapsed = time.time() - t0
    ok = worst_d <= 1e-8 and worst_i1 <= 1e-8 and worst_i2 <= 1e-8 and elapsed < 30.0
    report(
        1,
        ok,
        f"200 pure states: |D-S|<={worst_d:.2e} |I1-S|<={worst_i1:.2e} "
        f"|I2-C^2|<={worst_i2:.2e} in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_closed_forms_vs_oracle():
    rng = np.random.default_rng(102)
    t0 = time.time()
    grid = degree_grid(1, 1)
    worst_cond = worst_def = 0.0
    bound_ok = True
    for trial in range(200):
        d_a = 2 if trial % 2 == 0 else 3
        lay = BipartiteLayout(d_a, 2)
        rho = random_density(rng, 2 * d_a)

        closed = quadratic_closed_form(rho, lay)
        values = oracle_quadratic_conditional(rho, lay, grid)
        bound_ok &= bool(values.min() >= closed.value - 1e-9)
        i0 = int(np.argmin(values))
        f = lambda ks: oracle_quadratic_conditional(rho, lay, ks)
        _, refined = local_zoom(f, grid[i0], float(values[i0]))
        worst_cond = max(worst_cond, abs(refined - closed.value))

        closed_d = quadratic_deficit_closed(rho, lay)
        dvalues = oracle_quadratic_deficit(rho, lay, grid)
        bound_ok &= bool(dvalues.min() >= closed_d.value - 1e-9)
        j0 = int(np.argmin(dvalues))
        g = lambda ks: oracle_quadratic_deficit(rho, lay, ks)
        _, refined_d = local_zoom(g, grid[j0], float(dvalues[j0]))
        worst_def = max(worst_def, abs(refined_d - closed_d.value))
    elapsed = time.time() - t0
    ok = worst_cond <= 1e-6 and worst_def <= 1e-6 and bound_ok and elapsed < 120.0
    report(
        2,
        ok,
        f"200 states (d_A=2,3): |closed-oracle| cond<={worst_cond:.2e} "
        f"deficit<={worst_def:.2e}, grid bound {'held' if bound_ok else 'VIOLATED'} "
        f"in {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_03_nonnegativity_and_zeros():
    rng = np.random.default_rng(103)
    families = [VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(3.0)]
    min_seen = np.inf
    for _ in range(500):
        rho = random_density(rng, 4)
        min_seen = min(min_seen, discord(rho, LAY22, LIGHT).value)
        for fam in families:
            min_seen = min(min_seen, deficit(rho, LAY22, fam, LIGHT).value)
        min_seen = min(min_seen, quadratic_deficit_closed(rho, LAY22).value)
        for q in (0.5, 2.0, 3.0):
            min_seen = min(min_seen, renyi_deficit(rho, LAY22, q, LIGHT).value)
    worst_zero = 0.0
    for _ in range(60):
        rho, _ = random_semi_quantum(rng, 2)
        worst_zero = max(worst_zero, discord(rho, LAY22).value)
        worst_zero = max(worst_zero, deficit(rho, LAY22, VON_NEUMANN).value)
        worst_zero = max(worst_zero, quadratic_deficit_closed(rho, LAY22).value)
        for q in (0.5, 2.0, 3.0):
            worst_zero = max(worst_zero, renyi_deficit(rho, LAY22, q).value)
    ok = min_seen >= 0.0 and worst_zero <= 1e-8
    report(
        3,
        ok,
        f"500 random states: min measure {min_seen:.2e} (>=0); "
        f"60 measured-form states: max measure {worst_zero:.2e} (<=1e-8)",
    )


def test_criterion_04_majorization():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(500):
        rho = random_density(rng, 4)
        pinched = unread_state(rho, LAY22, random_direction(rng))
        ok &= majorizes(np.linalg.eigvalsh(rho.entries), np.linalg.eigvalsh(pinched.entries))
    report(4, ok, "500 random (state, direction) pairs: pinched spectrum majorized")


def test_criterion_05_parity_crossings():
    t0 = time.time()
    spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5)
    h_c = 0.5 * (1.0 + 0.5)
    crossings = parity_crossings(spec, 1e-4, h_c, points=2000)
    elapsed = time.time() - t0
    h_zs = np.sqrt(0.5)
    last_err = abs(crossings[-1] - h_zs) if len(crossings) else np.inf
    ok = len(crossings) == 4 and last_err <= 1e-4 and elapsed < 60.0
    report(
        5,
        ok,
        f"N=8 chi=0.5: {len(crossings)} crossings (want 4), last at "
        f"{crossings[-1]:.6f} vs {h_zs:.6f} (err {last_err:.1e}) in {elapsed:.1f}s",
    )


def test_criterion_06_factorization_side_limits():
    h_zs = np.sqrt(0.5)
    gs = ground_state(SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, h_zs)))
    theta = np.arccos(np.sqrt(0.5))
    _, (ref_plus, ref_minus) = rho_theta(theta, 8)
    refs = {1: ref_plus, -1: ref_minus}
    c_formula = dict(zip((1, -1), concurrence_side_limits(0.5, 8)))
    spread = ref_err = conc_err = 0.0
    for side in gs.side_limits:
        ref = refs[side.parity]
        d_ref = discord(ref, LAY22).value
        i1_ref = deficit(ref, LAY22, VON_NEUMANN).value
        d_vals, i1_vals = [], []
        for sep in (1, 2, 3, 4):
            pair = reduced_pair(side, 0, sep)
            d_vals.append(discord(pair, LAY22).value)
            i1_vals.append(deficit(pair, LAY22, VON_NEUMANN).value)
            conc_err = max(conc_err, abs(concurrence(pair) - c_formula[side.parity]))
        spread = max(spread, np.ptp(d_vals), np.ptp(i1_vals))
        ref_err = max(
            ref_err,
            max(abs(v - d_ref) for v in d_vals),
            max(abs(v - i1_ref) for v in i1_vals),
        )
    ok = gs.degenerate and spread <= 1e-6 and ref_err <= 1e-6 and conc_err <= 1e-6
    report(
        6,
        ok,
        f"side limits: L-spread<={spread:.2e}, vs-reference<={ref_err:.2e}, "
        f"concurrence vs formula<={conc_err:.2e} (all <=1e-6)",
    )


def test_criterion_07_transverse_measurement_transitions():
    fields = np.linspace(0.0, 1.25, 201)
    theta_d, theta_i1, k_i2 = [], [], []
    for h_z in fields:
        gs = ground_state(SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, h_z)))
        state = gs.side_limits[0] if (gs.degenerate and gs.side_limits) else gs
        pair = reduced_pair(state, 0, 1)
        theta_d.append(discord(pair, LAY22).theta)
        theta_i1.append(deficit(pair, LAY22, VON_NEUMANN).theta)
        k_i2.append(quadratic_deficit_closed(pair, LAY22).k_star.k)
    theta_d = np.array(theta_d)
    theta_i1 = np.array(theta_i1)
    k_i2 = np.array(k_i2)

    d_dev = np.abs(theta_d - np.pi / 2).max()
    z_like = (np.abs(k_i2[:, 2]) >= np.abs(k_i2[:, 0])).astype(int)
    n_jumps = int(np.abs(np.diff(z_like)).sum())
    jump_at = fields[int(np.argmax(np.diff(z_like) != 0))] if n_jumps else np.nan
    window = (fields >= jump_at - 0.15) & (fields <= jump_at + 0.15)
    intermediate = (theta_i1 > 0.02) & (theta_i1 < np.pi / 2 - 0.02) & window
    n_inter = int(intermediate.sum())
    ok = d_dev <= 1e-3 and n_jumps == 1 and n_inter >= 5
    report(
        7,
        ok,
        f"discord theta dev {d_dev:.1e} (<=1e-3 rad); I2 x->z jumps {n_jumps} (want 1, at "
        f"h_z~{jump_at:.3f}); I1 intermediate angles near jump {n_inter} (>=5)",
    )


def _pair_at_tilt(g_deg):
    """Nearest-neighbour pair of the N=8 chain in a unit field tilted by g_deg."""
    g = np.deg2rad(g_deg)
    spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(np.sin(g), 0.0, np.cos(g)))
    return reduced_pair(ground_state(spec), 0, 1)


def _locate_flip(gammas, k_y, k_y_at, tol=1e-3):
    """Bisect the first in-plane -> y-axis jump of a minimizer, in degrees.

    The bracket is the sweep's first on-axis point and the last in-plane
    point before it.  NaN if there is no such bracket or if a midpoint is
    neither in the xz plane nor on the y axis, i.e. the flip is not a jump.
    """
    on_y = np.flatnonzero(k_y > 0.999)
    if not on_y.size:
        return np.nan
    before = np.flatnonzero(k_y[: on_y[0]] < 1e-3)
    if not before.size:
        return np.nan
    lo, hi = gammas[before[-1]], gammas[on_y[0]]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ky = k_y_at(mid)
        if ky < 1e-3:
            lo = mid
        elif ky > 0.999:
            hi = mid
        else:
            return np.nan
    return 0.5 * (lo + hi)


def _angle(k1, k2):
    return float(np.arccos(min(1.0, abs(float(k1 @ k2)))))


def test_criterion_08_nontransverse_factorization():
    gammas = np.linspace(0.0, 90.0, 91)
    pairs, d_res, s2_res = [], [], []
    zero_point = {}
    for g_deg in gammas:
        pair = _pair_at_tilt(g_deg)
        pairs.append(pair)
        d_res.append(discord(pair, LAY22))
        s2_res.append(quadratic_closed_form(pair, LAY22))
        if g_deg == 15.0:
            zero_point = {
                "D": d_res[-1].value,
                "I1": deficit(pair, LAY22, VON_NEUMANN).value,
                "Ef": entanglement_of_formation(pair).eof,
            }
    ky_d = np.array([abs(d.k_star.k[1]) for d in d_res])
    ky_2 = np.array([abs(s.k_star.k[1]) for s in s2_res])
    d_vals = np.array([d.value for d in d_res])
    angle_gap = np.array([_angle(d.k_star.k, s.k_star.k) for d, s in zip(d_res, s2_res)])

    zeros_ok = max(zero_point.values()) <= 1e-7
    in_plane = ky_d < 1e-3
    on_y = ky_d > 0.999
    transition_ok = bool(in_plane[:1].all() and on_y.any() and in_plane.any())

    # Both minimizers jump from the xz plane to the y axis, but not at the
    # same tilt: the quadratic closed form first, the discord about 1.7 deg
    # later.  Between the two flips S(A|B_k) has two competing local minima,
    # one in the xz plane and one on the y axis, within 1.2e-5 of each
    # other; the discord takes the lower one and the quadratic objective
    # ranks them the other way, so there the two directions are orthogonal.  The clause
    # therefore (1) locates both flips and bounds their distance, (2) asks
    # for proximity everywhere outside the window between them, and (3)
    # inside it certifies with an independent oracle that the discord
    # direction is the global minimum and the quadratic one the runner-up.
    g2 = _locate_flip(
        gammas, ky_2, lambda g: abs(quadratic_closed_form(_pair_at_tilt(g), LAY22).k_star.k[1])
    )
    g_d = _locate_flip(
        gammas, ky_d, lambda g: abs(discord(_pair_at_tilt(g), LAY22).k_star.k[1])
    )
    flip_ok = bool(abs(g_d - g2) <= 2.0)

    window = (gammas >= min(g2, g_d)) & (gammas <= max(g2, g_d))
    outside = (d_vals > 1e-3) & ~window
    prox_worst = float(angle_gap[outside].max())
    prox_ok = prox_worst < 0.15

    grid = degree_grid(1, 1)
    value_dev = dir_dev = k2_drift = 0.0
    excess = []
    for i in np.flatnonzero(window):
        rho, d, k2 = pairs[i], d_res[i], s2_res[i].k_star.k
        f = lambda ks: oracle_vn_conditional(rho, LAY22, ks)
        k2_local, v2_local = local_zoom(f, k2, float(f(k2)[0]))
        values = f(grid)
        minima = [local_zoom(f, grid[j], float(values[j])) for j in degree_grid_minima(values)]
        k_glob, v_glob = min(minima + [(k2_local, v2_local)], key=lambda kv: kv[1])
        four = rho.entries.reshape(2, 2, 2, 2)
        baseline = vn_entropy_bits(rho.entries) - vn_entropy_bits(np.einsum("aiaj->ij", four))
        value_dev = max(value_dev, abs(v_glob - baseline - d.value))
        dir_dev = max(dir_dev, _angle(k_glob, d.k_star.k))
        k2_drift = max(k2_drift, _angle(k2_local, k2))
        excess.append((v2_local - v_glob) / d.value)
    worst_excess = max(excess, default=0.0)
    oracle_ok = value_dev <= 1e-9 and dir_dev < 0.15 and k2_drift < 0.15
    oracle_ok = oracle_ok and worst_excess <= 1e-2

    ok = zeros_ok and transition_ok and flip_ok and prox_ok and oracle_ok
    report(
        8,
        ok,
        f"gamma=15deg zeros: D={zero_point['D']:.1e} I1={zero_point['I1']:.1e} "
        f"Ef={zero_point['Ef']:.1e} (<=1e-7); xz->y transition "
        f"{'found' if transition_ok else 'missing'}; flips S2 {g2:.2f} deg, D {g_d:.2f} deg "
        f"(<=2 apart); window samples gamma={gammas[window].astype(int)} deg; minimizer "
        f"proximity outside worst {prox_worst:.3f} rad (<0.15); oracle in window: "
        f"|dD|<={value_dev:.1e} (<=1e-9), k_D off {dir_dev:.1e} rad (<0.15), k_S2 drift "
        f"{k2_drift:.1e} rad (<0.15), runner-up excess/D "
        f"[{', '.join(f'{e:.1e}' for e in excess)}] (<=1e-2)",
    )


def test_criterion_09_povm_no_gain():
    rng = np.random.default_rng(109)
    worst = np.inf
    for _ in range(50):
        rho = random_density(rng, 4)
        best = quadratic_closed_form(rho, LAY22).value
        for _ in range(20):
            q, dirs = random_rank_one_povm(rng, 3)
            val = conditional_entropy(rho, LAY22, QubitPOVM(q, dirs), QUADRATIC)
            worst = min(worst, val - best)
    ok = worst >= -1e-9
    report(9, ok, f"50 states x 20 POVMs: min(POVM - projective closed form) = {worst:.2e}")


def test_criterion_10_stationarity_at_optimizers():
    rng = np.random.default_rng(110)
    worst_quad = worst_vn = worst_disc = 0.0
    for _ in range(60):
        rho = random_density(rng, 4)
        worst_quad = max(worst_quad, quadratic_deficit_closed(rho, LAY22).residual)
        worst_vn = max(worst_vn, deficit(rho, LAY22, VON_NEUMANN).residual)
        worst_disc = max(worst_disc, discord(rho, LAY22).residual)
    ok = max(worst_quad, worst_vn, worst_disc) <= 1e-6
    report(
        10,
        ok,
        f"60 states: residual quadratic<={worst_quad:.1e} (exact), "
        f"I1<={worst_vn:.1e}, discord<={worst_disc:.1e} (all <=1e-6)",
    )
