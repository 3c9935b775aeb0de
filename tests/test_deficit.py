import warnings

import numpy as np
import pytest

from helpers import (
    degree_grid,
    local_zoom,
    oracle_quadratic_deficit,
    random_density,
    random_direction,
    random_pure,
    random_semi_quantum,
)
from qcorr._pairstate import PairContext
from qcorr.deficit import (
    deficit,
    deficit_matrix,
    quadratic_deficit_closed,
    renyi_deficit,
    stationarity_residual,
)
from qcorr.discord import SearchConfig
from qcorr.entropy import QUADRATIC, VON_NEUMANN, entropy, f_prime_matrix, tsallis
from qcorr.errors import InvalidQ, UnsupportedFamily, ZeroEigenvalueLog
from qcorr.measurement import unread_state
from qcorr.statekit import (
    BipartiteLayout,
    bloch_decompose,
    make_density,
    partial_trace,
    tensor,
)

LAY22 = BipartiteLayout(2, 2)


def bell():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return make_density(np.outer(v, v))


def log2m(mat):
    lams, vecs = np.linalg.eigh(mat)
    lams = np.clip(lams, 1e-300, None)
    return (vecs * np.log2(lams)) @ vecs.conj().T


def relative_entropy(rho, sigma):
    """S(rho || sigma) = -Tr rho (log2 sigma - log2 rho); test-side oracle."""
    a = np.trace(rho @ log2m(rho)).real
    b = np.trace(rho @ log2m(sigma)).real
    return a - b


class TestDeficit:
    def test_bell_von_neumann(self):
        res = deficit(bell(), LAY22, VON_NEUMANN)
        assert abs(res.value - 1.0) < 1e-9

    def test_pure_state_entanglement_entropy_and_schmidt_basis(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            rho = random_pure(rng, 4)
            s_a = entropy(partial_trace(rho, LAY22, "A"), VON_NEUMANN)
            res = deficit(rho, LAY22, VON_NEUMANN)
            assert abs(res.value - s_a) < 1e-8
            # minimizing direction diagonalizes the B marginal
            rho_b = partial_trace(rho, LAY22, "B").entries
            k = res.k_star.k
            ref = np.array([0.0, 0.0, 1.0]) if abs(k[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            u = np.cross(ref, k)
            u /= np.linalg.norm(u)
            plus = 0.5 * (np.eye(2) + k[0] * np.array([[0, 1], [1, 0]])
                          + k[1] * np.array([[0, -1j], [1j, 0]])
                          + k[2] * np.array([[1, 0], [0, -1]]))
            off = np.abs((np.eye(2) - plus) @ rho_b @ plus).max()
            assert off < 1e-8

    def test_pure_state_discord_objective_is_flat(self):
        # Contrast with the deficit: the measured conditional entropy of a
        # pure state is zero for every direction.
        rng = np.random.default_rng(2)
        rho = random_pure(rng, 4)
        ctx = PairContext(rho, LAY22)
        grid = degree_grid(theta_step=10, phi_step=20)
        vals = ctx.conditional_entropy(grid, VON_NEUMANN)
        assert vals.max() - vals.min() < 1e-9

    def test_semi_quantum_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            rho, k = random_semi_quantum(rng, 2, k=np.array([0.0, 0.0, 1.0]))
            res = deficit(rho, LAY22, VON_NEUMANN)
            assert res.value < 1e-8
            assert abs(abs(res.k_star.k[2]) - 1.0) < 1e-4

    @pytest.mark.parametrize("functional", [VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(3.0)],
                             ids=lambda f: f.label())
    def test_nonnegative(self, functional):
        rng = np.random.default_rng(4)
        for _ in range(10):
            res = deficit(random_density(rng, 4), LAY22, functional)
            assert res.value >= 0.0

    def test_value_reevaluates_at_kstar(self):
        rng = np.random.default_rng(16)
        for functional in (VON_NEUMANN, tsallis(3.0)):
            for _ in range(5):
                rho = random_density(rng, 4)
                res = deficit(rho, LAY22, functional)
                direct = entropy(unread_state(rho, LAY22, res.k_star.k), functional) - entropy(
                    rho, functional
                )
                assert abs(res.value - direct) < 1e-9


class TestQuadraticDeficitClosed:
    def test_bell_equals_squared_concurrence(self):
        dm = deficit_matrix(bell(), LAY22)
        assert np.abs(dm.matrix - np.eye(3)).max() < 1e-12
        res = quadratic_deficit_closed(bell(), LAY22)
        assert abs(res.value - 1.0) < 1e-12

    def test_product_state_rank_one(self):
        rng = np.random.default_rng(5)
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        joint = tensor(a, b)
        dec = bloch_decompose(joint, LAY22)
        r_b = dec.r_b
        if np.linalg.norm(r_b) > 1e-6:
            res = quadratic_deficit_closed(joint, LAY22)
            assert res.value < 1e-12
            overlap = abs(float(res.k_star.k @ (r_b / np.linalg.norm(r_b))))
            assert overlap > 1.0 - 1e-8

    @pytest.mark.parametrize("d_a", [2, 3])
    def test_brute_force_oracle(self, d_a):
        rng = np.random.default_rng(10 + d_a)
        lay = BipartiteLayout(d_a, 2)
        grid = degree_grid(theta_step=3, phi_step=6)
        for _ in range(10):
            rho = random_density(rng, 2 * d_a)
            res = quadratic_deficit_closed(rho, lay)
            values = oracle_quadratic_deficit(rho, lay, grid)
            assert values.min() >= res.value - 1e-9
            i0 = int(np.argmin(values))
            f = lambda ks: oracle_quadratic_deficit(rho, lay, ks)
            _, refined = local_zoom(f, grid[i0], values[i0], step0=np.deg2rad(3.0))
            assert abs(refined - res.value) < 1e-6

    def test_grid_production_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density(rng, 4)
            closed = quadratic_deficit_closed(rho, LAY22)
            grid = deficit(rho, LAY22, QUADRATIC)
            assert abs(closed.value - grid.value) < 1e-8

    def test_geometric_identity(self):
        # The quadratic deficit equals twice the squared distance to the
        # pinched state at the optimum, and no direction gives less.
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 4)
            res = quadratic_deficit_closed(rho, LAY22)
            pinched = unread_state(rho, LAY22, res.k_star.k)
            dist = 2.0 * np.linalg.norm(rho.entries - pinched.entries) ** 2
            assert abs(res.value - dist) < 1e-9
            for _ in range(50):
                k = random_direction(rng)
                other = unread_state(rho, LAY22, k)
                assert 2.0 * np.linalg.norm(rho.entries - other.entries) ** 2 >= res.value - 1e-9

    def test_m2_eigenvector_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(rng, 4)
            dm = deficit_matrix(rho, LAY22)
            res = quadratic_deficit_closed(rho, LAY22)
            defect = np.linalg.norm(dm.matrix @ res.k_star.k - dm.lambda_max * res.k_star.k)
            assert defect < 1e-8

    def test_matrix_construction_and_psd(self):
        rng = np.random.default_rng(9)
        for d_a in (2, 3):
            lay = BipartiteLayout(d_a, 2)
            rho = random_density(rng, 2 * d_a)
            dec = bloch_decompose(rho, lay)
            dm = deficit_matrix(rho, lay)
            direct = np.outer(dec.r_b, dec.r_b) + dec.moment.T @ dec.moment
            assert np.abs(dm.matrix - direct).max() < 1e-12
            assert np.linalg.eigvalsh(dm.matrix).min() >= -1e-12
            assert abs(dm.trace - np.trace(dm.matrix)) < 1e-12


class TestRenyiDeficit:
    def test_bell_q2(self):
        res = renyi_deficit(bell(), LAY22, 2.0)
        assert abs(res.value - 1.0) < 1e-12

    def test_semi_quantum_zero(self):
        rng = np.random.default_rng(9)
        rho, _ = random_semi_quantum(rng, 2)
        for q in (0.5, 2.0, 3.0):
            assert renyi_deficit(rho, LAY22, q).value < 1e-8

    def test_q2_optimizer_matches_quadratic(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            rho = random_density(rng, 4)
            r2 = renyi_deficit(rho, LAY22, 2.0)
            t2 = quadratic_deficit_closed(rho, LAY22)
            assert np.abs(r2.k_star.k - t2.k_star.k).max() < 1e-8

    def test_value_formula_at_optimum(self):
        rng = np.random.default_rng(11)
        for q in (0.5, 3.0, 2.0):
            rho = random_density(rng, 4)
            res = renyi_deficit(rho, LAY22, q)
            pinched = unread_state(rho, LAY22, res.k_star.k)
            lam_a = np.clip(np.linalg.eigvalsh(rho.entries), 0, None)
            lam_p = np.clip(np.linalg.eigvalsh(pinched.entries), 0, None)
            direct = np.log2((lam_p**q).sum() / (lam_a**q).sum()) / (1.0 - q)
            assert abs(res.value - direct) < 1e-9

    def test_invalid_q(self):
        with pytest.raises(InvalidQ):
            renyi_deficit(bell(), LAY22, 1.0)
        with pytest.raises(InvalidQ):
            renyi_deficit(bell(), LAY22, -2.0)


class TestContinuityAtQOne:
    """Tsallis and Renyi deficits tend to I_1 linearly as q -> 1 from both sides."""

    COARSE = SearchConfig(grid_theta=16, grid_phi=32)

    @pytest.mark.parametrize("d_a", [2, 3])
    @pytest.mark.parametrize("kind", ["mixed", "rank2", "pure"])
    def test_deficits_approach_i1(self, d_a, kind):
        rng = np.random.default_rng(7 + d_a)
        rho = {
            "mixed": lambda: random_density(rng, 2 * d_a),
            "rank2": lambda: random_density(rng, 2 * d_a, rank=2),
            "pure": lambda: random_pure(rng, 2 * d_a),
        }[kind]()
        lay = BipartiteLayout(d_a, 2)
        families = {
            "tsallis": lambda q: deficit(rho, lay, tsallis(q), self.COARSE).value,
            "renyi": lambda q: renyi_deficit(rho, lay, q, self.COARSE).value,
        }
        with warnings.catch_warnings():
            # the residuals floor the zero eigenvalues of singular states
            warnings.simplefilter("ignore", ZeroEigenvalueLog)
            i1 = deficit(rho, lay, VON_NEUMANN, self.COARSE).value
            for name, value_at in families.items():
                for side in (1.0, -1.0):
                    slope = {}
                    for eps in (1e-2, 1e-3, 1e-4):
                        gap = abs(value_at(1.0 + side * eps) - i1)
                        assert gap <= eps, (name, side, eps, gap)
                        slope[eps] = gap / eps
                    assert abs(slope[1e-4] - slope[1e-3]) <= 0.1 * slope[1e-3], (name, side, slope)


def residual_by_definition(rho, lay, k, functional, mode):
    """Tr_A [f'(rho'), rho] (+ [log2 rho'_B, rho_B]) from the full pinched state."""
    pinched = unread_state(rho, lay, k)
    fp = f_prime_matrix(pinched, functional)
    comm = fp @ rho.entries - rho.entries @ fp
    reduced = np.einsum("aiaj->ij", comm.reshape(lay.d_a, 2, lay.d_a, 2))
    if mode == "discord":
        rho_b = partial_trace(rho, lay, keep="B").entries
        log_b = log2m(partial_trace(pinched, lay, keep="B").entries)
        reduced = reduced + (log_b @ rho_b - rho_b @ log_b)
    return float(np.linalg.norm(reduced))


class TestStationarity:
    def test_block_route_matches_definition(self):
        rng = np.random.default_rng(16)
        cases = [(VON_NEUMANN, "deficit"), (VON_NEUMANN, "discord"), (QUADRATIC, "deficit")]
        cases.append((tsallis(3.0), "deficit"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroEigenvalueLog)
            for d_a in (2, 3):
                lay = BipartiteLayout(d_a, 2)
                for kind in ("full", "rank2", "pure"):
                    for _ in range(4):
                        if kind == "pure":
                            rho = random_pure(rng, 2 * d_a)
                        else:
                            rho = random_density(rng, 2 * d_a, 2 if kind == "rank2" else None)
                        k = random_direction(rng)
                        # f' of Tsallis q < 1 diverges on the kernel of a singular rho'.
                        extra = [(tsallis(0.5), "deficit")] if kind == "full" else []
                        for functional, mode in cases + extra:
                            r = stationarity_residual(rho, lay, k, functional, mode)
                            ref = residual_by_definition(rho, lay, k, functional, mode)
                            assert abs(r - ref) <= 1e-12 * max(1.0, abs(r)), (functional, mode)

    def test_closed_form_is_stationary(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = random_density(rng, 4)
            res = quadratic_deficit_closed(rho, LAY22)
            assert res.residual < 1e-8

    def test_semi_quantum_pointer_basis(self):
        rng = np.random.default_rng(13)
        rho, k = random_semi_quantum(rng, 2)
        for fam in (VON_NEUMANN, QUADRATIC, tsallis(2.0)):
            assert stationarity_residual(rho, LAY22, k, fam) < 1e-10

    def test_random_direction_not_stationary(self):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(10):
            rho = random_density(rng, 4)
            opt = quadratic_deficit_closed(rho, LAY22)
            worst = max(
                stationarity_residual(rho, LAY22, random_direction(rng), QUADRATIC)
                for _ in range(5)
            )
            if worst > 1e-4:
                hits += 1
            assert worst > opt.residual
        assert hits >= 8

    def test_renyi_rejected(self):
        from qcorr.entropy import renyi

        with pytest.raises(UnsupportedFamily):
            stationarity_residual(bell(), LAY22, np.array([0, 0, 1.0]), renyi(2.0))

    def test_discord_mode_von_neumann_only(self):
        with pytest.raises(UnsupportedFamily):
            stationarity_residual(
                bell(), LAY22, np.array([0, 0, 1.0]), QUADRATIC, mode="discord"
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            stationarity_residual(
                bell(), LAY22, np.array([0, 0, 1.0]), QUADRATIC, mode="nonsense"
            )


class TestRelativeEntropyIdentity:
    def test_pinched_state_identity(self):
        # For a pinched sigma the relative entropy collapses to the entropy
        # gap, making the von Neumann deficit a minimum relative entropy.
        rng = np.random.default_rng(15)
        for _ in range(10):
            rho = random_density(rng, 4)
            k = random_direction(rng)
            pinched = unread_state(rho, LAY22, k)
            lhs = relative_entropy(rho.entries, pinched.entries)
            rhs = entropy(pinched, VON_NEUMANN) - entropy(rho, VON_NEUMANN)
            assert abs(lhs - rhs) < 1e-8
