import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    degree_grid,
    local_zoom,
    oracle_quadratic_conditional,
    random_density,
    random_pure,
    random_rank_one_povm,
    random_semi_quantum,
)
from qcorr.deficit import deficit, deficit_matrix, quadratic_deficit_closed
from qcorr.discord import (
    SearchConfig,
    _whitener,
    conditional_entropy_min,
    discord,
    ellipsoid,
    quadratic_closed_form,
)
from qcorr.entropy import QUADRATIC, VON_NEUMANN, entropy
from qcorr.measurement import QubitPOVM, conditional_entropy, projective_povm, unread_state
from qcorr.statekit import (
    BipartiteLayout,
    bloch_decompose,
    make_density,
    partial_trace,
    tensor,
)

LAY22 = BipartiteLayout(2, 2)
PAULI3 = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def bell():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return make_density(np.outer(v, v))


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.grid_theta == 60 and cfg.grid_phi == 120
        assert cfg.refine_tol == 1e-10 and cfg.refine_max_iter == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_theta=4)
        with pytest.raises(ValueError):
            SearchConfig(refine_tol=0.0)
        # the grid sizes and the iteration budget are integers, the tolerance finite
        for kwargs in ({"grid_theta": 16.5}, {"grid_phi": 32.0}, {"refine_max_iter": True},
                       {"refine_tol": np.nan}, {"refine_tol": np.inf}):
            with pytest.raises(ValueError):
                SearchConfig(**kwargs)
        assert SearchConfig(grid_theta=np.int64(16)).grid_theta == 16


class TestDiscord:
    def test_bell_state(self):
        res = discord(bell(), LAY22)
        assert abs(res.value - 1.0) < 1e-9

    def test_product_state(self):
        rng = np.random.default_rng(1)
        joint = tensor(random_density(rng, 2), random_density(rng, 2))
        assert discord(joint, LAY22).value < 1e-9

    def test_semi_quantum_z_basis(self):
        rng = np.random.default_rng(2)
        rho, _ = random_semi_quantum(rng, 2, k=np.array([0.0, 0.0, 1.0]))
        res = discord(rho, LAY22)
        assert res.value < 1e-8
        assert abs(abs(res.k_star.k[2]) - 1.0) < 1e-4

    def test_pure_state_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = random_pure(rng, 4)
            s_a = entropy(partial_trace(rho, LAY22, "A"), VON_NEUMANN)
            s_b = entropy(partial_trace(rho, LAY22, "B"), VON_NEUMANN)
            res = discord(rho, LAY22)
            assert abs(res.value - s_a) < 1e-8
            assert abs(res.value - s_b) < 1e-8
            # S(A|B_k) = 0 for every k on a pure state, so no direction is singled out
            assert res.k_star.k.tolist() == [0.0, 0.0, 1.0]

    def test_nonnegative_and_reevaluates(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            rho = random_density(rng, 4)
            res = discord(rho, LAY22)
            assert res.value >= 0.0
            # value must match re-evaluation of the objective at k_star
            cond = conditional_entropy(rho, LAY22, projective_povm(res.k_star.k), VON_NEUMANN)
            base = entropy(rho, VON_NEUMANN) - entropy(
                partial_trace(rho, LAY22, "B"), VON_NEUMANN
            )
            assert abs(res.value - (cond - base)) < 1e-9

    def test_zero_iff_unread_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho, k = random_semi_quantum(rng, 2)
            res = discord(rho, LAY22)
            assert res.value < 1e-8
            pinched = unread_state(rho, LAY22, res.k_star.k)
            assert np.abs(pinched.entries - rho.entries).max() < 1e-8
        for _ in range(10):
            rho = random_density(rng, 4)
            res = discord(rho, LAY22)
            if res.value > 1e-3:
                pinched = unread_state(rho, LAY22, res.k_star.k)
                assert np.abs(pinched.entries - rho.entries).max() > 1e-8

    def test_canonical_angles(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            res = discord(random_density(rng, 4), LAY22)
            assert 0.0 <= res.theta <= np.pi / 2 + 1e-12
            assert 0.0 <= res.phi < 2 * np.pi


class TestQuadraticClosedForm:
    def test_bell_anchors(self):
        rho = bell()
        dec = bloch_decompose(rho, LAY22)
        assert np.abs(dec.corr.T @ dec.corr - np.eye(3)).max() < 1e-12
        res = quadratic_closed_form(rho, LAY22)
        assert abs(res.value) < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, 2)
        joint = tensor(a, random_density(rng, 2))
        res = quadratic_closed_form(joint, LAY22)
        assert abs(res.value - entropy(a, QUADRATIC)) < 1e-12

    @pytest.mark.parametrize("d_a", [2, 3])
    def test_grid_agreement_and_bound(self, d_a):
        # Closed form equals the refined grid minimum and lower-bounds every
        # grid value of the independent purity-formula objective.
        rng = np.random.default_rng(20 + d_a)
        lay = BipartiteLayout(d_a, 2)
        grid = degree_grid(theta_step=3, phi_step=6)
        for _ in range(10):
            rho = random_density(rng, 2 * d_a)
            res = quadratic_closed_form(rho, lay)
            values = oracle_quadratic_conditional(rho, lay, grid)
            assert values.min() >= res.value - 1e-9
            i0 = int(np.argmin(values))
            f = lambda ks: oracle_quadratic_conditional(rho, lay, ks)
            _, refined = local_zoom(f, grid[i0], values[i0], step0=np.deg2rad(3.0))
            assert abs(refined - res.value) < 1e-6

    def test_production_grid_matches_closed_form(self):
        rng = np.random.default_rng(9)
        for d_a in (2, 3):
            lay = BipartiteLayout(d_a, 2)
            for _ in range(8):
                rho = random_density(rng, 2 * d_a)
                cf = quadratic_closed_form(rho, lay)
                gm = conditional_entropy_min(rho, lay, QUADRATIC)
                assert abs(cf.value - gm.value) < 1e-8

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            rho = random_density(rng, 4)
            res = quadratic_closed_form(rho, LAY22)
            assert res.residual is not None and res.residual < 1e-8

    def test_degenerate_marginal_flag(self):
        rng = np.random.default_rng(11)
        joint = tensor(random_density(rng, 2), make_density(np.diag([1.0, 0.0])))
        res = quadratic_closed_form(joint, LAY22)
        assert res.degenerate_marginal
        assert np.allclose(res.k_star.k, [0, 0, 1])

    def test_tie_breaking_prefers_z(self):
        # Bell correlations are isotropic after whitening, so the tie rule
        # must deterministically pick the z axis.
        res = quadratic_closed_form(bell(), LAY22)
        assert np.allclose(res.k_star.k, [0.0, 0.0, 1.0])

    def test_tie_break_axis_preference(self):
        from qcorr._sphere import dominant_direction

        span_xz = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert np.allclose(np.abs(dominant_direction(span_xz)), [0.0, 0.0, 1.0])
        span_xy = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.abs(dominant_direction(span_xy)), [1.0, 0.0, 0.0])
        only_y = np.array([0.0, 1.0, 0.0])
        assert np.allclose(np.abs(dominant_direction(only_y)), [0.0, 1.0, 0.0])
        tilted = np.array([[0.6, 0.0], [0.0, 1.0], [0.8, 0.0]])
        out = dominant_direction(tilted)
        # best |k_z| inside the span is the tilted column itself
        assert np.allclose(np.abs(out), [0.6, 0.0, 0.8])
        # Independent but not orthonormal columns, as the whitened eigenvectors of
        # the closed form are: each axis is projected onto their span by least squares.
        rng = np.random.default_rng(5)
        r_b = rng.normal(size=3)
        white = _whitener(0.9 * r_b / np.linalg.norm(r_b))
        vecs = np.linalg.eigh(np.cov(rng.normal(size=(3, 8))))[1]
        spans = [
            np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 2.0]]),
            np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]]),
            rng.normal(size=(3, 2)),
            white @ vecs[:, 2:],
            white @ vecs[:, 1:],
            white @ vecs,
        ]
        for span in spans:
            for axis in (2, 0, 1):
                proj = span @ np.linalg.lstsq(span, np.eye(3)[axis], rcond=None)[0]
                if np.linalg.norm(proj) > 1e-8:
                    break
            assert np.allclose(dominant_direction(span), proj / np.linalg.norm(proj), atol=1e-12)

    def test_value_reevaluates_at_kstar(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            rho = random_density(rng, 6)
            lay = BipartiteLayout(3, 2)
            res = quadratic_closed_form(rho, lay)
            direct = conditional_entropy(rho, lay, projective_povm(res.k_star.k), QUADRATIC)
            assert abs(res.value - direct) < 1e-9


class TestPovmNoGain:
    def test_povm_cannot_beat_projective_minimum(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, 4)
            best = quadratic_closed_form(rho, LAY22).value
            for _ in range(5):
                q, dirs = random_rank_one_povm(rng, 3)
                val = conditional_entropy(rho, LAY22, QubitPOVM(q, dirs), QUADRATIC)
                assert val >= best - 1e-9


class TestEllipsoid:
    def test_bell_is_sphere(self):
        ell = ellipsoid(bell(), LAY22)
        assert np.abs(ell.semi_axes - 1.0).max() < 1e-12

    def test_product_state_collapses(self):
        rng = np.random.default_rng(14)
        joint = tensor(random_density(rng, 2), random_density(rng, 2))
        ell = ellipsoid(joint, LAY22)
        assert np.abs(ell.semi_axes).max() < 1e-12
        # a pure B marginal has no whitening: the ellipsoid is the point r_a, flagged
        a = random_density(rng, 2)
        ell = ellipsoid(tensor(a, make_density(np.diag([1.0, 0.0]))), LAY22)
        assert ell.degenerate_marginal and (ell.semi_axes == 0.0).all()
        assert np.abs(ell.center - [np.trace(a.entries @ p).real for p in PAULI3]).max() < 1e-12

    def test_rank_one_correlation(self):
        # Classical correlation along one axis leaves one nonzero semi-axis.
        rho = make_density(0.5 * np.diag([1.0, 0, 0, 1.0]))
        ell = ellipsoid(rho, LAY22)
        assert ell.semi_axes[0] > 0.1
        assert np.abs(ell.semi_axes[1:]).max() < 1e-12

    def test_optimal_shift_parallel_to_major_axis(self):
        rng = np.random.default_rng(15)
        hits = 0
        for _ in range(10):
            rho = random_density(rng, 4)
            ell = ellipsoid(rho, LAY22)
            if ell.semi_axes[0] - ell.semi_axes[1] < 1e-6:
                continue
            res = quadratic_closed_form(rho, LAY22)
            dec = bloch_decompose(rho, LAY22)
            shift = dec.corr @ res.k_star.k
            shift /= np.linalg.norm(shift)
            overlap = abs(float(shift @ ell.axis_dirs_a[0]))
            assert overlap > 1.0 - 1e-8
            hits += 1
        assert hits >= 5

    def test_axes_orthonormal(self):
        rng = np.random.default_rng(16)
        rho = random_density(rng, 6)
        ell = ellipsoid(rho, BipartiteLayout(3, 2))
        assert np.abs(ell.axis_dirs_b @ ell.axis_dirs_b.T - np.eye(3)).max() < 1e-12
        assert np.abs(ell.axis_dirs_a @ ell.axis_dirs_a.T - np.eye(3)).max() < 1e-12
        assert np.all(np.diff(ell.semi_axes) <= 1e-15)


class TestConditionalEntropyMin:
    def test_pure_state_any_family(self):
        rng = np.random.default_rng(17)
        rho = random_pure(rng, 4)
        for fam in (VON_NEUMANN, QUADRATIC):
            assert conditional_entropy_min(rho, LAY22, fam).value < 1e-9

    def test_product_state_returns_marginal(self):
        rng = np.random.default_rng(18)
        a = random_density(rng, 2)
        joint = tensor(a, random_density(rng, 2))
        for fam in (VON_NEUMANN, QUADRATIC):
            res = conditional_entropy_min(joint, LAY22, fam)
            assert abs(res.value - entropy(a, fam)) < 1e-9


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def so3_image(u):
    """R with u (k.sigma) u^dagger = (R k).sigma: R_ij = tr(sigma_i u sigma_j u^dagger) / 2."""
    return 0.5 * np.einsum("iab,bc,jcd,ad->ij", PAULI3, u, PAULI3, u.conj()).real


class TestLocalUnitaryInvariance:
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_values_keep_and_closed_form_directions_rotate(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 4)
        u_b = random_unitary(rng, 2)
        u = np.kron(random_unitary(rng, 2), u_b)
        moved = make_density(u @ rho.entries @ u.conj().T)
        for search in (discord, lambda r, lay: deficit(r, lay, VON_NEUMANN)):
            assert abs(search(moved, LAY22).value - search(rho, LAY22).value) <= 1e-9
        semi = ellipsoid(rho, LAY22).semi_axes ** 2  # the pencil's eigenvalues, descending
        top = np.linalg.eigvalsh(deficit_matrix(rho, LAY22).matrix)[::-1]
        for closed, lams in ((quadratic_closed_form, semi), (quadratic_deficit_closed, top)):
            before, after = closed(rho, LAY22), closed(moved, LAY22)
            assert abs(after.value - before.value) <= 1e-12
            if lams[0] - lams[1] > 1e-6:
                assert abs(after.k_star.k @ (so3_image(u_b) @ before.k_star.k)) >= 1.0 - 1e-9
