import numpy as np
import pytest

from helpers import (
    family_id,
    majorizes,
    random_density,
    random_direction,
    random_pure,
    random_rank_one_povm,
    random_semi_quantum,
)
from qcorr._pairstate import PairContext
from qcorr.entropy import QUADRATIC, VON_NEUMANN, entropy, renyi, tsallis
from qcorr.errors import LayoutMismatch
from qcorr.measurement import (
    MeasurementDirection,
    QubitPOVM,
    condition_on_measurement,
    conditional_entropy,
    projective_povm,
    projector,
    unread_state,
)
from qcorr.statekit import (
    BipartiteLayout,
    bloch_decompose,
    make_density,
    partial_trace,
    tensor,
)

LAY22 = BipartiteLayout(2, 2)
FAMILIES = [VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(3.0)]


def bell():
    v = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return make_density(np.outer(v, v))


class TestMeasurementDirection:
    def test_canonical_sign(self):
        assert np.allclose(MeasurementDirection(np.array([0, 0, -1.0])).k, [0, 0, 1])
        assert np.allclose(MeasurementDirection(np.array([-1.0, 0, 0])).k, [1, 0, 0])
        assert np.allclose(MeasurementDirection(np.array([0, -2.0, 0])).k, [0, 1, 0])

    def test_normalizes(self):
        d = MeasurementDirection(np.array([0.0, 0.0, 5.0]))
        assert abs(np.linalg.norm(d.k) - 1.0) < 1e-15

    def test_angles(self):
        d = MeasurementDirection(np.array([1.0, 1.0, 0.0]))
        assert abs(d.theta - np.pi / 2) < 1e-12
        assert abs(d.phi - np.pi / 4) < 1e-12
        pole = MeasurementDirection(np.array([0.0, 0.0, 1.0]))
        assert pole.theta == 0.0 and pole.phi == 0.0

    def test_rejects_zero(self):
        for bad in (np.zeros(3), np.array([0.0, 1.0])):  # zero, or not a 3-vector
            with pytest.raises(ValueError):
                MeasurementDirection(bad)


class TestProjectivePovm:
    def test_z_axis_projectors(self):
        povm = projective_povm(np.array([0.0, 0.0, 1.0]))
        mats = [q * projector(k) for q, k in povm.elements()]
        assert np.allclose(mats[0], np.diag([1.0, 0.0]))
        assert np.allclose(mats[1], np.diag([0.0, 1.0]))
        # a direction that is not a unit vector is normalized first
        assert np.array_equal(projector(np.array([0.0, 0.0, 2.0])), projector(np.array([0.0, 0.0, 1.0])))

    def test_x_axis_projectors(self):
        povm = projective_povm(np.array([1.0, 0.0, 0.0]))
        sx = np.array([[0, 1], [1, 0]])
        mats = [q * projector(k) for q, k in povm.elements()]
        assert np.allclose(mats[0], 0.5 * (np.eye(2) + sx))
        assert np.allclose(mats[1], 0.5 * (np.eye(2) - sx))

    def test_completeness(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            povm = projective_povm(random_direction(rng))
            total = sum(q * projector(k) for q, k in povm.elements())
            assert np.abs(total - np.eye(2)).max() < 1e-14

    def test_random_povm_validates(self):
        rng = np.random.default_rng(1)
        q, dirs = random_rank_one_povm(rng, 3)
        povm = QubitPOVM(weights=q, directions=dirs)
        total = sum(qq * projector(k) for qq, k in povm.elements())
        assert np.abs(total - np.eye(2)).max() < 1e-10

    def test_incomplete_povm_rejected(self):
        z, minus_z = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        for weights, directions in (
            ([1.0], [z]),  # incomplete
            ([1.0, 1.0], [z]),  # a direction short
            ([2.0, 0.0], [z, minus_z]),  # a weight that is not positive
            ([1.0, 1.0], [[0.0, 0.0, 2.0], minus_z]),  # a direction that is not a unit vector
        ):
            with pytest.raises(ValueError):
                QubitPOVM(weights=np.array(weights), directions=np.array(directions))


class TestConditionOnMeasurement:
    def test_product_state_branches_unchanged(self):
        rng = np.random.default_rng(3)
        a = random_density(rng, 2)
        joint = tensor(a, random_density(rng, 2))
        for _ in range(3):
            ens = condition_on_measurement(joint, LAY22, projective_povm(random_direction(rng)))
            for out in ens.outcomes:
                assert np.abs(out.rho_a.entries - a.entries).max() < 1e-12

    def test_bell_z_measurement(self):
        ens = condition_on_measurement(bell(), LAY22, projective_povm(np.array([0, 0, 1.0])))
        assert abs(ens.outcomes[0].p - 0.5) < 1e-12
        assert np.abs(ens.outcomes[0].rho_a.entries - np.diag([1.0, 0.0])).max() < 1e-12
        assert np.abs(ens.outcomes[1].rho_a.entries - np.diag([0.0, 1.0])).max() < 1e-12

    def test_bell_x_measurement(self):
        ens = condition_on_measurement(bell(), LAY22, projective_povm(np.array([1.0, 0, 0])))
        plus = 0.5 * np.array([[1, 1], [1, 1]])
        assert np.abs(ens.outcomes[0].rho_a.entries - plus).max() < 1e-12
        minus = 0.5 * np.array([[1, -1], [-1, 1]])
        assert np.abs(ens.outcomes[1].rho_a.entries - minus).max() < 1e-12

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(rng, 4)
            q, dirs = random_rank_one_povm(rng, 3)
            ens = condition_on_measurement(rho, LAY22, QubitPOVM(q, dirs))
            assert abs(sum(o.p for o in ens.outcomes) - 1.0) < 1e-12

    def test_post_vector_matches_state(self):
        # The reported Bloch vector must agree with the one extracted from
        # the conditional state matrix.
        rng = np.random.default_rng(6)
        lay = BipartiteLayout(3, 2)
        for _ in range(10):
            rho = random_density(rng, 6)
            ens = condition_on_measurement(rho, lay, projective_povm(random_direction(rng)))
            for out in ens.outcomes:
                dec = bloch_decompose(tensor(out.rho_a, make_density(np.eye(2) / 2)), lay)
                assert np.abs(dec.r_a - out.r_post).max() < 1e-9

    def test_zero_probability_branch(self):
        rng = np.random.default_rng(7)
        a = random_density(rng, 2)
        joint = tensor(a, make_density(np.diag([1.0, 0.0])))
        ens = condition_on_measurement(joint, LAY22, projective_povm(np.array([0, 0, 1.0])))
        assert ens.outcomes[1].p == 0.0
        assert np.abs(ens.outcomes[1].rho_a.entries - a.entries).max() < 1e-12

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatch):
            condition_on_measurement(
                bell(), BipartiteLayout(4, 2), projective_povm(np.array([0, 0, 1.0]))
            )


class TestUnreadState:
    def test_bell_z(self):
        out = unread_state(bell(), LAY22, np.array([0.0, 0.0, 1.0]))
        expected = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0])
        assert np.abs(out.entries - expected).max() < 1e-12

    def test_semi_quantum_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho, k = random_semi_quantum(rng, 2)
            out = unread_state(rho, LAY22, k)
            assert np.abs(out.entries - rho.entries).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density(rng, 4)
            k = random_direction(rng)
            once = unread_state(rho, LAY22, k)
            twice = unread_state(once, LAY22, k)
            assert np.abs(twice.entries - once.entries).max() < 1e-12
            assert abs(once.entries.trace() - 1.0) < 1e-12

    def test_majorization(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            rho = random_density(rng, 4)
            out = unread_state(rho, LAY22, random_direction(rng))
            assert majorizes(
                np.linalg.eigvalsh(rho.entries), np.linalg.eigvalsh(out.entries)
            )


class TestConditionalEntropy:
    def test_pure_state_vanishes(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = random_pure(rng, 4)
            povm = projective_povm(random_direction(rng))
            for fam in (VON_NEUMANN, QUADRATIC):
                assert abs(conditional_entropy(rho, LAY22, povm, fam)) < 1e-10

    def test_product_state_gives_marginal_entropy(self):
        rng = np.random.default_rng(12)
        a = random_density(rng, 2)
        joint = tensor(a, random_density(rng, 2))
        for fam in FAMILIES:
            s_a = entropy(a, fam)
            for _ in range(5):
                povm = projective_povm(random_direction(rng))
                assert abs(conditional_entropy(joint, LAY22, povm, fam) - s_a) < 1e-10

    def test_bell_z_von_neumann(self):
        povm = projective_povm(np.array([0.0, 0.0, 1.0]))
        assert abs(conditional_entropy(bell(), LAY22, povm, VON_NEUMANN)) < 1e-12

    @pytest.mark.parametrize("functional", FAMILIES, ids=family_id)
    def test_concavity_bound_on_grid(self, functional):
        # Average conditional mixedness never exceeds the marginal mixedness,
        # checked on a 20 x 20 direction grid.
        rng = np.random.default_rng(13)
        thetas = np.linspace(0, np.pi / 2, 20)
        phis = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        grid = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        for _ in range(3):
            rho = random_density(rng, 4)
            s_a = entropy(partial_trace(rho, LAY22, "A"), functional)
            ctx = PairContext(rho, LAY22)
            values = ctx.conditional_entropy(grid, functional)
            assert np.all(values <= s_a + 1e-10)

    @staticmethod
    def _surface_states(rng, d_a):
        """(state, tolerance for q < 1) pairs: full rank, pure and rank 2.

        Pure and rank-2 states have singular branch blocks.  There both
        routes take w**q of eigenvalues that are rounding errors of zero, so
        q < 1 families agree only to about (1e-16)**q; the two routes were
        measured 3e-11 apart at q = 0.7.
        """
        dim = 2 * d_a
        return (
            (random_density(rng, dim), 1e-11),
            (random_pure(rng, dim), 1e-9),
            (random_density(rng, dim, rank=2), 1e-9),
        )

    def test_fast_surface_matches_measurement_route(self):
        # The batched block evaluation (closed-form spectra for d_A = 2) and
        # the full-matrix path are two routes to the same conditional entropy.
        rng = np.random.default_rng(14)
        for d_a in (2, 3):
            lay = BipartiteLayout(d_a, 2)
            for rho, tol_q_below_1 in self._surface_states(rng, d_a):
                ctx = PairContext(rho, lay)
                for _ in range(10):
                    k = random_direction(rng)
                    for fam in (VON_NEUMANN, QUADRATIC, tsallis(0.7), renyi(2.0)):
                        slow = conditional_entropy(rho, lay, projective_povm(k), fam)
                        fast = ctx.conditional_entropy(k[np.newaxis], fam)[0]
                        tol = tol_q_below_1 if fam.q is not None and fam.q < 1 else 1e-11
                        assert abs(slow - fast) < tol

    def test_joint_surface_matches_unread_route(self):
        rng = np.random.default_rng(15)
        for d_a in (2, 3):
            lay = BipartiteLayout(d_a, 2)
            for rho, _ in self._surface_states(rng, d_a):
                ctx = PairContext(rho, lay)
                for _ in range(10):
                    k = random_direction(rng)
                    for fam in (VON_NEUMANN, QUADRATIC, tsallis(2.5)):
                        slow = entropy(unread_state(rho, lay, k), fam)
                        fast = ctx.measured_joint_entropy(k[np.newaxis], fam)[0]
                        assert abs(slow - fast) < 1e-11
