import numpy as np
import pytest

from helpers import family_id, random_density, random_pure
from qcorr.entropy import (
    QUADRATIC,
    VON_NEUMANN,
    EntropyFunctional,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    entropy,
    f_prime_matrix,
    f_prime_values,
    renyi,
    spectrum_entropy,
    tsallis,
)
from qcorr.errors import DimensionMismatch, InvalidQ, UnsupportedFamily, ZeroEigenvalueLog
from qcorr.spinchain import rho_theta
from qcorr.statekit import make_density, purity, tensor

ALL_FAMILIES = [VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(2.0), tsallis(3.0), renyi(2.0)]
TRACE_FAMILIES = [VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(2.0), tsallis(3.0)]


class TestEntropy:
    @pytest.mark.parametrize("functional", ALL_FAMILIES, ids=family_id)
    def test_pure_state_zero(self, functional):
        rng = np.random.default_rng(1)
        for dim in (2, 4):
            exact = make_density(np.diag([1.0] + [0.0] * (dim - 1)))
            assert entropy(exact, functional) == 0.0
            # Random pure states carry eigenvalue noise ~1e-16, which q < 1
            # powers amplify to ~1e-8.
            assert abs(entropy(random_pure(rng, dim), functional)) < 1e-7

    @pytest.mark.parametrize("functional", ALL_FAMILIES, ids=family_id)
    def test_maximally_mixed_qubit_is_one(self, functional):
        rho = make_density(np.eye(2) / 2)
        assert abs(entropy(rho, functional) - 1.0) < 1e-12

    def test_von_neumann_value(self):
        rho = make_density(np.diag([0.75, 0.25]))
        direct = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(entropy(rho, VON_NEUMANN) - direct) < 1e-12
        assert abs(entropy(rho, VON_NEUMANN) - 0.811278) < 1e-6

    def test_quadratic_is_tsallis_two(self):
        # 2 (1 - sum w^2) bit for bit: the normalization 1 / (1 - 2^-1) is an exact factor 2
        assert QUADRATIC == tsallis(2.0)
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4, 8):
            w = rng.dirichlet(np.ones(dim), size=50)
            assert np.array_equal(spectrum_entropy(w, QUADRATIC), 2.0 * (1.0 - (w * w).sum(-1)))

    def test_quadratic_matches_purity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(rng, 3)
            assert abs(entropy(rho, QUADRATIC) - 2.0 * (1.0 - purity(rho))) < 1e-12

    @pytest.mark.parametrize("functional", TRACE_FAMILIES, ids=family_id)
    def test_concavity(self, functional):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            p = rng.uniform(0.1, 0.9)
            mix = make_density(p * a.entries + (1 - p) * b.entries)
            bound = p * entropy(a, functional) + (1 - p) * entropy(b, functional)
            assert entropy(mix, functional) >= bound - 1e-10

    def test_tsallis_approaches_von_neumann(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_density(rng, 2)
            s_vn = entropy(rho, VON_NEUMANN)
            for q in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(entropy(rho, tsallis(q)) - s_vn) <= 1e-3

    @pytest.mark.parametrize("q", [0.5, 2.0, 3.0])
    def test_renyi_monotone_in_tsallis(self, q):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            dt = entropy(a, tsallis(q)) - entropy(b, tsallis(q))
            dr = entropy(a, renyi(q)) - entropy(b, renyi(q))
            assert dt * dr >= -1e-12

    def test_invalid_q(self):
        for q in (0.0, -1.0, 1.0):
            with pytest.raises(InvalidQ):
                tsallis(q)
            with pytest.raises(InvalidQ):
                renyi(q)

    def test_spectrum_entropy_batched(self):
        lams = np.array([[0.5, 0.5], [1.0, 0.0]])
        out = spectrum_entropy(lams, VON_NEUMANN)
        assert out.shape == (2,)
        assert abs(out[0] - 1.0) < 1e-12 and abs(out[1]) < 1e-12
        with pytest.raises(UnsupportedFamily):
            spectrum_entropy(lams, EntropyFunctional("shannon"))


class TestFPrime:
    def test_quadratic_anchors(self):
        assert np.abs(f_prime_matrix(make_density(np.eye(2) / 2), QUADRATIC)).max() < 1e-12
        out = f_prime_matrix(make_density(np.diag([1.0, 0.0])), QUADRATIC)
        assert np.allclose(out, np.diag([-2.0, 2.0]))

    def test_quadratic_is_two_minus_four_lambda(self):
        lams = np.random.default_rng(6).uniform(0.0, 1.0, 200)
        assert np.array_equal(f_prime_values(lams, QUADRATIC), 2.0 - 4.0 * lams)
        # a negative rounding-level eigenvalue reads as 0, within 4.4e-16 of 2 - 4 lam
        noise = np.array([-1e-17, -5e-17, -1e-16])
        assert np.array_equal(f_prime_values(noise, QUADRATIC), np.full(3, 2.0))
        assert np.abs(f_prime_values(noise, QUADRATIC) - (2.0 - 4.0 * noise)).max() <= 4.5e-16

    def test_von_neumann_on_maximally_mixed(self):
        out = f_prime_matrix(make_density(np.eye(2) / 2), VON_NEUMANN)
        assert np.allclose(out, (1.0 - 1.0 / np.log(2)) * np.eye(2))

    @pytest.mark.parametrize(
        "functional", [VON_NEUMANN, QUADRATIC, tsallis(2.7), tsallis(0.6)],
        ids=family_id,
    )
    def test_matches_finite_difference(self, functional):
        # f' should be the derivative of the per-eigenvalue integrand f,
        # written out here independently for each family.
        eps = 1e-6
        if functional.family == "von_neumann":
            f_of = lambda lam: -lam * np.log2(lam)
        else:
            q = functional.q
            f_of = lambda lam: (lam - lam**q) / (1.0 - 2.0 ** (1.0 - q))
        for lam in (0.2, 0.5, 0.77):
            fd = (f_of(lam + eps) - f_of(lam - eps)) / (2 * eps)
            assert abs(f_prime_values(np.array([lam]), functional)[0] - fd) < 1e-6

    def test_zero_eigenvalue_warns(self):
        rho = make_density(np.diag([1.0, 0.0]))
        with pytest.warns(ZeroEigenvalueLog):
            f_prime_matrix(rho, VON_NEUMANN)

    def test_renyi_rejected(self):
        rho = make_density(np.eye(2) / 2)
        with pytest.raises(UnsupportedFamily):
            f_prime_matrix(rho, renyi(2.0))


class TestConcurrence:
    def test_bell_state(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert abs(concurrence(make_density(np.outer(v, v))) - 1.0) < 1e-12

    def test_product_states_vanish(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = tensor(random_density(rng, 2), random_density(rng, 2))
            assert concurrence(rho) < 1e-10

    def test_pure_state_analytic(self):
        # For amplitudes (a, b, c, d) the concurrence is 2 |a d - b c|.
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = make_density(np.outer(v, v.conj()))
            expected = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
            assert abs(concurrence(rho) - expected) < 1e-12

    def test_canted_mixture_is_separable(self):
        for theta in np.linspace(0.1, np.pi / 2, 7):
            assert concurrence(rho_theta(theta)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            concurrence(make_density(np.eye(2) / 2))


class TestEntanglementOfFormation:
    def test_bell_and_separable(self):
        v = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert abs(entanglement_of_formation(make_density(np.outer(v, v))).eof - 1.0) < 1e-12
        rng = np.random.default_rng(31)
        sep = tensor(random_density(rng, 2), random_density(rng, 2))
        assert entanglement_of_formation(sep).eof == 0.0

    def test_half_concurrence_value(self):
        x = 0.5 * (1.0 + np.sqrt(0.75))
        expected = binary_entropy(x)
        assert abs(expected - 0.354579) < 1e-6
        # eof = 0 iff concurrence = 0, and the map is the binary entropy.
        rng = np.random.default_rng(37)
        for _ in range(20):
            pair = entanglement_of_formation(random_density(rng, 4, rank=2))
            assert (pair.eof == 0.0) == (pair.concurrence == 0.0)
            h = binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - pair.concurrence**2)))
            assert abs(pair.eof - h) < 1e-12
