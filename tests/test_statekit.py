import json

import numpy as np
import pytest

from helpers import random_density, random_pure
from qcorr.errors import LayoutMismatch, NotHermitian, NotPositive, TraceDeviation
from qcorr.spinchain import rho_theta
from qcorr.statekit import (
    PAULI,
    BipartiteLayout,
    bloch_decompose,
    from_json,
    gellmann_basis,
    make_density,
    partial_trace,
    purity,
    reconstruct,
    tensor,
    to_json,
)


class TestMakeDensity:
    def test_maximally_mixed_qubit(self):
        rho = make_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert rho.correction < 1e-14
        assert np.allclose(rho.entries, np.eye(2) / 2)

    def test_pure_state(self):
        rho = make_density(np.diag([1.0, 0.0]))
        assert np.allclose(rho.entries, np.diag([1.0, 0.0]))

    def test_clipping_renormalizes_and_reports(self):
        rho = make_density(np.diag([0.5, 0.5, -1e-11, 1e-11]))
        lams = np.linalg.eigvalsh(rho.entries)
        assert lams.min() >= 0.0
        assert abs(rho.entries.trace() - 1.0) < 1e-14
        assert rho.correction > 0.0

    def test_not_hermitian(self):
        bad = np.diag([0.5, 0.5]).astype(complex)
        bad[0, 1] = 1e-6
        with pytest.raises(NotHermitian):
            make_density(bad)

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            make_density(np.diag([1.5, -0.5]))

    def test_trace_deviation(self):
        with pytest.raises(TraceDeviation):
            make_density(np.diag([0.6, 0.6]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_density(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            mat = np.eye(2, dtype=complex) / 2
            mat[1, 1] = bad
            with pytest.raises(ValueError):
                make_density(mat)


class TestPartialTrace:
    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            joint = tensor(a, b)
            lay = BipartiteLayout(2, 2)
            assert np.abs(partial_trace(joint, lay, "A").entries - a.entries).max() < 1e-12
            assert np.abs(partial_trace(joint, lay, "B").entries - b.entries).max() < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = make_density(np.outer(v, v))
        red = partial_trace(rho, BipartiteLayout(2, 2), "B")
        assert np.abs(red.entries - np.eye(2) / 2).max() < 1e-12

    def test_canted_mixture_marginal(self):
        # Equal mixture of product states at cant angles +/- pi/4: the
        # single-spin marginal is the matching mixture of the two spins.
        theta = np.pi / 4
        rho = rho_theta(theta)
        red = partial_trace(rho, BipartiteLayout(2, 2), "A")
        up = np.array([np.sin(theta / 2), np.cos(theta / 2)])
        dn = np.array([-np.sin(theta / 2), np.cos(theta / 2)])
        expected = 0.5 * (np.outer(up, up) + np.outer(dn, dn))
        assert np.abs(red.entries - expected).max() < 1e-12

    def test_layout_mismatch(self):
        rho = make_density(np.eye(4) / 4)
        with pytest.raises(LayoutMismatch):
            partial_trace(rho, BipartiteLayout(3, 2), "A")
        with pytest.raises(ValueError):
            partial_trace(rho, BipartiteLayout(2, 2), "C")


class TestGellmannBasis:
    def test_qubit_basis_is_pauli(self):
        ops = gellmann_basis(2).ops
        assert np.allclose(ops[0], [[0, 1], [1, 0]])
        assert np.allclose(ops[1], [[0, -1j], [1j, 0]])
        assert np.allclose(ops[2], [[1, 0], [0, -1]])

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            gellmann_basis(1)

    def test_qutrit_count_and_norm(self):
        ops = gellmann_basis(3).ops
        assert ops.shape == (8, 3, 3)
        for op in ops:
            assert abs(np.trace(op @ op).real - 3.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gram_matrix(self, d):
        ops = gellmann_basis(d).ops
        gram = np.einsum("mab,nba->mn", ops, ops).real
        assert np.abs(gram - d * np.eye(d * d - 1)).max() < 1e-12
        for op in ops:
            assert abs(np.trace(op)) < 1e-12
            assert np.abs(op - op.conj().T).max() < 1e-12


class TestBlochDecompose:
    def test_product_state_has_zero_correlation(self):
        rng = np.random.default_rng(5)
        joint = tensor(random_density(rng, 3), random_density(rng, 2))
        dec = bloch_decompose(joint, BipartiteLayout(3, 2))
        assert np.abs(dec.corr).max() < 1e-12
        assert np.abs(dec.moment - np.outer(dec.r_a, dec.r_b)).max() < 1e-12

    def test_bell_correlation_tensor(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        dec = bloch_decompose(make_density(np.outer(v, v)), BipartiteLayout(2, 2))
        assert np.abs(dec.r_a).max() < 1e-12
        assert np.abs(dec.r_b).max() < 1e-12
        assert np.abs(dec.corr - np.diag([1.0, -1.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    def test_round_trip(self, d_a):
        rng = np.random.default_rng(100 + d_a)
        lay = BipartiteLayout(d_a, 2)
        for _ in range(50 if d_a == 2 else 20):
            rho = random_density(rng, 2 * d_a)
            dec = bloch_decompose(rho, lay)
            basis_a = gellmann_basis(d_a).ops
            for u, s_u in enumerate(basis_a):
                for v, s_v in enumerate(PAULI):
                    traced = np.trace(rho.entries @ np.kron(s_u, s_v)).real
                    assert abs(dec.moment[u, v] - traced) < 1e-14
            if d_a == 2:  # the searches' Bloch forms take these bits: D and I1 depend on them
                four = rho.entries.reshape(2, 2, 2, 2)
                t_ops = np.einsum("aibj,nji->nab", four, PAULI)
                moment = np.einsum("mba,nab->mn", PAULI, t_ops).real
                assert np.array_equal(dec.corr, moment - np.outer(dec.r_a, dec.r_b))
            back = reconstruct(dec, lay)
            assert np.abs(back.entries - rho.entries).max() < 1e-10
            assert np.linalg.norm(dec.r_b) <= 1.0 + 1e-10
            assert dec.r_a @ dec.r_a <= d_a - 1.0 + 1e-10

    def test_pure_marginal_forces_product(self):
        # |r_b| = 1 leaves no room for correlations.
        rng = np.random.default_rng(8)
        a = random_density(rng, 2)
        b = make_density(np.diag([1.0, 0.0]))
        dec = bloch_decompose(tensor(a, b), BipartiteLayout(2, 2))
        assert abs(np.linalg.norm(dec.r_b) - 1.0) < 1e-10
        assert np.abs(dec.corr).max() < 1e-8

    def test_requires_qubit_b(self):
        rho = make_density(np.eye(6) / 6)
        with pytest.raises(LayoutMismatch):
            bloch_decompose(rho, BipartiteLayout(2, 3))

    def test_layout_requires_qudit_a(self):
        for d_a in (0, 1):
            with pytest.raises(LayoutMismatch):
                BipartiteLayout(d_a, 2)


class TestPurity:
    def test_pure_and_mixed_anchors(self):
        rng = np.random.default_rng(2)
        assert abs(purity(random_pure(rng, 4)) - 1.0) < 1e-12
        assert abs(purity(make_density(np.eye(3) / 3)) - 1.0 / 3.0) < 1e-14
        assert abs(purity(make_density(np.diag([0.75, 0.25]))) - 0.625) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bloch_identity(self, d):
        # 2 (1 - Tr rho^2) = (2/d)(d - 1 - |r|^2) in the normalized basis.
        rng = np.random.default_rng(30 + d)
        ops = gellmann_basis(d).ops
        for _ in range(20):
            rho = random_density(rng, d)
            r = np.einsum("ab,nba->n", rho.entries, ops).real
            lhs = 2.0 * (1.0 - purity(rho))
            rhs = (2.0 / d) * (d - 1.0 - r @ r)
            assert abs(lhs - rhs) < 1e-10


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(77)
        rho = random_density(rng, 4)
        back = from_json(to_json(rho))
        assert back.dim == 4
        assert np.abs(back.entries - rho.entries).max() < 1e-14

    def test_schema(self):
        rho = make_density(np.eye(2) / 2)
        payload = json.loads(to_json(rho))
        assert payload["dim"] == 2
        assert len(payload["entries"]) == 4
        assert payload["entries"][0] == [0.5, 0.0]

    def test_rejects_malformed_payload(self):
        pairs = json.loads(to_json(make_density(np.eye(2) / 2)))["entries"]
        for bad in (
            [2, pairs],
            {"dim": 2},
            {"dim": 2, "entries": pairs, "extra": 0},
            {"dim": 2.0, "entries": pairs},
            {"dim": True, "entries": [[1.0, 0.0]]},
            {"dim": 0, "entries": []},
            {"dim": 2, "entries": pairs[:3]},
            {"dim": 2, "entries": [["0.5", 0.0]] + pairs[1:]},
            {"dim": 2, "entries": [[0.5, 0.0, 0.0]] + pairs[1:]},
            {"dim": 2, "entries": [[float("nan"), 0.0]] + pairs[1:]},
            {"dim": 2, "entries": [[10**400, 0.0]] + pairs[1:]},  # an integer no float holds
        ):
            with pytest.raises(ValueError):
                from_json(json.dumps(bad))
