import numpy as np
import pytest

from qcorr.deficit import quadratic_deficit_closed
from qcorr.discord import discord
from qcorr.entropy import concurrence
from qcorr.errors import (
    GammaTooLarge,
    IndexOutOfRange,
    InvalidTheta,
    TooLarge,
    UnsupportedGeometry,
)
from qcorr.spinchain import (
    SpinChainSpec,
    afm_map,
    build_hamiltonian,
    canted_qubit,
    concurrence_side_limits,
    factorizing_field,
    ground_state,
    parity_crossings,
    parity_sector_energies,
    parity_sectors,
    reduced_pair,
    rho_theta,
)
from qcorr.statekit import PAULI, BipartiteLayout, make_density, partial_trace

LAY22 = BipartiteLayout(2, 2)


class TestBuildHamiltonian:
    def test_two_site_xx_spectrum(self):
        spec = SpinChainSpec(n_sites=2, j_x=1.0, chi=0.0 + 1e-300, field=(0.0, 0.0, 0.0))
        # chi ~ 0 keeps only the x-x bond; spectrum of -Jx Sx Sx is +-1/4.
        ham = build_hamiltonian(spec)
        lams = np.sort(np.linalg.eigvalsh(ham))
        assert np.allclose(lams, [-0.25, -0.25, 0.25, 0.25], atol=1e-12)

    def test_commutes_with_parity_when_transverse(self):
        rng = np.random.default_rng(1)
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=float(rng.uniform(0.1, 1.0)),
                             field=(0.0, 0.0, 0.8))
        ham = build_hamiltonian(spec)
        even, odd = parity_sectors(6)
        assert np.abs(ham[np.ix_(even, odd)]).max() == 0.0

    def test_field_only_ground_state(self):
        h = (0.3, 0.0, 0.7)
        spec = SpinChainSpec(n_sites=4, j_x=0.0, chi=1.0, field=h)
        gs = ground_state(spec)
        h_norm = np.linalg.norm(h)
        assert abs(gs.energy - (-4 * h_norm / 2)) < 1e-9
        # every spin aligned with the field direction
        pair = reduced_pair(gs, 0, 1)
        single = partial_trace(pair, LAY22, "A")
        bloch = np.array([np.trace(single.entries @ p).real for p in PAULI])
        assert np.abs(bloch - np.array(h) / h_norm).max() < 1e-9

    def test_polarized_limit(self):
        # Discord of any pair decays toward zero as the field dominates and
        # the ground state polarizes along it.
        values = []
        for h_z in (5.0, 50.0):
            spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=(0.0, 0.0, h_z))
            gs = ground_state(spec)
            pair = reduced_pair(gs, 0, 1)
            single = partial_trace(pair, LAY22, "A")
            assert abs(np.trace(single.entries @ PAULI[2]).real - 1.0) < 1e-2 / h_z
            values.append(discord(pair, LAY22).value)
        assert values[1] < values[0] / 10
        assert values[1] < 1e-4

    def test_too_large(self):
        with pytest.raises(TooLarge):
            build_hamiltonian(SpinChainSpec(n_sites=15))

    def test_field_must_be_in_xz_plane(self):
        with pytest.raises(ValueError):
            SpinChainSpec(n_sites=4, field=(0.0, 0.3, 0.0))


class TestGroundState:
    def test_parity_blocks_match_full_matrix(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.37, field=(0.0, 0.0, 0.45))
        gs = ground_state(spec)
        full = np.linalg.eigvalsh(build_hamiltonian(spec))[0]
        assert abs(gs.energy - full) < 1e-10
        assert gs.parity in (1, -1)

    def test_nontransverse_parity_broken(self):
        spec = SpinChainSpec(n_sites=4, j_x=1.0, chi=0.5, field=(0.2, 0.0, 0.4))
        gs = ground_state(spec)
        assert gs.parity == 0
        assert gs.parity_label == "broken"

    def test_degenerate_at_factorizing_field(self):
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, np.sqrt(0.5)))
        gs = ground_state(spec)
        assert gs.degenerate
        plus, minus = gs.side_limits
        assert plus.parity == 1 and minus.parity == -1
        assert abs(plus.energy - minus.energy) < 1e-9

    def test_vector_is_eigenvector(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        ham = build_hamiltonian(spec)
        resid = np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector)
        assert resid < 1e-9 * np.abs(ham).sum(axis=1).max()

    def test_vector_has_definite_parity(self):
        n = 6
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        even, odd = parity_sectors(n)
        signs = np.empty(1 << n)
        signs[even] = 1.0
        signs[odd] = -1.0
        assert np.linalg.norm(signs * gs.vector - gs.parity * gs.vector) < 1e-9

    @pytest.mark.parametrize(
        "n, field",
        [
            (14, (np.sin(np.deg2rad(30.0)), 0.0, np.cos(np.deg2rad(30.0)))),
            (12, (0.0, 0.0, 0.4)),
        ],
        ids=["n14-tilted", "n12-transverse"],
    )
    def test_sparse_solve_is_repeatable(self, n, field):
        # The N = 14 tilted matrix and the N = 12 parity blocks take the
        # Lanczos route; its fixed start vector makes repeated solves, and so
        # sweep output, bit-for-bit identical.
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=field)
        first, second = ground_state(spec), ground_state(spec)
        assert first.energy == second.energy
        assert np.array_equal(first.vector, second.vector)

    def test_lanczos_blocks_match_dense(self):
        # N = 10 parity blocks (dimension 512) take the Lanczos route.
        n = 10
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.37, field=(0.0, 0.0, 0.45))
        gs = ground_state(spec)
        ham = build_hamiltonian(spec)
        assert abs(gs.energy - np.linalg.eigh(ham)[0][0]) < 1e-10
        resid = np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector)
        assert resid < 1e-9 * np.abs(ham).sum(axis=1).max()
        even, odd = parity_sectors(n)
        signs = np.empty(1 << n)
        signs[even] = 1.0
        signs[odd] = -1.0
        assert gs.parity in (1, -1)
        assert np.linalg.norm(signs * gs.vector - gs.parity * gs.vector) < 1e-9

    def test_lanczos_side_limits_at_factorizing_field(self):
        n = 12
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, np.sqrt(0.5)))
        gs = ground_state(spec)
        assert gs.degenerate
        plus, minus = gs.side_limits
        c_plus, c_minus = concurrence_side_limits(0.5, n)
        assert abs(concurrence(reduced_pair(plus, 0, 1)) - c_plus) < 1e-9
        assert abs(concurrence(reduced_pair(minus, 0, 1)) - c_minus) < 1e-9


class TestParityCrossings:
    def test_n6_crossing_count_and_last(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5)
        h_c = 0.5 * (1.0 + 0.5)
        crossings = parity_crossings(spec, 1e-4, h_c, points=600)
        assert len(crossings) == 3
        assert abs(crossings[-1] - np.sqrt(0.5)) < 1e-4

    @pytest.mark.parametrize("n", [6, 10])
    def test_sector_energies_split(self, n):
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.2))
        e_even, e_odd = parity_sector_energies(spec)
        gs = ground_state(spec)
        assert abs(min(e_even, e_odd) - gs.energy) < 1e-12

    def test_n10_crossing_count(self):
        # crossings are ~0.1 apart here, so a coarse scan resolves them all
        spec = SpinChainSpec(n_sites=10, j_x=1.0, chi=0.5)
        crossings = parity_crossings(spec, 1e-4, 0.75, points=120)
        assert len(crossings) == 5
        assert abs(crossings[-1] - np.sqrt(0.5)) < 1e-4


class TestReducedPair:
    def test_translation_invariance(self):
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        a = reduced_pair(gs, 0, 1)
        b = reduced_pair(gs, 3, 4)
        assert np.abs(a.entries - b.entries).max() < 1e-9

    def test_product_ground_state_pair(self):
        # At the tilted factorizing field the ground state is an exact
        # product, so the pair state is pure with zero entanglement.
        gamma = np.deg2rad(15.0)
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5,
                             field=(np.sin(gamma), 0.0, np.cos(gamma)))
        gs = ground_state(spec)
        pair = reduced_pair(gs, 0, 1)
        lams = np.linalg.eigvalsh(pair.entries)
        assert lams[-1] > 1.0 - 1e-9
        assert concurrence(pair) < 1e-8
        single = partial_trace(pair, LAY22, "A")
        bloch = np.array([np.trace(single.entries @ p).real for p in PAULI])
        theta = np.arccos(np.sqrt(0.5))
        assert abs(abs(bloch[2]) - np.cos(theta)) < 1e-8
        assert abs(abs(bloch[0]) - np.sin(theta)) < 1e-8

    def test_index_out_of_range(self):
        gs = ground_state(SpinChainSpec(n_sites=4, field=(0.0, 0.0, 0.1)))
        with pytest.raises(IndexOutOfRange):
            reduced_pair(gs, 2, 2)
        with pytest.raises(IndexOutOfRange):
            reduced_pair(gs, 0, 4)


class TestFactorizingField:
    def test_transverse_value(self):
        fac = factorizing_field(0.5, 1.0)
        assert abs(fac.h_zs - 0.7071067812) < 1e-9
        assert abs(fac.h_s - fac.h_zs) < 1e-15
        assert abs(np.cos(fac.theta) - np.sqrt(0.5)) < 1e-12

    def test_tilted_value(self):
        fac = factorizing_field(0.5, 1.0, np.deg2rad(15.0))
        assert abs(fac.h_s - 1.0) < 1e-12

    def test_isotropic_boundary(self):
        fac = factorizing_field(1.0, 2.0)
        assert fac.theta == 0.0
        assert abs(fac.h_zs - 2.0) < 1e-15
        with pytest.raises(GammaTooLarge):
            factorizing_field(1.0, 2.0, 0.1)

    def test_gamma_too_large(self):
        with pytest.raises(GammaTooLarge):
            factorizing_field(0.5, 1.0, np.pi / 4)

    def test_small_gamma_limit(self):
        fac = factorizing_field(0.5, 1.0)
        assert abs(fac.magnitude_at(1e-9) - fac.h_zs) < 1e-8


class TestRhoTheta:
    def test_extreme_angle_is_classical_x_mixture(self):
        rho = rho_theta(np.pi / 2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        expected = 0.5 * (
            np.outer(np.kron(plus, plus), np.kron(plus, plus))
            + np.outer(np.kron(minus, minus), np.kron(minus, minus))
        )
        assert np.abs(rho.entries - expected).max() < 1e-12
        res = discord(rho, LAY22)
        assert res.value < 1e-8
        assert abs(res.k_star.k[0] - 1.0) < 1e-4

    def test_concurrence_vanishes_without_overlap(self):
        for theta in np.linspace(0.15, np.pi / 2, 6):
            assert concurrence(rho_theta(theta)) < 1e-12

    def test_side_limit_concurrences_match_formula(self):
        theta = np.arccos(np.sqrt(0.5))
        _, (rp, rm) = rho_theta(theta, 8)
        cp, cm = concurrence_side_limits(0.5, 8)
        assert abs(concurrence(rp) - cp) < 1e-9
        assert abs(concurrence(rm) - cm) < 1e-9
        assert abs(cp - 0.0588235) < 1e-6
        assert abs(cm - 0.0666667) < 1e-6

    def test_bloch_convention(self):
        theta = 0.7
        ket = canted_qubit(theta)
        rho = make_density(np.outer(ket, ket.conj()))
        bloch = np.array([np.trace(rho.entries @ p).real for p in PAULI])
        assert np.abs(bloch - [np.sin(theta), 0.0, -np.cos(theta)]).max() < 1e-12

    def test_invalid_theta(self):
        with pytest.raises(InvalidTheta):
            rho_theta(0.0)
        with pytest.raises(InvalidTheta):
            rho_theta(2.0)


class TestSideLimitsAgainstChain:
    def test_ed_matches_construction(self):
        # The diagonalized side limits and the directly built definite-parity
        # combinations give the same pair measures for every separation.
        theta = np.arccos(np.sqrt(0.5))
        _, (rp, rm) = rho_theta(theta, 8)
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, np.sqrt(0.5)))
        gs = ground_state(spec)
        refs = {1: rp, -1: rm}
        for side in gs.side_limits:
            ref = refs[side.parity]
            d_ref = discord(ref, LAY22).value
            i2_ref = quadratic_deficit_closed(ref, LAY22).value
            for sep in (1, 2, 3, 4):
                pair = reduced_pair(gs=side, i=0, j=sep)
                assert abs(discord(pair, LAY22).value - d_ref) < 1e-8
                assert abs(quadratic_deficit_closed(pair, LAY22).value - i2_ref) < 1e-8
                assert abs(concurrence(pair) - concurrence(ref)) < 1e-8


class TestAfmMap:
    def test_energy_invariant(self):
        neg = SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.4))
        pos, signs = afm_map(neg)
        assert pos.j_x == 1.0
        e_neg = ground_state(neg).energy
        e_pos = ground_state(pos).energy
        assert abs(e_neg - e_pos) < 1e-10
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_discord_invariant(self):
        neg = SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.4))
        pos, _ = afm_map(neg)
        pair_neg = reduced_pair(ground_state(neg), 0, 1)
        pair_pos = reduced_pair(ground_state(pos), 0, 1)
        assert abs(discord(pair_neg, LAY22).value - discord(pair_pos, LAY22).value) < 1e-8

    def test_transform_alternates_product_state(self):
        # The sign map sends the uniform canted product chain to the
        # alternating one, up to a global sign.
        theta = 0.6
        n = 6
        _, signs = afm_map(SpinChainSpec(n_sites=n, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.1)))
        up = canted_qubit(theta)
        dn = canted_qubit(-theta)
        uniform = up
        alternating = up
        for i in range(1, n):
            uniform = np.kron(uniform, up)
            alternating = np.kron(alternating, dn if i % 2 == 1 else up)
        # even sites (0-indexed) keep +theta, odd sites... the rotation acts
        # on even sites, flipping their cant sign instead:
        flipped = dn
        for i in range(1, n):
            flipped = np.kron(flipped, up if i % 2 == 1 else dn)
        mapped = signs * uniform
        overlap_alt = abs(np.vdot(mapped, alternating))
        overlap_flip = abs(np.vdot(mapped, flipped))
        assert max(overlap_alt, overlap_flip) > 1.0 - 1e-12

    def test_unsupported_geometries(self):
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=5, j_x=-1.0, chi=0.5))
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5))
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.1, 0.0, 0.0)))
