"""Exact ground states of finite XY chains and their factorization points.

The Hamiltonian is

    H = - sum_i h . S_i - sum_i (J_x S_i^x S_{i+1}^x + J_y S_i^y S_{i+1}^y)

on the cyclic first-neighbor ring (site N is site 0; N = 2 has one bond)
that every formula here assumes, with S^u = sigma^u / 2, a field h in the xz
plane and J_y = chi * J_x.  For a transverse field the z spin parity
P_z = prod_i(-2 S_i^z) commutes with H, so diagonalization proceeds per
parity block and ground-state parity crossings can be located exactly.  The
last crossing sits at the transverse factorizing field h_zs = J_x sqrt(chi),
where two completely separable ground states with per-site cant angle theta
(cos theta = sqrt(chi)) become degenerate; a field tilted by gamma < theta
from the z axis instead admits a single separable ground state at the
magnitude h_zs sin(theta)/sin(theta - gamma).

Site ordering follows the package convention: site 0 is the slowest index,
so basis state r has bit (r >> (N - 1 - i)) & 1 at site i, with bit 0 the
spin-up (S^z = +1/2) state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import (
    GammaTooLarge,
    IndexOutOfRange,
    InvalidTheta,
    TooLarge,
    UnsupportedGeometry,
)
from .statekit import DensityMatrix, make_density

MAX_SITES = 14
#: Largest matrix solved densely: above it Lanczos wins (dim 512: 2.3 ms against 20 ms).
DENSE_MAX_DIM = 256
#: Relative energy-splitting threshold below which a crossing is declared.
DEGENERACY_RTOL = 1e-10
#: Width of the field bracket at which crossing bisection stops.
CROSSING_TOL = 1e-10

PARITY_EVEN = 1
PARITY_ODD = -1
PARITY_BROKEN = 0


@dataclass(frozen=True)
class SpinChainSpec:
    """Cyclic first-neighbor ring: N spins, J_x, J_y = chi * J_x, a field with h_y = 0."""

    n_sites: int
    j_x: float = 1.0
    chi: float = 1.0
    field: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if abs(self.field[1]) > 0.0:
            raise ValueError("field must lie in the xz plane (h_y = 0)")

    @property
    def transverse(self) -> bool:
        return self.field[0] == 0.0


@dataclass(frozen=True)
class GroundState:
    """Ground level of a chain: energy, vector, and parity bookkeeping.

    ``parity`` is +1 or -1 for transverse fields and 0 when the field breaks
    the symmetry.  At a parity crossing ``degenerate`` is set and
    ``side_limits`` carries the even- and odd-parity states whose reduced
    pairs are the physical side limits.
    """

    energy: float
    vector: np.ndarray
    parity: int
    degenerate: bool = False
    side_limits: tuple["GroundState", "GroundState"] | None = None

    def __post_init__(self):
        self.vector.setflags(write=False)

    @property
    def n_sites(self) -> int:
        return int(np.log2(self.vector.size) + 0.5)

    @property
    def parity_label(self) -> str:
        return {PARITY_EVEN: "+1", PARITY_ODD: "-1", PARITY_BROKEN: "broken"}[self.parity]


@dataclass(frozen=True)
class FactorizationData:
    """Cant angle and factorizing-field magnitudes of a chain family."""

    theta: float
    h_zs: float
    h_s: float
    gamma: float
    chi: float
    j_x: float

    def magnitude_at(self, gamma: float) -> float:
        """Factorizing-field magnitude at a different tilt angle."""
        return _h_s_magnitude(self.theta, self.h_zs, gamma)


@dataclass(frozen=True)
class PairObservables:
    """Reduced pair state at separation L with a bag of computed measures."""

    rho_pair: DensityMatrix
    separation: int
    measures: dict


def _site_bits(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    shifts = n - 1 - np.arange(n)
    return (idx[:, None] >> shifts[None, :]) & 1


def _sparse_hamiltonian(spec: SpinChainSpec) -> sp.csr_matrix:
    n = spec.n_sites
    if n > MAX_SITES:
        raise TooLarge(f"exact diagonalization capped at {MAX_SITES} sites, got {n}")
    dim = 1 << n
    h_x, _, h_z = spec.field
    bits = _site_bits(n)
    zvals = 1.0 - 2.0 * bits  # sigma_z eigenvalue per site
    idx = np.arange(dim)

    rows, cols, vals = [], [], []
    # Field along z: diagonal -h_z/2 * sum_i sigma_z.
    diag = -0.5 * h_z * zvals.sum(axis=1)
    rows.append(idx)
    cols.append(idx)
    vals.append(diag)
    # Field along x: single bit flips, element -h_x/2.
    if h_x != 0.0:
        for i in range(n):
            mask = 1 << (n - 1 - i)
            rows.append(idx ^ mask)
            cols.append(idx)
            vals.append(np.full(dim, -0.5 * h_x))
    # Ring bonds (i, i + 1 mod N), of which N = 2 has one: double bit flips
    # with elements -Jx/4 + Jy z_i z_j / 4.
    for i in range(n if n > 2 else 1):
        j = (i + 1) % n
        mask = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
        zz = zvals[:, i] * zvals[:, j]
        rows.append(idx ^ mask)
        cols.append(idx)
        vals.append(-0.25 * spec.j_x + 0.25 * (spec.chi * spec.j_x) * zz)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense Hamiltonian matrix (real, since the field lies in the xz plane)."""
    return _sparse_hamiltonian(spec).toarray()


def parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-state indices of the even and odd P_z sectors."""
    pops = _site_bits(n).sum(axis=1)
    even = ((n + pops) % 2) == 0
    return np.nonzero(even)[0], np.nonzero(~even)[0]


def _lowest_levels(
    mat: sp.csr_matrix, k: int, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Lowest ``k`` eigenvalues (ascending) of a real symmetric matrix and their
    eigenvectors, or None in their place when ``vectors`` is false.

    Every eigensolve of the chain goes through here: dense LAPACK up to
    ``DENSE_MAX_DIM``, Lanczos (ARPACK) above it.  The crossing scan needs no
    vectors, and skipping them saves about 15% of its dense solve time.
    """
    dim = mat.shape[0]
    if dim <= DENSE_MAX_DIM:
        out = scipy.linalg.eigh(mat.toarray(), subset_by_index=(0, k - 1), eigvals_only=not vectors)
    else:
        # A fixed start vector keeps ARPACK, and so the sweep output, deterministic.
        v0 = np.random.default_rng(0).normal(size=dim)
        out = sp.linalg.eigsh(mat, k=k, which="SA", v0=v0, return_eigenvectors=vectors)
    w, v = out if vectors else (out, None)
    order = np.argsort(w)
    return w[order], None if v is None else v[:, order]


def _sector_ground_states(h_sparse: sp.csr_matrix, n: int) -> tuple[GroundState, GroundState]:
    """Lowest even- and odd-parity states of a transverse-field Hamiltonian."""
    states = []
    for parity, sel in zip((PARITY_EVEN, PARITY_ODD), parity_sectors(n)):
        w, v = _lowest_levels(h_sparse[sel][:, sel], 1)
        vector = np.zeros(h_sparse.shape[0])
        vector[sel] = v[:, 0]
        states.append(GroundState(float(w[0]), vector, parity))
    return states[0], states[1]


def ground_state(spec: SpinChainSpec) -> GroundState:
    """Exact ground state of the chain.

    Transverse fields are diagonalized per parity block; when the two block
    minima agree within 1e-10 of the Hamiltonian scale the state is flagged
    degenerate and both definite-parity side limits are attached (even
    first).  Non-transverse fields break the symmetry and return a plain
    ground state with parity marked broken.  Matrices up to dimension
    ``DENSE_MAX_DIM`` are solved densely, larger ones by Lanczos.
    """
    h_sparse = _sparse_hamiltonian(spec)
    scale = max(float(np.abs(h_sparse).sum(axis=1).max()), 1e-30)
    if spec.transverse:
        even, odd = _sector_ground_states(h_sparse, spec.n_sites)
        lower = even if even.energy <= odd.energy else odd
        if abs(even.energy - odd.energy) > DEGENERACY_RTOL * scale:
            return lower
        side = (replace(even, degenerate=True), replace(odd, degenerate=True))
        return replace(lower, degenerate=True, side_limits=side)
    w, v = _lowest_levels(h_sparse, 2)
    degenerate = abs(w[1] - w[0]) <= DEGENERACY_RTOL * scale
    return GroundState(float(w[0]), v[:, 0], PARITY_BROKEN, degenerate=degenerate)


def parity_sector_energies(spec: SpinChainSpec) -> tuple[float, float]:
    """Lowest energy in the even and odd parity sectors (transverse only)."""
    if not spec.transverse:
        raise UnsupportedGeometry("parity sectors require a transverse field")
    even, odd = _sector_ground_states(_sparse_hamiltonian(spec), spec.n_sites)
    return even.energy, odd.energy


def parity_crossings(
    spec: SpinChainSpec, h_min: float, h_max: float, points: int = 2000
) -> np.ndarray:
    """Transverse fields where the parity-sector ground levels cross.

    Scans the energy splitting on a uniform grid and refines each sign change
    by bisection.  Each block is assembled once without the field, whose
    diagonal is then rewritten in place at every scanned field, so a scan costs
    one lowest-level solve per grid point and block.
    """
    h_sparse = _sparse_hamiltonian(replace(spec, field=(0.0, 0.0, 0.0)))
    zsum = (1.0 - 2.0 * _site_bits(spec.n_sites)).sum(axis=1)
    blocks = [(h_sparse[sel][:, sel], zsum[sel]) for sel in parity_sectors(spec.n_sites)]

    def splitting(h_z: float) -> float:
        energies = []
        for block, zs in blocks:
            block.setdiag(-0.5 * h_z * zs)
            energies.append(_lowest_levels(block, 1, vectors=False)[0][0])
        return energies[0] - energies[1]

    grid = np.linspace(h_min, h_max, points)
    values = np.array([splitting(h) for h in grid])
    crossings = []
    for i in range(points - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            crossings.append(grid[i])
            continue
        if a * b < 0.0:
            lo, hi = grid[i], grid[i + 1]
            flo = a
            while hi - lo > CROSSING_TOL:
                mid = 0.5 * (lo + hi)
                fm = splitting(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            crossings.append(0.5 * (lo + hi))
    return np.array(crossings)


def _reduced_pair_from_vector(vector: np.ndarray, n: int, i: int, j: int) -> DensityMatrix:
    if not (0 <= i < j < n):
        raise IndexOutOfRange(f"need 0 <= i < j < {n}, got ({i}, {j})")
    psi = vector.reshape((2,) * n)
    psi = np.moveaxis(psi, (i, j), (0, 1)).reshape(4, -1)
    return make_density(psi @ psi.conj().T)


def reduced_pair(gs: GroundState, i: int, j: int) -> DensityMatrix:
    """Two-site reduced state of the ground vector at sites (i, j)."""
    return _reduced_pair_from_vector(gs.vector, gs.n_sites, i, j)


def _h_s_magnitude(theta: float, h_zs: float, gamma: float) -> float:
    if gamma == 0.0:
        return h_zs
    if not 0.0 < gamma < theta:
        raise GammaTooLarge(
            f"tilt gamma = {gamma:.6g} must satisfy 0 <= gamma < theta = {theta:.6g}"
        )
    return h_zs * np.sin(theta) / np.sin(theta - gamma)


def factorizing_field(chi: float, j_x: float, gamma: float = 0.0) -> FactorizationData:
    """Cant angle and factorizing field for anisotropy chi and tilt gamma.

    theta = arccos(sqrt(chi)); the transverse value is h_zs = J_x sqrt(chi)
    and the tilted magnitude h_zs sin(theta)/sin(theta - gamma).  gamma = 0
    always returns the transverse limit; a positive tilt requires
    gamma < theta (at chi = 1 the cone closes and no tilted factorization
    exists).
    """
    if not 0.0 < chi <= 1.0:
        raise ValueError(f"chi must be in (0, 1], got {chi}")
    if j_x <= 0.0:
        raise ValueError(f"j_x must be positive, got {j_x}")
    if gamma < 0.0:
        raise GammaTooLarge(f"gamma must be nonnegative, got {gamma}")
    theta = float(np.arccos(np.sqrt(chi)))
    h_zs = j_x * float(np.sqrt(chi))
    h_s = _h_s_magnitude(theta, h_zs, float(gamma))
    return FactorizationData(theta=theta, h_zs=h_zs, h_s=h_s, gamma=float(gamma), chi=chi, j_x=j_x)


def canted_qubit(theta: float) -> np.ndarray:
    """Single-spin state with Bloch vector (sin theta, 0, -cos theta).

    This is the fixed rotation convention for the factorized-state algebra:
    angle theta from the -z axis in the xz plane with positive x component.
    """
    return np.array([np.sin(0.5 * theta), np.cos(0.5 * theta)], dtype=complex)


def rho_theta(theta: float, n_sites: int | None = None):
    """Reduced pair state(s) of the factorized ground manifold.

    With ``n_sites`` omitted, returns the overlap-neglected equal mixture of
    the two product states at cant angles +/- theta, the common reduced pair
    state at the transverse factorizing field.  With ``n_sites`` given, also
    builds the exact definite-parity combinations of the two product chains
    and returns ``(rho_theta, (rho_plus, rho_minus))`` with their reduced
    pair states, which retain the overlap cos(theta)^N.
    """
    if not 0.0 < theta <= 0.5 * np.pi:
        raise InvalidTheta(f"theta must be in (0, pi/2], got {theta}")
    up = canted_qubit(theta)
    down = canted_qubit(-theta)
    pair_up = np.kron(up, up)
    pair_down = np.kron(down, down)
    mixed = 0.5 * (np.outer(pair_up, pair_up.conj()) + np.outer(pair_down, pair_down.conj()))
    rho_mix = make_density(mixed)
    if n_sites is None:
        return rho_mix
    if n_sites > MAX_SITES:
        raise TooLarge(f"chain construction capped at {MAX_SITES} sites")
    chain_up = up
    chain_down = down
    for _ in range(n_sites - 1):
        chain_up = np.kron(chain_up, up)
        chain_down = np.kron(chain_down, down)
    overlap = float(np.cos(theta) ** n_sites)
    sides = []
    for sign in (+1.0, -1.0):
        vec = (chain_up + sign * chain_down) / np.sqrt(2.0 * (1.0 + sign * overlap))
        sides.append(_reduced_pair_from_vector(vec, n_sites, 0, 1))
    return rho_mix, (sides[0], sides[1])


def concurrence_side_limits(chi: float, n_sites: int) -> tuple[float, float]:
    """Residual pair concurrences of the definite-parity states at h_zs.

    C_+- = chi^(N/2 - 1) (1 - chi) / (1 +- chi^(N/2)); the overlap between
    the two factorized chains enters through chi^(N/2) = cos(theta)^N.
    """
    half = chi ** (n_sites / 2.0)
    common = chi ** (n_sites / 2.0 - 1.0) * (1.0 - chi)
    return common / (1.0 + half), common / (1.0 - half)


def afm_map(spec: SpinChainSpec) -> tuple[SpinChainSpec, np.ndarray]:
    """Map an antiferromagnetic first-neighbor chain to the ferromagnetic one.

    A pi rotation about z on every even site flips the sign of both
    couplings while leaving a transverse field untouched.  Requires even N,
    J_x < 0, and a transverse field.
    Returns the rotated spec and the diagonal of the rotation in the
    computational basis (a vector of +/- 1 signs); even separations are
    untouched by the map while the factorized product states acquire
    alternating cant angles.
    """
    if spec.j_x >= 0.0:
        raise UnsupportedGeometry("sign map applies to antiferromagnetic J_x < 0")
    if spec.n_sites % 2 != 0:
        raise UnsupportedGeometry("sign map requires an even number of sites")
    if not spec.transverse:
        raise UnsupportedGeometry("sign map requires a transverse field")
    bits = _site_bits(spec.n_sites)
    even_down = bits[:, 0::2].sum(axis=1)
    signs = np.where(even_down % 2 == 0, 1.0, -1.0)
    return replace(spec, j_x=-spec.j_x), signs
