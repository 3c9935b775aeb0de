"""Shared random-state generators and independent oracle evaluations.

The oracles here deliberately avoid the package's Bloch-tensor fast paths:
conditional blocks are contracted straight from the joint matrix with
explicit projectors, and quadratic entropies are evaluated through the
defining purity formula, so closed-form results are checked against a
different computational route.
"""

import numpy as np

from qcorr.entropy import QUADRATIC
from qcorr.statekit import BipartiteLayout, DensityMatrix, make_density


def family_id(functional) -> str:
    """Parameter id of a functional: its label, or "quadratic" for the object ``QUADRATIC``.

    ``QUADRATIC`` equals ``tsallis(2.0)`` and shares its label, so the two
    need distinct ids where a test runs both.
    """
    return "quadratic" if functional is QUADRATIC else functional.label()


def random_density(rng, dim, rank=None) -> DensityMatrix:
    """Full-rank (or fixed-rank) state from the Ginibre ensemble."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    return make_density(mat / mat.trace())


def random_pure(rng, dim) -> DensityMatrix:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return make_density(np.outer(v, v.conj()))


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI3 = np.stack([_SX, _SY, _SZ])


def qubit_projector(k) -> np.ndarray:
    return 0.5 * (np.eye(2, dtype=complex) + k[0] * _SX + k[1] * _SY + k[2] * _SZ)


def qubit_projectors_batch(dirs) -> np.ndarray:
    dirs = np.atleast_2d(dirs)
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("mn,nij->mij", dirs, _PAULI3))


def random_semi_quantum(rng, d_a, k=None) -> tuple[DensityMatrix, np.ndarray]:
    """State of the measured form sum_s p_s rho_s (x) P_sk, plus its pointer axis."""
    if k is None:
        k = random_direction(rng)
    p = rng.uniform(0.2, 0.8)
    parts = p * np.kron(random_density(rng, d_a).entries, qubit_projector(k))
    parts = parts + (1 - p) * np.kron(random_density(rng, d_a).entries, qubit_projector(-k))
    return make_density(parts), k


def random_rank_one_povm(rng, n_elements=3):
    """Random completeness-respecting rank-one POVM weights and directions."""
    while True:
        q = rng.uniform(0.3, 1.2, size=n_elements - 1)
        dirs = np.array([random_direction(rng) for _ in range(n_elements - 1)])
        resid = -(q[:, None] * dirs).sum(axis=0)
        norm = np.linalg.norm(resid)
        if norm > 1e-3:
            break
    q = np.append(q, norm)
    dirs = np.vstack([dirs, resid / norm])
    q *= 2.0 / q.sum()
    return q, dirs


def pinched_blocks(rho: DensityMatrix, layout: BipartiteLayout, dirs: np.ndarray):
    """A-side blocks Tr_B[rho (I x P_k)] for a batch of directions.

    Contracted directly from the joint matrix with explicit projectors; used
    as the independent route for oracle grids.
    """
    d_a = layout.d_a
    four = rho.entries.reshape(d_a, 2, d_a, 2)
    projs = qubit_projectors_batch(dirs)
    # plus[m, a, b] = sum_ij four[a, i, b, j] projs[m, j, i], as one matmul
    table = four.transpose(0, 2, 3, 1).reshape(d_a * d_a, 4)
    plus = (projs.reshape(-1, 4) @ table.T).reshape(-1, d_a, d_a)
    minus = np.einsum("aibi->ab", four) - plus
    return plus, minus


def oracle_quadratic_conditional(rho, layout, dirs):
    """S_2 conditional entropy from the defining purity formula, batched."""
    plus, minus = pinched_blocks(rho, layout, dirs)
    out = np.zeros(len(plus))
    for blocks in (plus, minus):
        p = np.einsum("maa->m", blocks).real
        pur = np.einsum("mab,mba->m", blocks, blocks).real
        good = p > 1e-14
        out[good] += 2.0 * (p[good] - pur[good] / p[good])
    return out


def _sum_xlog2x(w):
    """sum_i w_i log2 w_i over the last axis, with zero entries dropped."""
    pos = w > 0.0
    return np.where(pos, w * np.log2(np.where(pos, w, 1.0)), 0.0).sum(axis=-1)


def vn_entropy_bits(mat) -> float:
    """Von Neumann entropy in bits of a Hermitian matrix, from its spectrum."""
    return float(-_sum_xlog2x(np.linalg.eigvalsh(mat)))


def oracle_vn_conditional(rho, layout, dirs):
    """Von Neumann conditional entropy sum_s p_s S(rho_A|s) in bits, batched.

    Each pinched block has trace p_s and spectrum w, so its term is
    p_s log2 p_s - sum w log2 w.
    """
    out = np.zeros(len(np.atleast_2d(dirs)))
    for blocks in pinched_blocks(rho, layout, dirs):
        w = np.linalg.eigvalsh(blocks)
        out += _sum_xlog2x(w.sum(axis=-1, keepdims=True)) - _sum_xlog2x(w)
    return out


def oracle_quadratic_deficit(rho, layout, dirs):
    """2 (Tr rho^2 - Tr rho'^2) from block purities, batched."""
    plus, minus = pinched_blocks(rho, layout, dirs)
    pur_after = (
        np.einsum("mab,mba->m", plus, plus).real + np.einsum("mab,mba->m", minus, minus).real
    )
    pur_before = np.vdot(rho.entries, rho.entries).real
    return 2.0 * (pur_before - pur_after)


def degree_grid(theta_step=1, phi_step=1) -> np.ndarray:
    """Upper-hemisphere grid in whole degrees."""
    thetas = np.deg2rad(np.arange(0, 91, theta_step, dtype=float))
    phis = np.deg2rad(np.arange(0, 360, phi_step, dtype=float))
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)


def degree_grid_minima(values, theta_step=1, phi_step=1) -> np.ndarray:
    """Indices of the local minima of values sampled on ``degree_grid``.

    A point is a minimum if none of its eight grid neighbours is lower.
    Neighbours across the pole, and across the equator (where k and -k are
    the same measurement), lie half a turn away in phi.  The duplicate copies
    of the pole and of the equator are dropped.
    """
    n_t, n_p = 90 // theta_step + 1, 360 // phi_step
    half = n_p // 2
    v = np.asarray(values).reshape(n_t, n_p)
    ext = np.vstack([np.roll(v[1:2], half, axis=1), v, np.roll(v[-2:-1], half, axis=1)])
    ext = np.hstack([ext[:, -1:], ext, ext[:, :1]])
    is_min = np.ones(v.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= v <= ext[1 + di : 1 + di + n_t, 1 + dj : 1 + dj + n_p]
    is_min[0, 1:] = False
    is_min[-1, half:] = False
    return np.flatnonzero(is_min)


_STENCIL = np.array(
    [(du, dv) for du in (-1.0, 0.0, 1.0) for dv in (-1.0, 0.0, 1.0) if (du, dv) != (0.0, 0.0)]
)


def local_zoom(f_batch, k0, v0, step0=np.deg2rad(1.0), rounds=40):
    """Pattern-search refinement of a batched objective on the sphere.

    ``f_batch`` maps an (M, 3) array of directions to (M,) values.  Steps
    live in the local tangent plane, so convergence does not degrade near
    the poles of the spherical parameterization.
    """
    k0 = np.asarray(k0, dtype=float)
    step = step0
    for _ in range(rounds):
        ref = np.array([0.0, 0.0, 1.0]) if abs(k0[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(ref, k0)
        u /= np.linalg.norm(u)
        v = np.cross(k0, u)
        cands = k0 + step * (_STENCIL[:, :1] * u + _STENCIL[:, 1:] * v)
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        vals = np.asarray(f_batch(cands))
        best = int(np.argmin(vals))
        if vals[best] < v0 - 1e-16:
            k0, v0 = cands[best], float(vals[best])
        else:
            step /= 2.5
            if step < 1e-9:
                break
    return k0, v0


def majorizes(lams_big, lams_small, tol=1e-10) -> bool:
    """True if the first spectrum majorizes the second."""
    a = np.sort(np.asarray(lams_big))[::-1]
    b = np.sort(np.asarray(lams_small))[::-1]
    return bool(np.all(np.cumsum(b) <= np.cumsum(a) + tol))


def free_fermion_sector_energy(n_sites, j_x, chi, h_z, parity) -> float:
    """Lowest energy of one P_z sector of the transverse XY ring, for N >= 3.

    Jordan-Wigner with sigma^z = 1 - 2 c^dag c turns the sector into a
    quadratic fermion Hamiltonian (Lieb, Schultz and Mattis 1961): hopping A
    and pairing B, with the boundary bond's sign flipped (antiperiodic
    fermions) when the sector's fermion number is even.  With eps the
    singular values of A - B its vacuum energy is Tr A / 2 - sum(eps) / 2;
    the vacuum's fermion parity is that of det(A - B) > 0, and a sector of
    the other parity occupies the lowest mode.  No exact diagonalization.
    """
    even_fermions = (parity == 1) == (n_sites % 2 == 0)
    a = np.diag(np.full(n_sites, float(h_z)))
    b = np.zeros((n_sites, n_sites))
    for i in range(n_sites):
        j = (i + 1) % n_sites
        s = -1.0 if j == 0 and even_fermions else 1.0
        a[i, j] = a[j, i] = -s * j_x * (1.0 + chi) / 4.0
        b[i, j] = -s * j_x * (1.0 - chi) / 4.0
        b[j, i] = -b[i, j]
    eps = np.linalg.svd(a - b, compute_uv=False)
    energy = -h_z * n_sites / 2.0 + np.trace(a) / 2.0 - eps.sum() / 2.0
    if (np.linalg.det(a - b) > 0.0) != even_fermions:
        energy += eps.min()
    return float(energy)


def kron_hamiltonian(spec) -> np.ndarray:
    """Dense chain Hamiltonian as a sum of Pauli strings built with ``np.kron``, for N <= 8.

    H = - sum_i (h_x S^x_i + h_z S^z_i) - sum_bonds (J_x S^x S^x + J_y S^y S^y)
    on the ring (one bond at N = 2), with S = sigma / 2 and site 0 the
    leftmost factor.  Shares no code with the package's bit-flip assembly.
    """
    n = spec.n_sites
    assert n <= 8, "the Kronecker oracle is dense: keep N <= 8"

    def string(ops: dict) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for site in range(n):
            out = np.kron(out, ops.get(site, np.eye(2)))
        return out

    h_x, _, h_z = spec.field
    j_y = spec.chi * spec.j_x
    ham = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n):
        ham -= 0.5 * (h_x * string({i: _SX}) + h_z * string({i: _SZ}))
    for i in range(n if n > 2 else 1):
        j = (i + 1) % n
        ham -= 0.25 * (spec.j_x * string({i: _SX, j: _SX}) + j_y * string({i: _SY, j: _SY}))
    assert np.abs(ham.imag).max() == 0.0
    return ham.real


def kron_parity(n: int) -> np.ndarray:
    """Diagonal of P_z = prod_i (-sigma^z_i) from ``np.kron``."""
    out = np.ones(1)
    for _ in range(n):
        out = np.kron(out, -np.diag(_SZ).real)
    return out


def twofold_mixture_pairs(ham: np.ndarray, n: int) -> dict:
    """Pair states of sites (0, L), for every L, of the equal mixture of the two lowest
    eigenvectors of a dense chain Hamiltonian, from ``np.linalg.eigh``; the lowest level
    must be exactly twofold."""
    w, v = np.linalg.eigh(ham)
    scale = np.abs(ham).sum(axis=1).max()
    assert w[1] - w[0] < 1e-12 * scale < w[2] - w[0], w[:3]
    pairs = {}
    for sep in range(1, n):
        vecs = [np.moveaxis(v[:, k].reshape((2,) * n), (0, sep), (0, 1)).reshape(4, -1) for k in (0, 1)]
        pairs[sep] = make_density(0.5 * sum(vec @ vec.T for vec in vecs))
    return pairs
