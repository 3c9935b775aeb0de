"""Complex density-matrix algebra for qudit-qubit systems.

Construction and validation of density matrices, partial traces, tensor
products, traceless Hermitian operator bases and the Bloch /
correlation-tensor decomposition of bipartite states with a qubit on side B.

Conventions
-----------
* Side A is a qudit (``d_a >= 2``), side B a qubit; :class:`BipartiteLayout` checks both.
* Joint indices are row-major with subsystem A slow and B fast: the joint
  basis index is ``i_a * d_b + i_b``, which matches ``numpy.kron(A, B)``.
* Traceless Hermitian bases are normalized so that
  ``Tr(s_u s_v) = d * delta_uv``.  For a qubit this is exactly the Pauli
  triple (x, y, z), and a single-system state reads
  ``rho = (I + r . sigma) / d`` with ``r = <sigma>``.
* Basis ordering is fixed: symmetric off-diagonal pairs first, then
  antisymmetric pairs, then diagonal operators, each group in lexicographic
  order of the index pair.  Correlation tensors are therefore reproducible
  across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LayoutMismatch, NotHermitian, NotPositive, TraceDeviation

# Validation thresholds for raw input matrices.  After construction the
# stored matrix is exactly Hermitian with spectrum clipped to [0, 1] and
# renormalized to unit trace.
HERMITICITY_TOL = 1e-8
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class BipartiteLayout:
    """Dimensions of a qudit-qubit space; anything but ``d_a >= 2``, ``d_b = 2`` is refused."""

    d_a: int
    d_b: int = 2

    def __post_init__(self):
        if self.d_a < 2 or self.d_b != 2:
            raise LayoutMismatch(f"need d_a >= 2 and a qubit on side B (d_b = 2), got {self}")

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def check(self, rho: "DensityMatrix") -> None:
        if rho.dim != self.dim:
            raise LayoutMismatch(
                f"state dimension {rho.dim} does not match layout {self.d_a}x{self.d_b}"
            )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix.

    ``correction`` records the Frobenius-norm distance between the raw input
    and the stored, repaired matrix (Hermitization, clipping of tiny negative
    eigenvalues, trace renormalization).
    """

    dim: int
    entries: np.ndarray
    correction: float = 0.0

    def __post_init__(self):
        self.entries.setflags(write=False)


@dataclass(frozen=True)
class OperatorBasis:
    """Traceless Hermitian basis with ``Tr(s_u s_v) = d * delta_uv``."""

    dim: int
    ops: np.ndarray  # shape (d*d - 1, d, d)

    def __post_init__(self):
        self.ops.setflags(write=False)


@dataclass(frozen=True)
class BlochDecomposition:
    """Bloch vectors and correlation tensors of a qudit-qubit state.

    ``corr`` is the covariance tensor ``<sA_u x sB_v> - <sA_u><sB_v>`` and
    ``moment`` the uncentered cross-moment tensor, so that
    ``moment = corr + outer(r_a, r_b)``.
    """

    r_a: np.ndarray  # (d_a^2 - 1,)
    r_b: np.ndarray  # (3,)
    corr: np.ndarray  # (d_a^2 - 1, 3)
    moment: np.ndarray  # (d_a^2 - 1, 3)


def make_density(entries) -> DensityMatrix:
    """Validate a raw matrix and return a repaired :class:`DensityMatrix`.

    Parameters
    ----------
    entries : array_like
        Square complex matrix.

    Returns
    -------
    DensityMatrix
        Hermitized matrix with negative eigenvalues above ``-1e-8`` clipped
        to zero and the spectrum renormalized to unit trace.  The applied
        correction magnitude is reported on the result.

    Raises
    ------
    ValueError
        If the matrix is not square or has a NaN or infinite entry.
    NotHermitian, NotPositive, TraceDeviation
        If the defect exceeds the 1e-8 validation tolerance.
    """
    raw = np.asarray(entries, dtype=complex)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {raw.shape}")
    if not np.isfinite(raw).all():
        raise ValueError("matrix entries must be finite")
    dim = raw.shape[0]

    herm_defect = np.abs(raw - raw.conj().T).max()
    if herm_defect > HERMITICITY_TOL:
        raise NotHermitian(f"max |rho - rho^dag| = {herm_defect:.3e} > {HERMITICITY_TOL}")
    trace = raw.trace()
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceDeviation(f"|Tr rho - 1| = {abs(trace - 1.0):.3e} > {TRACE_TOL}")

    herm = 0.5 * (raw + raw.conj().T)
    lams, vecs = np.linalg.eigh(herm)
    if lams.min() < -POSITIVITY_TOL:
        raise NotPositive(f"eigenvalue {lams.min():.3e} < -{POSITIVITY_TOL}")
    lams = np.clip(lams, 0.0, None)
    lams = lams / lams.sum()
    fixed = (vecs * lams) @ vecs.conj().T
    fixed = 0.5 * (fixed + fixed.conj().T)
    correction = float(np.linalg.norm(fixed - raw))
    return DensityMatrix(dim=dim, entries=fixed, correction=correction)


def tensor(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Tensor product of two states, A slow and B fast."""
    return make_density(np.kron(rho_a.entries, rho_b.entries))


def partial_trace(rho: DensityMatrix, layout: BipartiteLayout, keep: str = "A") -> DensityMatrix:
    """Reduced state of one factor of a bipartite state.

    Parameters
    ----------
    keep : {"A", "B"}
        Which factor to keep.
    """
    layout.check(rho)
    four = rho.entries.reshape(layout.d_a, layout.d_b, layout.d_a, layout.d_b)
    if keep == "A":
        red = np.einsum("aibi->ab", four)
    elif keep == "B":
        red = np.einsum("aiaj->ij", four)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return make_density(red)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in [1/dim, 1]."""
    return float(np.vdot(rho.entries, rho.entries).real)


@lru_cache(maxsize=None)
def gellmann_basis(d: int) -> OperatorBasis:
    """Generalized Gell-Mann basis rescaled to ``Tr(s_u s_v) = d * delta_uv``.

    For ``d = 2`` this returns exactly the Pauli matrices (x, y, z).  The
    ordering is deterministic: symmetric pairs, antisymmetric pairs, then
    diagonal operators.
    """
    if d < 2:
        raise ValueError(f"basis requires d >= 2, got {d}")
    scale = np.sqrt(d / 2.0)
    ops = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            ops.append(scale * m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            ops.append(scale * m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        coeff = np.sqrt(2.0 / (l * (l + 1)))
        for j in range(l):
            m[j, j] = coeff
        m[l, l] = -l * coeff
        ops.append(scale * m)
    return OperatorBasis(dim=d, ops=np.array(ops))


#: Pauli matrices, i.e. the d = 2 basis.
PAULI = gellmann_basis(2).ops


def bloch_decompose(rho: DensityMatrix, layout: BipartiteLayout) -> BlochDecomposition:
    """Bloch vectors and correlation tensor of a qudit-qubit state.

    The state decomposes as ``rho_a (x) rho_b`` plus the correlation part
    ``sum_uv corr[u, v] sA_u (x) sB_v / (2 d_a)``; :func:`reconstruct`
    inverts this exactly.
    """
    layout.check(rho)
    d_a = layout.d_a
    basis_a = gellmann_basis(d_a).ops
    four = rho.entries.reshape(d_a, 2, d_a, 2)
    rho_a = np.einsum("aibi->ab", four)
    rho_b = np.einsum("aiaj->ij", four)
    r_a = np.einsum("ab,nba->n", rho_a, basis_a).real
    r_b = np.einsum("ij,nji->n", rho_b, PAULI).real
    moment = np.einsum("aibj,mba,nji->mn", four, basis_a, PAULI, optimize=True).real
    corr = moment - np.outer(r_a, r_b)
    return BlochDecomposition(r_a=r_a, r_b=r_b, corr=corr, moment=moment)


def reconstruct(dec: BlochDecomposition, layout: BipartiteLayout) -> DensityMatrix:
    """Rebuild the joint state from its Bloch decomposition."""
    d_a = layout.d_a
    basis_a = gellmann_basis(d_a).ops
    rho_a = (np.eye(d_a) + np.einsum("n,nab->ab", dec.r_a, basis_a)) / d_a
    rho_b = 0.5 * (np.eye(2) + np.einsum("n,nab->ab", dec.r_b, PAULI))
    joint = np.kron(rho_a, rho_b)
    corr_part = np.einsum("mn,mab,nij->aibj", dec.corr, basis_a, PAULI, optimize=True)
    joint += corr_part.reshape(layout.dim, layout.dim) / (2.0 * d_a)
    return make_density(joint)


def to_json(rho: DensityMatrix) -> str:
    """Serialize as JSON: dimension plus row-major [real, imag] pairs."""
    flat = [[float(z.real), float(z.imag)] for z in rho.entries.ravel()]
    return json.dumps({"dim": rho.dim, "entries": flat})


def from_json(text: str) -> DensityMatrix:
    """Inverse of :func:`to_json`; the matrix is revalidated.

    Raises ``ValueError`` for invalid JSON and for any other key set, value
    type or entry count than :func:`to_json` writes.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or set(payload) != {"dim", "entries"}:
        raise ValueError("state JSON must be an object with exactly the keys 'dim' and 'entries'")
    dim = payload["dim"]
    if type(dim) is not int or dim < 1:  # bool is a subclass of int
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    pairs = np.array(payload["entries"], dtype=object)
    if pairs.shape != (dim * dim, 2) or not all(type(x) in (int, float) for x in pairs.flat):
        raise ValueError(f"entries must be {dim * dim} [re, im] number pairs")
    try:
        pairs = pairs.astype(float)
    except OverflowError:
        raise ValueError("entries must be finite") from None
    return make_density((pairs[:, 0] + 1j * pairs[:, 1]).reshape(dim, dim))
