"""Local measurements on qubit B and the states they produce.

Projective spin measurements are parameterized by a unit vector k; the two
projectors are (I +/- k.sigma)/2.  Rank-one POVMs are weighted lists of such
directions with completeness sum_k q_k (I + k.sigma)/2 = I.  Higher-rank
POVM elements are rejected at construction: minima of the quantities in this
package are always attained on rank-one elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import EntropyFunctional, entropy
from .statekit import (
    PAULI,
    BipartiteLayout,
    DensityMatrix,
    bloch_decompose,
    make_density,
    partial_trace,
)

NORM_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
PROB_FLOOR = 1e-14
#: Components below this are treated as exact zeros during canonicalization,
#: so optimizer noise cannot flip the sign convention of near-axis results.
_SNAP = 1e-7


def _canonical_unit(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=float).copy()
    if v.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if norm < 1e-14:
        raise ValueError("direction must be nonzero")
    v /= norm
    # Snap components below noise level to exactly zero so the sign rule is
    # stable across runs and BLAS builds.
    v[np.abs(v) < _SNAP] = 0.0
    v /= np.linalg.norm(v)
    # +/-k are the same projective measurement; fix the representative.
    if v[2] < 0.0 or (v[2] == 0.0 and (v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0))):
        v = -v
    v[v == 0.0] = 0.0  # normalize -0.0
    return v


@dataclass(frozen=True, eq=False)
class MeasurementDirection:
    """Unit 3-vector with canonical sign (k_z > 0, then k_x > 0, then k_y > 0)."""

    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _canonical_unit(self.k))
        self.k.setflags(write=False)

    @property
    def theta(self) -> float:
        """Polar angle from the z axis, in [0, pi/2] after canonicalization."""
        return float(np.arccos(np.clip(self.k[2], -1.0, 1.0)))

    @property
    def phi(self) -> float:
        """Azimuth in [0, 2 pi); zero at the pole by convention."""
        if self.k[0] == 0.0 and self.k[1] == 0.0:
            return 0.0
        return float(np.arctan2(self.k[1], self.k[0]) % (2.0 * np.pi))


def _as_unit_vector(k) -> np.ndarray:
    if isinstance(k, MeasurementDirection):
        return k.k
    v = np.asarray(k, dtype=float)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        v = v / norm
    return v


def projector(k) -> np.ndarray:
    """Rank-one qubit projector (I + k.sigma)/2."""
    v = _as_unit_vector(k)
    return 0.5 * (np.eye(2, dtype=complex) + np.einsum("n,nij->ij", v, PAULI))


@dataclass(frozen=True, eq=False)
class QubitPOVM:
    """Rank-one qubit POVM: positive weights and raw (sign-preserved) directions."""

    weights: np.ndarray  # (m,)
    directions: np.ndarray  # (m, 3), unit rows

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        dirs = np.asarray(self.directions, dtype=float)
        if w.ndim != 1 or dirs.shape != (w.size, 3):
            raise ValueError("weights must be (m,) and directions (m, 3)")
        if np.any(w <= 0.0):
            raise ValueError("POVM weights must be positive")
        norms = np.linalg.norm(dirs, axis=1)
        if np.abs(norms - 1.0).max() > NORM_TOL:
            raise ValueError("POVM directions must be unit vectors")
        total = sum(q * projector(k) for q, k in zip(w, dirs))
        defect = np.abs(total - np.eye(2)).max()
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"POVM completeness defect {defect:.3e} > {COMPLETENESS_TOL}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", dirs)
        self.weights.setflags(write=False)
        self.directions.setflags(write=False)

    def elements(self):
        """Iterate (weight, direction) pairs."""
        return zip(self.weights, self.directions)


def projective_povm(k) -> QubitPOVM:
    """The two-outcome projective measurement along k: elements (1, +k), (1, -k)."""
    v = _as_unit_vector(k)
    return QubitPOVM(weights=np.array([1.0, 1.0]), directions=np.array([v, -v]))


@dataclass(frozen=True)
class Outcome:
    """One measurement branch: probability, conditional state of A, Bloch vector."""

    p: float
    rho_a: DensityMatrix
    r_post: np.ndarray


@dataclass(frozen=True)
class ConditionalEnsemble:
    """All branches of a local measurement on B; probabilities sum to 1."""

    outcomes: tuple[Outcome, ...]


def condition_on_measurement(
    rho: DensityMatrix, layout: BipartiteLayout, povm: QubitPOVM
) -> ConditionalEnsemble:
    """Post-measurement ensemble of subsystem A.

    Each element (q, k) occurs with probability p = q (1 + r_b . k) / 2 and
    leaves A in the renormalized partial projection of rho.  Branches with
    p below 1e-14 are returned with p = 0 and the unconditioned reduced
    state, since the conditional state is a 0/0 limit there.
    """
    layout.check(rho)
    dec = bloch_decompose(rho, layout)
    four = rho.entries.reshape(layout.d_a, 2, layout.d_a, 2)
    rho_a = partial_trace(rho, layout, keep="A")
    outcomes = []
    for q, k in povm.elements():
        p = 0.5 * q * (1.0 + float(dec.r_b @ k))
        if p < PROB_FLOOR:
            outcomes.append(Outcome(p=0.0, rho_a=rho_a, r_post=dec.r_a.copy()))
            continue
        block = np.einsum("aibj,ji->ab", four, projector(k))
        cond = make_density(block * (q / p))
        r_post = dec.r_a + (dec.corr @ k) / (1.0 + float(dec.r_b @ k))
        outcomes.append(Outcome(p=p, rho_a=cond, r_post=r_post))
    return ConditionalEnsemble(outcomes=tuple(outcomes))


def unread_state(rho: DensityMatrix, layout: BipartiteLayout, k) -> DensityMatrix:
    """Joint state after an unread projective measurement of k.sigma on B.

    Applies the pinching sum_s (I_A x P_sk) rho (I_A x P_sk); the map is
    trace preserving and idempotent.
    """
    layout.check(rho)
    v = _as_unit_vector(k)
    out = np.zeros_like(rho.entries)
    for sign in (+1.0, -1.0):
        proj = np.kron(np.eye(layout.d_a), projector(sign * v))
        out += proj @ rho.entries @ proj
    return make_density(out)


def conditional_entropy(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    povm: QubitPOVM,
    functional: EntropyFunctional,
) -> float:
    """Measurement-averaged entropy of A: sum_k p_k S_f(rho_A|k).

    By concavity this never exceeds S_f(rho_A), for every POVM and family.
    """
    ensemble = condition_on_measurement(rho, layout, povm)
    return float(
        sum(out.p * entropy(out.rho_a, functional) for out in ensemble.outcomes if out.p > 0.0)
    )
