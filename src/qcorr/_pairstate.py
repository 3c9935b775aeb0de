"""Vectorized measurement surfaces for qudit-qubit states.

Measuring the qubit B along k leaves A in the branches ``M_s(k) =
Tr_B[rho (I x P_sk)]`` of weight ``p_s = (1 + s k.r_b) / 2``.  For a qubit A,
``M_s = [2 p_s I + (r_a + s J k).sigma] / 4`` (J the cross-moment tensor): the
branch Bloch vectors lie on the correlation ellipsoid and fix the spectra
``p_s/2 -/+ |r_a + s J k|/4``; larger A keep the blocks and ``eigvalsh``.  A
:class:`SearchStack` evaluates the searches of many pairs together.  Every
measure of one state reads one :func:`pair_context`: its Bloch decomposition
(the Bloch forms of the searches and every closed form), its last grid's
spectra and its finished results, searches and closed forms alike.  Its
detected symmetries fix both the folded search grid and the image in which a
minimizer is reported.
"""

from __future__ import annotations

import numpy as np

from ._sphere import is_sphere_grid
from .entropy import (
    _LOG_FLOOR,
    FAMILY_RENYI,
    FAMILY_VON_NEUMANN,
    EntropyFunctional,
    f_prime_values,
    spectrum_entropy,
)
from .errors import UnsupportedFamily
from .measurement import PROB_FLOOR, MeasurementDirection, projector
from .statekit import BipartiteLayout, DensityMatrix, bloch_decompose

_2D = np.newaxis
_SIGNS = np.array([[1.0], [-1.0]])
#: Largest |Im rho| (reality) and sigma_z x sigma_z-odd entry (parity) of a symmetric state.
SYMMETRY_TOL = 1e-12
_ODD = np.add.outer([0, 1, 1, 0], [0, 1, 1, 0]) % 2 == 1  # basis index 2a + b has parity a + b


class PairContext:
    """Precomputed tensors of one state, reused across many directions.

    ``dec`` is the state's one :func:`~qcorr.statekit.bloch_decompose`, reduced
    states and ``t_ops`` included.
    ``results`` keeps the state's finished results, returned as they are when
    asked again (see :func:`qcorr.discord._optimize`).
    """

    def __init__(self, rho: DensityMatrix, layout: BipartiteLayout):
        self.dec = bloch_decompose(rho, layout)
        self.layout = layout
        self.d_a = layout.d_a
        self.rho = rho
        self.r_a, self.r_b, self.corr = self.dec.r_a, self.dec.r_b, self.dec.corr
        self.joint_spectrum = np.linalg.eigvalsh(rho.entries)
        if self.d_a == 2:
            self.mixedness = 4.0 * np.linalg.det(self.dec.rho_a).real  # 1 - |r_a|^2
        self.real = np.abs(rho.entries.imag).max() <= SYMMETRY_TOL
        self.parity = self.d_a == 2 and np.abs(rho.entries[_ODD]).max() <= SYMMETRY_TOL
        # Symmetries of every objective: even in k_y if real, and in k_x too if also parity-even.
        self.fold = 2 if self.real and self.parity else int(self.real)
        self.results = {}
        self._grid = (None, None)

    def measured_blocks(self, dirs: np.ndarray):
        """Branch probabilities (M, 2) and ascending branch spectra (M, 2, d_a)."""
        grid, cached = self._grid
        if dirs is grid:
            return cached
        ks = np.atleast_2d(np.asarray(dirs, dtype=float))
        if self.d_a == 2:
            forms = (self.r_a[_2D], self.r_b[_2D], self.corr[_2D], self.mixedness)
            probs, lams = _bloch_blocks(*forms, ks)
        else:
            two_p = np.maximum(1.0 + _SIGNS * np.einsum("n,mn->m", self.r_b, ks), 0.0)
            probs = np.ascontiguousarray(0.5 * two_p.T)
            # summed in order, not by BLAS, so that a direction gets the same bits in any batch
            delta = sum(ks[:, n, _2D, _2D] * self.dec.t_ops[n] for n in range(3))
            lams = np.linalg.eigvalsh(0.5 * (self.dec.rho_a + _SIGNS[:, :, _2D] * delta[:, _2D]))
        if is_sphere_grid(dirs):
            self._grid = (dirs, (probs, lams))
        return probs, lams

    def conditional_entropy(self, dirs: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
        """sum_s p_s S_f(rho_A|s) for each direction; shape (M,)."""
        return _conditional(*self.measured_blocks(dirs), functional)

    def measured_joint_entropy(self, dirs: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
        """S_f of the pinched joint state, from the combined branch spectra."""
        return _joint(*self.measured_blocks(dirs), functional)

    def canonical(self, k) -> np.ndarray:
        """k, or its image under :attr:`fold`: k_y >= 0 (fold 1), and k_x >= 0 too (fold 2)."""
        canon = MeasurementDirection(k).k
        image = np.where([self.fold == 2, self.fold > 0, False], np.abs(canon), canon)
        return k if np.array_equal(image, canon) else image


def _bloch_blocks(r_a, r_b, corr, mixedness, ks):
    """:meth:`PairContext.measured_blocks` for a qubit A, from one or per-row Bloch forms."""
    # Rows s = +/-1.  Dots with r_a and r_b are summed in order, as einsum does for a context's
    # strided r_a and r_b but not for contiguous stacked rows (fused multiply-adds), so a
    # direction gets the same bits in any batch; so does einsum's contraction with C.
    rb_k = r_b * ks
    two_p = np.maximum(1.0 + _SIGNS * (rb_k[:, 0] + rb_k[:, 1] + rb_k[:, 2]), 0.0)
    # r_a + s J k = 2 p_s r_a + s C k.  The lower eigenvalue is det(M_s) / upper, with
    # 16 det(M_s) = 4 p_s^2 (1 - |r_a|^2) - 4 p_s s r_a.Ck - |Ck|^2 free of cancellation
    # when C is small; p_s is clipped at 0 above so the ratio stays bounded when B is pure.
    ck = np.einsum("man,mn->am", corr, ks)
    vecs = two_p * r_a.T[:, _2D] + _SIGNS * ck[:, _2D]
    upper = 0.25 * (two_p + np.sqrt((vecs * vecs).sum(0)))
    ra_ck = r_a * ck.T
    det16 = two_p * (two_p * mixedness - 2.0 * _SIGNS * (ra_ck[:, 0] + ra_ck[:, 1] + ra_ck[:, 2]))
    lower = (det16 - (ck * ck).sum(0)) / (16.0 * np.maximum(upper, _LOG_FLOOR))
    return np.ascontiguousarray(0.5 * two_p.T), np.stack([lower.T, upper.T], -1)


def _conditional(probs, lams, functional):
    safe = np.where(probs > PROB_FLOOR, probs, 1.0)
    s_branch = spectrum_entropy(lams / safe[..., _2D], functional)
    return (np.where(probs > PROB_FLOOR, probs, 0.0) * s_branch).sum(axis=1)


def _joint(probs, lams, functional):
    return spectrum_entropy(lams.reshape(len(lams), 2 * lams.shape[2]), functional)


class SearchStack:
    """The objectives of searches ``(ctx, joint, functional)``, evaluated together.

    A search's objective is its context's measured joint entropy if
    ``joint``, else its conditional entropy.  ``stack(dirs, i)`` is search
    i's on every direction, through the context's own methods and cached
    grid spectra; for an array ``i`` row j is search ``i[j]``'s, from the
    per-row Bloch forms of its context.  A stack of several searches
    therefore needs qubit-A contexts.
    """

    def __init__(self, searches):
        self.searches = searches
        ctxs = list({id(ctx): ctx for ctx, _, _ in searches}.values())
        self.kinds = list(dict.fromkeys((joint, f) for _, joint, f in searches))
        self.of = np.array([(ctxs.index(c), self.kinds.index((j, f))) for c, j, f in searches]).T
        if len(searches) > 1:  # per-row Bloch forms, which a qubit A alone has
            if any(c.d_a != 2 for c in ctxs):
                raise ValueError("a state with d_A > 2 is searched alone")
            names = ("r_a", "r_b", "corr", "mixedness")
            self.forms = [np.array([getattr(c, n) for c in ctxs]) for n in names]

    def __call__(self, dirs, owner=0):
        if isinstance(owner, int):
            ctx, joint, functional = self.searches[owner]
            surface = ctx.measured_joint_entropy if joint else ctx.conditional_entropy
            return surface(dirs, functional)
        blocks = _bloch_blocks(*(form[self.of[0, owner]] for form in self.forms), dirs)
        values, kind = np.empty(len(dirs)), self.of[1, owner]
        for j, (joint, functional) in enumerate(self.kinds):
            rows = kind == j
            surface = _joint if joint else _conditional
            values[rows] = surface(*(b[rows] for b in blocks), functional)
        return values


_last: PairContext | None = None


def pair_context(rho: DensityMatrix, layout: BipartiteLayout) -> PairContext:
    """The last context built if it is for this state object and layout, else a new one."""
    global _last
    if _last is None or _last.rho is not rho or _last.layout != layout:
        _last = PairContext(rho, layout)
    return _last


def stationarity_residual(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    k,
    functional: EntropyFunctional,
    mode: str = "deficit",
) -> float:
    """Frobenius norm of the optimality commutator at direction k.

    Deficit mode evaluates ``Tr_A [f'(rho'(k)), rho]``; discord mode, defined
    for the von Neumann family only, adds ``[log2 rho'_B, rho_B]``.  Both
    follow from the two blocks M_s: ``f'(rho') = sum_s f'(M_s) (x) P_sk`` and
    ``rho'_B = sum_s (Tr M_s) P_sk``.  The residual vanishes at minimizing
    directions, so it doubles as a convergence diagnostic.
    """
    if functional.family == FAMILY_RENYI:
        raise UnsupportedFamily("stationarity residual is defined for trace forms only")
    if mode not in ("deficit", "discord"):
        raise ValueError(f"mode must be 'deficit' or 'discord', got {mode!r}")
    if mode == "discord" and functional.family != FAMILY_VON_NEUMANN:
        raise UnsupportedFamily("discord-mode residual is defined for the von Neumann family")
    return stationarity_residuals([pair_context(rho, layout)], [k], [functional], [mode])[0]


def stationarity_residuals(ctxs, ks, functionals, modes) -> list:
    """Unvalidated :func:`stationarity_residual` of the contexts' states (one layout), as one batch.

    A state whose mode is None gets None.
    """
    take = [i for i, mode in enumerate(modes) if mode]
    out = [None] * len(modes)
    if not take:
        return out
    rho = np.array([ctxs[i].rho.entries for i in take])
    four = rho.reshape(len(take), -1, 2, rho.shape[1] // 2, 2)
    plus = np.array([projector(ks[i]) for i in take])
    projs = np.stack([plus, np.eye(2) - plus], 1)
    lams, vecs = np.linalg.eigh(np.einsum("naibj,nsji->nsab", four, projs))
    f_lams = np.array([f_prime_values(lams[j], functionals[i]) for j, i in enumerate(take)])
    f_blocks = (vecs * f_lams[..., _2D, :]) @ vecs.conj().swapaxes(-1, -2)
    fp = np.einsum("nsab,nsij->naibj", f_blocks, projs).reshape(rho.shape)
    comm = fp @ rho - rho @ fp
    reduced = np.einsum("naiaj->nij", comm.reshape(four.shape))
    discord = np.array([modes[i] == "discord" for i in take])
    if discord.any():
        rho_b = np.array([ctxs[i].dec.rho_b for i in take])
        log_b = np.einsum("ns,nsij->nij", np.log2(np.clip(lams.sum(-1), _LOG_FLOOR, None)), projs)
        reduced = reduced + discord[:, _2D, _2D] * (log_b @ rho_b - rho_b @ log_b)
    for i, norm in zip(take, np.linalg.norm(reduced, axis=(1, 2))):
        out[i] = float(norm)
    return out
