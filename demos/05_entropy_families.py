"""Generalized entropy families and what the deficits see.

One correlated state, many lenses: the trace-form entropies agree on where
mixedness vanishes but weigh spectra differently, the Renyi deficits inherit
the Tsallis optimizers exactly, the pinched state is always majorized by the
original (hence every deficit is nonnegative), and the stationarity residual
certifies every reported optimizer.
"""

import numpy as np

from qcorr import (
    BipartiteLayout,
    QUADRATIC,
    VON_NEUMANN,
    deficit,
    entropy,
    make_density,
    quadratic_deficit_closed,
    renyi,
    renyi_deficit,
    stationarity_residual,
    tsallis,
    unread_state,
)

layout = BipartiteLayout(2, 2)
rng = np.random.default_rng(11)
g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
mat = g @ g.conj().T
rho = make_density(mat / mat.trace())

print("spectrum of the state:", np.round(np.linalg.eigvalsh(rho.entries), 5))

print("\nentropies of the joint state:")
for fam in (VON_NEUMANN, QUADRATIC, tsallis(0.5), tsallis(3.0), renyi(2.0)):
    print(f"  {fam.label():>16}: {entropy(rho, fam):.6f}")

print("\ndeficits and their optimizers:")
i1 = deficit(rho, layout, VON_NEUMANN)
i2 = quadratic_deficit_closed(rho, layout)
print(f"  I1  = {i1.value:.6f}  k* = {np.round(i1.k_star.k, 4)}  "
      f"residual = {i1.residual:.1e}")
print(f"  I2  = {i2.value:.6f}  k* = {np.round(i2.k_star.k, 4)}  "
      f"residual = {i2.residual:.1e}  (closed form)")
for q in (0.5, 2.0, 3.0):
    iq = deficit(rho, layout, tsallis(q))
    rq = renyi_deficit(rho, layout, q)
    same = np.abs(iq.k_star.k - rq.k_star.k).max()
    print(f"  q = {q}: Tsallis deficit {iq.value:.6f}, Renyi deficit {rq.value:.6f}, "
          f"|k*_T - k*_R| = {same:.1e}")

print("\nmajorization under the optimal unread measurement:")
pinched = unread_state(rho, layout, i1.k_star.k)
a = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
b = np.sort(np.linalg.eigvalsh(pinched.entries))[::-1]
print("  original prefix sums:", np.round(np.cumsum(a), 5))
print("  pinched  prefix sums:", np.round(np.cumsum(b), 5))

print("\nstationarity as a diagnostic (residual grows off the optimum):")
for eps in (0.0, 0.05, 0.2):
    k = i2.k_star.k + eps * np.array([0.3, -0.5, 0.1])
    k /= np.linalg.norm(k)
    res = stationarity_residual(rho, layout, k, QUADRATIC)
    print(f"  perturbation {eps:4.2f}: residual = {res:.3e}")
