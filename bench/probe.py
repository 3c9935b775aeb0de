"""Set-up probe: time a fresh interpreter to import qcorr and finish a first call.

Run as ``python3 bench/probe.py <workload>`` from the repository root; prints
one JSON line with ``import_s`` and ``first_call_s``.  The first call is a
small call of the workload's own entry point, so it pays the lazy one-off
costs (sphere-grid cache, solver imports) that the workload would.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# The coarse search the test suite uses.
LIGHT = {"grid_theta": 16, "grid_phi": 32, "refine_tol": 1e-9, "refine_max_iter": 80}
CLOSED_MEASURES = ["I2", "S2cond", "concurrence", "eof"]


def _small_sweep(measures, search=None) -> None:
    import qcorr

    payload = {
        "chain": {"n_sites": 4, "j_x": 1.0, "chi": 0.5},
        "sweep": {"variable": "h_z", "from": 0.2, "to": 0.9, "points": 2},
        "separations": [1],
        "measures": measures,
    }
    if search:
        payload["search"] = search
    qcorr.run_sweep(qcorr.parse_config(payload))


def _light_discord() -> None:
    import numpy as np
    import qcorr

    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = qcorr.make_density(0.9 * np.outer(v, v) + 0.1 * np.eye(4) / 4.0)
    qcorr.discord(rho, qcorr.BipartiteLayout(2, 2), qcorr.SearchConfig(**LIGHT))


FIRST_CALLS = {
    "sweep-n8": lambda: _small_sweep(["D"], {"grid_theta": 60, "grid_phi": 120}),
    "chain-ed": lambda: _small_sweep(CLOSED_MEASURES),
    "states": _light_discord,
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import qcorr  # noqa: F401

    t1 = time.perf_counter()
    FIRST_CALLS[sys.argv[1]]()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - _T0, "first_call_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
