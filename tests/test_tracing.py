"""The benchmark's tracer still finds every package name it hooks.

``bench/tracing.py`` reports a metric as None when its hook target is gone,
so a refactor that renames or removes one would otherwise pass unnoticed.
"""

import importlib.util
from collections import Counter
from pathlib import Path

# The tracer hooks the scipy eigensolvers through sys.modules.  qcorr loads scipy
# only for a Lanczos solve; the bench has both modules loaded by its oracles.
import scipy.linalg  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

from qcorr.spinchain import SpinChainSpec, ground_state, reduced_pair
from qcorr.sweep import measure_state, parse_config, run_sweep

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_hook_resolves_and_one_context_serves_a_pair():
    spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.4))
    pair = reduced_pair(ground_state(spec), 0, 2)
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        for measure in ("D", "I1", "I2", "IR2"):
            measure_state(pair, measure)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(passes=1, direct_pairs=1, warned=Counter())
    assert metrics["search.pair_contexts_per_pair"] == 1.0
    assert metrics["search.optimizations"] == 2.0
    assert metrics["statekit.bloch_decompose.calls"] == 1.0


def test_a_traced_sweep_searches_each_point_as_one_stack():
    cfg = parse_config(
        {
            "chain": {"n_sites": 6, "j_x": 1.0, "chi": 0.5},
            "sweep": {"variable": "h_z", "from": 0.2, "to": 0.6, "points": 3},
            "measures": ["D", "I1", "I2", "IR2", "S2cond"],
            "search": {"grid_theta": 16, "grid_phi": 32},
        }
    )
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer.missing == set()
        rows = run_sweep(cfg)
    finally:
        tracer.uninstall()
    assert len(rows) == 3  # no point lands on a parity crossing
    metrics = tracer.metrics(passes=1, direct_pairs=0, warned=Counter())
    assert metrics["trace.pairs"] == 9.0  # 3 points, separations 1 to 3
    assert metrics["search.pair_contexts_per_pair"] == 1.0
    assert metrics["statekit.bloch_decompose.calls"] == metrics["trace.pairs"]
    assert metrics["search.optimizations"] == 3.0  # one stacked search per point
