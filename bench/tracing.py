"""Spans and counters recorded around qcorr calls, from outside the package.

The tracer replaces each wrapped function at every name a qcorr module
imported it under (``qcorr.sweep.discord`` as well as ``qcorr.discord``), so
calls made inside the package are seen without editing it.  A span records
its name, start, end and parent; a layer's self time is its duration minus
the durations of its child spans.  Hooks on hot calls (``PairContext``
methods, ``make_density``, the scipy eigensolvers) record no span: they bump
a counter, attached to the open optimization or ground-state span where
there is one, which keeps the per-call cost of the refinement loop small.

A hook whose target no longer exists is recorded, by layer name, in
``missing``; every metric that depends on it is reported as ``None``, never
as 0.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Span layers: metric prefix -> (module, attribute) of the wrapped function.
SPANS = {
    "sweep.run_sweep": ("qcorr.sweep", "run_sweep"),
    "sweep.render_csv": ("qcorr.sweep", "render_csv"),
    "spinchain.ground_state": ("qcorr.spinchain", "ground_state"),
    "spinchain.reduced_pair": ("qcorr.spinchain", "reduced_pair"),
    "spinchain.parity_crossings": ("qcorr.spinchain", "parity_crossings"),
    "discord.discord": ("qcorr.discord", "discord"),
    "discord.quadratic_closed_form": ("qcorr.discord", "quadratic_closed_form"),
    "discord.ellipsoid": ("qcorr.discord", "ellipsoid"),
    "deficit.deficit": ("qcorr.deficit", "deficit"),
    "deficit.renyi_deficit": ("qcorr.deficit", "renyi_deficit"),
    "deficit.quadratic_deficit_closed": ("qcorr.deficit", "quadratic_deficit_closed"),
    "deficit.stationarity_residual": ("qcorr.deficit", "stationarity_residual"),
    "entropy.entanglement_of_formation": ("qcorr.entropy", "entanglement_of_formation"),
    "search.optimize": ("qcorr.discord", "_grid_refine"),
}
# Counter-only hooks on plain functions.
COUNTERS = {
    "statekit.bloch_decompose": ("qcorr.statekit", "bloch_decompose"),
    "statekit.make_density": ("qcorr.statekit", "make_density"),
}
# Eigensolvers the chain layer calls through module attributes; True marks dense ones.
SOLVERS = {
    ("scipy.linalg", "eigh"): True,
    ("scipy.linalg", "eigvalsh"): True,
    ("scipy.sparse.linalg", "eigsh"): False,
}
PAIR_CONTEXT = ("qcorr._pairstate", "PairContext")
CHAIN_SPANS = ("spinchain.ground_state", "spinchain.parity_crossings")
GROUND_STATE_KINDS = ("n8-transverse", "n12-transverse", "n12-tilted", "n14-tilted")

_ID, _PARENT, _NAME, _START, _END, _ATTRS = range(6)


def _ground_state_attrs(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    kind = "transverse" if spec.transverse else "tilted"
    return {"key": f"n{spec.n_sites}-{kind}", "solves": 0, "dense_bytes": 0}


def _optimize_attrs(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"grid": (cfg.grid_theta + 1) * cfg.grid_phi, "calls": 0, "dirs": 0, "grid_s": 0.0}


def _rows(dirs) -> int:
    return len(dirs) if getattr(dirs, "ndim", 1) == 2 else 1


class Tracer:
    """Installs hooks, keeps spans in memory, and reduces them to metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._opt: dict | None = None
        self._in_solver = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import qcorr  # noqa: F401  (loads every submodule)

        attrs = {"spinchain.ground_state": _ground_state_attrs, "search.optimize": _optimize_attrs}
        for name, (module, attr) in SPANS.items():
            wrap = lambda f, n=name: self._span(n, f, attrs.get(n))  # noqa: E731
            self._patch_everywhere(name, module, attr, wrap)
        for name, (module, attr) in COUNTERS.items():
            self._patch_everywhere(name, module, attr, lambda f, n=name: self._counter(n, f))
        for (module, attr), dense in SOLVERS.items():
            wrap = lambda f, d=dense: self._solver(f, d)  # noqa: E731
            self._patch_attr("solvers", sys.modules[module], attr, wrap)
        ctx_cls = getattr(sys.modules[PAIR_CONTEXT[0]], PAIR_CONTEXT[1], None)
        if ctx_cls is None:
            self.missing.update(("search.pair_context", "search.objective"))
            return
        wrap = lambda f: self._counter("search.pair_context", f)  # noqa: E731
        self._patch_attr("search.pair_context", ctx_cls, "__init__", wrap)
        self._patch_attr("search.pair_context", ctx_cls, "measured_blocks", self._measured_blocks)
        for attr in ("conditional_entropy", "measured_joint_entropy"):
            self._patch_attr("search.objective", ctx_cls, attr, self._objective)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_attr(self, layer, owner, attr, make_wrapper) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.add(layer)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _patch_everywhere(self, layer, module, attr, make_wrapper) -> None:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.add(layer)
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcorr" and not mod_name.startswith("qcorr."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, attrs_fn):
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            parent = self._stack[-1][_ID] if self._stack else -1
            span = [len(self.spans), parent, name, 0.0, 0.0, attrs]
            self.spans.append(span)
            self._stack.append(span)
            outer_opt = self._opt
            if name == "search.optimize":
                self._opt = attrs
            span[_START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = perf_counter()
                self._opt = outer_opt
                self._stack.pop()

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver(self, fn, dense):
        def wrapper(*args, **kwargs):
            if self._in_solver:
                return fn(*args, **kwargs)
            top = self._stack[-1] if self._stack else None
            if top is not None and top[_NAME] in CHAIN_SPANS:
                self.counts[f"{top[_NAME]}.eigensolves"] += 1
                if top[_ATTRS] is not None:
                    top[_ATTRS]["solves"] += 1
                    if dense:
                        top[_ATTRS]["dense_bytes"] += 8 * args[0].shape[0] ** 2
            self._in_solver = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_solver = False

        return wrapper

    def _measured_blocks(self, fn):
        def wrapper(ctx, dirs):
            opt = self._opt
            if opt is not None:
                opt["calls"] += 1
                opt["dirs"] += _rows(dirs)
            return fn(ctx, dirs)

        return wrapper

    def _objective(self, fn):
        def wrapper(ctx, dirs, functional):
            opt = self._opt
            if opt is None or _rows(dirs) < opt["grid"]:
                return fn(ctx, dirs, functional)
            t0 = perf_counter()
            try:
                return fn(ctx, dirs, functional)
            finally:
                opt["grid_s"] += perf_counter() - t0

        return wrapper

    # -- reduction ----------------------------------------------------------

    def metrics(self, passes: int, direct_pairs: int, warned: Counter) -> dict:
        """Per-layer metrics per traced pass (counts) or per call (p50)."""
        child_sum: dict[int, float] = defaultdict(float)
        by_name: dict[str, list] = defaultdict(list)
        for span in self.spans:
            by_name[span[_NAME]].append(span)
            if span[_PARENT] >= 0:
                child_sum[span[_PARENT]] += span[_END] - span[_START]

        def dur(span):
            return span[_END] - span[_START]

        def hooked(*names):
            return not self.missing.intersection(names)

        def calls(name):
            return len(by_name[name]) / passes if hooked(name) else None

        def p50_ms(name, spans=None):
            if not hooked(name):
                return None
            spans = by_name[name] if spans is None else spans
            return 1e3 * statistics.median(map(dur, spans)) if spans else 0.0

        def total_ms(name):
            return 1e3 * sum(map(dur, by_name[name])) / passes if hooked(name) else None

        def self_ms(name):
            if not hooked(name):
                return None
            return 1e3 * sum(dur(s) - child_sum[s[_ID]] for s in by_name[name]) / passes

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        out: dict[str, float | None] = {}
        out["sweep.run_sweep.self_ms"] = self_ms("sweep.run_sweep")
        out["sweep.point.p50_ms"] = self._sweep_point_p50(by_name) if hooked(
            "sweep.run_sweep", "spinchain.ground_state"
        ) else None
        out["sweep.render_csv.total_ms"] = total_ms("sweep.render_csv")

        ground = by_name["spinchain.ground_state"]
        out["spinchain.ground_state.calls"] = calls("spinchain.ground_state")
        for key in GROUND_STATE_KINDS:
            spans = [s for s in ground if s[_ATTRS]["key"] == key]
            out[f"spinchain.ground_state.p50_ms.{key}"] = p50_ms("spinchain.ground_state", spans)
        solver_hooks = hooked("solvers")
        gs_calls = len(ground) if hooked("spinchain.ground_state") else None
        solves = sum(s[_ATTRS]["solves"] for s in ground) if solver_hooks else None
        dense = sum(s[_ATTRS]["dense_bytes"] for s in ground) if solver_hooks else None
        out["spinchain.eigensolves_per_point"] = ratio(solves, gs_calls)
        out["spinchain.dense_eigensolve_bytes"] = ratio(dense, gs_calls)
        out["spinchain.reduced_pair.total_ms"] = total_ms("spinchain.reduced_pair")
        out["spinchain.parity_crossings.total_ms"] = total_ms("spinchain.parity_crossings")

        for name in ("discord.discord", "deficit.deficit"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.p50_ms"] = p50_ms(name)
            out[f"{name}.self_ms"] = self_ms(name)
        out["deficit.renyi_deficit.p50_ms"] = p50_ms("deficit.renyi_deficit")
        out["deficit.stationarity_residual.total_ms"] = total_ms("deficit.stationarity_residual")

        opts = by_name["search.optimize"]
        ctx_hooked = hooked("search.pair_context", "search.optimize")
        n_opt = len(opts) if hooked("search.optimize") else None
        grid_s = sum(s[_ATTRS]["grid_s"] for s in opts)
        out["search.optimizations"] = calls("search.optimize")
        out["search.dirs_per_opt"] = ratio(
            sum(s[_ATTRS]["dirs"] for s in opts) if ctx_hooked else None, n_opt
        )
        out["search.objective_calls_per_opt"] = ratio(
            sum(s[_ATTRS]["calls"] for s in opts) if ctx_hooked else None, n_opt
        )
        timed = hooked("search.objective", "search.optimize")
        out["search.grid_ms"] = 1e3 * grid_s / passes if timed else None
        out["search.refine_ms"] = 1e3 * (sum(map(dur, opts)) - grid_s) / passes if timed else None

        out["discord.quadratic_closed_form.p50_ms"] = p50_ms("discord.quadratic_closed_form")
        out["deficit.quadratic_deficit_closed.p50_ms"] = p50_ms("deficit.quadratic_deficit_closed")
        for name in COUNTERS:
            out[f"{name}.calls"] = self.counts[name] / passes if hooked(name) else None
        out["entropy.entanglement_of_formation.calls"] = calls("entropy.entanglement_of_formation")
        pairs = (
            len(by_name["spinchain.reduced_pair"]) + direct_pairs
            if hooked("spinchain.reduced_pair")
            else None
        )
        out["trace.pairs"] = pairs / passes if pairs is not None else None
        out["search.pair_contexts_per_pair"] = ratio(
            self.counts["search.pair_context"] if hooked("search.pair_context") else None,
            pairs,
        )
        known = ("ZeroEigenvalueLog", "RuntimeWarning")
        for category in known:
            out[f"warnings.{category}.count"] = warned[category] / passes
        out["warnings.other.count"] = sum(v for k, v in warned.items() if k not in known) / passes
        return out

    @staticmethod
    def _sweep_point_p50(by_name) -> float:
        """A sweep point runs from one ground-state solve to the next (or the sweep's end)."""
        points = []
        grounds = by_name["spinchain.ground_state"]
        for sweep in by_name["sweep.run_sweep"]:
            starts = sorted(g[_START] for g in grounds if g[_PARENT] == sweep[_ID])
            ends = starts[1:] + [sweep[_END]]
            points.extend(e - s for s, e in zip(starts, ends))
        return 1e3 * statistics.median(points) if points else 0.0

    def detail(self, passes: int) -> dict:
        """Report-only extras: every ground-state kind and solver counts seen."""
        ground: dict[str, list] = defaultdict(list)
        for span in self.spans:
            if span[_NAME] == "spinchain.ground_state":
                ground[span[_ATTRS]["key"]].append(span[_END] - span[_START])
        return {
            "ground_state_p50_ms": {k: 1e3 * statistics.median(v) for k, v in sorted(ground.items())},
            "parity_crossings_eigensolves": self.counts["spinchain.parity_crossings.eigensolves"] / passes,
            "spans": len(self.spans),
            "missing_hooks": sorted(self.missing),
        }
