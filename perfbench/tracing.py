"""Outside-in tracing of the costsense modules, and the per-layer metrics.

``Tracer.install`` wraps the public functions and methods of each package
module from outside, so the program under test is unchanged.  Coarse
boundaries (experiment, ``grid_select``, each pass, ``permutation``,
``load_dataset``, ``emit_csv``, ...) become spans with a parent and an
experiment id.  Round-level calls (``score``, ``update``, ``predict``,
losses, covariance and sketch updates, ``decompose``, ``record``,
``__getitem__``) run millions of times, so each becomes a counter on the
innermost open span: calls, inclusive seconds, self seconds (minus counted
callees), seconds spent in calls made straight from the span's own code, and
how many calls returned a positive loss.  Memory stays bounded by the number
of passes, not rounds.

A k-fold pass has no function of its own in ``run_cv``; a fold span opens at
each ``make_learner`` call inside a CV experiment and closes at the next one,
at ``aggregate_rows`` or at the experiment's end.  The label-counting
``__getitem__`` calls that precede ``make_learner`` (one per training row,
well under 1% of a fold's time) land in the previous fold, or in the
experiment span for the first fold.
"""

from __future__ import annotations

import logging
import time

import numpy as np

perf = time.perf_counter

# counter slots
CALLS, INCL, SELF, TOP, ACTIVE = range(5)

LAYERS = ("data", "losses", "baselines", "acog", "sketch", "sacog", "metrics", "harness")
# spans that are not the harness's own; the workload span is the benchmark's
SPAN_LAYER = {"load_dataset": "data", "permutation": "data", "split_folds": "data", "workload": None}


class Span:
    __slots__ = ("id", "parent", "exp", "name", "start", "end", "attrs", "counters", "counted_s")

    def __init__(self, sid, parent, exp, name, start, attrs):
        self.id = sid
        self.parent = parent
        self.exp = exp
        self.name = name
        self.start = start
        self.end = None
        self.attrs = attrs
        self.counters = {}
        self.counted_s = 0.0  # time in counted calls made straight from this span

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "exp": self.exp, "name": self.name,
            "start": self.start, "end": self.end, "attrs": self.attrs,
            "counted_s": self.counted_s,
            "counters": {k: list(v) for k, v in self.counters.items()},
        }


class _ReseedCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("sketch row collapsed"):
            self.count += 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.calls: list[float] = []  # callee-time accumulators of open counted calls
        self.exp_count = 0
        self.reseeds = _ReseedCounter()
        self._undo = []

    # ---- spans -----------------------------------------------------------
    def open(self, name: str, **attrs) -> Span:
        parent = self.stack[-1] if self.stack else None
        exp = parent.exp if parent is not None else None
        if name == "experiment":
            exp = self.exp_count
            self.exp_count += 1
        span = Span(len(self.spans), None if parent is None else parent.id, exp, name, perf(), attrs)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        # closing a span also closes any child left open (an inferred fold)
        if span.end is not None:
            return
        end = perf()
        while self.stack:
            top = self.stack.pop()
            top.end = end
            if top is span:
                return

    def _close_fold(self) -> None:
        if self.stack and self.stack[-1].name == "fold":
            self.close(self.stack[-1])

    def _in_cv(self) -> bool:
        top = self.stack[-1] if self.stack else None
        return top is not None and (
            top.name == "fold" or (top.name == "experiment" and top.attrs.get("mode") == "cv")
        )

    def spanned(self, name, fn, attrs=None):
        def wrapper(*args, **kw):
            span = self.open(name, **(attrs(*args, **kw) if attrs else {}))
            try:
                return fn(*args, **kw)
            finally:
                self.close(span)
        return wrapper

    def _pass_attrs(self, cfg, dataset, eta, perm_seed, *rest, **kw):
        in_grid = any(s.name == "grid_select" for s in self.stack)
        return {"kind": "select" if in_grid else "eval", "eta": eta, "seed": perm_seed}

    # ---- counters --------------------------------------------------------
    def counted(self, name, fn, active=False):
        calls, stack = self.calls, self.stack

        def wrapper(*args, **kw):
            calls.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kw)
            finally:
                dt = perf() - t0
                callee = calls.pop()
                c = stack[-1].counters.get(name)
                if c is None:
                    c = stack[-1].counters[name] = [0, 0.0, 0.0, 0.0, 0]
                c[CALLS] += 1
                c[INCL] += dt
                c[SELF] += dt - callee
                if calls:
                    calls[-1] += dt
                else:
                    c[TOP] += dt
                    stack[-1].counted_s += dt
            if active and out > 0.0:
                c[ACTIVE] += 1
            return out
        return wrapper

    # ---- installation ----------------------------------------------------
    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, cs) -> None:
        """Wrap the package ``cs`` (the imported ``costsense``) in place."""
        data, harness, sketch = cs.data, cs.harness, cs.sketch
        P, S, C = self._patch, self.spanned, self.counted

        def perm_attrs(n, seed):
            return {"n": int(n), "seed": int(seed)}

        perm = S("permutation", data.permutation, perm_attrs)
        P(data, "permutation", perm)
        P(harness, "permutation", perm)
        P(data, "load_dataset", S("load_dataset", data.load_dataset))
        P(harness, "load_dataset", data.load_dataset)
        P(harness, "grid_select", S("grid_select", harness.grid_select))
        P(harness, "run_single", S("pass", harness.run_single, self._pass_attrs))
        P(harness, "split_folds", S("split_folds", harness.split_folds))
        P(harness, "emit_csv", S("emit_csv", harness.emit_csv))

        aggregate = S("aggregate_rows", harness.aggregate_rows)

        def aggregate_rows(rows):
            self._close_fold()
            return aggregate(rows)
        P(harness, "aggregate_rows", aggregate_rows)

        make = C("harness.make_learner", harness.make_learner)

        def make_learner(cfg, d, eta):
            if self._in_cv():
                self._close_fold()
                self.open("fold", kind="cv", eta=eta)
            return make(cfg, d, eta)
        P(harness, "make_learner", make_learner)
        P(harness, "make_cost_model", C("harness.make_cost_model", harness.make_cost_model))
        P(harness, "observe_label", C("losses.observe_label", harness.observe_label))
        P(harness, "sum_metric", C("metrics.sum_metric", harness.sum_metric))
        P(harness, "cost_metric", C("metrics.cost_metric", harness.cost_metric))

        P(data.Dataset, "__getitem__", C("data.getitem", data.Dataset.__getitem__))
        P(cs.metrics.ConfusionCounts, "record", C("metrics.record", cs.metrics.ConfusionCounts.record))

        loss = C("losses.loss", cs.losses.loss)
        gscale = C("losses.gradient_scale", cs.losses.gradient_scale)
        for mod in (cs.baselines, cs.acog, cs.sacog):
            P(mod, "loss", loss)
            P(mod, "gradient_scale", gscale)

        base = cs.baselines
        P(base.LinearLearner, "score", C("baselines.score", base.LinearLearner.score))
        P(base.LinearLearner, "predict", C("baselines.predict", base.LinearLearner.predict))
        for cls in (base.Perceptron, base.PassiveAggressiveI, base.CostSensitiveGD):
            P(cls, "update", C("baselines.update", cls.update, active=True))

        A = cs.acog.AdaptiveCSGD
        P(A, "score", C("acog.score", A.score))
        P(A, "predict", C("acog.predict", A.predict))
        P(A, "update", C("acog.update", A.update, active=True))
        P(cs.acog, "covariance_update", C("acog.covariance_update", cs.acog.covariance_update))
        P(cs.acog, "covariance_update_diag",
          C("acog.covariance_update_diag", cs.acog.covariance_update_diag))

        for cls in (cs.sacog.SketchedCSGD, cs.sacog.SparseSketchedCSGD):
            P(cls, "predict", C("sacog.predict", cls.predict))
            P(cls, "update", C("sacog.update", cls.update, active=True))
        P(cs.sacog.SketchedCSGD, "score", C("sacog.score", cs.sacog.SketchedCSGD.score))
        lazy = C("sacog.score", cs.sacog.SparseSketchedCSGD.lazy_score)
        P(cs.sacog.SparseSketchedCSGD, "lazy_score", lazy)
        P(cs.sacog.SparseSketchedCSGD, "score", lazy)

        P(sketch.OjaSketch, "update", C("sketch.oja_update", sketch.OjaSketch.update))
        P(sketch.SparseOjaSketch, "update", C("sketch.sparse_update", sketch.SparseOjaSketch.update))
        P(sketch, "decompose", C("sketch.decompose", sketch.decompose))
        P(sketch, "orthonormalize_rows", C("sketch.orthonormalize_rows", sketch.orthonormalize_rows))
        logging.getLogger(sketch.__name__).addHandler(self.reseeds)

    def uninstall(self, cs) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        logging.getLogger(cs.sketch.__name__).removeHandler(self.reseeds)


# ---- per-layer metrics ------------------------------------------------------

def _dur(span: Span) -> float:
    return span.end - span.start


def tail_percentile(values: list) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at least
    ten samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def layer_metrics(tracer: Tracer, algos_by_exp: dict, d: int, lines: int,
                  rss_after_load_mb: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, plus the pass-time tails
    (percentile and sample count per algorithm) that the metric values omit."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, []))

    # counters summed per algorithm and overall
    per_algo: dict[str, dict[str, list]] = {}
    for s in spans:
        if not s.counters:
            continue
        algo = algos_by_exp.get(s.exp, "")
        acc = per_algo.setdefault(algo, {})
        for k, v in s.counters.items():
            a = acc.setdefault(k, [0, 0.0, 0.0, 0.0, 0])
            for i in range(5):
                a[i] += v[i]

    def agg(name, pick=lambda algo: True):
        out = [0, 0.0, 0.0, 0.0, 0]
        for algo, acc in per_algo.items():
            if pick(algo) and name in acc:
                for i in range(5):
                    out[i] += acc[name][i]
        return out

    def us_per_call(c, slot=INCL):
        return 1e6 * c[slot] / c[CALLS] if c[CALLS] else 0.0

    def ratio(c):
        return c[ACTIVE] / c[CALLS] if c[CALLS] else 0.0

    is_diag = lambda a: a.startswith("acog") and a.endswith("-diag")
    is_full = lambda a: a.startswith("acog") and not a.endswith("-diag")
    is_dense = lambda a: a.startswith("sacog")
    is_sparse = lambda a: a.startswith("ssacog")

    m = {}
    load_s = total("load_dataset") / len(by_name["load_dataset"])
    m["data.load_s"] = load_s
    m["data.parse_us_per_line"] = 1e6 * load_s / lines
    m["data.rss_mb_after_load"] = rss_after_load_mb
    perms = by_name.get("permutation", [])
    m["data.permutation_calls"] = len(perms)
    m["data.permutation_s"] = total("permutation")
    ratios = []
    for exp in sorted({p.exp for p in perms if p.exp is not None}):
        keys = [(p.attrs["n"], p.attrs["seed"]) for p in perms if p.exp == exp]
        ratios.append(len(set(keys)) / len(keys))
    m["data.permutation_distinct_ratio"] = float(np.mean(ratios)) if ratios else 0.0
    gi = agg("data.getitem")
    m["data.getitem_calls"] = gi[CALLS]
    m["data.getitem_s"] = gi[INCL]

    lo = agg("losses.loss")
    m["losses.loss_calls"] = lo[CALLS]
    m["losses.loss_us_per_call"] = us_per_call(lo)
    m["losses.gradient_scale_us_per_call"] = us_per_call(agg("losses.gradient_scale"))
    m["losses.observe_label_calls"] = agg("losses.observe_label")[CALLS]

    m["baselines.score_us_per_round"] = us_per_call(agg("baselines.score"))
    m["baselines.update_us_per_round"] = us_per_call(agg("baselines.update"))
    m["baselines.active_ratio"] = ratio(agg("baselines.update"))

    m["acog.diag.update_us_per_round"] = us_per_call(agg("acog.update", is_diag))
    m["acog.full.update_us_per_round"] = us_per_call(agg("acog.update", is_full))
    m["acog.covariance_update_diag_us_per_call"] = us_per_call(agg("acog.covariance_update_diag"))
    m["acog.covariance_update_us_per_call"] = us_per_call(agg("acog.covariance_update"))
    m["acog.score_us_per_round"] = us_per_call(agg("acog.score"))
    m["acog.active_ratio"] = ratio(agg("acog.update"))

    su, ou = agg("sketch.sparse_update"), agg("sketch.oja_update")
    m["sketch.sparse_update_us_per_call"] = us_per_call(su)
    m["sketch.decompose_us_per_call"] = us_per_call(agg("sketch.decompose"))
    m["sketch.oja_update_us_per_call"] = us_per_call(ou)
    m["sketch.orthonormalize_rows_us_per_call"] = us_per_call(agg("sketch.orthonormalize_rows"))
    m["sketch.updates"] = su[CALLS] + ou[CALLS]
    m["sketch.reseeds"] = tracer.reseeds.count

    m["sacog.dense.update_us_per_round"] = us_per_call(agg("sacog.update", is_dense))
    m["sacog.dense.update_self_us_per_round"] = us_per_call(agg("sacog.update", is_dense), SELF)
    m["sacog.sparse.update_us_per_round"] = us_per_call(agg("sacog.update", is_sparse))
    m["sacog.sparse.update_self_us_per_round"] = us_per_call(agg("sacog.update", is_sparse), SELF)
    m["sacog.sparse.score_us_per_round"] = us_per_call(agg("sacog.score", is_sparse))
    m["sacog.active_ratio"] = ratio(agg("sacog.update"))

    m["metrics.record_us_per_call"] = us_per_call(agg("metrics.record"))
    m["metrics.aggregate_s"] = agg("metrics.sum_metric")[INCL] + agg("metrics.cost_metric")[INCL]

    experiment_s = total("experiment")
    passes = by_name.get("pass", []) + by_name.get("fold", [])
    m["harness.grid_select_s"] = total("grid_select")
    m["harness.grid_share"] = m["harness.grid_select_s"] / experiment_s if experiment_s else 0.0
    m["harness.eval_s"] = sum(_dur(s) for s in by_name.get("pass", []) if s.attrs["kind"] == "eval")
    m["harness.cv_s"] = total("fold")
    m["harness.emit_csv_s"] = total("emit_csv")
    m["harness.make_learner_s"] = agg("harness.make_learner")[INCL]
    m["harness.passes"] = len(passes)
    m["harness.loop_self_s"] = sum(
        _dur(s) - sum(_dur(c) for c in children.get(s.id, [])) - s.counted_s for s in passes
    )
    tails = {}
    learner = ("baselines.", "acog.", "sacog.")
    for algo in sorted(set(algos_by_exp.values())):
        durs = [_dur(s) for s in passes if algos_by_exp.get(s.exp) == algo]
        value, pct, n = tail_percentile(durs)
        m[f"harness.pass_s.p50.{algo}"] = float(np.median(durs)) if durs else 0.0
        m[f"harness.pass_s.tail.{algo}"] = value
        tails[algo] = {"percentile": pct, "samples": n}
        acc = per_algo.get(algo, {})
        spent = sum(v[TOP] for k, v in acc.items()
                    if k.startswith(learner) and k.endswith((".score", ".update", ".predict")))
        rounds = sum(v[CALLS] for k, v in acc.items()
                     if k.startswith(learner) and k.endswith((".update", ".predict")))
        m[f"learner.{algo}.d{d}.us_per_round"] = 1e6 * spent / rounds if rounds else 0.0
    # self time per layer: spans minus their child spans and direct counted
    # calls, plus every counted call's own self time
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = SPAN_LAYER.get(s.name, "harness")
        if layer:
            self_s[layer] += _dur(s) - sum(_dur(c) for c in children.get(s.id, [])) - s.counted_s
        for k, v in s.counters.items():
            self_s[k.split(".")[0]] += v[SELF]
    for layer, value in self_s.items():
        m[f"{layer}.self_s"] = value
    return m, tails
