"""Layer spans recorded from outside the program, for the traced benchmark run.

Every wrapper rebinds one public function at the module where its caller
looks it up (for example ``netchange.pipeline.embed``, which
``embed_snapshot`` calls), so the program's own files stay untouched.  A
span holds its name, start, end, parent span and operation key
``(run, t)``: ``run`` counts the sequences ``evaluate`` generates (0 for
``detect``) and ``t`` is the time index of the instant, where the call
has one.  Spans stay in memory and are written out once the traced call
has returned; `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import statistics
from math import ceil
from time import perf_counter

# Spans named "stage.*" are the CLI's own stages (ingest, score, experiment,
# ...): containers, not layers.  The CLI's write stage is a layer and is
# recorded as "cli.write".
STAGE_PREFIX = "stage."
# Flops of one dense symmetric eigendecomposition with eigenvectors,
# about 9 n^3 (Golub and Van Loan, symmetric QR with accumulation).  A
# computed figure, not a measured one.
EIGH_FLOPS_PER_N3 = 9.0


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str, t: int | None = None) -> dict:
        parent = self._stack[-1] if self._stack else None
        if t is None and parent is not None:
            t = self.spans[parent]["op"][1]
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "op": [self._run, t],
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, t_of=None, attrs_of=None, before=None):
        """Rebind ``owner.attr`` to a wrapper that records one span per call.

        `t_of(args, kwargs)` gives the instant's time index, `attrs_of(args,
        kwargs, result)` a dict of counts stored on the span, and `before()`
        runs ahead of the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            span = self.open(name, t_of(args, kwargs) if t_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _next_run(self) -> None:
        self._run += 1

    def install(self) -> None:
        """Wrap the layer boundaries of netchange; import it first."""
        import numpy as np

        import netchange.baselines as baselines
        import netchange.cli as cli
        import netchange.embedding as embedding
        import netchange.evaluation as evaluation
        import netchange.pipeline as pipeline
        import netchange.procrustes as procrustes

        def arg(i, key):
            return lambda a, k: a[i] if len(a) > i else k[key]

        def t_of_snapshot(a, k):
            return arg(0, "snapshot")(a, k).t

        self._wrap_stages(cli._Stage)
        self.wrap(cli, "ingest_sequence", "cli.ingest")
        self.wrap(cli, "write_csv", "cli.write_csv",
                  attrs_of=lambda a, k, r: {"rows": len(arg(2, "rows")(a, k))})
        self.wrap(pipeline, "representation_matrix", "graph.representation",
                  t_of=t_of_snapshot)
        self.wrap(pipeline, "embed", "embedding.embed",
                  t_of=lambda a, k: k.get("t"),
                  attrs_of=lambda a, k, r: {"d": r.d})
        self.wrap(np.linalg, "eigh", "embedding.eigh",
                  attrs_of=lambda a, k, r: {"n": int(arg(0, "a")(a, k).shape[0])})
        self.wrap(embedding, "spectral_norm", "embedding.spectral_norm")
        self.wrap(embedding, "random_sign_flip", "embedding.sign_flip")
        # A window profile feeds the instant after its last member; the
        # benchmark's inputs have consecutive time indices.
        self.wrap(pipeline, "profile_embedding", "procrustes.profile",
                  t_of=lambda a, k: arg(0, "window")(a, k)[-1].t + 1)
        self.wrap(pipeline, "change_scores", "procrustes.change_scores",
                  t_of=lambda a, k: arg(0, "current")(a, k).t)
        self.wrap(procrustes, "gpa_align", "procrustes.gpa_align",
                  attrs_of=lambda a, k, r: {"passes": r.iterations,
                                            "converged": bool(r.converged)})
        for owner in (pipeline, baselines):
            self.wrap(owner, "normalize_and_detect", "pipeline.normalize",
                      t_of=lambda a, k: arg(0, "score")(a, k).t,
                      attrs_of=lambda a, k, r: {"degenerate": bool(r[2])})
        self.wrap(baselines, "activity", "baselines.activity", t_of=t_of_snapshot)
        for attr in ("act_scores", "actm_scores"):
            self.wrap(baselines, attr, "baselines.window_score",
                      t_of=lambda a, k: arg(1, "current")(a, k).t)
        self.wrap(evaluation, "generate_sequence", "dcsbm.generate",
                  before=self._next_run)
        self.wrap(evaluation, "estimate_phi", "evaluation.phi")

    def _wrap_stages(self, stage_cls) -> None:
        """Open a span when a CLI stage is entered and close it on exit."""
        tracer = self
        enter, exit_ = stage_cls.__enter__, stage_cls.__exit__

        def __enter__(stage):
            name = "cli.write" if stage.name == "write" else STAGE_PREFIX + stage.name
            stage._bench_span = tracer.open(name)
            return enter(stage)

        def __exit__(stage, *exc):
            try:
                return exit_(stage, *exc)
            finally:
                tracer.close(stage._bench_span)

        stage_cls.__enter__, stage_cls.__exit__ = __enter__, __exit__
        self._patches += [(stage_cls, "__enter__", enter), (stage_cls, "__exit__", exit_)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, origin: float) -> list[dict]:
        """Spans with times in seconds since `origin`, for the spans file."""
        return [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# per-layer metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def is_layer(name: str) -> bool:
    return not name.startswith(STAGE_PREFIX)


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    out = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _duration(s)
    return out


def outermost_layer_spans(spans: list[dict]) -> list[dict]:
    """Layer spans with no layer span among their ancestors."""
    top = []
    for s in spans:
        if not is_layer(s["name"]):
            continue
        parent = s["parent"]
        while parent is not None and not is_layer(spans[parent]["name"]):
            parent = spans[parent]["parent"]
        if parent is None:
            top.append(s)
    return top


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: ceil(q * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)), 1) - 1]


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer times, counts and ratios from the spans of one traced call.

    `wall_s` is the traced call's wall time; the part of it no outermost
    layer span covers is reported as ``trace.unattributed_s``.
    """

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(_duration(s) for s in named(name))

    def attr_values(name, key):
        return [s["attrs"][key] for s in named(name)]

    selfs = self_times(spans)
    embeds = named("embedding.embed")
    dims = attr_values("embedding.embed", "d")
    gpa_converged = attr_values("procrustes.gpa_align", "converged")
    top = outermost_layer_spans(spans)

    # per-instant latency: every outermost layer span that belongs to one
    # instant (representation, embedding, profile, scores, normalization,
    # activity vector, window score), summed per (run, t)
    per_instant: dict[tuple, float] = {}
    for s in top:
        if s["op"][1] is not None:
            key = tuple(s["op"])
            per_instant[key] = per_instant.get(key, 0.0) + _duration(s)
    instant_ms = [1000.0 * v for v in per_instant.values()] or [0.0]

    metrics = {
        "cli.ingest_s": seconds("cli.ingest"),
        "cli.write_s": seconds("cli.write"),
        "cli.write_rows": sum(attr_values("cli.write_csv", "rows")),
        "graph.representation_s": seconds("graph.representation"),
        "graph.representation_calls": len(named("graph.representation")),
        "embedding.embed_s": seconds("embedding.embed"),
        "embedding.eigh_s": seconds("embedding.eigh"),
        "embedding.eigh_gflop": sum(
            EIGH_FLOPS_PER_N3 * n**3 / 1e9 for n in attr_values("embedding.eigh", "n")
        ),
        "embedding.spectral_norm_s": seconds("embedding.spectral_norm"),
        "embedding.spectral_norm_calls": len(named("embedding.spectral_norm")),
        "embedding.sign_flip_s": seconds("embedding.sign_flip"),
        "embedding.rank_self_s": sum(selfs[s["id"]] for s in embeds),
        "embedding.d_mean": statistics.fmean(dims) if dims else 0.0,
        "embedding.d_max": max(dims, default=0),
        "procrustes.profile_s": seconds("procrustes.profile"),
        "procrustes.change_scores_s": seconds("procrustes.change_scores"),
        "procrustes.gpa_passes": sum(attr_values("procrustes.gpa_align", "passes")),
        "procrustes.gpa_unconverged": gpa_converged.count(False),
        "pipeline.normalize_s": seconds("pipeline.normalize"),
        "pipeline.degenerate_instants": attr_values("pipeline.normalize", "degenerate").count(True),
        "pipeline.instant_ms_p50": nearest_rank(instant_ms, 0.50),
        "pipeline.instant_ms_p66": nearest_rank(instant_ms, 0.66),
        "baselines.activity_s": seconds("baselines.activity"),
        "baselines.activity_calls": len(named("baselines.activity")),
        "baselines.window_score_s": seconds("baselines.window_score"),
        "dcsbm.generate_s": seconds("dcsbm.generate"),
        "evaluation.phi_s": seconds("evaluation.phi"),
        "evaluation.phi_calls": len(named("evaluation.phi")),
        "trace.unattributed_s": wall_s - sum(_duration(s) for s in top),
    }
    return {name: float(value) for name, value in metrics.items()}
