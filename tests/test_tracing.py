"""The benchmark's layer tracer must see every layer of a detect or evaluate run.

The tracer rebinds functions at the module where their caller looks them
up.  A caller that captured a function object at import time (say, in a
module-level table of scorers) would bypass the wrapper, and that layer
would silently read zero in the traced benchmark.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import netchange.cli
import netchange.embedding
import netchange.pipeline
from netchange import SnapshotMatrix
from netchange.cli import main, write_sequence
from netchange.dcsbm import DEFAULT_T

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

CDP_LAYERS = (
    "graph.representation",
    "embedding.embed",
    "procrustes.profile",
    "procrustes.change_scores",
    "pipeline.normalize",
)
ACT_LAYERS = ("baselines.activity", "baselines.window_score", "pipeline.normalize")
EVALUATE_LAYERS = CDP_LAYERS + ACT_LAYERS + ("dcsbm.generate", "evaluation.phi")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_spans(tmp_path, method):
    rng = np.random.default_rng(6)
    snaps = []
    for t in range(1, 5):
        upper = np.triu(rng.poisson(1.5, (12, 12)).astype(float), k=1)
        snaps.append(SnapshotMatrix(W=upper + upper.T, t=t))
    edges = tmp_path / f"{method}.tsv"
    write_sequence(edges, snaps)
    return traced(
        ["detect", "--input", str(edges), "--method", method, "--window", "2",
         "--out", str(tmp_path / method)]
    )


def traced(argv):
    """Spans of one traced CLI call."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert netchange.pipeline.embed is netchange.embedding.embed
    return tracer.spans


def layer_counts(spans):
    """Spans per layer name."""
    names = [span["name"] for span in spans]
    return {name: names.count(name) for name in set(names)}


def test_every_layer_records_spans(tmp_path):
    cdp = layer_counts(traced_spans(tmp_path, "cdp"))
    for layer in CDP_LAYERS:
        assert cdp.get(layer, 0) > 0, layer
    act = layer_counts(traced_spans(tmp_path, "act"))
    for layer in ACT_LAYERS:
        assert act.get(layer, 0) > 0, layer
    assert act["baselines.activity"] == 4
    assert act["baselines.window_score"] == 2


def test_cli_stages_are_spans(tmp_path):
    # The bench's cli.write_s is the write stage's span.
    originals = (netchange.cli._Stage.__enter__, netchange.cli._Stage.__exit__)
    spans = traced_spans(tmp_path, "act")
    expected = ["stage.ingest", "stage.score", "cli.write"]
    assert [span["name"] for span in spans if span["name"] in expected] == expected
    manifest = json.loads((tmp_path / "act" / "manifest.json").read_text())
    assert [record["stage"] for record in manifest["stages"]] == ["ingest", "score", "write"]
    assert (netchange.cli._Stage.__enter__, netchange.cli._Stage.__exit__) == originals


def test_scored_layers_carry_their_instant(tmp_path):
    # The bench keys per-instant figures by these time indices; a producer
    # falling back to a default t would merge the instants into one key.
    scored = {
        "cdp": ("procrustes.profile", "procrustes.change_scores", "pipeline.normalize"),
        "act": ("baselines.window_score", "pipeline.normalize"),
    }
    for method, layers in scored.items():
        spans = traced_spans(tmp_path, method)
        for layer in layers:
            ops = sorted(span["op"] for span in spans if span["name"] == layer)
            assert ops == [[0, 3], [0, 4]], (method, layer)  # w=2 over T=4


def test_evaluate_records_every_layer(tmp_path):
    spans = traced(
        ["evaluate", "--scenario", "group-change", "--scale", "0.1",
         "--methods", "cdp,act,actm", "--windows", "1,2", "--runs", "1",
         "--phi-samples", "1000", "--out", str(tmp_path / "ev")]
    )
    counts = layer_counts(spans)
    for layer in EVALUATE_LAYERS:
        assert counts.get(layer, 0) > 0, layer
    assert counts["dcsbm.generate"] == 1
    # act and actm share one activity vector per snapshot
    assert counts["baselines.activity"] == DEFAULT_T
    scored = (DEFAULT_T - 1) + (DEFAULT_T - 2)  # windows 1 and 2
    assert counts["baselines.window_score"] == 2 * scored
    assert counts["evaluation.phi"] == 3 * scored
    # the bench's gpa_passes and gpa_unconverged read these off AlignmentResult
    gpa = [span["attrs"] for span in spans if span["name"] == "procrustes.gpa_align"]
    assert gpa
    for attrs in gpa:
        assert type(attrs["passes"]) is int and attrs["passes"] >= 1
        assert type(attrs["converged"]) is bool


def test_traced_evaluate_in_one_process_records_every_layer(tmp_path, usable_cpus):
    # Spans recorded in a worker process stay there, so a traced call that
    # should see every run sees one usable CPU and scores its runs in-process.
    usable_cpus(1)
    spans = traced(
        ["evaluate", "--scenario", "group-change", "--scale", "0.1",
         "--methods", "cdp,act,actm", "--windows", "1,2", "--runs", "2",
         "--phi-samples", "1000", "--out", str(tmp_path / "ev")]
    )
    counts = layer_counts(spans)
    for layer in EVALUATE_LAYERS:
        assert counts.get(layer, 0) > 0, layer
    assert counts["dcsbm.generate"] == 2
