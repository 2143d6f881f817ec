"""Behaviour fingerprint: simulate, detect and evaluate against a committed fixture.

The fixture holds what the public commands wrote for group-change at scale
0.1 (n=90, T=30), seeds 0 and 1: the sha256 of ``simulate``'s files, the
``detect`` fingerprints of cdp, act and actm at w=5, and one ``evaluate``
fingerprint.  The fingerprints and their tolerances are the benchmark's own
(``bench/fingerprint.py``): ``d`` and detection sets exactly, scores to 1e-8
relative, exceedance counts exactly and eta at t* to 1e-9.

A deliberate behaviour change regenerates the fixture, and says why, with

    PYTHONPATH=src python tests/test_fingerprint.py

which first lists, on standard error, every entry of the existing fixture
that the test would reject, so that the change explains itself.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from netchange.cli import main
from netchange.dcsbm import DEFAULT_CHANGE_INSTANT, DEFAULT_T
from netchange.pipeline import DEFAULT_ZSCORE_THRESHOLD

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = ROOT / "bench" / "fingerprint.py"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "fingerprint_group_change.json"

SCENARIO = "group-change"
SCALE = "0.1"
SEEDS = (0, 1)
METHODS = ("cdp", "act", "actm")
WINDOW = 5
PHI_SAMPLES = 2000
EVALUATE = ["--runs", str(len(SEEDS)), "--windows", "1,5", "--phi-samples", str(PHI_SAMPLES)]


def load_fingerprint():
    spec = importlib.util.spec_from_file_location("bench_fingerprint", FINGERPRINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(tmp: Path) -> dict:
    """Run the commands in `tmp` and fingerprint what they wrote."""
    fp = load_fingerprint()
    got: dict = {"simulate": {}, "detect": {}}
    for seed in SEEDS:
        sim = tmp / f"simulate-{seed}"
        run("simulate", "--scenario", SCENARIO, "--scale", SCALE, "--seed", seed, "--out", sim)
        got["simulate"][str(seed)] = {
            name: sha256(sim / name) for name in ("sequence.tsv", "ground_truth.json")
        }
        for method in METHODS:
            out = tmp / f"{method}-{seed}"
            run("detect", "--input", sim / "sequence.tsv", "--method", method,
                "--window", WINDOW, "--seed", seed, "--out", out)
            detect, invalid = fp.detect_fingerprint(out, DEFAULT_ZSCORE_THRESHOLD)
            assert invalid == {}, (method, seed, invalid)
            got["detect"][f"{method}/seed{seed}"] = detect
    out = tmp / "evaluate"
    run("evaluate", "--scenario", SCENARIO, "--scale", SCALE, *EVALUATE, "--out", out)
    evaluate, invalid = fp.evaluate_fingerprint(
        out, DEFAULT_CHANGE_INSTANT, PHI_SAMPLES, DEFAULT_T
    )
    assert invalid == {}, invalid
    got["evaluate"] = evaluate
    return got


def test_outputs_match_fixture(tmp_path):
    fp = load_fingerprint()
    ref = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = record(tmp_path)
    assert got["simulate"] == ref["simulate"]
    assert sorted(got["detect"]) == sorted(ref["detect"])
    for key, detect in ref["detect"].items():
        assert fp.compare_detect(detect, got["detect"][key], WINDOW) == {}, key
    assert fp.compare_evaluate(ref["evaluate"], got["evaluate"]) == {}


def differences(ref: dict, got: dict) -> dict[str, dict]:
    """What the test would reject in `got`, keyed by fixture section and entry."""
    fp = load_fingerprint()
    simulate = {
        f"{seed}/{name}": "sha256 differs"
        for seed, files in ref["simulate"].items()
        for name, digest in files.items()
        if got["simulate"].get(seed, {}).get(name) != digest
    }
    detect = {
        key: fp.compare_detect(r, got["detect"][key], WINDOW) if key in got["detect"]
        else "missing"
        for key, r in ref["detect"].items()
    }
    return {
        "simulate": simulate,
        "detect": {k: v for k, v in detect.items() if v},
        "evaluate": fp.compare_evaluate(ref["evaluate"], got["evaluate"]),
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = record(Path(tmp))
    if FIXTURE.exists():
        changed = differences(json.loads(FIXTURE.read_text(encoding="utf-8")), payload)
        for section, failed in changed.items():
            for key, reason in failed.items():
                print(f"changed {section} {key}: {reason}", file=sys.stderr)
        if not any(changed.values()):
            print("no fixture entry changed", file=sys.stderr)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
