"""Fast self-test of the benchmark harness: ``python3 bench/selftest.py``.

Runs the harness end to end on tiny versions of the workloads (n=54) and
checks that:
  * BENCHMARK.json names exactly the workloads and metrics the harness has;
  * every end-to-end and per-layer metric prints with its unit;
  * outputs that match the reference pass, and every kind of deliberate
    perturbation of the reference is reported as a failure;
  * the layer wrappers are removed after a traced call;
  * without the program's sources the benchmark exits nonzero and prints
    no result.
Takes about half a minute on one core.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1
TINY = (
    run.Workload("tiny-detect-cdp", "detect", method="cdp", scale=0.06),
    run.Workload("tiny-evaluate", "evaluate", runs=1, scale=0.06),
)
SCRATCH = run.WORK_DIR / "selftest"


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def emitted(record: dict) -> tuple[list[str], dict]:
    """The summary lines and the parsed result line that `run.emit` prints."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.emit(record)
    lines = buffer.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(record: dict, spec: list[dict], what: str) -> None:
    summary, result = emitted(record)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct with no failed operation")
    names = {m["name"]: m["unit"] for m in spec}
    check(set(result["metrics"]) == set(names), f"{what}: exactly the metrics BENCHMARK.json names")
    wrong = [
        name for name, unit in names.items()
        if result["metrics"][name]["unit"] != unit
        or not isinstance(result["metrics"][name]["value"], float)
        or not any(line.startswith(f"# {name} = ") and line.endswith(f" {unit}") for line in summary)
    ]
    check(not wrong, f"{what}: all {len(names)} metrics printed as numbers with their units "
          f"{wrong or ''}")
    check(any(line.startswith("# failed_frac = ") for line in summary), f"{what}: failed_frac printed")


def perturbations(wl: run.Workload, ref: dict) -> dict[str, dict]:
    """One altered copy of the reference per kind of behaviour change."""
    out = {}
    if wl.command == "detect":
        scored = sorted(ref["instants"], key=int)
        t = scored[len(scored) // 2]
        changed = copy.deepcopy(ref)
        changed["dims"][t] += 1
        out["d of a scored instant"] = changed
        changed = copy.deepcopy(ref)
        changed["dims"]["1"] += 1
        out["d of an unscored instant"] = changed
        changed = copy.deepcopy(ref)
        det = changed["instants"][t]["det"]
        changed["instants"][t]["det"] = det[1:] if det else [0]
        out["detection set"] = changed
        changed = copy.deepcopy(ref)
        changed["instants"][t]["z"][1] += 1e-6 * changed["instants"][t]["z_l1"]
        out["scores by 1e-6"] = changed
    else:
        key = sorted(ref["series"])[0]
        changed = copy.deepcopy(ref)
        changed["series"][key]["phi2n"] = "0" * 16
        out["exceedance counts"] = changed
        key = next(k for k in sorted(ref["series"]) if k.startswith("cdp/w5/"))
        changed = copy.deepcopy(ref)
        changed["series"][key]["eta_tstar"] += 1e-6
        out["eta at t* by 1e-6"] = changed
    return out


def check_workload(wl: run.Workload, spec: dict) -> None:
    ref_path = SCRATCH / f"{wl.name}.json"
    ref_path.unlink(missing_ok=True)
    run.make_reference(wl, SEED, ref_path)
    ref = run.load_reference(wl, SEED, ref_path)
    check(ref is not None, f"{wl.name}: reference made on demand")

    record = run.run_benchmark(wl, SEED, 1.0, False, ref_path, setup_repeats=2)
    check(record["reference"] == "committed", f"{wl.name}: reference used")
    check_printed(record, spec["end_to_end"], f"{wl.name} trace 0")
    record = run.run_benchmark(wl, SEED, 1.0, True, ref_path, setup_repeats=1)
    check_printed(record, spec["per_layer"], f"{wl.name} trace 1")
    check(any(p.name.startswith("spans-") for p in Path(record["work_dir"]).iterdir()),
          f"{wl.name}: spans written beside the result")

    got = json.loads((Path(record["work_dir"]) / "op0.json").read_text())["fingerprint"]
    check(not run.compare(wl, ref, got), f"{wl.name}: matching output passes")
    for kind, bad in perturbations(wl, ref).items():
        check(bool(run.compare(wl, bad, got)), f"{wl.name}: perturbed {kind} fails")

    bad_path = SCRATCH / f"{wl.name}-perturbed.json"
    first_kind, bad = next(iter(perturbations(wl, ref).items()))
    bad_path.write_text(json.dumps({"workload": wl.name, "seeds": {str(wl.program_seed(SEED)): bad}}))
    record = run.run_benchmark(wl, SEED, 1.0, False, bad_path, setup_repeats=1)
    _summary, result = emitted(record)
    check(not result["correct"] and result["failed"] >= 1,
          f"{wl.name}: run against a perturbed reference ({first_kind}) reports a failure")


def check_uninstall() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    import netchange.cli as cli
    import netchange.pipeline as pipeline
    from tracing import Tracer

    before = (np.linalg.eigh, pipeline.embed, cli.ingest_sequence, cli._Stage.__enter__)
    tracer = Tracer()
    tracer.install()
    check(pipeline.embed is not before[1], "wrappers installed in the traced call")
    tracer.uninstall()
    after = (np.linalg.eigh, pipeline.embed, cli.ingest_sequence, cli._Stage.__enter__)
    check(all(a is b for a, b in zip(before, after)), "wrappers removed afterwards")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "detect-cdp-n900",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources: nonzero exit and no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workloads match")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "end-to-end metrics and units match")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
          "per-layer metrics and units match")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for wl in TINY:
        check_workload(wl, spec)
    check_uninstall()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
