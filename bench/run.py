"""The netchange benchmark: three workloads driven through the public CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload detect-cdp-n900 --seed 0 --seconds 40 --trace 0

Set-up makes the workload's inputs from ``--seed`` several times and
reports the median as ``setup_s``.  The measured part then runs the
workload's command, each time in a fresh process with BLAS pinned to one
thread, until ``--seconds`` would be exceeded (always at least once), and
reports the median ``wall_s`` and ``peak_rss_mb``.  Every call's output
files are fingerprinted and checked against the reference committed in
``bench/reference``; every mismatch counts as a failed operation.  With
``--trace 1`` calls with and without the layer wrappers alternate, and the
per-layer metrics are reported.

The last line of standard output is the JSON result; the lines before it,
starting with ``#``, repeat every metric with its unit, the failed
fraction, and the environment.  The result, with per-call detail, and the
spans of traced calls are written to ``.bench_work/<workload>-seed<n>-trace<k>/``.

``--make-reference`` instead runs the workload once for ``--seed`` and
stores its fingerprint in the reference file, so that a claim can be
checked on a new seed: make the reference at the parent commit, then run
the benchmark on the change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import fingerprint

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".bench_work"

SCENARIO = "group-change"
T = 30
T_STAR = 21
EPSILON = "0.005"
THRESHOLD = 5.0
PHI_SAMPLES = 100_000
DETECT_WINDOW = 5
EVALUATE_METHODS = "cdp,act,actm"
EVALUATE_WINDOWS = "1,5,10"
SETUP_REPEATS = 3
# The timed work must not depend on the seed.  Drawing a new graph changes
# it by up to 40 % (detect-act 7.2-10.2 s over four graphs, repeats on one
# graph within 3-9 %), more than a regression bound can absorb.  So
# detect reads one simulated sequence whose vertices the seed relabels, and
# the seed also seeds detect's rank search; evaluate, which draws its own
# sequences with run seed = base seed XOR run index, gets base seed
# `seed % runs`, so with `runs` a power of two every seed scores the same
# sequences in another order.
SIMULATION_SEED = 0
# A run must end well inside the 180 s a caller allows it.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One command line of netchange, at a fixed input size."""

    name: str
    command: str  # "detect" or "evaluate"
    method: str = "cdp"  # detect only
    runs: int = 0  # evaluate only
    scale: float | None = None

    def program_seed(self, seed: int) -> int:
        """The ``--seed`` netchange receives; also the key of the reference."""
        return seed % self.runs if self.command == "evaluate" else seed

    @property
    def operations(self) -> int:
        """Scored instants of one detect call, or series of one evaluate call."""
        if self.command == "detect":
            return T - DETECT_WINDOW
        return self.runs * len(EVALUATE_METHODS.split(",")) * len(EVALUATE_WINDOWS.split(","))


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload was chosen: bench/README.md and BENCHMARK.json
        Workload("detect-cdp-n900", "detect", method="cdp"),
        Workload("detect-act-n900", "detect", method="act"),
        Workload("evaluate-n300", "evaluate", runs=4, scale=1 / 3),
    )
}

PER_LAYER_UNITS = {
    "cli.ingest_s": "s",
    "cli.ingest_edges": "count",
    "cli.write_s": "s",
    "cli.write_rows": "count",
    "graph.representation_s": "s",
    "graph.representation_calls": "count",
    "embedding.embed_s": "s",
    "embedding.eigh_s": "s",
    "embedding.eigh_gflop": "GFLOP-computed",
    "embedding.spectral_norm_s": "s",
    "embedding.spectral_norm_calls": "count",
    "embedding.sign_flip_s": "s",
    "embedding.rank_self_s": "s",
    "embedding.d_mean": "dim",
    "embedding.d_max": "dim",
    "procrustes.profile_s": "s",
    "procrustes.change_scores_s": "s",
    "procrustes.gpa_passes": "count",
    "procrustes.gpa_unconverged": "count",
    "pipeline.normalize_s": "s",
    "pipeline.degenerate_instants": "count",
    "pipeline.instant_ms_p50": "ms",
    "pipeline.instant_ms_p66": "ms",
    "baselines.activity_s": "s",
    "baselines.activity_calls": "count",
    "baselines.window_score_s": "s",
    "dcsbm.generate_s": "s",
    "evaluation.phi_s": "s",
    "evaluation.phi_calls": "count",
    "evaluation.eta_tstar_cdp": "logodds",
    "trace.unattributed_s": "s",
    "trace_overhead_frac": "frac",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# command lines


def simulate_argv(wl: Workload, out: Path) -> list[str] | None:
    if wl.command != "detect":
        return None
    argv = ["simulate", "--scenario", SCENARIO, "--change-type", "point",
            "--T", str(T), "--seed", str(SIMULATION_SEED), "--out", str(out)]
    if wl.scale is not None:
        argv += ["--scale", repr(wl.scale)]
    return argv


def operation_argv(wl: Workload, seed: int, inputs: Path, out: Path) -> list[str]:
    if wl.command == "detect":
        return ["detect", "--input", str(inputs / "sequence.tsv"), "--method", wl.method,
                "--window", str(DETECT_WINDOW), "--epsilon", EPSILON,
                "--threshold", repr(THRESHOLD), "--seed", str(wl.program_seed(seed)),
                "--out", str(out)]
    argv = ["evaluate", "--scenario", SCENARIO, "--change-type", "point", "--T", str(T),
            "--methods", EVALUATE_METHODS, "--windows", EVALUATE_WINDOWS, "--runs", str(wl.runs),
            "--epsilon", EPSILON, "--phi-samples", str(PHI_SAMPLES),
            "--seed", str(wl.program_seed(seed)), "--out", str(out)]
    if wl.scale is not None:
        argv += ["--scale", repr(wl.scale)]
    return argv


def fingerprint_job(wl: Workload, out: Path) -> dict:
    if wl.command == "detect":
        return {"kind": "detect", "out": str(out), "threshold": THRESHOLD}
    return {"kind": "evaluate", "out": str(out), "t_star": T_STAR, "N": PHI_SAMPLES, "T": T}


# ---------------------------------------------------------------------------
# processes


def run_worker(job: dict, job_path: Path, timeout: float) -> tuple[dict | None, float, str]:
    """Run one job in a fresh worker process; returns (result, elapsed, log)."""
    job_path.write_text(json.dumps(job) + "\n", encoding="utf-8")
    result_path = Path(job["result"])
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - start
    log = (proc.stdout + proc.stderr).strip()
    if proc.returncode != 0 or not result_path.exists():
        return None, elapsed, log or f"worker exited with {proc.returncode}"
    return json.loads(result_path.read_text(encoding="utf-8")), elapsed, log


# ---------------------------------------------------------------------------
# references


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def load_reference(wl: Workload, seed: int, path: Path | None = None) -> dict | None:
    path = path or reference_path(wl)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(wl.program_seed(seed)))


def compare(wl: Workload, ref: dict, fp: dict) -> dict[str, str]:
    if wl.command == "detect":
        return fingerprint.compare_detect(ref, fp, DETECT_WINDOW)
    return fingerprint.compare_evaluate(ref, fp)


# ---------------------------------------------------------------------------
# the run


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "netchange").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def check_checkout() -> None:
    if not (ROOT / "src" / "netchange" / "cli.py").is_file():
        raise BenchError(f"no netchange sources under {ROOT / 'src'}; run from a full checkout")


def count_edges(sequence: Path) -> int:
    with open(sequence, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def relabel(sequence: Path, seed: int) -> None:
    """Rename the vertices by a permutation drawn from `seed`.

    The largest label keeps its name, so the vertex count ``detect`` infers
    stays the same.
    """
    edges = [line.split() for line in sequence.read_text(encoding="utf-8").splitlines()]
    top = max(max(int(i), int(j)) for _t, i, j, _w in edges)
    names = list(range(top))
    random.Random(seed).shuffle(names)
    names.append(top)
    sequence.write_text(
        "".join(f"{t} {names[int(i)]} {names[int(j)]} {w}\n" for t, i, j, w in edges),
        encoding="utf-8",
    )


def set_up(wl: Workload, seed: int, work: Path, repeats: int) -> tuple[list[float], Path]:
    """Make the inputs `repeats` times; returns the times and input directory."""
    inputs = work / "inputs"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        job = {"argv": simulate_argv(wl, inputs), "result": str(work / "setup.json")}
        result, _elapsed, log = run_worker(job, work / "setup-job.json", RUN_DEADLINE_S)
        if result is None or result.get("rc", 0) != 0:
            raise BenchError(f"set-up failed: {log}")
        if wl.command == "detect":
            relabel(inputs / "sequence.tsv", seed)
        times.append(time.perf_counter() - start)
    return times, inputs


def run_operation(wl: Workload, seed: int, work: Path, inputs: Path, index: int,
                  traced: bool, timeout: float) -> dict:
    out = work / f"out{index}"
    job = {
        "argv": operation_argv(wl, seed, inputs, out),
        "trace": traced,
        "result": str(work / f"op{index}.json"),
        "spans": str(work / f"spans-op{index}.json"),
        "fingerprint": fingerprint_job(wl, out),
        "environment": index == 0,
    }
    result, elapsed, log = run_worker(job, work / f"job{index}.json", timeout)
    shutil.rmtree(out, ignore_errors=True)
    return {"index": index, "traced": traced, "elapsed_s": elapsed, "result": result, "log": log}


def check_operation(wl: Workload, op: dict, ref: dict | None, first_fp: dict | None) -> dict[str, str]:
    """Failed operations of one call, each with a reason."""
    result = op["result"]
    if result is None or result.get("rc") != 0 or "fingerprint" not in result:
        reason = (op["log"].splitlines() or ["no result"])[-1]
        return {f"all {wl.operations}": f"command failed: {reason}"}
    failed = dict(result["invalid"])
    against = ref if ref is not None else first_fp
    if against is not None:
        for key, reason in compare(wl, against, result["fingerprint"]).items():
            failed.setdefault(key, reason)
    return failed


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
                  reference: Path | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    check_checkout()
    started = time.perf_counter()
    work = WORK_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times, inputs = set_up(wl, seed, work, setup_repeats)

    ref = load_reference(wl, seed, reference)
    # Traced and untraced calls in the order ABBA while time allows, so that
    # a drift of the machine's speed does not read as tracing overhead.
    modes = [False, True, True, False] if trace else [False]
    least = 2 if trace else 1
    ops: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        remaining = RUN_DEADLINE_S - (time.perf_counter() - started)
        ops.append(run_operation(wl, seed, work, inputs, len(ops),
                                 modes[len(ops) % len(modes)], remaining))
        if ops[-1]["result"] is None:
            break
        now = time.perf_counter()
        predicted = statistics.median(op["elapsed_s"] for op in ops)
        if now - started + predicted > RUN_DEADLINE_S:
            break
        if len(ops) >= least and now - measure_start + predicted > seconds:
            break

    first_fp = next((op["result"].get("fingerprint") for op in ops if op["result"]), None)
    failures = {}
    for op in ops:
        failed = check_operation(wl, op, ref, first_fp)
        op["failed"] = min(len(failed), wl.operations)
        failures[op["index"]] = failed
    attempted = wl.operations * len(ops)
    failed_total = sum(op["failed"] for op in ops)
    ok = [op for op in ops if op["result"] is not None and op["result"].get("rc") == 0]

    def median_of(key, traced):
        # 0 when every such call failed; the result then reads correct=false
        values = [op["result"][key] for op in ok if op["traced"] == traced]
        return statistics.median(values) if values else 0.0

    if trace:
        traced = [op["result"]["layers"] for op in ok if op["traced"]]
        metrics = {name: statistics.median(layers[name] for layers in traced)
                   for name in (traced[0] if traced else ())}
        metrics["cli.ingest_edges"] = float(count_edges(inputs / "sequence.tsv")) \
            if wl.command == "detect" else 0.0
        untraced = median_of("wall_s", False)
        metrics["trace_overhead_frac"] = median_of("wall_s", True) / untraced - 1 if untraced else 0.0
        if wl.command == "evaluate" and first_fp is not None:
            metrics["evaluation.eta_tstar_cdp"] = fingerprint.eta_tstar_median(first_fp)
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": median_of("wall_s", False),
            "peak_rss_mb": median_of("peak_rss_mb", False),
        }
        units = END_TO_END_UNITS

    environment = next((op["result"]["environment"] for op in ok
                        if "environment" in op["result"]), {})
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed_total == 0 and len(ok) == len(ops),
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "reference": "committed" if ref is not None else "none for this seed: invariants and "
                     "agreement between runs only",
        "environment": {**source_identity(), **environment},
        "setup_times_s": setup_times,
        "operations": [
            {
                "index": op["index"],
                "traced": op["traced"],
                "elapsed_s": op["elapsed_s"],
                "wall_s": (op["result"] or {}).get("wall_s"),
                "peak_rss_mb": (op["result"] or {}).get("peak_rss_mb"),
                "failed": op["failed"],
                "failures": dict(list(failures[op["index"]].items())[:20]),
            }
            for op in ops
        ],
        "work_dir": str(work),
    }


def make_reference(wl: Workload, seed: int, path: Path | None = None) -> dict:
    """Run the workload once for `seed`, store its fingerprint, return the run."""
    check_checkout()
    path = path or reference_path(wl)
    work = WORK_DIR / f"{wl.name}-seed{seed}-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _times, inputs = set_up(wl, seed, work, 1)
    op = run_operation(wl, seed, work, inputs, 0, False, RUN_DEADLINE_S)
    failed = check_operation(wl, op, None, None)
    if failed:
        raise BenchError(f"output of seed {seed} fails its own invariants: {failed}")
    seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"] if path.exists() else {}
    seeds[str(wl.program_seed(seed))] = op["result"]["fingerprint"]
    # one seed per line keeps the file diffable
    body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(seeds[s])}"
                      for s in sorted(seeds, key=int))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{"workload": {json.dumps(wl.name)}, "seeds": {{\n{body}\n}}}}\n',
                    encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return op["result"]


def summary_lines(record: dict) -> list[str]:
    lines = [f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
             f"reference: {record['reference']}"]
    for name, metric in record["metrics"].items():
        lines.append(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    frac = record["failed"] / record["attempted"]
    lines.append(f"# failed_frac = {frac:.6g} frac ({record['failed']} of {record['attempted']} "
                 f"operations in {len(record['operations'])} calls)")
    for op in record["operations"]:
        for key, reason in op["failures"].items():
            lines.append(f"# FAILED call {op['index']} {key}: {reason}")
    lines.append("# environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def emit(record: dict) -> None:
    """Write the full record beside the spans; print the summary and the result line."""
    (Path(record["work_dir"]) / "result.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("\n".join(summary_lines(record)))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="store this seed's fingerprint in bench/reference instead")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        if args.make_reference:
            result = make_reference(wl, args.seed)
            print(f"stored the reference of {wl.name} seed {args.seed} in {reference_path(wl)} "
                  f"(wall {result['wall_s']:.2f} s)")
            return 0
        record = run_benchmark(wl, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    emit(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
