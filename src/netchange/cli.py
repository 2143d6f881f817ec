"""Command-line interface: simulate scenarios, detect changes, run evaluations.

File formats
------------
Snapshot sequences travel as whitespace-separated edge lists, one edge per
line: ``t i j weight`` with a 1-based time index, 0-based vertex indices,
UTF-8 text, LF, CRLF or lone-CR line endings, and ``#`` comments.  Each
undirected edge may be listed once (it is mirrored) or twice with the same
weight; conflicting duplicates are rejected.  Missing pairs have weight zero.
numpy's text reader reads each file; one it rejects is read line by line.

Every command writes a ``manifest.json`` recording the merged
configuration, input/output paths, seed, per-stage wall-clock timings, and
the tool version; ``detect`` and ``evaluate`` add their worker count and the
peak resident memory of the command and of its largest worker.  A
``--config`` file is read as the command line it stands for: each ``key =
value`` line, read by the edge-list line rules, becomes ``--key value`` ahead
of the explicit flags, which win.  Keys are full flag names, ``_`` or ``-``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
import warnings
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .dcsbm import (
    DEFAULT_CHANGE_INSTANT,
    DEFAULT_INTERVAL,
    DEFAULT_T,
    SCENARIO_NAMES,
    ScenarioSpec,
    generate_sequence,
    scenario,
)
from .embedding import DEFAULT_RANK_EPSILON
from .errors import FormatError, NetchangeError, checked_int
from .evaluation import DEFAULT_PHI_SAMPLES, run_experiment
from .graph import MAX_VERTICES, SnapshotMatrix
from .pipeline import DEFAULT_WINDOW, DEFAULT_ZSCORE_THRESHOLD, METHODS, CdpConfig, ScoreSeries
from .pipeline import score_sequence, worker_count


# ---------------------------------------------------------------------------
# edge-list format


def _loaded_columns(path: Path) -> tuple[np.ndarray, ...] | None:
    """The t, i, j and weight columns as numpy's text reader reads them; None if it cannot.

    None too where a t is below 1, an index negative or a weight negative or
    not finite: the line reader words those errors.  Wherever this returns
    columns, `_parsed_columns` returns the same ones.  numpy is handed an
    open file, not the name, so that it decompresses no ``.gz`` input.
    """
    try:
        with warnings.catch_warnings(), open(path, encoding="utf-8-sig") as handle:
            warnings.simplefilter("error")  # an empty file, or an index read via a float
            t, i, j, w = np.loadtxt(handle, dtype="i8,i8,i8,f8", ndmin=1, unpack=True)
    except (ValueError, Warning):  # a malformed or non-UTF-8 file, or one without rows
        return None
    if np.any(t < 1) or np.any(np.minimum(i, j) < 0) or not np.all(np.isfinite(w) & (w >= 0)):
        return None
    return t, i, j, w


def _data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The 1-based number and pre-``#`` text of each token line of an edge list or config file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:  # raised for a whole chunk: name the byte's line
        lines = path.read_bytes().splitlines()  # at LF, CRLF or CR, as the lines above
        lineno = next(k for k, line in enumerate(lines, 1)
                      if line.decode(errors="ignore").encode() != line)
        raise FormatError(f"{path.name}:{lineno}: byte 0x{exc.object[exc.start]:02x} "
                          f"is not UTF-8 ({exc.reason})") from None


def _line_of(path: Path, row: int) -> int:
    """The file line of the 0-based data row `row`, as both readers count rows."""
    return next(islice(_data_lines(path), int(row), None))[0]


def _parsed_columns(path: Path) -> tuple[np.ndarray, ...]:
    """The t, i, j and weight columns of any file, read line by line.

    Every line-numbered format error is raised here.  Lines are read into
    flat arrays rather than a Python object per edge.
    """
    times, firsts, seconds, weights = array("q"), array("q"), array("q"), array("d")
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path.name}:{lineno}: expected 't i j weight', "
                              f"got {len(parts)} fields")
        try:
            t, i, j = map(int, parts[:3])
        except ValueError as exc:
            raise FormatError(f"{path.name}:{lineno}: non-integer index: {exc}") from exc
        try:
            weight = float(parts[3])
        except ValueError as exc:
            raise FormatError(f"{path.name}:{lineno}: non-numeric weight: {exc}") from exc
        if t < 1:
            raise FormatError(f"{path.name}:{lineno}: time index must be >= 1, got {t}")
        if i < 0 or j < 0:
            raise FormatError(f"{path.name}:{lineno}: vertex indices must be >= 0")
        if not math.isfinite(weight):
            raise FormatError(f"{path.name}:{lineno}: weight must be finite")
        if weight < 0:
            raise FormatError(f"{path.name}:{lineno}: weight must be nonnegative: {weight}")
        try:
            times.append(t)
            firsts.append(i)
            seconds.append(j)
        except OverflowError:
            raise FormatError(f"{path.name}:{lineno}: index does not fit in 64 bits") from None
        weights.append(weight)
    return tuple(map(np.array, (times, firsts, seconds, weights)))


def ingest_sequence(path: str | Path) -> list[SnapshotMatrix]:
    """Parse an edge-list file into one snapshot per distinct time index.

    The vertex count is one past the largest index seen anywhere in the
    file.  An edge listed once is mirrored; listing both orientations (or
    repeating a line) is accepted only when the weights agree.  Every file
    is first read by numpy's text reader (`_loaded_columns`).  A file it
    rejects, or one holding a value the format forbids, is read again line
    by line (`_parsed_columns`), and that reader alone words the
    line-numbered format errors.  Both give the same columns, so the same
    snapshots.  The two errors raised here, an index too large and a
    conflicting weight, name the earliest offending row's line.
    """
    path = Path(path)
    t, i, j, weights = _loaded_columns(path) or _parsed_columns(path)
    if not t.size:
        raise FormatError(f"{path.name}: no edges found")
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    n = int(hi.max()) + 1
    if n > MAX_VERTICES:  # the grouping key below would overflow int64
        at = _line_of(path, np.argmax(hi))
        raise FormatError(f"{path.name}:{at}: vertex index {n - 1} exceeds {MAX_VERTICES - 1}")
    # group the rows by (t, pair), each group in file order
    order = np.lexsort((lo * n + hi, t))
    t, lo, hi, w = t[order], lo[order], hi[order], weights[order]
    first = np.ones(t.size, dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    agreed = w[first][np.cumsum(first) - 1]
    clash = np.flatnonzero(w != agreed)
    if clash.size:
        k = clash[np.argmin(order[clash])]
        raise FormatError(
            f"{path.name}:{_line_of(path, order[k])}: conflicting weight for edge "
            f"{(int(lo[k]), int(hi[k]))} at t={t[k]}: {float(agreed[k])} vs {float(w[k])}"
        )
    if n < 2:
        raise FormatError(f"{path.name}: need at least 2 vertices, inferred n={n}")

    t, lo, hi, w = t[first], lo[first], hi[first], w[first]
    instants, starts = np.unique(t, return_index=True)
    return [
        SnapshotMatrix.from_edges(n, rows, cols, weights, int(at))
        for at, rows, cols, weights in zip(
            instants, np.split(lo, starts[1:]), np.split(hi, starts[1:]), np.split(w, starts[1:])
        )
    ]


def _format_weight(w: float) -> str:
    return str(int(w)) if float(w).is_integer() else repr(float(w))


def write_sequence(path: str | Path, snapshots: list[SnapshotMatrix]) -> None:
    """Write snapshots as a sorted edge list, one snapshot's lines at a time.

    Zero entries are omitted; a sequence with no edges at all is written as
    one blank line.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for snap in snapshots:
            rows, cols, weights = snap.edges
            handle.write(
                "".join(
                    f"{snap.t} {i} {j} {_format_weight(w)}\n"
                    for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist())
                )
            )
        if handle.tell() == 0:
            handle.write("\n")


def write_ground_truth(path: str | Path, spec: ScenarioSpec) -> None:
    payload = {
        "scenario": spec.name,
        "n": spec.n,
        "T": spec.T,
        "changed_vertices": [int(v) for v in spec.changed_vertices],
        "change_times": list(spec.change),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: list[str], rows: Iterable[tuple]) -> None:
    """Write a header and rows, one line each, without holding the whole text."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class _Stage:
    """Names the running stage (kept if it fails) and records seconds per stage."""

    def __init__(self):
        self.records: list[dict] = []
        self.name: str | None = None

    def __call__(self, name: str) -> _Stage:
        self.name = name
        return self

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.records.append({"stage": self.name, "seconds": time.perf_counter() - self.start})
            self.name = None
        return False


def write_manifest(
    out_dir: Path, args: argparse.Namespace, inputs: list[str], outputs: list[str],
    stages: _Stage, extra: dict,
) -> None:
    """Write `out_dir/manifest.json`; `outputs` are file names inside `out_dir`.

    `extra` holds a command's own entries, written after the common ones.
    """
    skip = {"func", "command", "config"}
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in skip},
        "inputs": inputs,
        "outputs": sorted(str(out_dir / name) for name in outputs),
        "seed": args.seed,
        "stages": stages.records,
        **extra,
    }
    text = json.dumps(manifest, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")


def _scenario_spec(args) -> ScenarioSpec:
    return scenario(args.scenario, change_type=args.change_type, T=args.T, scale=args.scale)


# ---------------------------------------------------------------------------
# commands: each runs its stages into `out` and returns
# (input paths, output file names, summary line, its own manifest entries)


def cmd_simulate(args, out: Path, stages: _Stage):
    with stages("build-scenario"):
        spec = _scenario_spec(args)
    with stages("generate"):
        snapshots = generate_sequence(spec, np.random.default_rng(args.seed))
    with stages("write"):
        write_sequence(out / "sequence.tsv", snapshots)
        write_ground_truth(out / "ground_truth.json", spec)
    summary = f"wrote {spec.T} snapshots (n={spec.n}) to {out / 'sequence.tsv'}"
    return [], ["sequence.tsv", "ground_truth.json"], summary, {}


class _ScoreRows:
    """The `scores.csv` rows of a series, made one scored instant at a time.

    A sized view rather than a list, so the T * n rows are never held at
    once; `len` is kept because the layer tracer (`bench/tracing.py`)
    counts the rows that `write_csv` is given.
    """

    def __init__(self, series: ScoreSeries):
        self.series = series

    def __len__(self) -> int:
        return self.series.scores.size

    def __iter__(self) -> Iterator[tuple]:
        series = self.series
        rows = zip(series.instants, series.scores, series.zscores, series.detected.astype(int))
        for t, z, zhat, detected in rows:
            for v, row in enumerate(zip(z.tolist(), zhat.tolist(), detected.tolist())):
                yield (t, v, *row)


def cmd_detect(args, out: Path, stages: _Stage):
    config = CdpConfig(epsilon_rank=args.epsilon, zscore_threshold=args.threshold, seed=args.seed)
    with stages("ingest"):
        snapshots = ingest_sequence(args.input)
    with stages("score"):
        method, w, workers = args.method, args.window, worker_count(len(snapshots))
        series = score_sequence(snapshots, config, (method,), (w,), workers)[(method, w)]
    with stages("write"):
        write_csv(out / "scores.csv", ["t", "vertex", "z", "zscore", "detected"],
                  _ScoreRows(series))
        write_csv(out / "dims.csv", ["t", "d"],
                  list(enumerate(series.dims.tolist(), start=snapshots[0].t)))
    flagged = series.detected.sum(axis=1).tolist()
    summary = (
        f"scored {len(series.instants)} instants with {method}; {sum(flagged)} detections, "
        f"max per-instant fraction {max(flagged) / snapshots[0].n:.4f}"
    )
    return [str(args.input)], ["scores.csv", "dims.csv"], summary, _resources(workers)


def _resources(workers: int) -> dict:
    """`workers`, and the peak RSS in MB of this process and of its largest exited child.

    The child's is null with one worker; both are null without `resource`.
    """
    try:
        import resource
    except ImportError:
        peak = worker_peak = None
    else:
        unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is in bytes on macOS
        peak, worker_peak = (round(resource.getrusage(who).ru_maxrss / unit, 1)
                             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {"workers": workers, "peak_rss_mb": peak,
            "worker_peak_rss_mb": worker_peak if workers > 1 else None}


def cmd_evaluate(args, out: Path, stages: _Stage):
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        windows = tuple(int(w) for w in args.windows.split(","))
    except ValueError:
        raise ValueError(f"--windows must be comma-separated integers: {args.windows!r}") from None
    with stages("build-scenario"):
        spec = _scenario_spec(args)
    with stages("experiment"):
        result = run_experiment(
            spec, methods=methods, windows=windows, runs=args.runs, seed=args.seed,
            N=args.phi_samples, epsilon_rank=args.epsilon,
        )
    with stages("write"):
        tables = result.tables()
        for name, (header, rows) in tables.items():
            write_csv(out / f"{name}.csv", header, rows)
    summary = (
        f"evaluated {spec.name} over {args.runs} runs, "
        f"methods={','.join(methods)}, windows={args.windows}"
    )
    return [], [f"{name}.csv" for name in tables], summary, _resources(result.workers)


# ---------------------------------------------------------------------------
# argument handling


class _RaisingParser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a --config file's flags: full names only, no --help
        super().__init__(**kwargs, allow_abbrev=False, add_help=False)

    def error(self, message):  # raise what argparse would print under its usage
        raise FormatError(message)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="netchange",
        description="Vertex-level change detection in dynamic weighted networks.",
    )
    parser.add_argument("--version", action="version", version=f"netchange {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value file pre-setting any flag")
        p.add_argument("--out", default="netchange_out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    def epsilon_arg(p):
        p.add_argument(
            "--epsilon", type=float, default=DEFAULT_RANK_EPSILON,
            help="rank-selection residual threshold",
        )

    def scenario_args(p):
        p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
        p.add_argument(
            "--change-type",
            default="point",
            choices=("point", "interval"),
            help=f"single instant (t*={DEFAULT_CHANGE_INSTANT}) or sustained "
            f"interval {DEFAULT_INTERVAL[0]}..{DEFAULT_INTERVAL[-1]}",
        )
        p.add_argument("--T", type=int, default=DEFAULT_T, help="sequence length")
        p.add_argument("--scale", type=float, default=None, help="uniform block-size multiplier")

    sim = sub.add_parser("simulate", help="generate a synthetic change scenario")
    common(sim)
    scenario_args(sim)
    sim.set_defaults(func=cmd_simulate)

    det = sub.add_parser("detect", help="score vertices of an ingested sequence")
    common(det)
    det.add_argument("--input", required=True, help="edge-list file (t i j weight)")
    det.add_argument("--method", default="cdp", choices=METHODS)
    det.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="profile window size")
    epsilon_arg(det)
    det.add_argument(
        "--threshold", type=float, default=DEFAULT_ZSCORE_THRESHOLD,
        help="z-score detection cutoff",
    )
    det.set_defaults(func=cmd_detect)

    ev = sub.add_parser("evaluate", help="simulation experiment with performance tables")
    common(ev)
    scenario_args(ev)
    ev.add_argument("--methods", default=",".join(METHODS), help="comma-separated methods")
    ev.add_argument("--windows", default=str(DEFAULT_WINDOW), help="comma-separated window sizes")
    ev.add_argument("--runs", type=int, default=100)
    epsilon_arg(ev)
    ev.add_argument(
        "--phi-samples", type=int, default=DEFAULT_PHI_SAMPLES,
        help="resampling count for the exceedance probability",
    )
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    stages = _Stage()
    made: list[Path] = []  # the directories this run creates, deepest first
    try:
        if args.config:
            config, file_args = Path(args.config), []
            for lineno, line in _data_lines(config):  # the edge lists' line rules
                key, eq, value = map(str.strip, line.partition("="))
                if not (eq and key):
                    raise FormatError(f"{config.name}:{lineno}: expected 'key = value'")
                file_args += [f"--{key.replace('_', '-')}", value]
            # file values act as defaults: explicit flags come later and win
            try:  # the command line alone parsed, so the file's keys are at fault
                args = build_parser(_RaisingParser).parse_args([argv[0], *file_args, *argv[1:]])
            except FormatError as exc:
                raise FormatError(f"{config.name}: {exc}") from None
        checked_int("--seed", args.seed, least=0)
        out = Path(args.out)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        inputs, outputs, summary, extra = args.func(args, out, stages)
        write_manifest(out, args, inputs, outputs, stages, extra)
    except (NetchangeError, ValueError, OSError, MemoryError) as exc:
        with contextlib.suppress(OSError):  # rmdir stops at the first non-empty one
            for d in made:
                d.rmdir()
        stage = stages.name or "setup"
        print(f"netchange {args.command}: stage '{stage}' failed: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0
