"""Check that two checkouts of netchange write byte-identical outputs.

    python3 tools/compare_outputs.py <before_checkout> <after_checkout> [--work DIR]

Each checkout runs the same commands through its own ``src`` with one BLAS
thread (``OPENBLAS_NUM_THREADS=1``):

- ``simulate`` group-change, point change, T=30, seed 0, at n=900;
- ``detect`` with cdp, act and actm at ``--seed 0`` and ``--seed 5``, on that
  sequence and on a copy relabelled by ``bench/run.py``'s ``relabel`` (seed 1);
- ``evaluate`` as the benchmark's ``evaluate-n300`` workload runs it, at
  ``--seed 0`` to ``3``;
- ``simulate`` of the same scenario at ``--scale 0.1`` (n=90), seeds 0 and
  1, and cdp ``detect`` on each at the matching ``--seed``: the sequences of
  the tier-1 fingerprint test, where the rank search keeps d=7-35 and one
  flipped-norm power iteration stops at its sweep cap (seed 1).

Every output file except ``manifest.json`` and ``timings.csv``, which hold
timings, is compared byte for byte.  One line is printed per file; the exit
status is 1 if any file differs or is missing on one side, or if a command
fails.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMED = {"manifest.json", "timings.csv"}
RELABEL_SEED = 1
SEQUENCE = ["--scenario", "group-change", "--change-type", "point", "--T", "30"]
DETECT = ["--window", "5", "--epsilon", "0.005", "--threshold", "5.0"]
EVALUATE = SEQUENCE + ["--methods", "cdp,act,actm", "--windows", "1,5,10", "--runs", "4",
                       "--epsilon", "0.005", "--phi-samples", "100000", "--scale", repr(1 / 3)]


def load_relabel():
    """`relabel` of this checkout's bench/run.py, which imports its neighbours by name."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module.relabel


def runs() -> list[tuple[str, list[str]]]:
    """(output directory, command line) of every command, in the order they run."""
    out = [("simulate", ["simulate", *SEQUENCE, "--seed", "0"])]
    for source in ("simulate", "relabelled"):
        for method in ("cdp", "act", "actm"):
            for seed in ("0", "5"):
                out.append((f"detect-{method}-seed{seed}-{source}",
                            ["detect", "--input", f"{source}/sequence.tsv", "--method", method,
                             *DETECT, "--seed", seed]))
    out += [(f"evaluate-n300-seed{seed}", ["evaluate", *EVALUATE, "--seed", str(seed)])
            for seed in range(4)]
    for seed in ("0", "1"):
        out += [(f"simulate-n90-seed{seed}",
                 ["simulate", *SEQUENCE, "--scale", "0.1", "--seed", seed]),
                (f"detect-cdp-seed{seed}-n90",
                 ["detect", "--input", f"simulate-n90-seed{seed}/sequence.tsv", "--method", "cdp",
                  *DETECT, "--seed", seed])]
    return out


def run_all(checkout: Path, work: Path, relabel) -> None:
    """Run every command with `checkout`'s sources, writing under `work`."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    for name, argv in runs():
        subprocess.run([sys.executable, "-m", "netchange", *argv, "--out", name],
                       cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
        if name == "simulate":
            (work / "relabelled").mkdir()
            shutil.copy(work / "simulate" / "sequence.tsv", work / "relabelled")
            relabel(work / "relabelled" / "sequence.tsv", RELABEL_SEED)


def compare(before: Path, after: Path) -> int:
    """Print one line per output file; the number of files that differ or are missing."""
    names = {p.relative_to(root) for root in (before, after) for p in root.rglob("*")
             if p.is_file() and p.name not in TIMED}
    bad = 0
    for name in sorted(names):
        if not ((before / name).is_file() and (after / name).is_file()):
            verdict = "missing"
        elif filecmp.cmp(before / name, after / name, shallow=False):
            verdict = "identical"
        else:
            verdict = "differs"
        bad += verdict != "identical"
        print(f"{verdict:9} {name}")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("after", type=Path, help="checkout to compare against it")
    parser.add_argument("--work", type=Path,
                        help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    relabel = load_relabel()
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        for side, checkout in (("before", args.before), ("after", args.after)):
            (work / side).mkdir(parents=True)
            run_all(checkout.resolve(), work / side, relabel)
        bad = compare(work / "before", work / "after")
    except subprocess.CalledProcessError as exc:
        print(f"command failed: {' '.join(exc.cmd)}", file=sys.stderr)
        return 1
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} output files differ or are missing" if bad else "all output files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
