"""Behaviour fingerprints of netchange outputs, and their comparison.

A fingerprint is read from the files a command wrote, never from the
program's objects, so it checks what a user receives.

``detect`` (scores.csv, dims.csv), per instant t:
  * ``d``: the chosen dimension, compared exactly;
  * ``det``: the detected vertices, compared exactly;
  * ``z``: the sum of the raw scores and their projections on fixed weight
    vectors, compared to `SCORE_RTOL` of the scores' L1 norm.  A change of
    any single score by more than that shows in them.  The z-scores need no
    fingerprint: the invariant check derives them from the raw scores.

``evaluate`` (performance.csv), per (method, window, run) series:
  * ``phi2n``: a digest of the resampled exceedance counts 2*N*phi, which
    are integers, compared exactly;
  * ``eta_tstar``: eta at the change instant, compared to `ETA_ATOL`.

An operation is one scored instant (``detect``) or one series
(``evaluate``); `compare` returns the failed operations with a reason.
The invariant checks need no reference: they recompute what the output
format promises from the output itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

SCORE_RTOL = 1e-8
ETA_ATOL = 1e-9
ZSCORE_ATOL = 1e-9
PROJECTIONS = 2


def _weights(n: int) -> np.ndarray:
    """Fixed, seed-free weight vectors: one row per projection."""
    i = np.arange(1, n + 1, dtype=float)
    return np.vstack([np.cos(2.399963229728653 * k * i) for k in range(1, PROJECTIONS + 1)])


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# detect


def detect_fingerprint(out_dir: Path, threshold: float) -> tuple[dict, dict]:
    """Fingerprint of a detect run, and the instants whose invariants fail."""
    dims = {int(r["t"]): int(r["d"]) for r in _read_rows(out_dir / "dims.csv")}
    rows = np.loadtxt(out_dir / "scores.csv", delimiter=",", skiprows=1, ndmin=2)
    invalid: dict[str, str] = {}
    for t, d in dims.items():
        if d < 1:
            invalid[str(t)] = f"d={d} < 1"
    instants = {}
    for t in np.unique(rows[:, 0]).astype(int):
        block = rows[rows[:, 0] == t]
        z, detected = block[:, 2], block[:, 4]
        weights = _weights(z.size)
        instants[str(t)] = {
            "det": [int(v) for v in block[detected == 1, 1]],
            "z": [float(z.sum()), *map(float, weights @ z)],
            "z_l1": float(np.abs(z).sum()),
        }
        reason = _detect_invariant(block, dims.get(int(t)), threshold)
        if reason:
            invalid[str(t)] = reason
    return {"dims": {str(t): d for t, d in sorted(dims.items())}, "instants": instants}, invalid


def _detect_invariant(block: np.ndarray, d: int | None, threshold: float) -> str | None:
    """What scores.csv promises for one instant, checked from its own rows."""
    vertices, z, zh, detected = block[:, 1], block[:, 2], block[:, 3], block[:, 4]
    if d is None:
        return "instant missing from dims.csv"
    if not np.array_equal(vertices, np.arange(vertices.size)):
        return "vertices not 0..n-1 in order"
    if not np.all(np.isfinite(z)) or np.any(z < 0):
        return "scores not finite and nonnegative"
    std = z.std(ddof=1)
    expect = np.zeros_like(z) if std < 1e-14 else (z - z.mean()) / std
    if np.abs(zh - expect).max() > ZSCORE_ATOL * max(1.0, np.abs(expect).max()):
        return "z-scores do not standardize the scores"
    if not np.array_equal(detected == 1, zh > threshold):
        return f"detections differ from zscore > {threshold}"
    return None


def compare_detect(ref: dict, got: dict, window: int) -> dict[str, str]:
    """Failed scored instants with the first reason each one failed."""
    failed: dict[str, str] = {}
    first_scored = str(window + 1)
    for t, d in ref["dims"].items():
        if got["dims"].get(t) != d:
            # an unscored instant only feeds the windows after it
            key = t if t in ref["instants"] else first_scored
            failed.setdefault(key, f"d at t={t}: {got['dims'].get(t)} != {d}")
    for t, r in ref["instants"].items():
        g = got["instants"].get(t)
        if g is None:
            failed.setdefault(t, "instant not scored")
            continue
        if g["det"] != r["det"]:
            failed.setdefault(t, f"detections {g['det']} != {r['det']}")
        tol = SCORE_RTOL * r["z_l1"]
        if any(abs(a - b) > tol for a, b in zip(g["z"], r["z"])):
            failed.setdefault(t, f"scores differ beyond {SCORE_RTOL:g} relative")
    for t in got["instants"]:
        if t not in ref["instants"]:
            failed.setdefault(t, "instant scored but absent from the reference")
    return failed


# ---------------------------------------------------------------------------
# evaluate


def evaluate_fingerprint(out_dir: Path, t_star: int, N: int, T: int) -> tuple[dict, dict]:
    """Fingerprint of an evaluate run, and the series whose invariants fail."""
    series: dict[str, list[dict]] = {}
    for r in _read_rows(out_dir / "performance.csv"):
        key = f"{r['method']}/w{r['window']}/run{r['run']}"
        series.setdefault(key, []).append(r)
    fp, invalid = {}, {}
    for key, rows in series.items():
        window = int(key.split("/")[1][1:])
        counts = [round(2 * N * float(r["phi"])) for r in rows]
        eta = {int(r["t"]): float(r["eta"]) for r in rows}
        fp[key] = {
            "phi2n": hashlib.sha256(repr(counts).encode()).hexdigest()[:16],
            "eta_tstar": eta.get(t_star),
        }
        reason = _evaluate_invariant(rows, window, N, T)
        if reason:
            invalid[key] = reason
    return {"series": fp}, invalid


def _evaluate_invariant(rows: list[dict], window: int, N: int, T: int) -> str | None:
    ts = [int(r["t"]) for r in rows]
    if ts != list(range(window + 1, T + 1)):
        return f"instants {ts[:3]}... are not {window + 1}..{T}"
    for r in rows:
        phi, eta = float(r["phi"]), float(r["eta"])
        if not 0.5 / N <= phi <= 1 - 0.5 / N:
            return f"phi={phi} outside the clamp at t={r['t']}"
        if abs(eta - math.log(phi / (1 - phi))) > 1e-12 * max(1.0, abs(eta)):
            return f"eta is not the log odds of phi at t={r['t']}"
    return None


def compare_evaluate(ref: dict, got: dict) -> dict[str, str]:
    failed: dict[str, str] = {}
    for key, r in ref["series"].items():
        g = got["series"].get(key)
        if g is None:
            failed[key] = "series missing"
        elif g["phi2n"] != r["phi2n"]:
            failed[key] = "exceedance counts differ"
        elif (g["eta_tstar"] is None) != (r["eta_tstar"] is None) or (
            r["eta_tstar"] is not None and abs(g["eta_tstar"] - r["eta_tstar"]) > ETA_ATOL
        ):
            failed[key] = f"eta at t* {g['eta_tstar']} != {r['eta_tstar']}"
    for key in got["series"]:
        if key not in ref["series"]:
            failed[key] = "series absent from the reference"
    return failed


def eta_tstar_median(fp: dict, method: str = "cdp", window: int = 5) -> float:
    """Median over runs of eta at the change instant for one method and window."""
    prefix = f"{method}/w{window}/"
    values = [s["eta_tstar"] for k, s in fp["series"].items() if k.startswith(prefix)]
    return float(np.median(values)) if values else 0.0
