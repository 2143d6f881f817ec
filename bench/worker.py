"""One benchmark operation in a fresh process: ``python3 worker.py <job.json>``.

The job names a netchange command line.  The worker imports netchange
from the checkout's ``src`` directory, runs the command through
``netchange.cli.main``, and writes a result file with the command's wall
time, the process's own peak resident memory, and the fingerprint of the
files the command wrote.  With ``"trace": true`` the layer wrappers are
installed just for the call and their spans written beside the result.
A job without ``argv`` only imports the program.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

# Pinned before numpy loads: output bytes depend on the BLAS thread count.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def environment() -> dict:
    """Python, numpy, BLAS build and thread count, CPU model and count."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import resource

    import netchange.cli

    import fingerprint

    result: dict = {}
    argv = job.get("argv")
    if argv is not None:
        tracer = None
        if job.get("trace"):
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        origin = perf_counter()
        try:
            rc = netchange.cli.main(argv)
        finally:
            wall = perf_counter() - origin
            if tracer is not None:
                tracer.uninstall()
        result["rc"] = rc
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            spans = tracer.dump(origin)
            Path(job["spans"]).write_text(json.dumps(spans) + "\n", encoding="utf-8")
            result["layers"] = layer_metrics(spans, wall)
        check = job.get("fingerprint")
        if rc == 0 and check:
            out = Path(check["out"])
            if check["kind"] == "detect":
                fp, invalid = fingerprint.detect_fingerprint(out, check["threshold"])
            else:
                fp, invalid = fingerprint.evaluate_fingerprint(
                    out, check["t_star"], check["N"], check["T"]
                )
            result["fingerprint"], result["invalid"] = fp, invalid
    if job.get("environment"):
        result["environment"] = environment()
    Path(job["result"]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
