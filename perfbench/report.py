"""End-to-end metrics and the environment fingerprint of one run."""

from __future__ import annotations

import ctypes
import importlib.util
import math
import os
import platform
import resource
import statistics

import numpy as np
from ctsum import _kernels

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("utt_per_s", "utterances/s"),
    ("rtf", "s/s"),
)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(outcome) -> dict:
    """Times are reference-host seconds (see ``calibration``). Percentiles
    are over inputs of each input's median time per utterance."""
    medians = [statistics.median(v) for v in outcome.per_input_ms.values()]
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p50_ms": _nearest_rank(medians, 0.50),
        "p95_ms": _nearest_rank(medians, 0.95),
        "utt_per_s": outcome.work / outcome.busy_s,
        "rtf": outcome.busy_s / outcome.audio_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def fingerprint(args, clock) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_kernel_ms": {
            "median": 1e3 * statistics.median(clock.kernel_s),
            "min": 1e3 * min(clock.kernel_s),
            "max": 1e3 * max(clock.kernel_s),
        },
    }
