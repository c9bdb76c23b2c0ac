"""Compare the compiled CTC kernel against its pure-python original.

Times the alignment-scoring recursion in both flavors and prints the
medians plus the speedup. The compiled flavor is skipped when the package
was loaded with CTS_NO_NUMBA or the compiler is unavailable. (The GRU
kernels are plain numpy; ``perfbench/run.py`` measures them in place.)

Run:  python benchmarks/kernel_bench.py [--repeats 7]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from ctsum import _kernels


def _time(fn, args, repeats):
    fn(*args)  # warmup (and JIT compile for the compiled flavor)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _ctc_args(rng):
    t, v, length = 200, 64, 24
    logp = np.log(rng.dirichlet(np.ones(v), size=t))
    ext = np.zeros(2 * length + 1, dtype=np.int64)
    ext[1::2] = rng.integers(1, v, size=length)
    return np.ascontiguousarray(logp), ext


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timing repeats (default 7)")
    args = parser.parse_args()

    ctc_args = _ctc_args(np.random.default_rng(0))
    print(f"repeats={args.repeats}  compiled={'yes' if _kernels.USE_NUMBA else 'no'}")
    t_plain = _time(_kernels.ctc_forward_ll_py, ctc_args, args.repeats)
    if _kernels.USE_NUMBA:
        t_fast = _time(_kernels.ctc_forward_ll, ctc_args, args.repeats)
        print(
            f"ctc_forward   python {t_plain * 1e3:8.3f} ms   compiled {t_fast * 1e3:8.3f} ms"
            f"   speedup {t_plain / t_fast:6.1f}x"
        )
    else:
        print(f"ctc_forward   python {t_plain * 1e3:8.3f} ms   compiled      n/a")


if __name__ == "__main__":
    main()
