"""Host-speed probe: a separate process that times a fixed numpy/scipy kernel.

    python3 perfbench/hostspeed.py KERNEL

For each line it reads on stdin it runs KERNEL once and prints the seconds it
took; it exits at end of input.  run.py starts one for every measured run and
asks it for a timing between reps, while its own process waits.

Why: on a shared host the speed of a process drifts by 10-40% over minutes,
more than the changes the benchmark must resolve.  Timings of a kernel shaped
like the work that dominated each workload when the benchmark was defined show
that drift, and run.py divides each rep's wall time by the host-speed factor
of the kernel timings around it.  The probe imports numpy and scipy only, never
dafrelay, and runs in its own interpreter, so no change to dafrelay alters the
kernel, its heap or its threads.
"""

import sys
import time

import numpy as np
from scipy.signal import lfilter


def sos_kernel():
    """Sum-of-sinusoids fading for 8 frames of 10^4 samples: 2x16 cos per sample."""
    rng = np.random.default_rng(0)
    n = np.arange(1, 17)
    angle = (2.0 * np.pi * n - np.pi + rng.uniform(-np.pi, np.pi, (8, 1))) / 64.0
    phase = rng.uniform(-np.pi, np.pi, (2, 8, 16, 1))
    k = np.arange(10_001)[None, None, :]
    wd = 2.0 * np.pi * 0.05
    hc = np.cos(wd * np.cos(angle)[:, :, None] * k + phase[0]).sum(axis=1)
    hs = np.cos(wd * np.sin(angle)[:, :, None] * k + phase[1]).sum(axis=1)
    (hc + 1j * hs) * (hc - 1j * hs)


def ar1_kernel():
    """CN(0,1) draws and a Python loop over symbols on 32-row chunks."""
    rng = np.random.default_rng(0)
    for _ in range(6):
        e = (rng.standard_normal((32, 1000)) + 1j * rng.standard_normal((32, 1000))) / np.sqrt(2.0)
        h = np.empty((32, 1000), dtype=complex)
        h[:, 0] = e[:, 0]
        for k in range(1, 1000):
            h[:, k] = 0.9 * h[:, k - 1] + 0.4 * e[:, k - 1] * e[:, k]


def theory_kernel():
    """Gauss-Legendre node generation, as in the theta quadrature."""
    for _ in range(10):
        np.polynomial.legendre.leggauss(64)
        np.polynomial.legendre.leggauss(128)


def validate_kernel():
    """AR(1) filtering, histogram and lag-1 moments of wide arrays of 10-sample rows."""
    rng = np.random.default_rng(0)
    for _ in range(2):
        x = (rng.standard_normal((20_000, 10)) + 1j * rng.standard_normal((20_000, 10))) / np.sqrt(2.0)
        y = lfilter([1.0], [1.0, -0.97], x, axis=1)
        np.histogram(np.abs(y).ravel(), bins=100, range=(0.0, 5.0))
        np.mean(y[:, 1:] * np.conj(y[:, :-1]))


KERNELS = {"sos": sos_kernel, "ar1": ar1_kernel, "theory": theory_kernel, "validate": validate_kernel}


def main() -> int:
    kernel = KERNELS[sys.argv[1]]
    kernel()  # warm-up
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - start), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
