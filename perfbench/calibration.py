"""Calibrated seconds: the program's CPU time divided by a kernel run beside it.

The two vCPUs of the machine the benchmark was tuned on each switch between
a fast and a slow state about 1.7x apart, holding each for 0.1-0.8 s, so
raw times of one input spread by up to 40% between processes.  A
``Ticker`` runs the fixed kernel below over and over, with short pauses,
in a child process pinned to the same CPU as the benchmark, so the kernel
and the program take turns on one CPU and see the same states.  A call
that used ``t`` CPU seconds counts as ``t * C_REF / c``, with ``c`` the mean
CPU seconds of the kernels that ended while it ran (widened by ``WINDOW``
on each side), and then reads as seconds at the speed where the kernel
takes ``C_REF``.  README.md says why this beats kernels run between calls.

The kernel belongs to the benchmark and calls nothing in the program, so a
faster program does not make it faster.  It mimics the program's inner
loops: a Python loop of small stacked einsums, finiteness checks,
symmetrisation, ``eigh`` with a reconstruction residual, spectral clipping
and ``eigvalsh``.  That mix tracked the program's own calls across speed
states better than a kernel of bare ``eigh`` calls.

Run as a script, this file is the ticker's child process.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time

import numpy as np

# Median kernel CPU time, in seconds, of the fast state on the 2-vCPU VM the
# benchmark was tuned on (see README.md, "Timing method").
C_REF = 0.0079
# Seconds the ticker sleeps after each kernel, which leaves the program
# about 80% of the shared CPU.
PAUSE = 0.05
# Kernels that end this many seconds before or after a call still count
# for it, so that calls of a few milliseconds get several.
WINDOW = 0.1

_ITERATIONS = 120
_RNG = np.random.default_rng(20130513)
_STACK = _RNG.standard_normal((24, 6, 6))
_STACK = _STACK + _STACK.transpose(0, 2, 1)
_CONST = _RNG.standard_normal(24)
_SAMPLE = struct.Struct("dd")  # perf_counter at the kernel's end, its CPU seconds


def _symmetric(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("calibration kernel produced non-finite values")
    return (a + a.T) / 2.0


def kernel() -> None:
    """One run of the fixed kernel."""
    y = np.eye(6)
    for _ in range(_ITERATIONS):
        e = _CONST - np.einsum("irs,rs->i", _STACK, y)
        hinge = np.maximum(np.abs(e) - 0.1, 0.0)
        grad = np.einsum("i,irs->rs", -2.0 * hinge * np.sign(e), _STACK)
        m = _symmetric(y - grad * 1e-3)
        lam, vec = np.linalg.eigh(m)
        float(np.linalg.norm((vec * lam) @ vec.T - m))
        y = _symmetric((vec * np.clip(lam, 0.0, 3.0)) @ vec.T)
        float(np.max(np.abs(np.linalg.eigvalsh(y))))


def _tick_forever() -> None:
    out = sys.stdout.buffer
    while True:
        start = time.process_time()
        kernel()
        out.write(_SAMPLE.pack(time.perf_counter(), time.process_time() - start))
        out.flush()
        time.sleep(PAUSE)


def _current_cpu() -> int:
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Ticker:
    """The kernel in a child process that shares this process's one CPU.

    Entering pins this process to the CPU it runs on (children it starts
    later, such as set-up probes, inherit that), starts the child and waits
    for its first sample; leaving kills the child and waits for it.
    """

    def __enter__(self) -> "Ticker":
        os.sched_setaffinity(0, {_current_cpu()})
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE)
        self._fd = self._proc.stdout.fileno()
        os.set_blocking(self._fd, False)
        self._buf = b""
        self.samples: list[tuple[float, float]] = []
        try:
            self.wait_past(time.perf_counter())
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def drain(self) -> None:
        """Collect the samples written so far; call often, the pipe is finite."""
        while True:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                raise RuntimeError("calibration ticker exited")
            self._buf += chunk
        whole = len(self._buf) - len(self._buf) % _SAMPLE.size
        self.samples.extend(_SAMPLE.iter_unpack(self._buf[:whole]))
        self._buf = self._buf[whole:]

    def wait_past(self, t: float) -> None:
        """Block until a kernel has ended after ``t + WINDOW``."""
        self.drain()
        while not self.samples or self.samples[-1][0] < t + WINDOW:
            time.sleep(PAUSE)
            self.drain()

    def scale(self, t0: float, t1: float) -> float:
        """C_REF over the mean kernel CPU time around the interval [t0, t1]."""
        inside = [c for t, c in self.samples if t0 - WINDOW <= t <= t1 + WINDOW]
        return C_REF * len(inside) / sum(inside)

    def mean_kernel(self) -> float:
        return sum(c for _, c in self.samples) / len(self.samples)


if __name__ == "__main__":
    try:
        _tick_forever()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
