"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark times one between ops and scales its time metrics to a nominal
host speed (``NOMINAL_S``), so that a shared host that slows down or speeds
up between runs moves the metrics less. Neither kernel calls the program, so
no change to the program changes them.

- ``cpu`` runs in the workload process and mixes what the in-process
  workloads spend their time on: interpreter loops with dict and float work,
  small numpy calls, a dense Hermitian eigensolve, a complex matrix product
  and a pass over arrays larger than the L2 cache.
- ``spawn`` starts a fresh interpreter that does nothing, as each op of the
  ``cli`` workload starts one: on a shared host the cost of starting a
  process drifts apart from compute speed, and the ``cpu`` kernel does not
  track ``cli`` at all.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# Median time of one call of each kernel on the host the benchmark was tuned
# on (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_S = {"cpu": 0.025, "spawn": 0.080}

_rng = np.random.default_rng(0)
_H = _rng.normal(size=(96, 96)) + 1j * _rng.normal(size=(96, 96))
_H = _H + _H.conj().T
_M = _rng.normal(size=(160, 160)) + 1j * _rng.normal(size=(160, 160))
_V = _rng.normal(size=(16, 16))
_X = _rng.normal(size=1 << 19)
_Y = _rng.normal(size=1 << 19)


def kernel_s(kind: str) -> float:
    """Wall time of one call of the named kernel, in seconds."""
    return _spawn_s() if kind == "spawn" else _cpu_s()


def _spawn_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, env=os.environ)
    return time.perf_counter() - start


def _cpu_s() -> float:
    start = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for k in range(24000):
        acc += (k * 0.5) % 7.0
        table[k & 127] = acc
    v = _V
    for _ in range(900):
        v = np.tanh(v @ _V) + 0.5
    for _ in range(2):
        np.linalg.eigh(_H)
    for _ in range(6):
        _M @ _M
    x = _X.copy()
    for _ in range(4):
        np.add(x, _Y, out=x)
        np.multiply(x, 0.5, out=x)
    return time.perf_counter() - start
