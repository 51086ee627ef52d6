"""Speed probes: fixed kernels that measure how fast the machine runs now.

On a shared virtual machine the CPU a process gets runs the same code up
to about 1.9 times slower in phases that last from seconds to minutes.
CPU time shows the slowdown as much as wall time does, so a whole run can
fall inside one slow phase. The benchmark therefore runs a probe before
the first op of a pass and after every op, and scales each op's CPU time
by ``REFERENCE_S[kind] / probe time``, the mean of the probes on either
side of it. The result reads as the op's CPU time at the speed the
probe had on the machine the benchmark was tuned on (a shared 2-vCPU
Intel Xeon VM in a fast phase).

A probe is numpy and plain Python only, never dcgrid code, so a change to
dcgrid moves the ops and not the probe. Different kinds of work slow down
by different amounts in a slow phase, so each workload uses the probe that
does the kind of work its dominant layer does.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

# probe CPU time, in seconds, on the tuning machine in a fast phase
REFERENCE_S = {"eigh": 0.0159, "solve": 0.0194, "interp": 0.0107}


def _kernel(kind: str) -> Callable[[], object]:
    rng = np.random.default_rng(0)
    if kind == "eigh":
        # dense symmetric eigensolve, as numerics.eig_sym on a lattice
        mat = rng.standard_normal((400, 400))
        mat = mat + mat.T
        return lambda: np.linalg.eigh(mat)
    if kind == "solve":
        # dense LU solve, as the Kronecker system of numerics.solve_lyapunov
        mat = rng.standard_normal((1000, 1000))
        rhs = rng.standard_normal(1000)
        return lambda: np.linalg.solve(mat, rhs)
    if kind == "interp":
        # interpreter-bound loops over scalars and tiny arrays, as the
        # sampling, propagation and RK4 loops of dcgrid.simulation
        mat = rng.standard_normal((96, 96))
        mat = mat + mat.T
        vec = np.ones(16)

        def interp():
            np.linalg.eigh(mat)
            acc = 0.0
            for i in range(50_000):
                acc += i * 0.5
            w = vec
            for _ in range(5_000):
                w = w * 0.5 + 1.0
            return acc, w
        return interp
    raise ValueError(f"unknown probe {kind!r}")


def make_probe(kind: str) -> Callable[[], float]:
    """A function that runs probe ``kind`` once and returns its CPU time."""
    kernel = _kernel(kind)

    def probe() -> float:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    return probe
