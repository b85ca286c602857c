#!/usr/bin/env python3
"""Time the hot kernels of the active backend.

Run twice to compare the backends of the tables and reductions:

    python benchmarks/bench_kernels.py                  # numba (default)
    CQA_FERMI_NUMBA=0 python benchmarks/bench_kernels.py

Covers the three hot paths: the cumulative coefficient table at L = 1e5,
the log-sum-exp reductions over its weights, and the RK4 moment integrator,
which is numpy-only and runs a fermion and a spin trajectory in one call.
A thermo section times the critical line in weak and full mode, seven mus
one call at a time against one lockstep call over all seven.
"""

import math
import time

import numpy as np

from cqa_fermi import kernels, thermo
from cqa_fermi.combinatorics import log_counts


def timeit(label, fn, repeat=5):
    fn()  # warm-up (includes jit compilation on the numba path)
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    print(f"{label:<44s} {best * 1e3:10.3f} ms")
    return best


def main():
    backend = "numba" if kernels.USING_NUMBA else "numpy"
    print(f"backend: {backend}\n")

    L, n_max = 100_000, 49_999
    log_delta = math.log(0.02)

    def table():
        return kernels.coefficient_logs(log_delta, 0.2, 1e-8, 1.0, float(L), n_max)

    timeit(f"coefficient table  L={L}", table)

    log_mag, phase = table()
    counts = log_counts(L, "pbc", n_max)
    weights = 2.0 * log_mag + counts

    timeit("logsumexp_real     (5e4 terms)",
           lambda: kernels.logsumexp_real(weights))
    pair_mag = np.ascontiguousarray(log_mag[1:] + log_mag[:-1] + counts[1:])
    pair_ph = np.ascontiguousarray(phase[:-1] - phase[1:])
    timeit("logsumexp_complex  (5e4 terms)",
           lambda: kernels.logsumexp_complex(pair_mag, pair_ph))

    n_pairs = 32
    k = 2.0 * np.pi * np.arange(n_pairs) / (2 * n_pairs)
    # one fermion (fs = 1) and one spin (fs = 0) trajectory, back to back
    dk = np.tile(0.3 * np.sin(k), 2)
    s0 = np.zeros(2 * n_pairs, dtype=complex)
    z0 = -np.ones(2 * n_pairs)
    mu, e_c, kappa = np.full(2, 0.2), np.full(2, 1.0), np.full(2, 0.01)
    fs = np.array([1.0, 0.0])
    n_steps = 12_500  # t = 100 at dt = 0.008

    def rk4():
        return kernels.rk4_moments(s0, z0, dk, mu, e_c, kappa,
                                   float(2 * n_pairs), fs, 0.008,
                                   n_steps, 125)

    timeit(f"rk4_moments        (2x{n_pairs} pairs, {n_steps} steps)", rk4)

    mus = np.linspace(0.1, 0.4, 7)
    for mode, kappa in ((thermo.WEAK, 0.0), (thermo.FULL, 1e-3)):
        def one_by_one():
            return [thermo.critical_delta(m, kappa=kappa, mode=mode)
                    for m in mus]

        def lockstep():
            return thermo.critical_delta(mus, kappa=kappa, mode=mode)

        timeit(f"critical_delta {mode:<4s} (7 mus, one per call)",
               one_by_one, repeat=3)
        timeit(f"critical_delta {mode:<4s} (7 mus, one call)", lockstep,
               repeat=3)


if __name__ == "__main__":
    main()
