"""Numeric kernels: the hot inner loops of the package.

* cumulative log-domain coefficient tables (up to ~5e4 factors per call),
* max-shifted log-sum-exp reductions (real and complex),
* the fixed-step RK4 integrator for the per-mode moment equations, batched
  over trajectories.

The tables and reductions have numba-jitted twins, selected by the
environment variable ``CQA_FERMI_NUMBA``: unset or ``"1"`` uses numba when
importable, ``"0"`` forces the pure-numpy path.  ``benchmarks/bench_kernels.py``
times the kernels of the active backend.  Both paths compute identical
quantities; last-ulp differences are possible because summation orders
differ.  The RK4 integrator is numpy-only.
"""

from __future__ import annotations

import math
import os

import numpy as np

_want_numba = os.environ.get("CQA_FERMI_NUMBA", "1") != "0"
try:
    if not _want_numba:
        raise ImportError
    from numba import njit as _njit

    USING_NUMBA = True
except ImportError:
    USING_NUMBA = False

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# log-sum-exp reductions
# ---------------------------------------------------------------------------

def _logsumexp_real_np(log_vals: np.ndarray) -> float:
    if log_vals.size == 0:
        return NEG_INF
    shift = float(np.max(log_vals))
    if shift == NEG_INF:
        return NEG_INF
    terms = log_vals - shift
    np.exp(terms, out=terms)
    return shift + math.log(float(np.sum(terms)))


@_njit(cache=True)
def _logsumexp_real_nb(log_vals):  # pragma: no cover - jitted
    n = log_vals.shape[0]
    if n == 0:
        return NEG_INF
    shift = NEG_INF
    for i in range(n):
        if log_vals[i] > shift:
            shift = log_vals[i]
    if shift == NEG_INF:
        return NEG_INF
    acc = 0.0
    for i in range(n):
        acc += math.exp(log_vals[i] - shift)
    return shift + math.log(acc)


def _logsumexp_complex_np(log_mag: np.ndarray, phase=None, factor=None):
    """(ln|s|, arg s) of s = sum exp(log_mag + i phase).

    ``factor`` = exp(i phase) may be passed instead of ``phase`` when the
    same phases recur across calls.
    """
    if log_mag.size == 0:
        return NEG_INF, 0.0
    shift = float(np.max(log_mag))
    if shift == NEG_INF:
        return NEG_INF, 0.0
    if factor is None:
        factor = np.exp(1j * phase)
    terms = log_mag - shift
    np.exp(terms, out=terms)
    acc = np.sum(terms * factor)
    if acc == 0:
        return NEG_INF, 0.0
    return shift + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


@_njit(cache=True)
def _logsumexp_complex_nb(log_mag, phase):  # pragma: no cover - jitted
    n = log_mag.shape[0]
    if n == 0:
        return NEG_INF, 0.0
    shift = NEG_INF
    for i in range(n):
        if log_mag[i] > shift:
            shift = log_mag[i]
    if shift == NEG_INF:
        return NEG_INF, 0.0
    re = 0.0
    im = 0.0
    for i in range(n):
        if log_mag[i] > NEG_INF:
            r = math.exp(log_mag[i] - shift)
            re += r * math.cos(phase[i])
            im += r * math.sin(phase[i])
    mag = math.hypot(re, im)
    if mag == 0.0:
        return NEG_INF, 0.0
    return shift + math.log(mag), math.atan2(im, re)


# ---------------------------------------------------------------------------
# cumulative coefficient logs:  a_n = prefactor^n / prod_{m=1..n} (mu~ - m*e_c/L)
# ---------------------------------------------------------------------------

def _coefficient_logs_np(log_prefactor, mu, kappa, e_c, L, n_max):
    m = np.arange(1, n_max + 1, dtype=float)
    z_re = mu - (e_c / L) * m
    z_im = 0.5 * kappa
    log_den = 0.5 * np.log(z_re * z_re + z_im * z_im)
    arg_den = np.arctan2(z_im, z_re)
    log_mag = np.empty(n_max + 1)
    phase = np.empty(n_max + 1)
    log_mag[0] = 0.0
    phase[0] = 0.0
    if n_max >= 1:
        n = np.arange(1, n_max + 1, dtype=float)
        log_mag[1:] = n * log_prefactor - np.cumsum(log_den)
        phase[1:] = -np.cumsum(arg_den)
    return log_mag, phase


@_njit(cache=True)
def _coefficient_logs_nb(log_prefactor, mu, kappa, e_c, L, n_max):  # pragma: no cover
    log_mag = np.empty(n_max + 1)
    phase = np.empty(n_max + 1)
    log_mag[0] = 0.0
    phase[0] = 0.0
    lm = 0.0
    ph = 0.0
    z_im = 0.5 * kappa
    for m in range(1, n_max + 1):
        z_re = mu - (e_c / L) * m
        lm += log_prefactor - 0.5 * math.log(z_re * z_re + z_im * z_im)
        ph -= math.atan2(z_im, z_re)
        log_mag[m] = lm
        phase[m] = ph
    return log_mag, phase


# ---------------------------------------------------------------------------
# RK4 moment integration for (s_minus, s_z) per momentum pair
# ---------------------------------------------------------------------------
#
# ds-/dt = [2i(mu - e_c*nbar - fs*e_c/(2L)) - kappa] s-
#          + 2i dk s_z - fs * i (e_c/L) s- (s_z + 2)
# dsz/dt = -kappa (s_z + 1) + 4i dk (s- - conj(s-))
#
# with nbar = mean(s_z + 1)/2 recomputed from the instantaneous state; the
# fs flag (1 or 0) keeps the 1/L terms that distinguish the finite-size
# fermion closure from the spin closure (fs = 0).
#
# T trajectories of K pairs are integrated together as (T, K) arrays, each
# with its own mu, e_c, kappa, fs and drive; nbar is reduced per trajectory
# along the contiguous K axis.  At small K the time goes into per-call
# overhead, not arithmetic, so every loop-invariant product is formed once,
# the per-trajectory scalars stay Python floats, and numeric constants are
# 0-d arrays, which numpy does not have to convert on every call.  Every
# element sees the same IEEE operations in the same order as in the
# one-trajectory formula above.

_ONE, _TWO = np.array(1.0), np.array(2.0)


def _moment_constants(dk, mu, e_c, kappa, L, fs):
    """Loop-invariant factors of the RHS; ``dk`` has shape (T, K)."""
    mu, e_c, kappa, fs = (np.asarray(a, dtype=float).ravel()
                          for a in (mu, e_c, kappa, fs))
    scalars = list(zip(mu.tolist(), e_c.tolist(),
                       (fs * e_c / (2.0 * L)).tolist(), kappa.tolist()))
    # the pair-breaking term enters only when some trajectory keeps it
    coupling = (1j * (fs * e_c / L))[:, None] if fs.any() else None
    return scalars, 2j * dk, coupling, -kappa[:, None], 8.0 * dk


def _nbar(z):
    """Per-trajectory density (mean(s_z) + 1)/2 as Python floats."""
    K = z.shape[1]
    return [0.5 * (total / K + 1.0)
            for total in np.add.reduce(z, axis=1).tolist()]


def _moment_rhs(s, z, nbar, consts):
    scalars, two_i_dk, coupling, neg_kappa, eight_dk = consts
    coef = np.array([[2j * (mu - e_c * n - shift) - kappa]
                     for (mu, e_c, shift, kappa), n in zip(scalars, nbar)])
    ds = coef * s + two_i_dk * z
    if coupling is not None:
        ds = ds - coupling * s * (z + _TWO)
    dz = neg_kappa * (z + _ONE) - eight_dk * s.imag
    return ds, dz


def _batch(s_minus, s_z, dk, mu):
    """(T, K) state copies and drive of the T = len(mu) flat trajectories."""
    T = np.size(mu)
    K = np.size(s_minus) // T
    if K == 0 or T * K != np.size(s_minus):
        raise ValueError(f"{np.size(s_minus)} pairs do not split into "
                         f"{T} trajectories")
    return (np.array(s_minus, dtype=np.complex128).reshape(T, K),
            np.array(s_z, dtype=float).reshape(T, K),
            np.asarray(dk, dtype=float).reshape(T, K))


def moment_rhs(s_minus, s_z, dk, mu, e_c, kappa, L, fs, nbar=None):
    """(ds_minus, ds_z) of T trajectories, laid out as in :func:`rk4_moments`.

    ``nbar``, one value per trajectory, replaces the density recomputed
    from ``s_z``.
    """
    s, z, dk = _batch(s_minus, s_z, dk, mu)
    if nbar is None:
        nbar = _nbar(z)
    else:
        nbar = np.asarray(nbar, dtype=float).ravel().tolist()
    ds, dz = _moment_rhs(s, z, nbar,
                         _moment_constants(dk, mu, e_c, kappa, L, fs))
    return ds.ravel(), dz.ravel()


def rk4_moments(s_minus, s_z, dk, mu, e_c, kappa, L, fs, dt, n_steps, stride):
    """Fixed-step RK4 for T trajectories that share L, dt and the sampling.

    ``s_minus``, ``s_z`` and ``dk`` hold the T trajectories back to back
    (length T*K); ``mu``, ``e_c``, ``kappa`` and ``fs`` have length T.
    Returns records of shape (T, n_steps // stride + 1, K): the state at
    step 0 and after every ``stride``-th step.  Trajectory t is the
    contiguous view ``records[t]``.
    """
    s, z, dk = _batch(s_minus, s_z, dk, mu)
    consts = _moment_constants(dk, mu, e_c, kappa, L, fs)
    T, K = s.shape
    n_rec = n_steps // stride + 1
    rec_minus = np.empty((T, n_rec, K), dtype=np.complex128)
    rec_z = np.empty((T, n_rec, K))
    rec_minus[:, 0] = s
    rec_z[:, 0] = z
    half_dt, full_dt, sixth_dt = (np.array(v) for v in (0.5 * dt, dt,
                                                        dt / 6.0))
    for step in range(1, n_steps + 1):
        k1s, k1z = _moment_rhs(s, z, _nbar(z), consts)
        ts = s + half_dt * k1s
        tz = z + half_dt * k1z
        k2s, k2z = _moment_rhs(ts, tz, _nbar(tz), consts)
        ts = s + half_dt * k2s
        tz = z + half_dt * k2z
        k3s, k3z = _moment_rhs(ts, tz, _nbar(tz), consts)
        ts = s + full_dt * k3s
        tz = z + full_dt * k3z
        k4s, k4z = _moment_rhs(ts, tz, _nbar(tz), consts)
        s = s + sixth_dt * (k1s + _TWO * k2s + _TWO * k3s + k4s)
        z = z + sixth_dt * (k1z + _TWO * k2z + _TWO * k3z + k4z)
        if step % stride == 0:
            rec_minus[:, step // stride] = s
            rec_z[:, step // stride] = z
    return rec_minus, rec_z


if USING_NUMBA:
    def logsumexp_complex(log_mag, phase=None, factor=None):
        # the jitted loop takes phases; a precomputed factor stays on numpy
        if factor is None:
            return _logsumexp_complex_nb(log_mag, phase)
        return _logsumexp_complex_np(log_mag, factor=factor)

    logsumexp_real = _logsumexp_real_nb
    coefficient_logs = _coefficient_logs_nb
else:
    logsumexp_real = _logsumexp_real_np
    logsumexp_complex = _logsumexp_complex_np
    coefficient_logs = _coefficient_logs_np
