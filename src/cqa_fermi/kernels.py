"""Dual-backend numeric kernels: numba-jitted loops with a numpy fallback.

The hot inner loops of the package live here:

* cumulative log-domain coefficient tables (up to ~5e4 factors per call),
* max-shifted log-sum-exp reductions (real and complex),
* the fixed-step RK4 integrator for the per-mode moment equations.

Backend selection is controlled by the environment variable
``CQA_FERMI_NUMBA``: unset or ``"1"`` uses numba when importable, ``"0"``
forces the pure-numpy path.  ``benchmarks/bench_kernels.py`` compares the
two.  Both paths compute identical quantities; last-ulp differences are
possible because summation orders differ.
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
# fs flag keeps the 1/L terms that distinguish the finite-size fermion
# closure from the spin closure (fs = 0).

def _moment_rhs_np(s_minus, s_z, dk, mu, e_c, kappa, L, fs):
    nbar = 0.5 * float(np.mean(s_z) + 1.0)
    coef = 2j * (mu - e_c * nbar - fs * e_c / (2.0 * L)) - kappa
    ds_minus = coef * s_minus + 2j * dk * s_z
    if fs:
        ds_minus = ds_minus - 1j * (e_c / L) * s_minus * (s_z + 2.0)
    ds_z = -kappa * (s_z + 1.0) - 8.0 * dk * s_minus.imag
    return ds_minus, ds_z


def _rk4_moments_np(s_minus, s_z, dk, mu, e_c, kappa, L, fs, dt, n_steps, stride):
    n_rec = n_steps // stride + 1
    K = s_minus.shape[0]
    rec_minus = np.empty((n_rec, K), dtype=np.complex128)
    rec_z = np.empty((n_rec, K))
    rec_minus[0] = s_minus
    rec_z[0] = s_z
    s = s_minus.copy()
    z = s_z.copy()
    r = 1
    for step in range(1, n_steps + 1):
        k1s, k1z = _moment_rhs_np(s, z, dk, mu, e_c, kappa, L, fs)
        k2s, k2z = _moment_rhs_np(s + 0.5 * dt * k1s, z + 0.5 * dt * k1z,
                                  dk, mu, e_c, kappa, L, fs)
        k3s, k3z = _moment_rhs_np(s + 0.5 * dt * k2s, z + 0.5 * dt * k2z,
                                  dk, mu, e_c, kappa, L, fs)
        k4s, k4z = _moment_rhs_np(s + dt * k3s, z + dt * k3z,
                                  dk, mu, e_c, kappa, L, fs)
        s = s + (dt / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        z = z + (dt / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if step % stride == 0:
            rec_minus[r] = s
            rec_z[r] = z
            r += 1
    return rec_minus[:r], rec_z[:r]


@_njit(cache=True)
def _rk4_moments_nb(s_minus, s_z, dk, mu, e_c, kappa, L, fs,
                    dt, n_steps, stride):  # pragma: no cover - jitted
    K = s_minus.shape[0]
    n_rec = n_steps // stride + 1
    rec_minus = np.empty((n_rec, K), dtype=np.complex128)
    rec_z = np.empty((n_rec, K))
    s = s_minus.copy()
    z = s_z.copy()
    for i in range(K):
        rec_minus[0, i] = s[i]
        rec_z[0, i] = z[i]
    k1s = np.empty(K, dtype=np.complex128)
    k2s = np.empty(K, dtype=np.complex128)
    k3s = np.empty(K, dtype=np.complex128)
    k4s = np.empty(K, dtype=np.complex128)
    k1z = np.empty(K)
    k2z = np.empty(K)
    k3z = np.empty(K)
    k4z = np.empty(K)
    ts = np.empty(K, dtype=np.complex128)
    tz = np.empty(K)
    r = 1
    for step in range(1, n_steps + 1):
        _rhs_nb(s, z, dk, mu, e_c, kappa, L, fs, k1s, k1z)
        for i in range(K):
            ts[i] = s[i] + 0.5 * dt * k1s[i]
            tz[i] = z[i] + 0.5 * dt * k1z[i]
        _rhs_nb(ts, tz, dk, mu, e_c, kappa, L, fs, k2s, k2z)
        for i in range(K):
            ts[i] = s[i] + 0.5 * dt * k2s[i]
            tz[i] = z[i] + 0.5 * dt * k2z[i]
        _rhs_nb(ts, tz, dk, mu, e_c, kappa, L, fs, k3s, k3z)
        for i in range(K):
            ts[i] = s[i] + dt * k3s[i]
            tz[i] = z[i] + dt * k3z[i]
        _rhs_nb(ts, tz, dk, mu, e_c, kappa, L, fs, k4s, k4z)
        for i in range(K):
            s[i] = s[i] + (dt / 6.0) * (k1s[i] + 2.0 * k2s[i]
                                        + 2.0 * k3s[i] + k4s[i])
            z[i] = z[i] + (dt / 6.0) * (k1z[i] + 2.0 * k2z[i]
                                        + 2.0 * k3z[i] + k4z[i])
        if step % stride == 0:
            for i in range(K):
                rec_minus[r, i] = s[i]
                rec_z[r, i] = z[i]
            r += 1
    return rec_minus[:r], rec_z[:r]


@_njit(cache=True)
def _rhs_nb(s, z, dk, mu, e_c, kappa, L, fs, out_s, out_z):  # pragma: no cover
    K = s.shape[0]
    acc = 0.0
    for i in range(K):
        acc += z[i]
    nbar = 0.5 * (acc / K + 1.0)
    coef = 2j * (mu - e_c * nbar - fs * e_c / (2.0 * L)) - kappa
    for i in range(K):
        ds = coef * s[i] + 2j * dk[i] * z[i]
        if fs != 0.0:
            ds -= 1j * (e_c / L) * s[i] * (z[i] + 2.0)
        out_s[i] = ds
        out_z[i] = -kappa * (z[i] + 1.0) - 8.0 * dk[i] * s[i].imag
    return


if USING_NUMBA:
    def logsumexp_complex(log_mag, phase=None, factor=None):
        # the jitted loop takes phases; a precomputed factor stays on numpy
        if factor is None:
            return _logsumexp_complex_nb(log_mag, phase)
        return _logsumexp_complex_np(log_mag, factor=factor)

    logsumexp_real = _logsumexp_real_nb
    coefficient_logs = _coefficient_logs_nb
    rk4_moments = _rk4_moments_nb
else:
    logsumexp_real = _logsumexp_real_np
    logsumexp_complex = _logsumexp_complex_np
    coefficient_logs = _coefficient_logs_np
    rk4_moments = _rk4_moments_np
