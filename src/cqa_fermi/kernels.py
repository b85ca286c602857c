"""Numeric kernels: the hot inner loops of the package.

* cumulative log-domain coefficient tables (up to ~5e4 factors per call),
* max-shifted log-sum-exp reductions (real and complex),
* the fixed-step RK4 integrator for the per-mode moment equations, batched
  over trajectories.

Every kernel is plain numpy; ``perfbench/run.py --trace 1`` reports their
call counts and self times.

Exponentials of log-domain terms go through :func:`exp_span`.  A term
below ``EXP_FLOOR`` = -746 lies under ln(2**-1075) = -745.133..., so its
exp rounds to exactly +0.0, and numpy's exp is many times slower per
entry on such underflows than on ordinary arguments.  ``exp_span``
exponentiates only the span from the first to the last term that is not
below the floor (NaN counts as live) and writes +0.0 outside it.  Every
sum still runs over the full array in the same order, and adding +0.0 at
the same places in numpy's pairwise tree gives the same bits, so no
result moves; truncating the sums to the span instead is not
bit-identical.  Arrays shorter than ``SPAN_MIN_SIZE``, the measured
break-even of the span search, are exponentiated whole.

``rk4_moments`` keeps each state of T trajectories of K pairs in one
float64 buffer of 3*T*K entries: the first 2*T*K are s_minus, viewed as a
contiguous (T, K) complex128 array, and the last T*K are s_z, viewed as
(T, K).  The stage input, the four slopes and the accumulator share that
layout and are allocated once per call, so each RK4 combination is one
real ufunc over the whole buffer: 13 calls per step where separate complex
and real arrays took 26.  The bits are those of the complex formula.  A
real scalar times a complex number is two single rounded products, which
is what numpy's complex multiply gives when one factor has a zero
imaginary part, and complex addition works part by part.  The one
genuinely complex product, coef * s_minus, keeps its (T, 1) x (T, K)
shapes and contiguous rows, because numpy's complex multiply rounds
differently on its SIMD and scalar paths.
"""

from __future__ import annotations

import math

import numpy as np

# read by the benchmark's run manifest; numpy is the only backend
USING_NUMBA = False

NEG_INF = float("-inf")
# exp(x) is exactly +0.0 for every x < EXP_FLOOR (ln of half the smallest
# subnormal is -745.1332191019412)
EXP_FLOOR = -746.0
# arrays shorter than this are exponentiated whole: the span search's fixed
# cost outweighs what it saves on them (measured break-even)
SPAN_MIN_SIZE = 1024


def exp_span(x: np.ndarray, out: np.ndarray) -> tuple[int, int]:
    """out = exp(x), exponentiating only the live span (lo, hi) it returns.

    Every entry outside out[lo:hi] is below ``EXP_FLOOR``, and +0.0 is
    written there, exactly what exp gives.  An array shorter than
    ``SPAN_MIN_SIZE`` is exponentiated whole, span (0, n); a longer one
    with no live entry gets (0, 0).  ``out`` may be ``x``.
    """
    n = x.size
    if n < SPAN_MIN_SIZE:
        np.exp(x, out=out)
        return 0, n
    dead = x < EXP_FLOOR  # false for NaN, so NaN stays live
    lo = int(dead.argmin())
    if dead[lo]:
        out.fill(0.0)
        return 0, 0
    hi = n - int(dead[::-1].argmin())
    np.exp(x[lo:hi], out=out[lo:hi])
    out[:lo] = 0.0
    out[hi:] = 0.0
    return lo, hi


# ---------------------------------------------------------------------------
# log-sum-exp reductions
# ---------------------------------------------------------------------------

def logsumexp_real(log_vals: np.ndarray) -> float:
    """ln(sum exp(log_vals)); -inf for an empty or all-zero sum."""
    if log_vals.size == 0:
        return NEG_INF
    shift = float(np.max(log_vals))
    if shift == NEG_INF:
        return NEG_INF
    terms = log_vals - shift
    exp_span(terms, terms)
    return shift + math.log(float(np.sum(terms)))


def logsumexp_complex(log_mag: np.ndarray, factor: np.ndarray):
    """(ln|s|, arg s) of s = sum exp(log_mag) * factor, where ``factor``
    holds the unit phase factors exp(i phase)."""
    if log_mag.size == 0:
        return NEG_INF, 0.0
    shift = float(np.max(log_mag))
    if shift == NEG_INF:
        return NEG_INF, 0.0
    terms = log_mag - shift
    lo, hi = exp_span(terms, terms)
    # a dead product is +0.0 here and +-0.0 in the full product (NaN for a
    # non-finite factor).  Zero summands can change a sum only in the sign
    # of a zero total, which the phase shows only for a factor -r - 0j;
    # exp(i phase) of a finite phase is never one.
    prod = np.zeros(terms.size, dtype=np.complex128)
    np.multiply(terms[lo:hi], factor[lo:hi], out=prod[lo:hi])
    acc = np.sum(prod)
    if acc == 0:
        return NEG_INF, 0.0
    return shift + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


# ---------------------------------------------------------------------------
# cumulative coefficient logs:  a_n = prefactor^n / prod_{m=1..n} (mu~ - m*e_c/L)
# ---------------------------------------------------------------------------

def coefficient_logs(log_prefactor, mu, kappa, e_c, L, n_max):
    """(ln|a_n|, unwrapped arg a_n) for n = 0..n_max, with mu~ = mu + i kappa/2."""
    m = np.arange(1, n_max + 1, dtype=float)
    z_re = mu - (e_c / L) * m
    z_im = 0.5 * kappa
    sq = z_re * z_re + z_im * z_im
    # near a resonance mu = m e_c / L both squares can underflow, and
    # hypot keeps the modulus there; elsewhere ln(sq)/2
    small = sq < np.finfo(float).tiny
    sq[small] = 1.0
    log_den = 0.5 * np.log(sq)
    log_den[small] = np.log(np.hypot(z_re[small], z_im))
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
# the per-trajectory scalars stay Python floats, numeric constants are 0-d
# arrays, which numpy does not have to convert on every call, and every
# ufunc writes with ``out=`` into the state buffers of the module docstring.

_ONE, _TWO = np.array(1.0), np.array(2.0)


def _state(T, K):
    """(buffer, s_minus view, s_z view) of an uninitialised state."""
    buf = np.empty(3 * T * K)
    n = 2 * T * K
    return (buf, buf[:n].view(np.complex128).reshape(T, K),
            buf[n:].reshape(T, K))


def _moment_constants(dk, mu, e_c, kappa, L, fs):
    """Loop-invariant factors of the RHS; ``dk`` has shape (T, K).

    Per-trajectory factors are spread to (T, K): numpy takes its fast
    same-shape loop then, and each element sees the same product.
    """
    mu, e_c, kappa, fs = (np.asarray(a, dtype=float).ravel()
                          for a in (mu, e_c, kappa, fs))
    pair = fs * e_c
    scalars = list(zip(mu.tolist(), e_c.tolist(),
                       (pair / (2.0 * L)).tolist(), kappa.tolist()))
    # the pair-breaking term enters only when some trajectory has a nonzero
    # fs * e_c; at e_c = 0 it is 0j * s * (z + 2)
    coupling = (np.repeat((1j * (pair / L))[:, None], dk.shape[1], axis=1)
                if pair.any() else None)
    return (scalars, 2j * dk, coupling,
            np.repeat(-kappa[:, None], dk.shape[1], axis=1), 8.0 * dk)


def _nbar(z):
    """Per-trajectory density (mean(s_z) + 1)/2 as Python floats."""
    K = z.shape[1]
    return [0.5 * (total / K + 1.0)
            for total in np.add.reduce(z, axis=1).tolist()]


def _moment_rhs(x, nbar, consts, out, work):
    """Write the slope of state ``x`` into ``out``; ``work`` is scratch.

    ``x``, ``out`` and ``work`` are :func:`_state` views.
    """
    scalars, two_i_dk, coupling, neg_kappa, eight_dk = consts
    _, s, z = x
    _, ds, dz = out
    _, ws, wz = work
    coef = np.array([[2j * (mu - e_c * n - shift) - kappa]
                     for (mu, e_c, shift, kappa), n in zip(scalars, nbar)])
    np.multiply(coef, s, out=ds)
    np.multiply(two_i_dk, z, out=ws)
    np.add(ds, ws, out=ds)
    if coupling is not None:
        np.add(z, _TWO, out=wz)
        np.multiply(coupling, s, out=ws)
        np.multiply(ws, wz, out=ws)
        np.subtract(ds, ws, out=ds)
    np.add(z, _ONE, out=dz)
    np.multiply(neg_kappa, dz, out=dz)
    np.multiply(eight_dk, s.imag, out=wz)
    np.subtract(dz, wz, out=dz)


def _batch(s_minus, s_z, dk, mu):
    """State views and (T, K) drive of the T = len(mu) flat trajectories."""
    T = np.size(mu)
    K = np.size(s_minus) // T
    if K == 0 or T * K != np.size(s_minus):
        raise ValueError(f"{np.size(s_minus)} pairs do not split into "
                         f"{T} trajectories")
    x = _state(T, K)
    x[1][...] = np.reshape(s_minus, (T, K))
    x[2][...] = np.reshape(s_z, (T, K))
    return x, np.asarray(dk, dtype=float).reshape(T, K)


def moment_rhs(s_minus, s_z, dk, mu, e_c, kappa, L, fs, nbar=None):
    """(ds_minus, ds_z) of T trajectories, laid out as in :func:`rk4_moments`.

    ``nbar``, one value per trajectory, replaces the density recomputed
    from ``s_z``.
    """
    x, dk = _batch(s_minus, s_z, dk, mu)
    if nbar is None:
        nbar = _nbar(x[2])
    else:
        nbar = np.asarray(nbar, dtype=float).ravel().tolist()
    out = _state(*dk.shape)
    _moment_rhs(x, nbar, _moment_constants(dk, mu, e_c, kappa, L, fs), out,
                _state(*dk.shape))
    return out[1].ravel(), out[2].ravel()


def rk4_moments(s_minus, s_z, dk, mu, e_c, kappa, L, fs, dt, n_steps, stride):
    """Fixed-step RK4 for T trajectories that share L, dt and the sampling.

    ``s_minus``, ``s_z`` and ``dk`` hold the T trajectories back to back
    (length T*K); ``mu``, ``e_c``, ``kappa`` and ``fs`` have length T.
    Returns records of shape (T, n_steps // stride + 1, K): the state at
    step 0 and after every ``stride``-th step.  Trajectory t is the
    contiguous view ``records[t]``.
    """
    x, dk = _batch(s_minus, s_z, dk, mu)
    consts = _moment_constants(dk, mu, e_c, kappa, L, fs)
    T, K = dk.shape
    state, s, z = x
    stage, k1, k2, k3, k4, acc = (_state(T, K) for _ in range(6))
    ts, tz, total = stage[0], stage[2], acc[0]
    n_rec = n_steps // stride + 1
    rec_minus = np.empty((T, n_rec, K), dtype=np.complex128)
    rec_z = np.empty((T, n_rec, K))
    rec_minus[:, 0] = s
    rec_z[:, 0] = z
    half_dt, full_dt, sixth_dt = (np.array(v) for v in (0.5 * dt, dt,
                                                        dt / 6.0))
    stages = ((half_dt, k1, k2), (half_dt, k2, k3), (full_dt, k3, k4))
    # acc is free during the four slopes and serves as their scratch
    for step in range(1, n_steps + 1):
        _moment_rhs(x, _nbar(z), consts, k1, acc)
        for h, k, k_next in stages:
            np.multiply(h, k[0], out=ts)
            np.add(state, ts, out=ts)
            _moment_rhs(stage, _nbar(tz), consts, k_next, acc)
        # ((k1 + 2 k2) + 2 k3) + k4, then the update
        np.multiply(_TWO, k2[0], out=total)
        np.add(k1[0], total, out=total)
        np.multiply(_TWO, k3[0], out=ts)
        np.add(total, ts, out=total)
        np.add(total, k4[0], out=total)
        np.multiply(sixth_dt, total, out=total)
        np.add(state, total, out=state)
        if step % stride == 0:
            rec_minus[:, step // stride] = s
            rec_z[:, step // stride] = z
    return rec_minus, rec_z
