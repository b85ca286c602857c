"""Thermodynamic-limit machinery: effective free energy and the phase line.

The pair-number distribution concentrates as exp(-L Q(rho)) on the density
coordinate rho = 2n/L, so the global minimizer of Q fixes the density and
the first-order line is where the two local wells exchange depth.  Units:
the charging energy is the scale (e_c = 1); mu, delta and kappa are in
those units.

Two modes are provided: ``"full"`` keeps the dissipative terms at finite
kappa, ``"weak"`` is the kappa -> 0 limit.  Endpoint limits of the x*ln(x)
terms are taken analytically (scipy's xlogy), never by epsilon-nudging,
and the dissipative arctangent is evaluated in quadrant-correct two-argument
form; a principal-branch shortcut flips well depths near rho = 2 mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import DomainError, IterationLimitError, NoBistableWindowError

FULL = "full"
WEAK = "weak"
# far above the ~60 halvings that take a bracket of width < 1 to float
# resolution, where the loop stops on its own
MAX_BISECTIONS = 200
# far above the ~140 golden steps that take a bracket of width < 1 inside
# (1e-13, 1) to float resolution, where the loop stops on its own
MAX_GOLDEN_STEPS = 300

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the delta bracket the critical-line bisection starts from
_DELTA_SCAN = (1e-4, 0.45)


def free_energy(rho, mu, kappa, delta, mode: str = WEAK):
    """Effective free energy Q(rho) on 0 < rho < 1 (charging energy = 1).

    ``rho`` is a scalar or an array; ``mu``, ``kappa`` and ``delta`` are
    scalars or arrays that broadcast against it, so one call evaluates Q
    for many parameter sets.  All scalars give a float.  Each element goes
    through the same IEEE operations whatever the shapes, so a batched
    value has the bits of the one-point call.  Non-finite parameters are
    rejected.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0.0) or np.any(rho_arr >= 1.0):
        raise DomainError("rho must lie strictly inside (0, 1)")
    _require_finite(mu=mu, kappa=kappa, delta=delta)
    mu, kappa, delta = (np.asarray(v, dtype=float) for v in (mu, kappa, delta))
    if np.any(delta <= 0.0):
        raise DomainError("free energy requires delta > 0")
    _check_mode(mode, kappa)
    if mode == WEAK:
        q = _free_energy_weak(rho_arr, mu, delta)
    else:
        q = _free_energy_full(rho_arr, mu, kappa, delta)
    return float(q) if np.isscalar(rho) and np.ndim(q) == 0 else q


def _check_mode(mode, kappa):
    if mode not in (WEAK, FULL):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == FULL and np.any(kappa <= 0.0):
        raise DomainError("full mode requires kappa > 0")


def _require_finite(**params):
    for name, val in params.items():
        if not np.all(np.isfinite(val)):
            raise DomainError(f"{name} must be finite, got {val}")


def _log(x):
    # libm's log per element, as one-point calls have always taken it:
    # numpy's vector log differs from it in the last bit on some inputs
    return np.fromiter(map(math.log, x.ravel()), float, x.size).reshape(
        x.shape)


def _entropy_terms(rho):
    # -ln of the dimer-count density: s(rho) enters Q with a minus sign
    return (
        -xlogy(1.0 - 0.5 * rho, 1.0 - 0.5 * rho)
        + xlogy(1.0 - rho, 1.0 - rho)
        + xlogy(0.5 * rho, 0.5 * rho)
    )


def _free_energy_weak(rho, mu, delta):
    drive = -(1.0 + _log(delta)) * rho
    pot = -2.0 * xlogy(mu - 0.5 * rho, np.abs(mu - 0.5 * rho)) \
        + 2.0 * xlogy(mu, np.abs(mu))
    return drive + pot + _entropy_terms(rho)


def _free_energy_full(rho, mu, kappa, delta):
    mu_abs2 = mu * mu + 0.25 * kappa * kappa
    drive = -(1.0 + _log(delta)) * rho
    shift = mu - 0.5 * rho
    pot = -xlogy(shift, shift * shift + 0.25 * kappa * kappa) \
        + xlogy(mu, mu_abs2)
    arc = kappa * np.arctan2(0.5 * rho * kappa, 2.0 * mu_abs2 - mu * rho)
    return drive + pot + arc + _entropy_terms(rho)


@dataclass(frozen=True)
class FreeEnergyProfile:
    """Sampled free energy with its located wells.

    ``wells`` are the (rho, Q) pairs of every well, in increasing rho, after
    wells without a real barrier between them are merged.
    ``rho_low``/``rho_high`` are the minimizers on (0, 2 mu] and [2 mu, 1)
    and are None when the corresponding well does not exist;
    ``delta_q_min`` is Q(rho_high) - Q(rho_low) when both wells exist.
    """

    mu: float
    kappa: float
    delta: float
    mode: str
    rho: np.ndarray
    q: np.ndarray
    rho_min: float
    rho_low: float | None
    rho_high: float | None
    delta_q_min: float | None
    wells: tuple[tuple[float, float], ...]


def _golden_minimize(f, a, b, xtol: float = 1e-11) -> np.ndarray:
    """Golden-section minimizers on the brackets [a[i], b[i]], in lockstep.

    ``f(x, idx)`` returns the objective of bracket ``idx[j]`` at ``x[j]``.
    Each bracket takes the steps, and so the bits, of a one-bracket search.
    A bracket stops once narrower than ``xtol`` or at float resolution;
    IterationLimitError if MAX_GOLDEN_STEPS steps do not finish them all.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    every = np.arange(a.size)
    f12 = f(np.concatenate([x1, x2]), np.concatenate([every, every]))
    f1, f2 = f12[:a.size], f12[a.size:]
    for _ in range(MAX_GOLDEN_STEPS):
        mid = 0.5 * (a + b)
        live = np.nonzero((b - a > xtol) & (mid != a) & (mid != b))[0]
        if live.size == 0:
            return mid
        left = f1[live] < f2[live]
        lt, rt = live[left], live[~left]
        b[lt], x2[lt], f2[lt] = x2[lt], x1[lt], f1[lt]
        x1[lt] = b[lt] - _INV_GOLDEN * (b[lt] - a[lt])
        a[rt], x1[rt], f1[rt] = x1[rt], x2[rt], f2[rt]
        x2[rt] = a[rt] + _INV_GOLDEN * (b[rt] - a[rt])
        f_new = f(np.where(left, x1[live], x2[live]), live)
        f1[lt], f2[rt] = f_new[left], f_new[~left]
    raise IterationLimitError(
        f"golden section: {live.size} brackets still wider than "
        f"xtol={xtol!r} after {MAX_GOLDEN_STEPS} steps"
    )


def profile(mu, kappa, delta, mode: str = WEAK, grid_size: int = 4096):
    """Scan Q on a grid, then refine every local well by golden section.

    Wells separated by a barrier smaller than 1e-12 are treated as one.
    With scalars this returns one profile.  Given sequences of equal
    length for any of ``mu``, ``kappa`` and ``delta`` (the scalars
    repeat), it returns a tuple with one profile per entry, each the one a
    scalar call gives: the grids are evaluated in one call and all their
    wells refined in one lockstep golden section.  An unknown ``mode``,
    or full mode with a kappa <= 0, is rejected whatever the deltas, so
    also where every delta is 0 and the profile is the vacuum.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be >= 1e3")
    single = all(np.ndim(v) == 0 for v in (mu, kappa, delta))
    mus, kappas, deltas = np.broadcast_arrays(
        *(np.atleast_1d(v) for v in (mu, kappa, delta)))
    _require_finite(mu=mus, kappa=kappas, delta=deltas)
    _check_mode(mode, kappas)
    mus, kappas, deltas = (a.astype(float) for a in (mus, kappas, deltas))
    rho = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    out = [None] * mus.size
    idx = np.nonzero(deltas != 0.0)[0]
    if idx.size:
        for i, prof in zip(idx, _profiles(rho, mus[idx], kappas[idx],
                                          deltas[idx], mode)):
            out[i] = prof
    for i in np.nonzero(deltas == 0.0)[0]:
        # no drive: the state is the vacuum, formally Q = +inf off rho = 0
        out[i] = FreeEnergyProfile(
            float(mus[i]), float(kappas[i]), float(deltas[i]), mode,
            rho, np.full_like(rho, np.inf), rho_min=0.0, rho_low=None,
            rho_high=None, delta_q_min=None, wells=())
    return out[0] if single else tuple(out)


def _profiles(rho, mu, kappa, delta, mode):
    """Profiles of one mode for the parameter arrays (delta > 0)."""
    q = free_energy(rho, mu[:, None], kappa[:, None], delta[:, None], mode)
    # brackets [a, b] around every grid minimum, owned by row ``own``
    lo_edge = 1e-13
    hi_edge = 1.0 - 1e-13
    own, col = np.nonzero((q[:, 1:-1] < q[:, :-2]) & (q[:, 1:-1] <= q[:, 2:]))
    a, b = [rho[col]], [rho[col + 2]]
    low = np.nonzero(q[:, 0] < q[:, 1])[0]  # well below the first grid point
    high = np.nonzero(q[:, -1] < q[:, -2])[0]
    own = np.concatenate([own, low, high])
    a += [np.full(low.size, lo_edge), np.full(high.size, rho[-2])]
    b += [np.full(low.size, rho[1]), np.full(high.size, hi_edge)]

    def q_at(x, idx):
        j = own[idx]
        return free_energy(x, mu[j], kappa[j], delta[j], mode)

    x = _golden_minimize(q_at, np.concatenate(a), np.concatenate(b))
    values = q_at(x, np.arange(x.size))
    profiles = []
    for j in range(mu.size):
        mine = own == j
        wells = sorted(zip(x[mine].tolist(), values[mine].tolist()))
        if not wells:  # pragma: no cover - the entropy terms force a minimum
            k = int(np.argmin(q[j]))
            wells = [(float(rho[k]), float(q[j, k]))]
        profiles.append(_wells_profile(
            rho, q[j], mu[j], kappa[j], delta[j], mode,
            _merge_wells(lambda g: free_energy(g, mu[j], kappa[j], delta[j],
                                               mode), wells)))
    return profiles


def _wells_profile(rho, q, mu, kappa, delta, mode, wells):
    """The profile whose merged wells are the (rho, Q) pairs ``wells``."""
    values = [v for _, v in wells]
    rho_min = wells[int(np.argmin(values))][0]
    split = 2.0 * mu
    lows = [w for w in wells if w[0] <= split]
    highs = [w for w in wells if w[0] >= split]
    low = min(lows, key=lambda t: t[1]) if lows else None
    high = min(highs, key=lambda t: t[1]) if highs else None
    dq = high[1] - low[1] if low and high else None
    return FreeEnergyProfile(float(mu), float(kappa), float(delta), mode, rho,
                             q, rho_min=rho_min,
                             rho_low=low[0] if low else None,
                             rho_high=high[0] if high else None,
                             delta_q_min=dq, wells=tuple(wells))


def _merge_wells(q, wells, barrier_tol: float = 1e-12):
    """Drop wells not separated from a deeper neighbor by a real barrier.

    ``wells`` are (rho, Q) pairs in increasing rho; ``q`` evaluates Q on an
    array of rho, here the 62 interior points between two wells.
    """
    kept = wells[:1]
    for x, v in wells[1:]:
        prev, v_prev = kept[-1]
        barrier = q(np.linspace(prev, x, 64)[1:-1]).max()
        if barrier - max(v_prev, v) > barrier_tol:
            kept.append((x, v))
        elif v < v_prev:
            kept[-1] = (x, v)
    return kept


def density_thermo(prof: FreeEnergyProfile) -> float:
    """Thermodynamic-limit physical density: half the minimizing rho."""
    return 0.5 * prof.rho_min


def _low_dominates(prof: FreeEnergyProfile) -> bool:
    """True while the low-density phase wins (False once the high one does).

    With two or more wells: whether the left of the two deepest wells is at
    least as deep as the right one, wherever they lie against rho = 2 mu.
    With one well: whether it lies below 2 mu.
    """
    if len(prof.wells) >= 2:
        left, right = sorted(sorted(prof.wells, key=lambda w: w[1])[:2])
        return left[1] <= right[1]
    return prof.rho_min < 2.0 * prof.mu


def critical_delta(mu, kappa: float = 0.0, mode: str = WEAK,
                   tol: float = 1e-6):
    """First-order transition point delta_crit(mu) by bisection.

    Bisects on the sign of the depth difference of the two deepest wells
    (see ``_low_dominates``) until the bracket is narrower than ``tol``
    (> 0) or at float resolution.  A NoBistableWindow
    error is raised when the crossing is a smooth crossover instead of a
    two-well exchange (large kappa pushes the terminal point below the
    requested mu); IterationLimitError if MAX_BISECTIONS halvings do not
    finish.

    A scalar ``mu`` gives a float.  A sequence gives a tuple with one
    delta_crit per entry, each the value of a scalar call: the bisections
    run in lockstep, one batched :func:`profile` per halving over the
    entries still bisecting.  If entries fail, the error of the first of
    them in ``mu`` order is raised once all are done.
    """
    single = np.ndim(mu) == 0
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    errors = {}
    for i, m in enumerate(mus):
        if not 0.0 < m < 0.5:
            errors[i] = DomainError("critical line is defined for 0 < mu < 1/2")
        elif not tol > 0.0:
            errors[i] = DomainError(f"tol must be > 0, got {tol}")
    live = [i for i in range(mus.size) if i not in errors]
    lo, hi = ([d] * mus.size for d in _DELTA_SCAN)
    try:
        ends = profile(np.tile(mus[live], 2), kappa,
                       np.repeat(_DELTA_SCAN, len(live)),
                       mode) if live else ()
    except (DomainError, ValueError) as exc:  # kappa or mode
        errors.update(dict.fromkeys(live, exc))
        ends = ()
    for i, at_lo, at_hi in zip(live, ends, ends[len(live):]):
        if not _low_dominates(at_lo) or _low_dominates(at_hi):
            errors[i] = NoBistableWindowError(
                "no low-to-high crossing in delta scan")
    live = [i for i in live if i not in errors]
    two_well_seen = dict.fromkeys(live, False)
    mid = {}
    for _ in range(MAX_BISECTIONS):
        for i in live:
            mid[i] = 0.5 * (lo[i] + hi[i])
        live = [i for i in live
                if not (hi[i] - lo[i] <= tol or mid[i] in (lo[i], hi[i]))]
        if not live:
            break
        profs = profile(mus[live], kappa, [mid[i] for i in live], mode)
        for i, prof in zip(live, profs):
            two_well_seen[i] = two_well_seen[i] or len(prof.wells) >= 2
            if _low_dominates(prof):
                lo[i] = mid[i]
            else:
                hi[i] = mid[i]
    for i in live:
        errors[i] = IterationLimitError(
            f"critical_delta: bracket [{lo[i]!r}, {hi[i]!r}] still wider than "
            f"tol={tol!r} after {MAX_BISECTIONS} halvings"
        )
    for i, seen in two_well_seen.items():
        if not seen and i not in errors:
            errors[i] = NoBistableWindowError(
                f"crossing at delta~{mid[i]:.4g} is a single-well crossover"
            )
    if errors:
        raise errors[min(errors)]
    return mid[0] if single else tuple(mid[i] for i in range(mus.size))


def beta_asymptotic(rho: float, mu: float, kappa: float, delta: float,
                    L: int, norm_grid: int = 8192) -> float:
    """ln |beta(rho)| from the saddle-point (Stirling) form at finite L.

    Consistency check against the exact coefficient table: Stirling on the
    gamma-function form of the coefficient product and on the ring covering
    count (the count enters |beta|^2 once, so ln|beta| carries half its
    entropy), including the algebraic prefactor; normalized by quadrature
    of the asymptotic density itself.
    """
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie inside (0, 1)")
    if L < 1000:
        raise DomainError("asymptotic form intended for L >= 1e3")
    grid = np.linspace(0.0, 1.0, norm_grid + 2)[1:-1]
    log_b = _log_beta_unnormalized(grid, mu, kappa, delta, L)
    shift = log_b.max()
    # sum over n -> (L/2) * integral over rho
    log_norm = math.log(0.5 * L) + 2.0 * shift + math.log(
        np.trapezoid(np.exp(2.0 * (log_b - shift)), grid)
    )
    return float(
        _log_beta_unnormalized(np.array([rho]), mu, kappa, delta, L)[0]
        - 0.5 * log_norm
    )


def _log_beta_unnormalized(rho, mu, kappa, delta, L):
    mu_t = complex(mu, 0.5 * kappa)
    z = 1.0 - rho / (2.0 * mu_t)
    # half the covering entropy: the count appears once in |beta|^2
    exponent = (
        0.5 * rho * (1.0 + math.log(delta) - np.log(np.abs(mu_t)))
        + np.real((mu_t - 0.5 * rho) * np.log(z))
        - 0.5 * _entropy_terms(rho)
    )
    log_pref = (
        -0.5 * np.log(np.abs(z))
        - 0.5 * np.log(1.0 - 0.5 * rho)
        + 0.25 * (np.log(1.0 - 0.5 * rho) - np.log(0.5 * rho)
                  - np.log(1.0 - rho))
        - 0.25 * math.log(2.0 * math.pi * L)
    )
    return L * exponent + log_pref
