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

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def free_energy(rho, mu: float, kappa: float, delta: float,
                mode: str = WEAK):
    """Effective free energy Q(rho) on 0 < rho < 1 (charging energy = 1).

    Accepts a scalar or an array of rho values.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0.0) or np.any(rho_arr >= 1.0):
        raise DomainError("rho must lie strictly inside (0, 1)")
    if delta <= 0.0:
        raise DomainError("free energy requires delta > 0")
    if mode == WEAK:
        q = _free_energy_weak(rho_arr, mu, delta)
    elif mode == FULL:
        if kappa <= 0.0:
            raise DomainError("full mode requires kappa > 0")
        q = _free_energy_full(rho_arr, mu, kappa, delta)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(q) if np.isscalar(rho) else q


def _entropy_terms(rho):
    # -ln of the dimer-count density: s(rho) enters Q with a minus sign
    return (
        -xlogy(1.0 - 0.5 * rho, 1.0 - 0.5 * rho)
        + xlogy(1.0 - rho, 1.0 - rho)
        + xlogy(0.5 * rho, 0.5 * rho)
    )


def _free_energy_weak(rho, mu, delta):
    drive = -(1.0 + math.log(delta)) * rho
    pot = -2.0 * xlogy(mu - 0.5 * rho, np.abs(mu - 0.5 * rho)) \
        + 2.0 * xlogy(mu, abs(mu))
    return drive + pot + _entropy_terms(rho)


def _free_energy_full(rho, mu, kappa, delta):
    mu_abs2 = mu * mu + 0.25 * kappa * kappa
    drive = -(1.0 + math.log(delta)) * rho
    pot = -xlogy(mu - 0.5 * rho, (mu - 0.5 * rho) ** 2 + 0.25 * kappa * kappa) \
        + xlogy(mu, mu_abs2)
    arc = kappa * np.arctan2(0.5 * rho * kappa, 2.0 * mu_abs2 - mu * rho)
    return drive + pot + arc + _entropy_terms(rho)


@dataclass(frozen=True)
class FreeEnergyProfile:
    """Sampled free energy with its located wells.

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

    @property
    def two_wells(self) -> bool:
        return self.rho_low is not None and self.rho_high is not None


def _golden_minimize(f, a: float, b: float, xtol: float = 1e-11) -> float:
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def profile(mu: float, kappa: float, delta: float, mode: str = WEAK,
            grid_size: int = 4096) -> FreeEnergyProfile:
    """Scan Q on a grid, then refine every local well by golden section.

    Wells separated by a barrier smaller than 1e-12 are treated as one.
    """
    if grid_size < 1000:
        raise ValueError("grid_size must be >= 1e3")
    if delta == 0.0:
        # no drive: the state is the vacuum, formally Q = +inf off rho = 0
        rho = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
        q = np.full_like(rho, np.inf)
        return FreeEnergyProfile(mu, kappa, delta, mode, rho, q,
                                 rho_min=0.0, rho_low=None, rho_high=None,
                                 delta_q_min=None)
    rho = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    q = free_energy(rho, mu, kappa, delta, mode)

    def f(x):
        return free_energy(float(x), mu, kappa, delta, mode)

    lo_edge = 1e-13
    hi_edge = 1.0 - 1e-13
    minima = []
    interior = np.nonzero((q[1:-1] < q[:-2]) & (q[1:-1] <= q[2:]))[0] + 1
    for i in interior:
        minima.append(_golden_minimize(f, rho[i - 1], rho[i + 1]))
    if q[0] < q[1]:  # well below the first grid point
        minima.append(_golden_minimize(f, lo_edge, rho[1]))
    if q[-1] < q[-2]:
        minima.append(_golden_minimize(f, rho[-2], hi_edge))
    if not minima:  # pragma: no cover - the entropy terms force a minimum
        minima.append(float(rho[np.argmin(q)]))
    minima = sorted(minima)
    merged = _merge_wells(f, minima)
    values = [f(x) for x in merged]
    rho_min = merged[int(np.argmin(values))]
    rho_low = rho_high = None
    split = 2.0 * mu
    lows = [(x, v) for x, v in zip(merged, values) if x <= split]
    highs = [(x, v) for x, v in zip(merged, values) if x >= split]
    if lows:
        rho_low = min(lows, key=lambda t: t[1])[0]
    if highs:
        rho_high = min(highs, key=lambda t: t[1])[0]
    dq = None
    if rho_low is not None and rho_high is not None:
        dq = f(rho_high) - f(rho_low)
    return FreeEnergyProfile(mu, kappa, delta, mode, rho, q,
                             rho_min=float(rho_min), rho_low=rho_low,
                             rho_high=rho_high, delta_q_min=dq)


def _merge_wells(f, minima, barrier_tol: float = 1e-12):
    """Drop wells not separated from a deeper neighbor by a real barrier."""
    if len(minima) <= 1:
        return minima
    kept = [minima[0]]
    for x in minima[1:]:
        prev = kept[-1]
        grid = np.linspace(prev, x, 64)[1:-1]
        barrier = max(f(g) for g in grid) if grid.size else -np.inf
        if barrier - max(f(prev), f(x)) > barrier_tol:
            kept.append(x)
        elif f(x) < f(prev):
            kept[-1] = x
    return kept


def density_thermo(prof: FreeEnergyProfile) -> float:
    """Thermodynamic-limit physical density: half the minimizing rho."""
    return 0.5 * prof.rho_min


def _well_sign(mu, kappa, delta, mode, grid_size):
    """+1 while the low well dominates, -1 once the high well does."""
    prof = profile(mu, kappa, delta, mode, grid_size)
    if prof.two_wells:
        return math.copysign(1.0, prof.delta_q_min), prof
    return (1.0 if prof.rho_min < 2.0 * mu else -1.0), prof


def critical_delta(mu: float, kappa: float = 0.0, mode: str = WEAK,
                   tol: float = 1e-6, grid_size: int = 4096) -> float:
    """First-order transition point delta_crit(mu) by bisection.

    Bisects on the sign of the well-depth difference until the bracket is
    narrower than ``tol`` (> 0) or at float resolution.  A NoBistableWindow
    error is raised when the crossing is a smooth crossover instead of a
    two-well exchange (large kappa pushes the terminal point below the
    requested mu); IterationLimitError if MAX_BISECTIONS halvings do not
    finish.
    """
    if not 0.0 < mu < 0.5:
        raise DomainError("critical line is defined for 0 < mu < 1/2")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    lo, hi = 1e-4, 0.45
    s_lo, _ = _well_sign(mu, kappa, lo, mode, grid_size)
    s_hi, _ = _well_sign(mu, kappa, hi, mode, grid_size)
    if s_lo < 0 or s_hi > 0:
        raise NoBistableWindowError("no low-to-high crossing in delta scan")
    two_well_seen = False
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid in (lo, hi):
            break
        s, prof = _well_sign(mu, kappa, mid, mode, grid_size)
        two_well_seen = two_well_seen or prof.two_wells
        if s > 0:
            lo = mid
        else:
            hi = mid
    else:
        raise IterationLimitError(
            f"critical_delta: bracket [{lo!r}, {hi!r}] still wider than "
            f"tol={tol!r} after {MAX_BISECTIONS} halvings"
        )
    if not two_well_seen:
        raise NoBistableWindowError(
            f"crossing at delta~{mid:.4g} is a single-well crossover"
        )
    return mid


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
    entropy = (
        (1.0 - 0.5 * rho) * np.log(1.0 - 0.5 * rho)
        - 0.5 * rho * np.log(0.5 * rho)
        - (1.0 - rho) * np.log(1.0 - rho)
    )
    exponent = (
        0.5 * rho * (1.0 + math.log(delta) - np.log(np.abs(mu_t)))
        + np.real((mu_t - 0.5 * rho) * np.log(z))
        + 0.5 * entropy
    )
    log_pref = (
        -0.5 * np.log(np.abs(z))
        - 0.5 * np.log(1.0 - 0.5 * rho)
        + 0.25 * (np.log(1.0 - 0.5 * rho) - np.log(0.5 * rho)
                  - np.log(1.0 - rho))
        - 0.25 * math.log(2.0 * math.pi * L)
    )
    return L * exponent + log_pref
