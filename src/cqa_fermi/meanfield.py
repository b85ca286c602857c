"""Mean-field self-consistency for the density and its bistable region.

The self-consistent mean density obeys

    nbar = (1 - sqrt(a) / sqrt(a + 4 delta^2)) / 2,
    a = (e_c nbar - mu)^2 + kappa^2 / 4,

which is exact at e_c = 0.  Clearing the radicals gives a quartic whose
roots are filtered against the un-squared equation (the quartic admits
spurious sign branches).  The equal-area construction for the would-be
transition point is performed in the (mu, nbar) plane using the closed-form
inverse

    mu(nbar) = e_c nbar + sqrt(max(g, 0)),
    g = delta^2 (1 - 2 nbar)^2 / (nbar (1 - nbar)) - kappa^2 / 4;

it brackets but does not reproduce the true transition.  The area's linear
part is exact.  Its root part is a fixed 16-node Gauss-Legendre rule on at
most 13 panels, after substitutions that make the integrand smooth (see
``_root_area``); it is within 1e-15 absolute of a 40-digit quadrature
(at most 1.4e-16 measured) and needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import IterationLimitError, NoBistableWindowError

RESIDUAL_TOL = 1e-12
# far above the ~60 halvings that take a bracket to float resolution, where
# the equal-area bisection stops on its own
MAX_BISECTIONS = 200
MAX_EDGE_DOUBLINGS = 40  # of the step in from a fold (maxwell_transition)
# Gauss-Legendre nodes per panel of the equal-area rule, and the number of
# times its panels are halved toward the square-root end (see _root_area)
GAUSS_NODES = 16
GAUSS_HALVINGS = 12


def self_consistency_residual(nbar: float, mu: float, delta: float,
                              e_c: float, kappa: float) -> float:
    """Left minus right side of the self-consistency equation at nbar."""
    a = (e_c * nbar - mu) ** 2 + 0.25 * kappa**2
    return nbar - 0.5 * (1.0 - np.sqrt(a) / np.sqrt(a + 4.0 * delta**2))


def _residual_derivative(nbar, mu, delta, e_c, kappa):
    a = (e_c * nbar - mu) ** 2 + 0.25 * kappa**2
    da = 2.0 * e_c * (e_c * nbar - mu)
    return 1.0 + delta**2 * da / (np.sqrt(a) * (a + 4.0 * delta**2) ** 1.5)


@dataclass(frozen=True)
class MeanFieldRoots:
    """All self-consistent densities in [0, 1/2] for one parameter point.

    ``stable`` labels each root by the sign of d(residual)/d(nbar): the
    outer branches of the S-curve are stable, the middle one is not (a
    heuristic; no full stability analysis is implied).
    """

    roots: tuple[float, ...]
    stable: tuple[bool, ...]

    @property
    def count(self) -> int:
        return len(self.roots)


def solve_roots(mu: float, delta: float, e_c: float, kappa: float) -> MeanFieldRoots:
    """Roots of the self-consistency equation, sorted ascending.

    Solves the radical-cleared quartic

        x (x - 1) [(e_c x - mu)^2 + kappa^2/4] + delta^2 (1 - 2x)^2 = 0

    then Newton-polishes each real candidate in [0, 1/2] against the
    un-squared residual and keeps those with |residual| < 1e-12.
    """
    if e_c == 0.0:
        a = mu**2 + 0.25 * kappa**2
        root = 0.5 * (1.0 - np.sqrt(a) / np.sqrt(a + 4.0 * delta**2))
        return MeanFieldRoots((float(root),), (True,))
    b = mu**2 + 0.25 * kappa**2
    coeffs = [
        e_c**2,
        -(2.0 * e_c * mu + e_c**2),
        b + 2.0 * e_c * mu + 4.0 * delta**2,
        -(b + 4.0 * delta**2),
        delta**2,
    ]
    candidates = np.roots(coeffs)
    roots: list[float] = []
    for z in candidates:
        if abs(z.imag) > 1e-7:
            continue
        x = float(z.real)
        if not -1e-6 <= x <= 0.5 + 1e-6:
            continue
        x = _polish(x, mu, delta, e_c, kappa)
        if x is None:
            continue
        if abs(self_consistency_residual(x, mu, delta, e_c, kappa)) > RESIDUAL_TOL:
            continue
        if all(abs(x - r) > 1e-9 for r in roots):
            roots.append(x)
    roots.sort()
    stable = tuple(
        bool(_residual_derivative(r, mu, delta, e_c, kappa) > 0) for r in roots
    )
    return MeanFieldRoots(tuple(roots), stable)


def _polish(x, mu, delta, e_c, kappa, iters=40):
    for _ in range(iters):
        f = self_consistency_residual(x, mu, delta, e_c, kappa)
        if abs(f) < 1e-15:
            break
        df = _residual_derivative(x, mu, delta, e_c, kappa)
        if df == 0.0:
            break
        step = f / df
        x -= step
        if abs(step) < 1e-16:
            break
    if not np.isfinite(x) or not -1e-12 <= x <= 0.5 + 1e-12:
        return None
    return float(min(max(x, 0.0), 0.5))


def bistable_region(mu_grid, delta_grid, e_c: float, kappa: float) -> np.ndarray:
    """Boolean grid marking three-root cells, shape (len(mu), len(delta))."""
    mu_grid = np.asarray(mu_grid, dtype=float)
    delta_grid = np.asarray(delta_grid, dtype=float)
    if mu_grid.min() < -0.1 or mu_grid.max() > 0.7:
        raise ValueError("mu grid outside [-0.1, 0.7]")
    if delta_grid.min() <= 0.0 or delta_grid.max() > 0.5:
        raise ValueError("delta grid outside (0, 0.5]")
    out = np.zeros((mu_grid.size, delta_grid.size), dtype=bool)
    for i, mu in enumerate(mu_grid):
        for j, delta in enumerate(delta_grid):
            out[i, j] = solve_roots(mu, delta, e_c, kappa).count == 3
    return out


def _fold_window(delta, e_c, kappa, mu_lo=-0.05, mu_hi=0.65, samples=600):
    """[lo, hi] of the three-root window, from a scan of ``samples`` mus
    on [mu_lo, mu_hi] refined by bisection on the root count.

    A window that the scan misses or that reaches an end of the range is
    rescanned on the range widened to :func:`_fold_reach`, which holds
    every fold.
    """
    mus, idx = _three_root_samples(delta, e_c, kappa, mu_lo, mu_hi, samples)
    if idx.size == 0 or idx[0] == 0 or idx[-1] == samples - 1:
        edge = math.copysign(_fold_reach(delta, e_c), e_c)
        lo, hi = min(mu_lo, edge), max(mu_hi, edge)
        if (lo, hi) != (mu_lo, mu_hi):
            mus, idx = _three_root_samples(delta, e_c, kappa, lo, hi, samples)
    if idx.size == 0:
        raise NoBistableWindowError(
            f"no three-root window for delta={delta}, kappa={kappa}"
        )
    if idx[0] == 0 or idx[-1] == samples - 1:
        raise NoBistableWindowError(
            f"three-root window reaches mu={mus[0]!r} or {mus[-1]!r}, "
            f"the ends of the widest scan"
        )
    lo = _bisect_count_edge(mus[idx[0] - 1], mus[idx[0]], delta, e_c, kappa)
    hi = _bisect_count_edge(mus[idx[-1] + 1], mus[idx[-1]], delta, e_c, kappa)
    return lo, hi


def _three_root_samples(delta, e_c, kappa, mu_lo, mu_hi, samples):
    mus = np.linspace(mu_lo, mu_hi, samples)
    counts = np.array(
        [solve_roots(m, delta, e_c, kappa).count for m in mus]
    )
    return mus, np.nonzero(counts == 3)[0]


def _fold_reach(delta, e_c):
    """Bound on |mu| at every fold of the S-curve mu = e_c n +- sqrt(g).

    With x = n(1 - n) and g = delta^2 (1 - 2n)^2 / x - kappa^2/4, one has
    sqrt(g) <= delta / sqrt(x) and |d sqrt(g)/dn| >= delta / (2 x^1.5).  A
    fold needs |d sqrt(g)/dn| = |e_c|, so there sqrt(g) <= cbrt(2 |e_c|
    delta^2), and the fold lies between 0 and sign(e_c) times this reach.
    """
    return 0.5 * abs(e_c) + np.cbrt(2.0 * abs(e_c) * delta**2)


def _bisect_count_edge(mu_out, mu_in, delta, e_c, kappa, iters=60):
    for _ in range(iters):
        mid = 0.5 * (mu_out + mu_in)
        if solve_roots(mid, delta, e_c, kappa).count == 3:
            mu_in = mid
        else:
            mu_out = mid
    return mu_in


@cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss

    return leggauss(GAUSS_NODES)


def _root_area(n1, n3, delta, kappa):
    """Integral of sqrt(max(g, 0)) dn over [n1, n3], g as in the module
    docstring.

    g > 0 exactly for n < n0 = sin^2(theta0/2), theta0 = atan2(2 delta,
    kappa/2).  Putting n = sin^2(theta/2) and theta = theta0 - u^2 turns the
    integral into

        sqrt(4 delta^2 + kappa^2/4)
            * int u sqrt(sin(u^2) sin(2 theta0 - u^2)) du

    over u from sqrt(theta0 - theta3) to sqrt(theta0 - theta1), whose
    integrand is smooth: the substitution removes both the 1/sqrt(n) growth
    at n = 0 and the square-root zero at n0.  Its branch points left nearest
    the path, u = +-i sqrt(pi - 2 theta0), close in on u = 0 as kappa/delta
    goes to 0, so the fixed Gauss-Legendre rule runs on panels halved
    GAUSS_HALVINGS times toward the lower end.
    """
    theta0 = np.arctan2(2.0 * delta, 0.5 * kappa)
    u_hi = np.sqrt(max(theta0 - 2.0 * np.arcsin(np.sqrt(n1)), 0.0))
    u_lo = np.sqrt(max(theta0 - 2.0 * np.arcsin(np.sqrt(n3)), 0.0))
    if u_hi <= u_lo:
        return 0.0
    x, w = _gauss_legendre()
    edges = u_hi * 0.5 ** np.arange(GAUSS_HALVINGS + 1)
    edges = np.append(edges[edges > u_lo], u_lo)
    half = 0.5 * (edges[:-1] - edges[1:])[:, None]
    u = half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]
    s = u * u
    f = u * np.sqrt(np.sin(s) * np.sin(2.0 * theta0 - s))
    return float(np.hypot(2.0 * delta, 0.5 * kappa) * np.sum(half * w * f))


def maxwell_area(mu_star: float, delta: float, e_c: float,
                 kappa: float) -> float:
    """Signed area integral(mu(n) - mu*) dn between the outer roots at mu*.

    mu(n) = e_c n + sqrt(max(g, 0)) is the upper branch of the S-curve.
    The linear part is exact; the root part is ``_root_area``, within 1e-15
    absolute of a 40-digit quadrature.

    Raises
    ------
    NoBistableWindowError
        If mu* does not have three roots.
    """
    r = solve_roots(mu_star, delta, e_c, kappa)
    if r.count < 3:
        raise NoBistableWindowError(f"root count collapsed at mu={mu_star}")
    n1, n3 = r.roots[0], r.roots[2]
    return ((n3 - n1) * (0.5 * e_c * (n1 + n3) - mu_star)
            + _root_area(n1, n3, delta, kappa))


def maxwell_transition(delta: float, e_c: float, kappa: float,
                       tol: float = 1e-8) -> float:
    """Equal-area transition point mu* of the mean-field S-curve.

    Bisects on the sign of :func:`maxwell_area` inside the fold window
    until the bracket is narrower than ``tol`` (> 0) or at float
    resolution.  Each bracket end starts 1e-9 inside its fold and doubles
    that step, at most MAX_EDGE_DOUBLINGS times, until it has three roots.
    At e_c < 0 it returns -maxwell_transition(delta, -e_c, kappa), the
    mirror image.

    Raises
    ------
    NoBistableWindowError
        If no three-root window exists for any mu, or a bracket end finds
        none within MAX_EDGE_DOUBLINGS doublings.
    IterationLimitError
        If MAX_BISECTIONS halvings do not finish.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if e_c < 0.0:
        # (mu, e_c) -> (-mu, -e_c) maps the roots' equation onto itself and
        # the lower branch, which carries the folds at e_c < 0, onto the
        # upper one that maxwell_area integrates
        return -maxwell_transition(delta, -e_c, kappa, tol)
    mu_lo, mu_hi = _fold_window(delta, e_c, kappa)

    def interior(edge, step):
        # exactly at a fold the outer roots merge; at kappa = 0 two roots
        # also sit within solve_roots' dedupe just inside the upper fold
        for _ in range(MAX_EDGE_DOUBLINGS + 1):
            mu = edge + step
            try:
                return mu, maxwell_area(mu, delta, e_c, kappa)
            except NoBistableWindowError:
                step *= 2.0
        raise NoBistableWindowError(f"no three roots next to the fold at "
                                    f"mu={edge!r}")

    eps = 1e-9 * max(1.0, abs(mu_hi - mu_lo))
    a, fa = interior(mu_lo, eps)
    b, fb = interior(mu_hi, -eps)
    if fa * fb > 0:
        raise NoBistableWindowError("equal-area condition has no sign change")
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        if b - a <= tol or mid in (a, b):
            return mid
        fm = maxwell_area(mid, delta, e_c, kappa)
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    raise IterationLimitError(
        f"maxwell_transition: bracket [{a!r}, {b!r}] still wider than "
        f"tol={tol!r} after {MAX_BISECTIONS} halvings"
    )


def nk_steady(k, nbar: float, mu: float, delta: float, e_c: float,
              kappa: float):
    """Per-mode steady occupation under the mean-field Hamiltonian.

    n_k = 2 delta^2 sin^2 k / [(mu - e_c nbar)^2 + kappa^2/4
                               + 4 delta^2 sin^2 k].
    """
    s2 = np.sin(k) ** 2
    num = 2.0 * delta**2 * s2
    den = (mu - e_c * nbar) ** 2 + 0.25 * kappa**2 + 4.0 * delta**2 * s2
    return num / den


def free_finite_L_density(L: int, mu: float, delta: float,
                          kappa: float) -> float:
    """Exact noninteracting density of an L-site ring (momentum sum).

    The pre-limit form of the self-consistency right-hand side with
    e_c = 0: an average of the per-mode occupations over k = 2 pi j / L.
    Serves as the independent oracle for the closed-form density.
    """
    k = 2.0 * np.pi * np.arange(L) / L
    return float(np.mean(nk_steady(k, 0.0, mu, delta, 0.0, kappa)))
