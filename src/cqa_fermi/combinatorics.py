"""Exact dimer-covering counts on open and periodic chains.

Three independent evaluation routes are provided for cross-validation: the
closed-form binomials, a generating-function sum, and brute-force
enumeration.  Counts are plain exact ints (``math.log`` takes them
directly); the log-domain ``log_counts`` backs the large-L steady-state
sums where only ln N(L, n) is needed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.special import gammaln

from .core import OBC
from .errors import OutOfRangeError, TooLargeError

ENUMERATION_MAX_SITES = 24


def count_obc(L: int, n: int) -> int:
    """Number of ways to place n non-overlapping dimers on an open L-chain.

    Equals C(L-n, n): a configuration is an arrangement of n dimers and
    L-2n empty sites in a row.
    """
    _check_range(L, n)
    return math.comb(L - n, n)


def count_pbc(L: int, n: int) -> int:
    """Number of ways to place n non-overlapping dimers on an L-ring.

    For n >= 1 this is (L/n) * C(L-n-1, n-1): L positions for a first dimer,
    then n-1 dimers on the remaining open chain of L-2 sites, divided by the
    n choices of "first".  n = 0 counts the empty placement.
    """
    _check_range(L, n)
    if n == 0:
        return 1
    num = L * math.comb(L - n - 1, n - 1)
    q, r = divmod(num, n)
    if r:  # pragma: no cover - the closed form is always divisible
        raise ArithmeticError(f"ring count not integral for L={L}, n={n}")
    return q


def count_genfunc(L: int, n: int) -> int:
    """Open-chain dimer count via the transfer/generating-function route.

    Evaluates 2^(2n-L) * sum_k C(L+1, 2k+1) * C(k, k-n) exactly in integer
    arithmetic; must agree with :func:`count_obc` for every valid (L, n).
    """
    _check_range(L, n)
    total = 0
    for k in range(n, L // 2 + 1):
        total += math.comb(L + 1, 2 * k + 1) * math.comb(k, k - n)
    q, r = divmod(total, 1 << (L - 2 * n))
    if r:  # pragma: no cover - the sum is always divisible by 2^(L-2n)
        raise ArithmeticError(f"generating-function sum not divisible, L={L}, n={n}")
    return q


def enumerate_dimers(L: int, n: int, bc: str = OBC) -> list[tuple[int, ...]]:
    """Explicit list of all n-dimer placements on a chain of L sites.

    Each placement is the sorted tuple of left-endpoint sites (1-based); on a
    ring a dimer at site L covers (L, 1).  Guarded to L <= 24.
    """
    if L > ENUMERATION_MAX_SITES:
        raise TooLargeError(f"enumeration limited to L<={ENUMERATION_MAX_SITES}")
    if n < 0:
        raise OutOfRangeError(f"negative dimer number n={n}")
    if n == 0:
        return [()]
    starts = range(1, L) if bc == OBC else range(1, L + 1)
    placements = []
    for combo in combinations(starts, n):
        covered = set()
        ok = True
        for s in combo:
            t = s % L + 1  # right endpoint, wrapping on the ring
            # t == s only on a one-site ring, which has no bond
            if s in covered or t in covered or t == s:
                ok = False
                break
            covered.add(s)
            covered.add(t)
        if ok:
            placements.append(combo)
    return placements


def log_counts(L: int, bc: str, n_max: int) -> np.ndarray:
    """ln N(L, n) for n = 0 .. n_max as a float array (lgamma-based).

    This is the large-L route: exact big integers are impractical inside the
    normalization sums at L ~ 1e5, where only log-values are needed.
    """
    if n_max > L // 2 or n_max < 0:
        raise OutOfRangeError(f"n_max={n_max} invalid for L={L}")
    n = np.arange(n_max + 1, dtype=float)
    out = np.empty(n_max + 1)
    if bc == OBC:
        out[:] = _log_comb(L - n, n)
    else:
        out[0] = 0.0
        if n_max >= 1:
            nn = n[1:]
            out[1:] = math.log(L) - np.log(nn) + _log_comb(L - nn - 1.0, nn - 1.0)
    return out


def _log_comb(top, bottom):
    return gammaln(top + 1.0) - gammaln(bottom + 1.0) - gammaln(top - bottom + 1.0)


def _check_range(L: int, n: int) -> None:
    if L < 1:
        raise OutOfRangeError(f"invalid chain length L={L}")
    if n < 0 or n > L // 2:
        raise OutOfRangeError(f"n={n} outside 0..{L // 2} for L={L}")
