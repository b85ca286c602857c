"""Exact steady-state coefficients and closed-form observables.

The pure absorber-doubled steady state is a power series in the delocalized
nearest-neighbor pair creation operator; its coefficients obey the one-term
recurrence a_n = delta / (mu~ - n e_c / L) * a_{n-1} with a_0 = 1.  All
sums over n are accumulated in log-domain with a single max-shift so that
chains up to ~1e5 sites stay inside floating-point range.

All observables returned here are dark-subspace values.  Physical-chain
expectation values of quadratic correlators carry one extra factor 1/2,
applied by :func:`dark_to_physical`; the mean density is the exception and
is returned as the physical per-site value directly (see its docstring).

Points of a (mu, delta) grid share most of their work: the dimer counts
depend only on the chain, and since a_n = delta^n a_n(delta = 1) the
coefficient logs and phases depend only on mu.  :func:`grid_observables`
builds each table once and refills two buffers per delta;
:func:`build_coefficients` is its single-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from . import combinatorics, kernels
from .core import OBC, PBC, ModelParams, validate_params
from .errors import BoundaryUnsupportedError

NEG_INF = float("-inf")


def max_pairs(L: int, bc: str) -> int:
    """Largest pair number appearing in the steady state.

    Open chains fit floor(L/2) pairs.  On even rings the half-filled
    component cancels between its two tilings, so the series stops one pair
    earlier; odd rings fit (L-1)/2.
    """
    if bc == OBC:
        return L // 2
    return L // 2 - 1 if L % 2 == 0 else (L - 1) // 2


@dataclass(frozen=True)
class CoefficientTable:
    """Log-domain coefficients and pair-number distribution of the state.

    ``alpha_log_mag``/``alpha_phase`` hold ln|a_n| and arg(a_n) for
    n = 0..chain.n_max, ``log_norm`` is ln(sum_n |a_n|^2 N(L, n)) with the
    dimer counts ln N(L, n) of ``chain.log_counts``, and ``p`` the
    normalized probabilities |b_n|^2.  ``chain`` and ``row`` are the tables
    the coefficients were built from; the correlation sums reuse them.
    """

    params: ModelParams
    alpha_log_mag: np.ndarray
    alpha_phase: np.ndarray
    log_norm: float
    p: np.ndarray
    chain: ChainTables = field(repr=False)
    row: MuRow = field(repr=False)


def build_coefficients(params: ModelParams) -> CoefficientTable:
    """Coefficient table for the validated parameter set."""
    p = validate_params(params)
    chain = chain_tables(p.L, p.bc)
    size = chain.n_max + 1
    tbl = _point_table(p, chain, mu_row(chain, p.mu, p.kappa, p.e_c),
                       np.empty(size), np.empty(size))
    for arr in (tbl.alpha_log_mag, tbl.alpha_phase, tbl.p):
        arr.setflags(write=False)
    return tbl


@dataclass(frozen=True)
class ChainTables:
    """Tables that depend only on the chain (L, bc).

    ``n`` holds the pair numbers 0..n_max as floats and ``log_counts`` the
    matching ln N(L, n); ``sums`` keeps the count tables of the correlation
    sums once they are built (:func:`_correlation_sums`).
    """

    L: int
    n_max: int
    n: np.ndarray
    log_counts: np.ndarray
    sums: dict = field(default_factory=dict, repr=False)


def chain_tables(L: int, bc: str) -> ChainTables:
    n_max = max_pairs(L, bc)
    n = np.arange(n_max + 1, dtype=float)
    log_counts = combinatorics.log_counts(L, bc, n_max)
    for arr in (n, log_counts):
        arr.setflags(write=False)
    return ChainTables(L, n_max, n, log_counts)


@dataclass(frozen=True)
class MuRow:
    """Coefficient logs of one mu, shared by every delta.

    ln|a_n| = n ln(delta) + ``log_mag`` (the delta = 1 table), and the
    wrapped phase arg(a_n) does not depend on delta at all.
    """

    log_mag: np.ndarray
    phase: np.ndarray

    @cached_property
    def step(self) -> np.ndarray:
        """Phase factors exp(i(arg a_{n-1} - arg a_n)) for n = 1..n_max."""
        return np.exp(1j * (self.phase[:-1] - self.phase[1:]))


def mu_row(chain: ChainTables, mu: float, kappa: float, e_c: float) -> MuRow:
    log_mag, phase = kernels.coefficient_logs(
        0.0, mu, kappa, e_c, float(chain.L), chain.n_max
    )
    phase = _wrap_array(phase)
    for arr in (log_mag, phase):
        arr.setflags(write=False)
    return MuRow(log_mag, phase)


def _wrap_array(phase: np.ndarray) -> np.ndarray:
    w = np.mod(phase, 2.0 * np.pi)
    w[w > np.pi] -= 2.0 * np.pi
    return w


def _point_table(p: ModelParams, chain: ChainTables, row: MuRow,
                 log_mag: np.ndarray, pn: np.ndarray) -> CoefficientTable:
    """Table of one delta, written into the buffers ``log_mag`` and ``pn``."""
    if p.delta > 0:
        np.multiply(chain.n, math.log(p.delta), out=log_mag)
        log_mag += row.log_mag
        phase = row.phase
    else:
        # vacuum: a_0 = 1, every higher coefficient is exactly zero, so
        # every correlation sum returns zero before using a phase factor
        log_mag.fill(NEG_INF)
        log_mag[0] = 0.0
        phase = np.zeros(chain.n_max + 1)
    weights = np.multiply(log_mag, 2.0, out=pn)
    weights += chain.log_counts
    log_norm = float(kernels.logsumexp_real(weights))
    weights -= log_norm
    kernels.exp_span(weights, pn)
    return CoefficientTable(
        params=p,
        alpha_log_mag=log_mag,
        alpha_phase=phase,
        log_norm=log_norm,
        p=pn,
        chain=chain,
        row=row,
    )


def grid_observables(L: int, bc: str, mus, deltas, e_c: float,
                     kappa: float) -> list[tuple]:
    """Steady-state rows over the (mu, delta) grid, mu-major.

    Each row is (mu, delta, density) and, where :func:`has_correlations`,
    also the physical |<c_j^dag c_{j+1}^dag>| and |<c_j^dag c_{j+2}>|.
    Chain tables are built once and coefficient logs once per mu; each
    delta refills two buffers that its table views.  The values equal those
    of :func:`build_coefficients` and the per-point observables bit for bit.
    """
    deltas = np.asarray(deltas, dtype=float)
    # min and max propagate nan and hold any infinity, so the two corners
    # validate every grid value
    for pick in (np.min, np.max):
        validate_params(ModelParams(L=L, bc=bc, mu=float(pick(mus)),
                                    delta=float(pick(deltas)), e_c=e_c,
                                    kappa=kappa))
    chain = chain_tables(L, bc)
    log_mag, pn = np.empty(chain.n_max + 1), np.empty(chain.n_max + 1)
    corr = has_correlations(L, bc)
    rows = []
    for mu in mus:
        row = mu_row(chain, mu, kappa, e_c)
        for delta in deltas:
            p = ModelParams(L=L, bc=bc, mu=mu, delta=delta, e_c=e_c,
                            kappa=kappa)
            tbl = _point_table(p, chain, row, log_mag, pn)
            out = (mu, delta, mean_density(tbl))
            if corr:
                out += (
                    abs(dark_to_physical(anomalous_correlation(tbl, 1))),
                    abs(dark_to_physical(normal_correlation(tbl, 1))),
                )
            rows.append(out)
        del row, tbl  # free this mu's tables before the next are built
    return rows


def recurrence_residual(tbl: CoefficientTable) -> float:
    """max_n |a_n (mu~ - n e_c/L) - delta a_{n-1}| / |a_n| over n >= 1."""
    p = tbl.params
    n_max = tbl.chain.n_max
    if n_max < 1 or p.delta == 0:
        return 0.0
    n = np.arange(1, n_max + 1)
    factor = (p.mu - (p.e_c / p.L) * n) + 0.5j * p.kappa
    # ratio a_n / a_{n-1} computed in log domain, then compared to
    # delta / factor with the common magnitude scaled out
    ratio = np.exp(
        tbl.alpha_log_mag[1:] - tbl.alpha_log_mag[:-1]
        + 1j * (tbl.alpha_phase[1:] - tbl.alpha_phase[:-1])
    )
    return float(np.max(np.abs(ratio * factor - p.delta) / np.abs(ratio * factor)))


def mean_density(tbl: CoefficientTable) -> float:
    """Physical per-site density (1/L) sum_n n p_n, in [0, 1/2).

    The dark-subspace total number is sum_n 2n p_n over 2L modes and the
    physical occupation is half the dark one, so the physical per-site
    density reduces to the same expression.
    """
    return float(np.dot(tbl.chain.n, tbl.p)) / tbl.params.L


def number_moment(tbl: CoefficientTable, m: int) -> float:
    """m-th moment of the dark-subspace total number operator."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    n = np.arange(tbl.chain.n_max + 1, dtype=float)
    return float(np.dot((2.0 * n) ** m, tbl.p))


def pair_expectation(tbl: CoefficientTable, m: int) -> complex:
    """Normalized expectation of the m-th power of the pair-raising operator.

    <(B^dag)^m> = sum_{n>=m} n!/(n-m)! conj(a_n) a_{n-m} N(L, n) / norm.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    n_max = tbl.chain.n_max
    if m > n_max:
        return 0j
    n = np.arange(m, n_max + 1, dtype=float)
    log_mag = (
        gammaln(n + 1.0)
        - gammaln(n - m + 1.0)
        + tbl.alpha_log_mag[m:]
        + tbl.alpha_log_mag[: n_max - m + 1]
        + tbl.chain.log_counts[m:]
        - tbl.log_norm
    )
    phase = tbl.alpha_phase[: n_max - m + 1] - tbl.alpha_phase[m:]
    lm, ph = kernels.logsumexp_complex(log_mag, np.exp(1j * phase))
    return _to_complex(lm, ph)


def _to_complex(log_mag: float, phase: float) -> complex:
    if log_mag == NEG_INF:
        return 0j
    return complex(math.exp(log_mag) * math.cos(phase),
                   math.exp(log_mag) * math.sin(phase))


def has_correlations(L: int, bc: str) -> bool:
    """Closed-form correlations exist only on even-length periodic chains."""
    return bc == PBC and L % 2 == 0


def _require_even_pbc(tbl: CoefficientTable) -> None:
    if not has_correlations(tbl.params.L, tbl.params.bc):
        raise BoundaryUnsupportedError(
            "closed-form correlations require an even-length periodic chain"
        )


def anomalous_correlation(tbl: CoefficientTable, m: int) -> complex:
    """Dark-subspace <c_1^dag c_{2m}^dag> on an even ring, 1 <= m <= L/2.

    Two count-weighted sums over adjacent-coefficient products; the
    second sum collects the strings that wrap around the ring and enters
    with a minus sign.  Translation invariance extends the result to
    <c_j^dag c_{j+2m-1}^dag> for every j; same-sublattice correlations
    vanish identically and are not exposed.
    """
    _require_even_pbc(tbl)
    half = tbl.params.L // 2
    if not 1 <= m <= half:
        raise ValueError(f"m={m} outside 1..{half}")
    sums = _correlation_sums(tbl.chain, "anomalous", m)
    s1, s2 = (_corr_sum(tbl, c) for c in sums)
    return s1 - s2


def normal_correlation(tbl: CoefficientTable, m: int) -> float:
    """Dark-subspace <c_1^dag c_{2m+1}> on an even ring, 0 <= m <= L/2.

    Real-valued; m = 0 (and m = L/2, which wraps to the same site) returns
    the dark occupation <n_1>.  Sums with inconsistent bounds are zero.
    """
    _require_even_pbc(tbl)
    half = tbl.params.L // 2
    if not 0 <= m <= half:
        raise ValueError(f"m={m} outside 0..{half}")
    delta_term = 1.0 if m % half == 0 else 0.0
    sums = _correlation_sums(tbl.chain, "normal", m)
    s1, s2 = (_normal_sum(tbl, c) for c in sums)
    return delta_term - s1 - s2


def _correlation_sums(chain: ChainTables, kind: str, m: int):
    """Weights of the two sums of a correlation, built once per chain.

    Every binomial weight of the closed forms is an open-chain dimer count
    C(sites - k, k) = N_obc(sites, k) with k = n - n_lo, so each sum is
    (n_lo, ln N_obc(sites, k) for k = 0..n_max - n_lo), or None when its
    bounds are inconsistent.
    """
    key = (kind, m)
    if key not in chain.sums:
        half = chain.L // 2
        if kind == "anomalous":
            bounds = ((m, chain.L - 2 * m), (half - m + 1, 2 * m - 2))
        else:
            bounds = ((m, chain.L - 2 * m - 1), (half - m, 2 * m - 1))
        chain.sums[key] = tuple(
            (n_lo, combinatorics.log_counts(sites, OBC, chain.n_max - n_lo))
            if n_lo <= chain.n_max else None
            for n_lo, sites in bounds
        )
    return chain.sums[key]


def _corr_sum(tbl: CoefficientTable, counts) -> complex:
    """sum_{n=n_lo}^{n_max} conj(a_n) a_{n-1} N_obc(sites, n - n_lo) / norm."""
    if counts is None:
        return 0j
    n_lo, log_count = counts
    alm = tbl.alpha_log_mag
    log_mag = alm[n_lo:] + alm[n_lo - 1 : -1]
    log_mag += log_count
    log_mag -= tbl.log_norm
    lm, ph = kernels.logsumexp_complex(log_mag, tbl.row.step[n_lo - 1 :])
    return _to_complex(lm, ph)


def _normal_sum(tbl: CoefficientTable, counts) -> float:
    """sum_{n=n_lo}^{n_max} |a_n|^2 N_obc(sites, n - n_lo) / norm."""
    if counts is None:
        return 0.0
    n_lo, log_count = counts
    log_vals = 2.0 * tbl.alpha_log_mag[n_lo:]
    log_vals += log_count
    log_vals -= tbl.log_norm
    lv = kernels.logsumexp_real(log_vals)
    return 0.0 if lv == NEG_INF else math.exp(lv)


def dark_to_physical(value):
    """Physical-chain value of a dark-subspace quadratic correlator.

    Every quadratic physical correlator equals half its dark-subspace
    counterpart because the state carries no bright excitations; this is
    the single place that factor is applied.
    """
    return 0.5 * value
