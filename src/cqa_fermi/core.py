"""Model parameters and log-domain complex arithmetic.

Steady-state coefficients at chain lengths ~1e5 involve products of tens of
thousands of complex factors whose magnitudes span thousands of orders of
magnitude.  All such products and sums are therefore carried as
(log-magnitude, phase) pairs; `LogComplex` is the scalar form and the array
form lives in :mod:`cqa_fermi.kernels`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLengthError,
    NonPositiveKappaError,
    OddPbcLengthWarning,
)

PBC = "pbc"
OBC = "obc"

_TWO_PI = 2.0 * math.pi


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = phi % _TWO_PI
    if w > math.pi:
        w -= _TWO_PI
    return w


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the lossy pairing chain.

    Attributes
    ----------
    L : number of sites (>= 2; even for periodic phase-transition studies)
    bc : boundary condition, ``"pbc"`` or ``"obc"``
    mu : chemical potential
    delta : nearest-neighbor pairing amplitude (>= 0)
    e_c : global charging energy (positive, zero or negative)
    kappa : uniform single-particle loss rate (> 0)
    """

    L: int
    bc: str = PBC
    mu: float = 0.0
    delta: float = 0.0
    e_c: float = 0.0
    kappa: float = 0.0

    @property
    def mu_tilde(self) -> complex:
        """Complex chemical potential mu + i*kappa/2 (always derived)."""
        return complex(self.mu, 0.5 * self.kappa)


def validate_params(p: ModelParams) -> ModelParams:
    """Check parameter invariants and return the (immutable) params.

    Raises
    ------
    BadLengthError
        If L < 2.
    NonPositiveKappaError
        If kappa <= 0.
    ValueError
        For a negative pairing amplitude, an unknown boundary tag, or a
        non-finite mu, delta, e_c or kappa.

    Warns with :class:`OddPbcLengthWarning` for odd periodic chains, which
    are legal but excluded from the closed-form correlation routines.
    """
    if p.bc not in (PBC, OBC):
        raise ValueError(f"unknown boundary condition {p.bc!r}")
    if p.L < 2:
        raise BadLengthError(f"need at least 2 sites, got L={p.L}")
    if p.kappa <= 0:
        raise NonPositiveKappaError(f"kappa must be > 0, got {p.kappa}")
    if p.delta < 0:
        raise ValueError(f"delta must be >= 0, got {p.delta}")
    for name in ("mu", "delta", "e_c", "kappa"):
        if not math.isfinite(getattr(p, name)):
            raise ValueError(f"{name} must be finite, got {getattr(p, name)}")
    if p.bc == PBC and p.L % 2 == 1:
        warnings.warn(
            f"odd periodic chain (L={p.L}): closed-form correlations "
            "are unavailable, only Fock-space evaluation applies",
            OddPbcLengthWarning,
            stacklevel=2,
        )
    return p


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as (natural-log magnitude, phase).

    ``log_mag = -inf`` encodes an exact zero (phase fixed to 0).  The phase
    of a nonzero value is kept in (-pi, pi].
    """

    log_mag: float
    phase: float

    @classmethod
    def one(cls) -> "LogComplex":
        return cls(0.0, 0.0)

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(float("-inf"), 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return cls.zero()
        return cls(math.log(abs(z)), cmath.phase(z))

    def to_complex(self) -> complex:
        """Native complex value; overflows to inf for log_mag >~ 709."""
        if self.is_zero:
            return 0j
        return cmath.rect(math.exp(self.log_mag), self.phase)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == float("-inf")

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(
            self.log_mag + other.log_mag,
            wrap_phase(self.phase + other.phase),
        )

    def conjugate(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mag, wrap_phase(-self.phase))


def log_product(terms) -> LogComplex:
    """Product of LogComplex values; the empty product is unity.

    Exact zeros propagate; no intermediate exponentiation occurs, so the
    result stays finite for products spanning ~1e5 factors.
    """
    log_mag = 0.0
    phase = 0.0
    for t in terms:
        if t.is_zero:
            return LogComplex.zero()
        log_mag += t.log_mag
        phase += t.phase
    return LogComplex(log_mag, wrap_phase(phase))


def log_sum(terms) -> LogComplex:
    """Sum of LogComplex values via the shifted-exponent technique.

    The maximum log-magnitude is factored out before exponentiating, so the
    sum is exact-zero-safe and immune to overflow as long as the *relative*
    spread of the terms is representable.
    """
    terms = list(terms)
    shift = max((t.log_mag for t in terms), default=float("-inf"))
    if shift == float("-inf"):
        return LogComplex.zero()
    acc = 0j
    for t in terms:
        if not t.is_zero:
            acc += cmath.rect(math.exp(t.log_mag - shift), t.phase)
    if acc == 0:
        return LogComplex.zero()
    return LogComplex(shift + math.log(abs(acc)), cmath.phase(acc))


@dataclass(frozen=True)
class PairingMatrix:
    """Antisymmetric pairing matrix with its Frobenius norm.

    ``normalized`` is entries/norm and has unit Frobenius norm; it is the
    all-zero matrix when the pairing vanishes.
    """

    entries: np.ndarray
    norm: float
    normalized: np.ndarray

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "PairingMatrix":
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("pairing matrix must be square")
        if not np.array_equal(entries.T, -entries):
            raise ValueError("pairing matrix must be exactly antisymmetric")
        norm = float(np.linalg.norm(entries))
        normalized = entries / norm if norm > 0 else np.zeros_like(entries)
        entries.setflags(write=False)
        normalized.setflags(write=False)
        return cls(entries=entries, norm=norm, normalized=normalized)


def nearest_neighbor_pairing(L: int, delta: float, bc: str = PBC) -> PairingMatrix:
    """Uniform nearest-neighbor pairing matrix (delta/2 above the diagonal).

    For periodic chains the wraparound entry identifies site L+1 with site 1.
    Antisymmetry is exact to the bit: the lower triangle is the negated
    mirror of the upper one by construction.
    """
    if L < 2:
        raise BadLengthError(f"need at least 2 sites, got L={L}")
    if bc not in (PBC, OBC):
        raise ValueError(f"unknown boundary condition {bc!r}")
    D = np.zeros((L, L), dtype=complex)
    half = 0.5 * delta
    for i in range(L - 1):
        D[i, i + 1] += half
        D[i + 1, i] -= half
    if bc == PBC:
        # c_{L+1} == c_1; for L=2 the wraparound cancels the open-chain bond
        D[L - 1, 0] += half
        D[0, L - 1] -= half
    return PairingMatrix.from_entries(D)
