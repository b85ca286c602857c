"""Model parameters, their validation, and the pairing matrix.

Steady-state coefficients at chain lengths ~1e5 involve products of tens of
thousands of complex factors whose magnitudes span thousands of orders of
magnitude; they are carried as (log-magnitude, phase) arrays by
:mod:`cqa_fermi.kernels`.
"""

from __future__ import annotations

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


def validate_params(p: ModelParams) -> ModelParams:
    """Check parameter invariants and return the (immutable) params.

    Raises
    ------
    BadLengthError
        If L < 2.
    NonPositiveKappaError
        If kappa <= 0, or kappa/2 rounds to 0 (kappa = 5e-324), which
        leaves the coefficients no loss to regularize their resonances.
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
    if 0.5 * p.kappa <= 0:  # false for nan, which is rejected below
        raise NonPositiveKappaError(f"kappa must be > 0 with kappa/2 > 0, "
                                    f"got {p.kappa}")
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
class PairingMatrix:
    """Antisymmetric pairing matrix, held read-only."""

    entries: np.ndarray

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "PairingMatrix":
        # a copy, so that the caller's array stays writable
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("pairing matrix must be square")
        if not np.array_equal(entries.T, -entries):
            raise ValueError("pairing matrix must be exactly antisymmetric")
        entries.setflags(write=False)
        return cls(entries=entries)


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
