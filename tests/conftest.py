import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from cqa_fermi import fock, pseudospin as ps, thermo
from cqa_fermi.core import PBC, ModelParams
from cqa_fermi.errors import OddPbcLengthWarning


@pytest.fixture(autouse=True)
def _silence_odd_pbc_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=OddPbcLengthWarning)
        yield


@pytest.fixture(scope="session")
def tfim_trajectories():
    """Fermion and spin moments of the L=10 ring from the vacuum to t=500.

    One batched integration at dt=0.008 returns (fermion, spin) at e_c=0
    followed by (fermion, spin) at e_c=1; mu=0.2, delta=0.3, kappa=0.01.
    """
    free = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=0.0, kappa=0.01)
    inter = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=1.0, kappa=0.01)
    return ps.integrate_moments(
        [ps.vacuum_state(10, kind) for kind in (ps.FERMION, ps.SPIN) * 2],
        [free, free, inter, inter], 500.0, 0.008)


def dark_pair_operator(system: fock.DoubledSystem, bc: str) -> sp.csr_matrix:
    """Delocalized nearest-neighbor pair raiser on the dark modes."""
    dark = system.dark_ops()
    L = system.L
    dim = 1 << (2 * L)
    B = sp.csr_matrix((dim, dim), dtype=complex)
    for j in range(L if bc == PBC else L - 1):
        B = B + fock.dag(dark[j]) @ fock.dag(dark[(j + 1) % L])
    return B


def fock_expectation(psi: np.ndarray, op: sp.spmatrix) -> complex:
    return complex(np.vdot(psi, op @ psi))


def cqa_state_and_system(params: ModelParams):
    system = fock.build_doubled_system(params)
    psi = fock.build_cqa_state(system)
    return psi, system


@functools.cache
def invert_critical_line(delta: float, kappa: float) -> float:
    """mu where the full-mode critical line delta_crit(mu) reaches delta.

    30 halvings of mu in [0.05, 0.49]; cached, so each (delta, kappa) is
    inverted once per pytest run however many tests ask for it.
    """
    lo, hi = 0.05, 0.49
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if thermo.critical_delta(mid, kappa=kappa, mode="full") < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
