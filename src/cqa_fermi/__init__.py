"""Exact steady states of a lossy p-wave pairing chain with charging energy.

Modules
-------
core          parameters, validation, pairing matrix
combinatorics exact dimer-covering counts (three routes)
steadystate   coefficient tables and closed-form observables
thermo        effective free energy, wells, first-order boundary
meanfield     self-consistency, bistability, equal-area construction
pseudospin    momentum-pair moment dynamics and the spin mapping
fock          brute-force Lindblad exact-diagonalization oracle
cli           reproducible data-file front end (``cqa-fermi``)
kernels       numpy hot loops: log-domain tables and sums, RK4
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    OBC,
    PBC,
    ModelParams,
    PairingMatrix,
    nearest_neighbor_pairing,
    validate_params,
)
