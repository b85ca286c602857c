"""Pseudospin moment dynamics and the fermion/spin dissipation map.

Each momentum pair (k, -k) of an even ring carries one pseudospin:
s^-(k) = <c_{-k} c_k> and s^z(k) = <n_k> + <n_{-k}> - 1.  Under loss the
fermion moments obey (per pair, with drive d_k = delta sin k)

    ds^-/dt = [2i(mu - e_c nbar) - kappa] s^- + 2i d_k s^z   (+ 1/L terms)
    ds^z/dt = -kappa (s^z + 1) + 4i d_k (s^- - conj(s^-))

and the spin model with loss plus quarter-strength dephasing obeys exactly
the same equations without the 1/L terms.  The variables are taken in the
gauge where the drive is real: the lattice Fourier pair operator carries
one extra factor of i relative to s^-.  The finite-size terms

    -i (e_c / L) s^- (s^z + 2)  and the -e_c/(2L) frequency shift

are what remains of the pair-breaking sensitivity of the charging energy at
finite L; with them the fermion and spin closures coincide identically at
e_c = 0 and drift apart for e_c != 0.  Both closures are the one
right-hand side ``kernels.moment_rhs``: its flag fs = 1 keeps the 1/L terms
(a FERMION state) and fs = 0 drops them (a SPIN state).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import ModelParams, validate_params
from .errors import InvalidStateError, StepTooLargeError, TooLargeError

FERMION = "fermion"
SPIN = "spin"

BLOCH_TOL = 1e-9
# most RK4 steps one integration may take: 16x the 62,500 of the longest
# documented run (t_final = 500 at dt = 0.008)
MAX_STEPS = 10**6


def momentum_grid(L: int) -> np.ndarray:
    """k = 2 pi j / L for 0 <= k < pi; the first entry is the undriven pair.

    The k = 0 and k = pi modes of an even ring form the undriven spin: both
    have vanishing drive, so that pair only decays.
    """
    if L % 2:
        raise ValueError("momentum pairing requires even L")
    return 2.0 * np.pi * np.arange(L // 2) / L


@dataclass(frozen=True)
class MomentState:
    """First moments of all momentum-pair pseudospins at one time."""

    kind: str
    k: np.ndarray
    s_minus: np.ndarray
    s_z: np.ndarray

    def __post_init__(self):
        if self.kind not in (FERMION, SPIN):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (self.k.shape == self.s_minus.shape == self.s_z.shape):
            raise ValueError("k, s_minus, s_z must have matching shapes")

    @property
    def n_sites(self) -> int:
        return 2 * self.k.size


def vacuum_state(L: int, kind: str = FERMION) -> MomentState:
    k = momentum_grid(L)
    return MomentState(kind=kind, k=k,
                       s_minus=np.zeros(k.size, dtype=complex),
                       s_z=-np.ones(k.size))


@dataclass(frozen=True)
class MomentTrajectory:
    kind: str
    k: np.ndarray
    times: np.ndarray
    s_minus: np.ndarray   # shape (n_times, n_pairs)
    s_z: np.ndarray

    @property
    def nbar(self) -> np.ndarray:
        return 0.5 * (self.s_z.mean(axis=1) + 1.0)


def step_cap(params: ModelParams) -> float:
    """Accuracy heuristic for the fixed RK4 step: 0.01 / fastest rate.

    It sits far below RK4's stability limit, so it bounds the step error,
    not stability.
    """
    return 0.01 / max(params.kappa, abs(params.mu), 4.0 * params.delta,
                      abs(params.e_c))


def integrate_moments(initial: MomentState | Sequence[MomentState],
                      params: ModelParams | Sequence[ModelParams],
                      t_final: float, dt: float, n_samples: int = 501):
    """Fixed-step RK4 trajectories of the moment closure.

    ``initial`` is one :class:`MomentState`, or a sequence of them that
    share the chain length; ``params`` is one :class:`ModelParams` for all
    of them or one per state.  The batch is integrated in one kernel call
    and a tuple of trajectories is returned; a single state gives a single
    trajectory.  Every trajectory starts at t = 0; a FERMION state keeps
    the e_c/L terms of the finite ring and a SPIN state has none.  Fixed
    stepping keeps the fermion/spin comparison curves bitwise reproducible
    across runs, and a batch gives each trajectory the same bits as
    integrating it alone.  ``dt`` must not exceed the accuracy cap
    0.01 / max(kappa, |mu|, 4 delta, |e_c|) of any trajectory, and
    ceil(t_final / dt) must not exceed MAX_STEPS (else TooLargeError).
    The last record of each trajectory must lie inside the Bloch ball to
    BLOCH_TOL (else InvalidStateError).
    """
    single = isinstance(initial, MomentState)
    states = (initial,) if single else tuple(initial)
    plist = ((params,) * len(states) if isinstance(params, ModelParams)
             else tuple(params))
    if not states or len(plist) != len(states):
        raise ValueError(f"{len(states)} states need one params or "
                         f"{len(states)}, got {len(plist)}")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if t_final / dt > MAX_STEPS:
        raise TooLargeError(f"t_final/dt = {t_final / dt:.3g} RK4 steps "
                            f"exceed MAX_STEPS = {MAX_STEPS}")
    plist = tuple(validate_params(p) for p in plist)
    L = plist[0].L
    for st, p in zip(states, plist):
        if p.L != L:
            raise ValueError(f"a batch shares one chain length, got "
                             f"{L} and {p.L}")
        if st.n_sites != L:
            raise ValueError(f"state has {st.n_sites} sites, params {L}")
        cap = step_cap(p)
        if dt > cap:
            raise StepTooLargeError(f"dt={dt:g} exceeds the accuracy cap "
                                    f"{cap:g}")
    n_steps = max(1, math.ceil(t_final / dt))
    stride = max(1, n_steps // (n_samples - 1))
    rec_minus, rec_z = kernels.rk4_moments(
        np.concatenate([st.s_minus for st in states]),
        np.concatenate([st.s_z for st in states]),
        np.concatenate([p.delta * np.sin(st.k)
                        for st, p in zip(states, plist)]),
        np.array([p.mu for p in plist]), np.array([p.e_c for p in plist]),
        np.array([p.kappa for p in plist]),
        float(L),
        np.array([1.0 if st.kind == FERMION else 0.0 for st in states]),
        dt, n_steps, stride,
    )
    times = dt * stride * np.arange(rec_z.shape[1])
    trajs = []
    for i, (st, s_minus, s_z) in enumerate(zip(states, rec_minus, rec_z)):
        # max over k of 4|s^-|^2 + (s^z)^2 - 1 at the last record (<= 0
        # inside the ball)
        violation = float(np.max(4.0 * np.abs(s_minus[-1]) ** 2
                                 + s_z[-1] ** 2) - 1.0)
        if violation > BLOCH_TOL:
            raise InvalidStateError(
                f"trajectory {i} left the Bloch ball by {violation:.2e}"
            )
        trajs.append(MomentTrajectory(kind=st.kind, k=st.k, times=times,
                                      s_minus=s_minus, s_z=s_z))
    return trajs[0] if single else tuple(trajs)


@dataclass(frozen=True)
class BreakdownReport:
    """Single-pair response of the two interaction Hamiltonians to loss.

    ``ratio`` is dh_fermion / dh_spin, exactly 3/2 whenever it is defined;
    ``degenerate`` flags the p = 0 case where both changes vanish.
    """

    dh_fermion: float
    dh_spin: float
    ratio: float
    degenerate: bool


def interaction_breakdown(p: float, beta_coh: complex, e_c: float,
                          kappa: float) -> BreakdownReport:
    """Exact one-generator-action comparison for a single momentum pair.

    The fermion side is the (k, -k) Fock space with the fock charging
    Hamiltonian (e_c/4)(n_1 + n_2)^2 under loss; the spin side is one mode
    occupied when the pair is present (sigma^- its annihilator, h = e_c n)
    under loss plus quarter dephasing by the parity operator -sigma^z.  Both
    states have pair population p and coherence beta, and both energy
    changes Tr(h L rho) use ``fock.build_liouvillian``.  The fermion energy
    drops 3/2 times faster: breaking a pair leaves single fermions the spin
    model cannot represent.
    """
    from . import fock

    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"population p={p} outside [0, 1]")
    if abs(beta_coh) > math.sqrt(p * (1.0 - p)) + 1e-15:
        raise InvalidStateError("coherence exceeds sqrt(p(1-p))")

    def energy_change(h, jumps, rates, empty, full):
        rho = ((1.0 - p) * np.outer(empty, empty.conj())
               + p * np.outer(full, full.conj())
               + beta_coh * np.outer(full, empty.conj())
               + np.conj(beta_coh) * np.outer(empty, full.conj()))
        liouv = fock.build_liouvillian(h, jumps, rates)
        drho = fock.unvec(liouv.matrix @ fock.vec(rho))
        return float(np.trace(h @ drho).real)

    ops = fock.build_operators(2)
    vac = np.eye(4, dtype=complex)[0]
    dh_fermi = energy_change(
        fock.build_hamiltonian(np.zeros((2, 2)), 0.0, e_c, ops), ops, kappa,
        vac, fock.dag(ops[0]) @ (fock.dag(ops[1]) @ vac))
    (sm,) = fock.build_operators(1)
    dh_spin = energy_change(
        e_c * fock.number_operators([sm])[0], [sm, fock.parity_operator(1)],
        [kappa, 0.25 * kappa], *np.eye(2, dtype=complex))
    degenerate = p == 0.0
    ratio = float("nan") if degenerate else dh_fermi / dh_spin
    return BreakdownReport(dh_fermion=dh_fermi, dh_spin=dh_spin, ratio=ratio,
                           degenerate=degenerate)
