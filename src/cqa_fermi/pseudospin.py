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
e_c = 0 and drift apart for e_c != 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import fock, kernels
from .core import ModelParams, validate_params
from .errors import InvalidStateError, StepTooLargeError

FERMION = "fermion"
SPIN = "spin"

BLOCH_TOL = 1e-9


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
    time: float = 0.0

    def __post_init__(self):
        if self.kind not in (FERMION, SPIN):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (self.k.shape == self.s_minus.shape == self.s_z.shape):
            raise ValueError("k, s_minus, s_z must have matching shapes")

    @property
    def n_sites(self) -> int:
        return 2 * self.k.size

    @property
    def nbar(self) -> float:
        """Mean density (M + 1)/2 implied by the magnetization."""
        return 0.5 * (float(np.mean(self.s_z)) + 1.0)

    @property
    def mbar(self) -> float:
        return float(np.mean(self.s_z))

    def bloch_violation(self) -> float:
        """max over k of 4|s^-|^2 + (s^z)^2 - 1 (<= 0 inside the ball)."""
        return float(np.max(4.0 * np.abs(self.s_minus) ** 2 + self.s_z**2) - 1.0)


def vacuum_state(L: int, kind: str = FERMION) -> MomentState:
    k = momentum_grid(L)
    return MomentState(kind=kind, k=k,
                       s_minus=np.zeros(k.size, dtype=complex),
                       s_z=-np.ones(k.size))


def fermion_moment_rhs(state: MomentState, mu: float, delta: float,
                       e_c: float, kappa: float, nbar: float | None = None,
                       finite_size: bool = True):
    """Time derivatives (ds_minus, ds_z) of the fermion moment closure.

    ``nbar`` defaults to the self-consistent value recomputed from the
    state.  ``finite_size`` keeps the e_c/L terms of the finite-ring
    closure; dropping them gives the thermodynamic-limit equations, which
    are identical to the spin closure.
    """
    fs = 1.0 if finite_size else 0.0
    return kernels.moment_rhs(state.s_minus, state.s_z,
                              delta * np.sin(state.k), mu, e_c, kappa,
                              float(state.n_sites), fs, nbar)


def spin_moment_rhs(state: MomentState, mu: float, delta: float, e_c: float,
                    kappa: float, mbar: float | None = None):
    """Time derivatives under spin loss plus quarter-strength dephasing.

    The transverse component decays at kappa/2 from the loss and kappa/2
    from the dephasing; the longitudinal one at kappa entirely from loss.
    """
    if mbar is None:
        mbar = state.mbar
    dk = delta * np.sin(state.k)
    coef = 2j * mu - 1j * e_c * (mbar + 1.0) - kappa
    ds_minus = coef * state.s_minus + 2j * dk * state.s_z
    ds_z = -kappa * (state.s_z + 1.0) - 8.0 * dk * state.s_minus.imag
    return ds_minus, ds_z


@dataclass(frozen=True)
class MomentTrajectory:
    kind: str
    k: np.ndarray
    times: np.ndarray
    s_minus: np.ndarray   # shape (n_times, n_pairs)
    s_z: np.ndarray

    def final_state(self) -> MomentState:
        return MomentState(kind=self.kind, k=self.k,
                           s_minus=self.s_minus[-1].copy(),
                           s_z=self.s_z[-1].copy(),
                           time=float(self.times[-1]))

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
                      t_final: float, dt: float, n_samples: int = 501,
                      finite_size: bool = True):
    """Fixed-step RK4 trajectories of the moment closure.

    ``initial`` is one :class:`MomentState`, or a sequence of them that
    share the chain length; ``params`` is one :class:`ModelParams` for all
    of them or one per state.  The batch is integrated in one kernel call
    and a tuple of trajectories is returned; a single state gives a single
    trajectory.  Fixed stepping keeps the fermion/spin comparison curves
    bitwise reproducible across runs, and a batch gives each trajectory
    the same bits as integrating it alone.  ``dt`` must not exceed the
    accuracy cap 0.01 / max(kappa, |mu|, 4 delta, |e_c|) of any trajectory.
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
        np.array([1.0 if (finite_size and st.kind == FERMION) else 0.0
                  for st in states]),
        dt, n_steps, stride,
    )
    steps = dt * stride * np.arange(rec_z.shape[1])
    trajs = []
    for i, (st, s_minus, s_z) in enumerate(zip(states, rec_minus, rec_z)):
        traj = MomentTrajectory(kind=st.kind, k=st.k, times=st.time + steps,
                                s_minus=s_minus, s_z=s_z)
        violation = traj.final_state().bloch_violation()
        if violation > BLOCH_TOL:
            raise InvalidStateError(
                f"trajectory {i} left the Bloch ball by {violation:.2e}"
            )
        trajs.append(traj)
    return trajs[0] if single else tuple(trajs)


@dataclass(frozen=True)
class BreakdownReport:
    """Single-pair response of the two interaction Hamiltonians to loss.

    ``ratio`` is dh_fermion / dh_spin, exactly 3/2 whenever it is defined;
    ``degenerate`` flags the p = 0 case where both changes vanish.
    """

    p: float
    beta_coh: complex
    dh_fermion: float
    dh_spin: float
    ratio: float
    degenerate: bool


def interaction_breakdown(p: float, beta_coh: complex, e_c: float,
                          kappa: float) -> BreakdownReport:
    """Exact one-generator-action comparison for a single momentum pair.

    Builds the two-mode fermion density matrix with pair population p and
    coherence beta, applies the loss generator once, and compares the
    change of the charging energy against the mapped spin Hamiltonian under
    loss plus quarter dephasing.  The fermion energy drops 3/2 times faster:
    breaking a pair leaves single fermions the spin model cannot represent.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"population p={p} outside [0, 1]")
    if abs(beta_coh) > math.sqrt(p * (1.0 - p)) + 1e-15:
        raise InvalidStateError("coherence exceeds sqrt(p(1-p))")
    # fermion side: modes (k, -k) as a 2-mode Fock space
    ops = fock.build_operators(2)
    c1, c2 = ops[0].matrix.toarray(), ops[1].matrix.toarray()
    n1, n2 = c1.conj().T @ c1, c2.conj().T @ c2
    h_fermi = (e_c / 4.0) * (n1 + n2 + 2.0 * n1 @ n2)
    vac = np.zeros(4, dtype=complex)
    vac[0] = 1.0
    pair = (c1.conj().T @ c2.conj().T) @ vac
    rho = ((1.0 - p) * np.outer(vac, vac.conj())
           + p * np.outer(pair, pair.conj())
           + beta_coh * np.outer(pair, vac.conj())
           + np.conj(beta_coh) * np.outer(vac, pair.conj()))
    drho = -1j * (h_fermi @ rho - rho @ h_fermi)
    for c in (c1, c2):
        cd = c.conj().T
        drho += kappa * (c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c))
    dh_fermi = float(np.trace(h_fermi @ drho).real)
    # spin side: 2x2 with |up> = pair present
    sz = np.diag([1.0, -1.0]).astype(complex)
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h_spin = (e_c / 2.0) * (sz + np.eye(2))
    rho_s = np.array([[p, beta_coh], [np.conj(beta_coh), 1.0 - p]],
                     dtype=complex)
    drho_s = -1j * (h_spin @ rho_s - rho_s @ h_spin)
    drho_s += kappa * (sm @ rho_s @ sm.conj().T
                       - 0.5 * (sm.conj().T @ sm @ rho_s
                                + rho_s @ sm.conj().T @ sm))
    drho_s += 0.25 * kappa * (sz @ rho_s @ sz - rho_s)
    dh_spin = float(np.trace(h_spin @ drho_s).real)
    degenerate = p == 0.0
    ratio = float("nan") if degenerate else dh_fermi / dh_spin
    return BreakdownReport(p=p, beta_coh=beta_coh, dh_fermion=dh_fermi,
                           dh_spin=dh_spin, ratio=ratio,
                           degenerate=degenerate)
