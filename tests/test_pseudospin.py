import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cqa_fermi import fock, kernels, meanfield as mf, pseudospin as ps
from cqa_fermi.core import PBC, ModelParams, nearest_neighbor_pairing
from cqa_fermi.errors import (
    InvalidStateError,
    StepTooLargeError,
    TooLargeError,
)

PARAMS_INT = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=1.0, kappa=0.01)


def random_pseudospin_state(L, kind, seed=0):
    rng = np.random.default_rng(seed)
    k = ps.momentum_grid(L)
    s_z = rng.uniform(-1.0, 1.0, k.size)
    r_max = 0.5 * np.sqrt(1.0 - s_z**2)
    r = rng.uniform(0.0, 1.0, k.size) * r_max
    phi = rng.uniform(0.0, 2 * np.pi, k.size)
    return ps.MomentState(kind=kind, k=k, s_minus=r * np.exp(1j * phi), s_z=s_z)


def fermion_rhs(st, mu, delta, e_c, kappa, fs=1.0, nbar=None):
    """The one moment right-hand side, ``kernels.moment_rhs``, of one
    state; fs = 1 keeps the finite-ring 1/L terms, fs = 0 drops them."""
    return kernels.moment_rhs(st.s_minus, st.s_z, delta * np.sin(st.k), mu,
                              e_c, kappa, float(st.n_sites), fs, nbar)


def spin_closure(st, mu, delta, e_c, kappa):
    """Reference: the moment equations of the spin model under loss plus
    quarter-strength dephasing, written out.  The transverse component
    decays at kappa/2 from the loss and kappa/2 from the dephasing, the
    longitudinal one at kappa entirely from loss; the density enters
    through the mean magnetization."""
    mag = float(np.mean(st.s_z))
    dk = delta * np.sin(st.k)
    coef = 2j * mu - 1j * e_c * (mag + 1.0) - kappa
    return (coef * st.s_minus + 2j * dk * st.s_z,
            -kappa * (st.s_z + 1.0) - 8.0 * dk * st.s_minus.imag)


class TestRhs:
    def test_vacuum_fixed_point_without_drive(self):
        st = ps.vacuum_state(8, ps.FERMION)
        for dsm, dsz in (fermion_rhs(st, 0.4, 0.0, 1.0, 0.3),
                         fermion_rhs(st, 0.4, 0.0, 1.0, 0.3, fs=0.0),
                         spin_closure(st, 0.4, 0.0, 1.0, 0.3)):
            assert not dsm.any() and not dsz.any()

    def test_steady_state_reproduces_mode_occupations(self):
        # stationary point of the thermodynamic-limit closure at the
        # closed-form occupations
        L, mu, delta, kappa = 12, 0.2, 0.3, 0.01
        k = ps.momentum_grid(L)
        nk = mf.nk_steady(k, 0.0, mu, delta, 0.0, kappa)
        sm = 2j * delta * np.sin(k) * (1 - 2 * nk) / (2j * mu - kappa)
        st = ps.MomentState(kind=ps.FERMION, k=k, s_minus=sm, s_z=2 * nk - 1)
        dsm, dsz = fermion_rhs(st, mu, delta, 0.0, kappa)
        assert np.abs(dsm).max() < 1e-14
        assert np.abs(dsz).max() < 1e-14

    def test_interacting_steady_state_self_consistent(self):
        # same with e_c = 1: occupations at the self-consistent density are
        # stationary under the L -> infinity closure
        L, mu, delta, e_c, kappa = 12, 0.2, 0.05, 1.0, 0.01
        nbar = mf.solve_roots(mu, delta, e_c, kappa).roots[0]
        k = ps.momentum_grid(L)
        nk = mf.nk_steady(k, nbar, mu, delta, e_c, kappa)
        sm = (2j * delta * np.sin(k) * (1 - 2 * nk)
              / (2j * (mu - e_c * nbar) - kappa))
        st = ps.MomentState(kind=ps.FERMION, k=k, s_minus=sm, s_z=2 * nk - 1)
        dsm, dsz = fermion_rhs(st, mu, delta, e_c, kappa, fs=0.0, nbar=nbar)
        assert np.abs(dsm).max() < 1e-13
        assert np.abs(dsz).max() < 1e-13

    def test_spin_and_fermion_closures_identical_at_free_point(self):
        st = random_pseudospin_state(10, ps.FERMION, seed=4)
        s = spin_closure(st, 0.2, 0.3, 0.0, 0.01)
        for fs in (1.0, 0.0):
            f = fermion_rhs(st, 0.2, 0.3, 0.0, 0.01, fs=fs)
            assert np.array_equal(f[0], s[0]) and np.array_equal(f[1], s[1])

    def test_closures_coincide_term_by_term_in_limit(self):
        # with nbar = (mean(s_z) + 1)/2 and the 1/L terms dropped the two
        # right-hand sides are the same functions for any charging energy
        st = random_pseudospin_state(10, ps.SPIN, seed=13)
        f = fermion_rhs(st, 0.2, 0.3, 1.0, 0.01, fs=0.0)
        s = spin_closure(st, 0.2, 0.3, 1.0, 0.01)
        assert np.allclose(f[0], s[0], rtol=0, atol=1e-15)
        assert np.array_equal(f[1], s[1])


class TestIntegration:
    def test_step_cap_enforced(self):
        with pytest.raises(StepTooLargeError):
            ps.integrate_moments(ps.vacuum_state(10, ps.FERMION), PARAMS_INT,
                                 10.0, 0.02)

    def test_step_cap_enforced_for_every_trajectory(self):
        fast = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=5.0,
                           kappa=0.01)
        with pytest.raises(StepTooLargeError):
            ps.integrate_moments([ps.vacuum_state(10, ps.FERMION)] * 2,
                                 [PARAMS_INT, fast], 10.0, 0.008)

    def test_step_count_cap(self, monkeypatch):
        # the cap is lowered, so a broken guard runs only a few steps
        monkeypatch.setattr(ps, "MAX_STEPS", 125)
        vac = ps.vacuum_state(10, ps.FERMION)
        with pytest.raises(TooLargeError, match="MAX_STEPS = 125"):
            ps.integrate_moments(vac, PARAMS_INT, 1.001, 0.008)
        traj = ps.integrate_moments(vac, PARAMS_INT, 1.0, 0.008)  # 125 steps
        assert traj.times[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("t_final,dt,n_samples", [
        (10.0, 0.0, 11), (10.0, -0.001, 11), (10.0, float("nan"), 11),
        (0.0, 0.008, 11), (-5.0, 0.008, 11), (float("inf"), 0.008, 11),
        (10.0, 0.008, 1), (10.0, 0.008, 0),
    ])
    def test_bad_stepping_rejected(self, t_final, dt, n_samples):
        with pytest.raises(ValueError):
            ps.integrate_moments(ps.vacuum_state(10, ps.FERMION), PARAMS_INT,
                                 t_final, dt, n_samples=n_samples)

    def test_batch_shape_checks(self):
        vac = ps.vacuum_state(10, ps.FERMION)
        with pytest.raises(ValueError):  # two states, three params
            ps.integrate_moments([vac, vac], [PARAMS_INT] * 3, 1.0, 0.008)
        with pytest.raises(ValueError):  # empty batch
            ps.integrate_moments([], PARAMS_INT, 1.0, 0.008)
        p12 = ModelParams(L=12, bc=PBC, mu=0.2, delta=0.3, e_c=1.0,
                          kappa=0.01)
        with pytest.raises(ValueError):  # chain lengths differ
            ps.integrate_moments([vac, ps.vacuum_state(12, ps.FERMION)],
                                 [PARAMS_INT, p12], 1.0, 0.008)

    def test_bloch_check_runs_for_every_trajectory(self):
        vac = ps.vacuum_state(10, ps.FERMION)
        outside = ps.MomentState(kind=ps.FERMION, k=vac.k,
                                 s_minus=np.full(5, 0.9 + 0j), s_z=vac.s_z)
        with pytest.raises(InvalidStateError):
            ps.integrate_moments([vac, outside], PARAMS_INT, 1.0, 0.008)

    def test_undriven_pair_decays_to_empty(self):
        st = ps.vacuum_state(10, ps.FERMION)
        sz0 = st.s_z.copy()
        sz0[0] = 0.5  # populate the undriven (k = 0, pi) pair
        st = ps.MomentState(kind=ps.FERMION, k=st.k, s_minus=st.s_minus,
                            s_z=sz0)
        p = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=0.0, kappa=0.5)
        traj = ps.integrate_moments(st, p, 40.0, 0.004)
        assert traj.s_z[-1][0] == pytest.approx(-1.0, abs=1e-8)

    def test_free_trajectories_coincide(self, tfim_trajectories):
        f, s = tfim_trajectories[:2]
        assert np.abs(f.s_minus - s.s_minus).max() < 1e-8
        assert np.abs(f.s_z - s.s_z).max() < 1e-8

    def test_interacting_trajectories_diverge(self, tfim_trajectories):
        f, s = tfim_trajectories[2:]
        diff = max(np.abs(f.s_minus - s.s_minus).max(),
                   np.abs(f.s_z - s.s_z).max())
        assert diff > 1e-3

    def test_fourth_order_convergence(self):
        a = ps.integrate_moments(ps.vacuum_state(10, ps.FERMION), PARAMS_INT,
                                 50.0, 0.002)
        b = ps.integrate_moments(ps.vacuum_state(10, ps.FERMION), PARAMS_INT,
                                 50.0, 0.001)
        assert np.abs(a.s_minus[-1] - b.s_minus[-1]).max() < 1e-10
        assert np.abs(a.s_z[-1] - b.s_z[-1]).max() < 1e-10

    def test_bloch_ball_preserved(self):
        st = random_pseudospin_state(12, ps.FERMION, seed=2)
        p = ModelParams(L=12, bc=PBC, mu=0.3, delta=0.2, e_c=1.0, kappa=0.05)
        traj = ps.integrate_moments(st, p, 100.0, 0.005)
        ball = 4 * np.abs(traj.s_minus) ** 2 + traj.s_z**2
        assert ball.max() <= 1.0 + 1e-9

    def test_density_follows_magnetization(self):
        traj = ps.integrate_moments(ps.vacuum_state(10, ps.FERMION),
                                    PARAMS_INT, 100.0, 0.008)
        mag = traj.s_z.mean(axis=1)
        assert np.abs(mag + 1.0 - 2.0 * traj.nbar).max() < 1e-10


class TestAgainstExactDiagonalization:
    def test_moment_closure_matches_lindblad_at_free_point(self):
        # L=6 ring, e_c = 0: the closure is exact, so the ODE trajectory
        # must track the vectorized-Liouvillian evolution of the vacuum
        L, mu, delta, kappa = 6, 0.2, 0.3, 0.01
        ops = fock.build_operators(L)
        H = fock.build_hamiltonian(nearest_neighbor_pairing(L, delta, PBC),
                                   mu, 0.0, ops)
        liouv = fock.build_liouvillian(H, ops, kappa)
        dim = 1 << L
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        times = np.linspace(0.0, 60.0, 16)
        vt = spla.expm_multiply(liouv.matrix, fock.vec(rho0), start=0.0,
                                stop=times[-1], num=times.size, endpoint=True)
        # momentum-mode operators from the lattice annihilators
        k_grid = ps.momentum_grid(L)
        n_ops, pair_ops = [], []
        for k in k_grid:
            ck = _momentum_annihilator(ops, k)
            cmk = _momentum_annihilator(ops, -k)
            n_ops.append((ck.conj().T @ ck + cmk.conj().T @ cmk).tocsr())
            pair_ops.append((cmk @ ck).tocsr())
        p = ModelParams(L=L, bc=PBC, mu=mu, delta=delta, e_c=0.0, kappa=kappa)
        traj = ps.integrate_moments(ps.vacuum_state(L, ps.FERMION), p,
                                    float(times[-1]), 0.001,
                                    n_samples=times.size)
        assert np.allclose(traj.times, times)
        z1z2 = ((n_ops[1] - sp.identity(dim, dtype=complex))
                @ (n_ops[2] - sp.identity(dim, dtype=complex))).tocsr()
        for i, v in enumerate(vt):
            r = fock.unvec(v)
            for j in range(k_grid.size):
                sz_ed = np.sum((n_ops[j] @ r).diagonal()).real - 1.0
                # lattice Fourier pair operator carries an i relative to the
                # real-drive gauge of the moment variables
                sm_ed = -1j * np.sum((pair_ops[j] @ r).diagonal())
                assert abs(traj.s_z[i, j] - sz_ed) < 1e-8
                assert abs(traj.s_minus[i, j] - sm_ed) < 1e-8
            # one second moment: the state is Gaussian here, so the
            # longitudinal pair correlator factorizes into first moments
            second_ed = np.sum((z1z2 @ r).diagonal()).real
            assert abs(second_ed - traj.s_z[i, 1] * traj.s_z[i, 2]) < 1e-8


def _momentum_annihilator(ops, k):
    L = len(ops)
    out = sp.csr_matrix(ops[0].shape, dtype=complex)
    for j, c in enumerate(ops):
        out = out + np.exp(-1j * k * (j + 1)) * c
    return out / math.sqrt(L)


class TestInteractionBreakdown:
    def test_reference_point(self):
        rep = ps.interaction_breakdown(0.5, 0.0, 1.0, 0.01)
        assert rep.dh_fermion == pytest.approx(-0.0075, abs=1e-15)
        assert rep.dh_spin == pytest.approx(-0.005, abs=1e-15)
        assert rep.ratio == pytest.approx(1.5, abs=1e-10)

    def test_ratio_universal(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = rng.uniform(0.01, 1.0)
            beta = (rng.uniform(0, math.sqrt(p * (1 - p)))
                    * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            e_c = rng.uniform(-2.0, 2.0) or 1.0
            kappa = rng.uniform(1e-3, 1.0)
            rep = ps.interaction_breakdown(p, beta, e_c, kappa)
            assert rep.ratio == pytest.approx(1.5, abs=1e-10)

    def test_energy_changes_scale(self):
        rep = ps.interaction_breakdown(0.3, 0.1j, 2.0, 0.05)
        assert rep.dh_fermion == pytest.approx(-1.5 * 0.05 * 0.3 * 2.0,
                                               abs=1e-14)

    def test_empty_pair_degenerate(self):
        rep = ps.interaction_breakdown(0.0, 0.0, 1.0, 0.01)
        assert rep.dh_fermion == 0.0 and rep.dh_spin == 0.0
        assert math.isnan(rep.ratio) and rep.degenerate

    def test_coherences_evolve_identically(self):
        # the beta-dependent first moments change at the same rate on both
        # sides: d<c_{-k}c_k> = d<sigma^-> = (-i e_c - kappa) beta
        p, beta, e_c, kappa = 0.4, 0.2 + 0.1j, 1.3, 0.07
        ops = fock.build_operators(2)
        c1, c2 = ops[0].toarray(), ops[1].toarray()
        n1, n2 = c1.conj().T @ c1, c2.conj().T @ c2
        h = (e_c / 4.0) * (n1 + n2 + 2.0 * n1 @ n2)
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        pair = (c1.conj().T @ c2.conj().T) @ vac
        rho = ((1 - p) * np.outer(vac, vac.conj())
               + p * np.outer(pair, pair.conj())
               + beta * np.outer(pair, vac.conj())
               + np.conj(beta) * np.outer(vac, pair.conj()))
        drho = -1j * (h @ rho - rho @ h)
        for c in (c1, c2):
            cd = c.conj().T
            drho += kappa * (c @ rho @ cd
                             - 0.5 * (cd @ c @ rho + rho @ cd @ c))
        pair_lower = np.outer(vac, pair.conj())  # |0><pair| = c_{-k} c_k
        d_fermi = np.trace(pair_lower @ drho)
        assert d_fermi == pytest.approx((-1j * e_c - kappa) * beta, abs=1e-14)

    def test_invalid_states_rejected(self):
        with pytest.raises(InvalidStateError):
            ps.interaction_breakdown(1.2, 0.0, 1.0, 0.01)
        with pytest.raises(InvalidStateError):
            ps.interaction_breakdown(0.1, 0.9, 1.0, 0.01)
