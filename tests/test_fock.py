import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cqa_fermi import fock, steadystate as ss
from cqa_fermi.core import (
    OBC,
    PBC,
    ModelParams,
    PairingMatrix,
    nearest_neighbor_pairing,
)
from cqa_fermi.errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    OddParityStateError,
    TooLargeError,
    TooManyModesError,
)
from cqa_fermi.combinatorics import count_obc, count_pbc
from conftest import cqa_state_and_system, dark_pair_operator


def anticommutator(a, b):
    return a @ b + b @ a


class TestOperators:
    def test_canonical_anticommutation(self):
        ops = [o.toarray() for o in fock.build_operators(4)]
        eye = np.eye(16)
        for i, ci in enumerate(ops):
            for j, cj in enumerate(ops):
                assert np.abs(anticommutator(ci, cj)).max() < 1e-13
                target = eye if i == j else 0.0
                assert np.abs(
                    anticommutator(ci, cj.conj().T) - target).max() < 1e-13

    def test_number_completeness(self):
        c1 = fock.build_operators(2)[0]
        total = (fock.dag(c1) @ c1 + c1 @ fock.dag(c1)).toarray()
        assert np.abs(total - np.eye(4)).max() < 1e-15

    def test_parity_commutes_with_bilinears(self):
        ops = fock.build_operators(4)
        P = fock.parity_operator(4)
        for a in ops:
            for b in ops:
                bil = fock.dag(a) @ b
                assert abs((P @ bil - bil @ P)).max() < 1e-15

    def test_mode_guard(self):
        with pytest.raises(TooManyModesError):
            fock.build_operators(17)


class TestPairCreation:
    @pytest.mark.parametrize("bc", [PBC, OBC])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_matches_hand_built_dark_raiser(self, L, bc):
        # at delta = 1 every bond has 2 D_ij = 1, so P is the plain sum of
        # d_j^dag d_{j+1}^dag that conftest builds independently
        system = fock.build_doubled_system(
            ModelParams(L=L, bc=bc, mu=0.2, delta=1.0, e_c=1.0, kappa=0.1))
        P = fock.pair_creation(nearest_neighbor_pairing(L, 1.0, bc).entries,
                               system.dark_ops())
        assert (P != dark_pair_operator(system, bc)).nnz == 0


def term_sum_doubled_hamiltonian(p, absorber_mu):
    """Absorber-doubled Hamiltonian added up term by term into one matrix:
    the physical block, minus the absorber block at ``absorber_mu``, plus
    the cascade coupling."""
    D = nearest_neighbor_pairing(p.L, p.delta, p.bc).entries
    ops = fock.build_operators(2 * p.L)
    dim = 1 << (2 * p.L)
    H = sp.csr_matrix((dim, dim), dtype=complex)
    for block, mu, sign in ((ops[:p.L], p.mu, 1.0),
                            (ops[p.L:], absorber_mu, -1.0)):
        occ = np.zeros(dim)
        for c in block:
            occ += (fock.dag(c) @ c).diagonal().real
        H = H + sign * sp.diags(
            (-mu * occ + (p.e_c / (2.0 * p.L)) * occ * occ).astype(complex))
        for i in range(p.L):
            for j in range(i + 1, p.L):
                if D[i, j] != 0:
                    t = (2.0 * D[i, j]) * (
                        fock.dag(block[i]) @ fock.dag(block[j]))
                    H = H + sign * (t + t.conj().T)
    for a, b in zip(ops[:p.L], ops[p.L:]):
        t = fock.dag(a) @ b
        H = H + (-0.5j * p.kappa) * (t - t.conj().T)
    return H.tocsr()


class TestHamiltonian:
    def test_diagonal_without_pairing(self):
        ops = fock.build_operators(3)
        H = fock.build_hamiltonian(np.zeros((3, 3)), 0.7, 0.0, ops)
        occ = np.array([bin(i).count("1") for i in range(8)])
        assert np.abs(H.toarray() - np.diag(-0.7 * occ)).max() < 1e-15

    def test_hermitian(self):
        ops = fock.build_operators(4)
        H = fock.build_hamiltonian(
            nearest_neighbor_pairing(4, 0.3, PBC), 0.2, 1.0, ops)
        assert np.abs((H - H.conj().T)).max() < 1e-13

    def test_commutes_with_parity(self):
        ops = fock.build_operators(4)
        H = fock.build_hamiltonian(
            nearest_neighbor_pairing(4, 0.3, PBC), 0.2, 1.0, ops)
        P = fock.parity_operator(4)
        assert abs((P @ H - H @ P)).max() < 1e-13

    def test_dimension_guard(self):
        ops = fock.build_operators(3)
        with pytest.raises(DimensionMismatchError):
            fock.build_hamiltonian(np.zeros((4, 4)), 0.1, 0.0, ops)

    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("bc", [PBC, OBC])
    @pytest.mark.parametrize("detuning", [None, 0.0, 0.3, -0.3])
    def test_doubled_blocks_bit_identical_to_term_sum(self, L, bc, detuning):
        p = ModelParams(L=L, bc=bc, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
        absorber_mu = None if detuning is None else p.mu + detuning
        got = fock.build_doubled_system(
            p, absorber_mu=absorber_mu).hamiltonian.copy()
        ref = term_sum_doubled_hamiltonian(
            p, p.mu if absorber_mu is None else absorber_mu)
        got.sort_indices()
        ref.sort_indices()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


class TestLiouvillian:
    def test_vacuum_dark_for_pure_loss(self):
        ops = fock.build_operators(2)
        H = fock.build_hamiltonian(np.zeros((2, 2)), 0.0, 0.0, ops)
        liouv = fock.build_liouvillian(H, [ops[0]], [1.0])
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        assert np.abs(liouv.matrix @ fock.vec(vac)).max() < 1e-15

    def test_trace_preserving(self):
        ops = fock.build_operators(3)
        H = fock.build_hamiltonian(
            nearest_neighbor_pairing(3, 0.4, OBC), 0.3, 0.8, ops)
        liouv = fock.build_liouvillian(H, ops, 0.2)
        tr = fock.vec(np.eye(8, dtype=complex))
        assert np.abs(tr @ liouv.matrix).max() < 1e-12

    def test_unique_zero_eigenvalue(self):
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.1)
        ops, H = fock.single_system(p)
        liouv = fock.build_liouvillian(H, ops, p.kappa)
        w = fock.smallest_eigenvalues(liouv, k=4)
        assert np.sum(np.abs(w) < 1e-10) == 1

    def test_rate_count_guard(self):
        ops = fock.build_operators(2)
        H = fock.build_hamiltonian(np.zeros((2, 2)), 0.0, 0.0, ops)
        with pytest.raises(DimensionMismatchError):
            fock.build_liouvillian(H, ops, [0.1])

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(fock, "MAX_LIOUVILLIAN_DIM", 4 ** 3)
        ops = fock.build_operators(3)
        H = fock.build_hamiltonian(np.zeros((3, 3)), 0.2, 0.0, ops)
        assert fock.build_liouvillian(H, ops, 0.1).dim == 4 ** 3
        ops = fock.build_operators(4)
        H = fock.build_hamiltonian(np.zeros((4, 4)), 0.2, 0.0, ops)
        with pytest.raises(TooLargeError, match="exceeds the cap of 64"):
            fock.build_liouvillian(H, ops, 0.1)


class TestSteadyState:
    def test_vacuum_projector_without_pairing(self):
        ops = fock.build_operators(3)
        H = fock.build_hamiltonian(np.zeros((3, 3)), 0.4, 1.0, ops)
        rho = fock.steady_state(fock.build_liouvillian(H, ops, 0.3))
        expect = np.zeros((8, 8))
        expect[0, 0] = 1.0
        assert np.abs(rho - expect).max() < 1e-12

    def test_density_decreases_with_loss(self):
        dens = []
        for kappa in (0.05, 0.2, 0.8, 3.0):
            p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.2, e_c=1.0,
                            kappa=kappa)
            ops, H = fock.single_system(p)
            rho = fock.steady_state(fock.build_liouvillian(H, ops, kappa))
            n = fock.total_number(4)
            dens.append(float(np.sum((n @ rho).diagonal()).real) / 4)
        assert all(a > b for a, b in zip(dens, dens[1:]))

    def test_degenerate_kernel_detected(self):
        # two decoupled dark sectors: no loss on the second mode
        ops = fock.build_operators(2)
        H = fock.build_hamiltonian(np.zeros((2, 2)), 0.3, 0.0, ops)
        liouv = fock.build_liouvillian(H, [ops[0]], [0.5])
        with pytest.raises(DegenerateKernelError):
            fock.steady_state(liouv)

    def test_solve_cap_raises_with_the_residual(self, monkeypatch):
        # one solve from the maximally mixed state leaves a kernel residual
        # of 8.7e-10 here (the second reaches 1.4e-16)
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        ops, H = fock.single_system(p)
        liouv = fock.build_liouvillian(H, ops, p.kappa)
        monkeypatch.setattr(fock, "MAX_LU_SOLVES", 1)
        with pytest.raises(DegenerateKernelError,
                           match=r"residual at [0-9.]+e-[0-9]+ after 1 solves"):
            fock.steady_state(liouv, degeneracy_check=False)

    @pytest.mark.parametrize("L", [2, 3, 4])
    @pytest.mark.parametrize("bc", [OBC, PBC])
    def test_evolution_path_matches_lu(self, L, bc, monkeypatch):
        # with the LU threshold lowered, these small systems take the
        # evolution path that L >= 7 takes; its state agrees with the LU
        # one to at most 9.8e-15 in trace distance (worst: L = 4 PBC at
        # kappa = 0.01), so the bound is 1e-13
        for kappa in (0.1, 0.01):
            p = ModelParams(L=L, bc=bc, mu=0.2, delta=0.15, e_c=1.0,
                            kappa=kappa)
            ops, H = fock.single_system(p)
            liouv = fock.build_liouvillian(H, ops, kappa)
            lu = fock.steady_state(liouv)
            calls, evolve = [], fock._kernel_by_evolution
            with monkeypatch.context() as m:
                m.setattr(fock, "LU_MAX_DIM", 0)
                m.setattr(fock, "_kernel_by_evolution",
                          lambda *args: calls.append(args) or evolve(*args))
                evolved = fock.steady_state(liouv)
            assert len(calls) == 1
            assert fock.trace_distance(lu, evolved) < 1e-13


class TestCqaState:
    def test_vacuum_at_zero_pairing(self):
        p = ModelParams(L=3, bc=OBC, mu=0.2, delta=0.0, e_c=1.0, kappa=0.1)
        psi = fock.build_cqa_state(fock.build_doubled_system(p))
        assert psi[0] == 1.0
        assert np.abs(psi[1:]).max() == 0.0

    @pytest.mark.parametrize("L,bc", [(4, PBC), (6, PBC), (5, OBC), (6, OBC)])
    def test_component_norms_count_coverings(self, L, bc):
        p = ModelParams(L=L, bc=bc, mu=0.23, delta=0.17, e_c=0.9, kappa=0.13)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        alpha = tbl.alpha_complex()
        occ = np.bitwise_count(np.arange(psi.size, dtype=np.uint32))
        norm_sq = np.vdot(psi, psi).real
        total = sum(abs(alpha[n]) ** 2
                    * (count_pbc if bc == PBC else count_obc)(L, n)
                    for n in range(tbl.chain.n_max + 1))
        for n in range(tbl.chain.n_max + 1):
            comp = psi[occ == 2 * n]
            expected = abs(alpha[n]) ** 2 * (
                count_pbc if bc == PBC else count_obc)(L, n) / total
            assert np.vdot(comp, comp).real * norm_sq == pytest.approx(
                expected * norm_sq, abs=1e-12)

    def test_even_ring_half_filling_component_vanishes(self):
        for L in (4, 6, 8):
            system = fock.build_doubled_system(
                ModelParams(L=L, bc=PBC, mu=0.2, delta=0.3, e_c=0.0,
                            kappa=0.1))
            B = dark_pair_operator(system, PBC)
            v = np.zeros(4**L, dtype=complex)
            v[0] = 1.0
            for _ in range(L // 2):
                v = B @ v
            assert np.abs(v).max() < 1e-12

    def test_dark_conditions_generic_parameters(self):
        for L, bc in ((2, PBC), (3, OBC), (4, PBC), (4, OBC)):
            for e_c in (0.0, 1.0, -0.7):
                p = ModelParams(L=L, bc=bc, mu=0.31, delta=0.21, e_c=e_c,
                                kappa=0.17)
                psi, system = cqa_state_and_system(p)
                rep = fock.verify_dark_conditions(psi, system)
                assert rep.max_residual < 1e-10

    def test_dark_conditions_general_pairing(self):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        pm = PairingMatrix.from_entries(A - A.T)
        system = fock.build_doubled_system(pm, mu=0.4, e_c=0.8, kappa=0.3)
        psi = fock.build_cqa_state(system)
        rep = fock.verify_dark_conditions(psi, system)
        assert rep.max_residual < 1e-10

    def test_perturbed_coefficient_breaks_darkness(self):
        p = ModelParams(L=4, bc=PBC, mu=0.3, delta=0.2, e_c=1.0, kappa=0.2)
        psi, system = cqa_state_and_system(p)
        B = dark_pair_operator(system, PBC)
        v = np.zeros(psi.size, dtype=complex)
        v[0] = 1.0
        pair_part = B @ v
        # nudge the one-pair amplitude by 1e-3
        tbl = ss.build_coefficients(p)
        bad = psi + 1e-3 * tbl.alpha_complex()[1] * pair_part
        bad /= np.linalg.norm(bad)
        rep = fock.verify_dark_conditions(bad, system)
        assert rep.hamiltonian_residual > 1e-5
        assert rep.jump_residuals.max() < 1e-12  # still purely dark modes


class TestPartialTrace:
    def test_product_state(self):
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1.0
        rho = fock.partial_trace_absorber(psi)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        assert np.abs(rho - expect).max() == 0.0

    def test_odd_parity_rejected(self):
        psi = np.zeros(16, dtype=complex)
        psi[1] = 1.0  # single occupied mode
        with pytest.raises(OddParityStateError):
            fock.partial_trace_absorber(psi)

    @pytest.mark.parametrize("L,bc", [(2, PBC), (2, OBC), (3, PBC), (3, OBC),
                                      (4, PBC), (4, OBC)])
    def test_cross_oracle_grid(self, L, bc):
        for e_c in (0.0, 1.0):
            for mu, delta in ((0.1, 0.05), (0.25, 0.12), (0.4, 0.3)):
                p = ModelParams(L=L, bc=bc, mu=mu, delta=delta, e_c=e_c,
                                kappa=0.1)
                psi, _ = cqa_state_and_system(p)
                rho_cqa = fock.partial_trace_absorber(psi)
                ops, H = fock.single_system(p)
                rho_ss = fock.steady_state(
                    fock.build_liouvillian(H, ops, p.kappa))
                assert fock.trace_distance(rho_cqa, rho_ss) < 1e-8


class TestTwoTimeCorrelation:
    def setup_method(self):
        self.p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0,
                             kappa=0.01)
        self.ops, H = fock.single_system(self.p)
        self.liouv = fock.build_liouvillian(H, self.ops, self.p.kappa)
        self.rho = fock.steady_state(self.liouv)
        self.times = np.linspace(0.0, 200.0, 101)

    def test_equal_time_anticommutation(self):
        fwd = fock.two_time_correlation(self.liouv, self.rho, self.ops[0],
                                        self.ops[1], self.times)
        rev = fock.two_time_correlation(self.liouv, self.rho, self.ops[1],
                                        self.ops[0], self.times)
        assert abs(fwd[0] + rev[0]) < 1e-14

    def test_onsager_antisymmetry_all_times(self):
        fwd = fock.two_time_correlation(self.liouv, self.rho, self.ops[0],
                                        self.ops[1], self.times)
        rev = fock.two_time_correlation(self.liouv, self.rho, self.ops[1],
                                        self.ops[0], self.times)
        assert np.abs(fwd + rev).max() < 1e-10

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            fock.two_time_correlation(self.liouv, self.rho, self.ops[0],
                                      self.ops[1], np.array([0.0, 1.0, 3.0]))

    @pytest.mark.parametrize("times", [[0.0, -1.0, -2.0], [0.0, 0.0, 0.0]])
    def test_grid_must_go_forward(self, times):
        # quantum regression holds for t >= 0 only; both grids are uniform
        with pytest.raises(ValueError, match="strictly increasing"):
            fock.two_time_correlation(self.liouv, self.rho, self.ops[0],
                                      self.ops[1], np.array(times))


class TestHtrsBreaking:
    def test_pumping_breaks_antisymmetry_monotonically(self):
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        times = np.linspace(0.0, 300.0, 121)
        rep = fock.htrs_breaking(p, 0.1 * p.kappa, times)
        assert rep.asymmetry[0] < 1e-10
        assert rep.asymmetry[-1] > 1e-6
        assert rep.asymmetry[-1] > 1e3 * rep.asymmetry[0]
        assert rep.monotone

    def test_negative_rate_rejected(self):
        p = ModelParams(L=2, bc=OBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        with pytest.raises(ValueError):
            fock.htrs_breaking(p, -0.1, np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("gamma_p", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, gamma_p):
        p = ModelParams(L=2, bc=OBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="gamma_p must be >= 0 and finite"):
            fock.htrs_breaking(p, gamma_p, times)
        ops, H = fock.single_system(p)
        with pytest.raises(ValueError, match="gamma_p must be >= 0 and finite"):
            fock.htrs_point(ops, H, 0.01, gamma_p, times)

    @pytest.mark.parametrize("gamma_p", [-1.0, math.inf, math.nan])
    def test_rate_checked_when_only_zero_is_pumped(self, gamma_p):
        # 0 * gamma_p is a valid rate (or nan), so the check must come first
        p = ModelParams(L=2, bc=OBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        with pytest.raises(ValueError, match="gamma_p must be >= 0 and finite"):
            fock.htrs_breaking(p, gamma_p, np.linspace(0.0, 1.0, 3),
                               gamma_fractions=(0.0,))


def full_space_traces(liouv, v0, times, observables):
    """The full-space path: exp(A t) v0 on every index, traced per point."""
    vt = spla.expm_multiply(liouv.matrix, v0, start=0.0, stop=times[-1],
                            num=times.size, endpoint=True)
    return np.array([[np.sum((o @ fock.unvec(v)).diagonal())
                      for o in observables] for v in vt])


def full_space_steady_state(liouv):
    """The full-space path: LU inverse iteration on every index."""
    A = liouv.matrix
    n, d = A.shape[0], liouv.hilbert_dim
    lu = spla.splu((A - 1e-9 * sp.identity(n, dtype=complex,
                                            format="csc")).tocsc())
    x = fock.vec(np.eye(d, dtype=complex) / d)
    for _ in range(30):
        x = lu.solve(x)
        x = x / np.linalg.norm(x)
        if np.linalg.norm(A @ x) < 1e-13:
            break
    rho = fock.unvec(x)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def assert_close_relative(got, ref, rtol=1e-12):
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


class TestParitySector:
    """The sector path against the full-space path it replaces."""

    times = np.linspace(0.0, 150.0, 76)

    def system(self, gamma_p, extra_jump=None):
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.02)
        ops, H = fock.single_system(p)
        jumps, rates = list(ops), [p.kappa] * 4
        if gamma_p > 0:
            jumps.append(fock.dag(ops[0]))
            rates.append(gamma_p)
        if extra_jump is not None:
            jumps.append(extra_jump(ops))
            rates.append(0.01)
        h_eff = H - (0.5j * p.kappa) * fock.total_number(4)
        return ops, h_eff, fock.build_liouvillian(H, jumps, rates)

    @pytest.mark.parametrize("gamma_p", [0.0, 0.004])
    def test_steady_state_matches_full_lu(self, gamma_p):
        _, _, liouv = self.system(gamma_p)
        x0 = fock.vec(np.eye(16, dtype=complex))
        assert fock._sector(liouv.matrix, x0).size == 128
        rho = fock.steady_state(liouv)
        assert fock.trace_distance(rho, full_space_steady_state(liouv)) < 1e-12

    @pytest.mark.parametrize("gamma_p", [0.0, 0.004])
    @pytest.mark.parametrize("pair", ["odd", "even-y", "even-x"])
    def test_correlator_matches_full_space(self, gamma_p, pair):
        ops, h_eff, liouv = self.system(gamma_p)
        rho = fock.steady_state(liouv)
        X, Y = {"odd": (ops[0], ops[1]), "even-y": (ops[1], h_eff),
                "even-x": (h_eff, ops[1])}[pair]
        v0 = fock.vec(Y @ rho)
        idx = fock._sector(liouv.matrix, v0)
        assert idx.size == 128
        assert not np.delete(v0, idx).any()  # the half holding vec(Y rho)
        got = fock.two_time_correlation(liouv, rho, X, Y, self.times)
        ref = full_space_traces(liouv, v0, self.times, [X])[:, 0]
        assert_close_relative(got, ref)
        if pair != "odd":
            # H_eff is even and c_j odd, so parity superselection makes
            # <H_eff(t) c_j(0)> and <c_j(t) H_eff(0)> exactly zero
            assert not got.any()

    def test_zero_start_vector_takes_one_half(self):
        # c_1 annihilates the vacuum, so vec(Y rho) is exactly zero: it lies
        # in both halves, and the even one is propagated
        ops, _, liouv = self.system(0.004)
        rho = np.zeros((16, 16), dtype=complex)
        rho[0, 0] = 1.0
        v0 = fock.vec(ops[1] @ rho)
        assert not v0.any()
        x0 = fock.vec(np.eye(16, dtype=complex))
        even = fock._sector(liouv.matrix, x0)
        assert np.array_equal(fock._sector(liouv.matrix, v0), even)
        got = fock.two_time_correlation(liouv, rho, ops[0], ops[1],
                                        self.times)
        assert got.shape == self.times.shape and not got.any()

    def test_mixed_y_uses_full_space(self):
        ops, _, liouv = self.system(0.004)
        rho = fock.steady_state(liouv)
        Y = ops[1] + fock.dag(ops[0]) @ ops[0]
        v0 = fock.vec(Y @ rho)
        assert fock._sector(liouv.matrix, v0).size == 256
        got = fock.two_time_correlation(liouv, rho, ops[0], Y,
                                        self.times)
        assert_close_relative(
            got, full_space_traces(liouv, v0, self.times, [ops[0]])[:, 0])

    def test_weight_outside_sector_uses_full_space(self):
        ops, _, liouv = self.system(0.0)
        rho = fock.steady_state(liouv).copy()
        rho[2, 3] = rho[3, 2] = 1e-3  # coherence between parity sectors
        v0 = fock.vec(ops[1] @ rho)
        assert fock._sector(liouv.matrix, v0).size == 256
        got = fock.two_time_correlation(liouv, rho, ops[0], ops[1],
                                        self.times)
        assert_close_relative(
            got, full_space_traces(liouv, v0, self.times, [ops[0]])[:, 0])

    def test_coupling_generator_uses_full_space(self):
        # a mixed-parity jump couples the two parity-difference sectors
        _, _, liouv = self.system(
            0.0, extra_jump=lambda ops: ops[0] + fock.dag(ops[1]) @ ops[1])
        x0 = fock.vec(np.eye(16, dtype=complex))
        assert fock._sector(liouv.matrix, x0).size == 256
        rho = fock.steady_state(liouv)
        assert fock.trace_distance(rho, full_space_steady_state(liouv)) < 1e-12

    def test_cascade_evolution_matches_full_space(self):
        system = fock.build_doubled_system(
            ModelParams(L=2, bc=PBC, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1),
            absorber_mu=0.3)
        liouv = fock.build_liouvillian(system.hamiltonian, system.jumps, 0.1)
        v0 = np.zeros(256, dtype=complex)
        v0[0] = 1.0
        obs = fock.number_operators(system.ops)
        times = np.linspace(0.0, 50.0, 11)
        got = fock._evolve_traces(liouv.matrix, v0, times, obs)
        assert fock._sector(liouv.matrix, v0).size == 128
        assert_close_relative(got, full_space_traces(liouv, v0, times, obs))


def expm_multiply_grid(A, v, times):
    """The reference propagator: scipy's exp(A t) v on the same grid."""
    return spla.expm_multiply(A, v, start=0.0, stop=times[-1],
                              num=times.size, endpoint=True)


def sub_steps(A, h):
    """The sub-step count fock._expm_grid takes for a grid step h."""
    n = A.shape[0]
    B = A - (A.trace() / n) * sp.identity(n, dtype=complex, format="csr")
    return max(1, math.ceil(h * abs(B).sum(axis=0).max() / fock.TAYLOR_THETA))


class TestTaylorPropagator:
    """fock._expm_grid against expm_multiply; each bound is a few times
    the largest difference measured (stated per test), relative to the
    largest entry of the reference."""

    @pytest.mark.parametrize("gamma_p", [0.0, 0.001])
    def test_htrs_odd_sector(self, gamma_p):
        # the htrs correlator vector at L = 4 on the htrs default grid (200
        # steps, h ||B||_1 = 4.37, one sub-step): measured 1.0e-15 at
        # gamma_p = 0 and 2.3e-15 at 0.001
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        ops, H = fock.single_system(p)
        jumps, rates = list(ops), [p.kappa] * 4
        if gamma_p > 0:
            jumps.append(fock.dag(ops[0]))
            rates.append(gamma_p)
        liouv = fock.build_liouvillian(H, jumps, rates)
        rho = fock.steady_state(liouv, degeneracy_check=False)
        v0 = fock.vec(ops[1] @ rho)
        idx = fock._sector(liouv.matrix, v0)
        A, v = liouv.matrix[idx][:, idx].tocsr(), v0[idx]
        times = np.linspace(0.0, 400.0, 201)
        assert sub_steps(A, 2.0) == 1
        got = fock._expm_grid(A, v, 2.0, 200)
        assert got.shape == (201, 128) and np.array_equal(got[0], v)
        assert_close_relative(got, expm_multiply_grid(A, v, times), 1e-14)

    @pytest.mark.parametrize("start", ["vacuum", "mixed"])
    def test_several_sub_steps_per_grid_step(self, start):
        # the doubled L = 2 system's even sector on a coarse grid: h ||B||_1
        # = 77.8 > TAYLOR_THETA, so 8 sub-steps; measured 4.4e-15 from the
        # vacuum and 3.1e-15 from the maximally mixed state, which one
        # 55-term series per step would miss by a factor of 1e27
        system = fock.build_doubled_system(
            ModelParams(L=2, bc=PBC, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1),
            absorber_mu=0.3)
        liouv = fock.build_liouvillian(system.hamiltonian, system.jumps, 0.1)
        v0 = np.zeros(256, dtype=complex)
        v0[0] = 1.0
        idx = fock._sector(liouv.matrix, v0)
        if start == "mixed":
            v0 = fock.vec(np.eye(16, dtype=complex) / 16)
        A, v = liouv.matrix[idx][:, idx].tocsr(), v0[idx]
        times = np.linspace(0.0, 100.0, 3)
        assert sub_steps(A, 50.0) == 8
        got = fock._expm_grid(A, v, 50.0, 2)
        assert_close_relative(got, expm_multiply_grid(A, v, times), 2e-14)

    def test_one_long_relaxation_stage(self):
        # the first stage of _kernel_by_evolution (q = 1, t = 250) from the
        # maximally mixed state at L = 4, 61 sub-steps: measured 6.5e-16
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        ops, H = fock.single_system(p)
        liouv = fock.build_liouvillian(H, ops, p.kappa)
        x0 = fock.vec(np.eye(16, dtype=complex) / 16)
        idx = fock._sector(liouv.matrix, x0)
        A, x = liouv.matrix[idx][:, idx].tocsr(), x0[idx]
        assert sub_steps(A, 250.0) == 61
        got = fock._expm_grid(A, x, 250.0, 1)
        ref = expm_multiply_grid(A, x, np.array([0.0, 250.0]))
        assert got.shape == (2, 128)
        assert_close_relative(got[1], ref[1], 1e-14)

    def test_zero_start_vector_gives_exact_zeros(self):
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
        ops, H = fock.single_system(p)
        A = fock.build_liouvillian(H, ops, p.kappa).matrix
        got = fock._expm_grid(A, np.zeros(256, dtype=complex), 2.0, 50)
        assert got.shape == (51, 256) and not got.any()


@pytest.mark.slow
def test_onsager_at_figure_size():
    """Optional L=8 run (evolution-fallback steady state, ~1 minute)."""
    p = ModelParams(L=8, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
    ops, H = fock.single_system(p)
    liouv = fock.build_liouvillian(H, ops, p.kappa)
    rho = fock.steady_state(liouv)
    times = np.linspace(0.0, 100.0, 26)
    fwd = fock.two_time_correlation(liouv, rho, ops[0], ops[1], times)
    rev = fock.two_time_correlation(liouv, rho, ops[1], ops[0], times)
    assert np.abs(fwd + rev).max() < 1e-10


class TestCascadeNonreciprocity:
    def test_absorber_detuning_invisible_upstream(self):
        p = ModelParams(L=3, bc=OBC, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1)
        rep = fock.cascade_nonreciprocity_check(p, 0.1)
        assert rep.max_system_deviation < 1e-10
        assert rep.max_absorber_deviation > 1e-6

    def test_zero_tweak_changes_nothing(self):
        p = ModelParams(L=3, bc=OBC, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1)
        rep = fock.cascade_nonreciprocity_check(p, 0.0)
        assert rep.max_system_deviation == 0.0
        assert rep.max_absorber_deviation == 0.0

    def test_mode_guard(self):
        p = ModelParams(L=8, bc=PBC, mu=0.2, delta=0.1, e_c=1.0, kappa=0.1)
        with pytest.raises(TooManyModesError):
            fock.cascade_nonreciprocity_check(p, 0.1)
