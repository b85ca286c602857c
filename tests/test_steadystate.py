import numpy as np
import pytest

from cqa_fermi import fock, kernels, meanfield, steadystate as ss
from cqa_fermi.core import OBC, PBC, ModelParams
from cqa_fermi.errors import BoundaryUnsupportedError
from conftest import cqa_state_and_system, dark_pair_operator, fock_expectation


def table(L=6, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07):
    return ss.build_coefficients(
        ModelParams(L=L, bc=bc, mu=mu, delta=delta, e_c=e_c, kappa=kappa)
    )


class TestCoefficientTable:
    def test_alpha_zero_is_unity(self):
        tbl = table()
        assert tbl.alpha_log_mag[0] == 0.0
        assert tbl.alpha_phase[0] == 0.0

    def test_cutoff_by_boundary_condition(self):
        assert table(L=8, bc=PBC).chain.n_max == 3
        assert table(L=8, bc=OBC).chain.n_max == 4
        assert table(L=7, bc=PBC).chain.n_max == 3
        assert table(L=7, bc=OBC).chain.n_max == 3

    def test_single_factor_value(self):
        # a_1 = delta / (mu~ - e_c/L) = 0.1 / (0.05 + 0.1i) = 0.4 - 0.8i
        tbl = table(L=4, bc=PBC, mu=0.3, delta=0.1, e_c=1.0, kappa=0.2)
        a1 = np.exp(tbl.alpha_log_mag[1] + 1j * tbl.alpha_phase[1])
        assert a1 == pytest.approx(0.4 - 0.8j, rel=1e-12)

    def test_recurrence_invariant(self):
        for kwargs in (
            dict(L=400, mu=0.2, delta=0.1, e_c=1.0, kappa=0.01),
            dict(L=100_000, mu=0.2, delta=0.02, e_c=1.0, kappa=1e-8),
            dict(L=64, bc=OBC, mu=-0.4, delta=0.3, e_c=-1.0, kappa=0.5),
        ):
            assert ss.recurrence_residual(table(**kwargs)) < 1e-10

    def test_free_limit_is_geometric(self):
        tbl = table(L=12, e_c=0.0, mu=0.2, delta=0.15, kappa=0.3)
        ratio = tbl.params.delta / complex(tbl.params.mu,
                                           0.5 * tbl.params.kappa)
        alpha = np.exp(tbl.alpha_log_mag + 1j * tbl.alpha_phase)
        for n in range(tbl.chain.n_max + 1):
            assert alpha[n] == pytest.approx(ratio**n, rel=1e-12)

    def test_vacuum_at_zero_pairing(self):
        tbl = table(delta=0.0)
        assert tbl.alpha_log_mag[0] == 0.0
        assert np.all(tbl.alpha_log_mag[1:] == -np.inf)
        assert tbl.p[0] == 1.0

    def test_probabilities_normalized(self):
        for kwargs in (dict(L=6), dict(L=400, delta=0.02, kappa=0.01),
                       dict(L=100_000, delta=0.0224, mu=0.2, kappa=1e-8)):
            assert table(**kwargs).p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_path_matches_native_complex(self):
        # below L = 64 a direct complex recurrence must agree with the
        # log-domain table
        p = ModelParams(L=32, bc=PBC, mu=0.27, delta=0.18, e_c=1.0, kappa=0.05)
        tbl = ss.build_coefficients(p)
        direct = [1.0 + 0j]
        for n in range(1, tbl.chain.n_max + 1):
            direct.append(direct[-1] * p.delta
                          / (complex(p.mu, 0.5 * p.kappa) - n * p.e_c / p.L))
        assert np.allclose(np.exp(tbl.alpha_log_mag + 1j * tbl.alpha_phase),
                           direct, rtol=1e-12)


class TestDensityAndMoments:
    def test_vacuum_density(self):
        assert ss.mean_density(table(delta=0.0)) == 0.0

    def test_matches_free_fermion_k_sum(self):
        # independent momentum-space oracle at e_c = 0
        tbl = table(L=6, e_c=0.0, mu=0.2, delta=0.3, kappa=0.01)
        oracle = meanfield.free_finite_L_density(6, 0.2, 0.3, 0.01)
        assert ss.mean_density(tbl) == pytest.approx(oracle, abs=1e-12)

    def test_high_phase_density(self):
        tbl = table(L=400, mu=0.2, delta=0.25, e_c=1.0, kappa=0.01)
        assert ss.mean_density(tbl) > 0.2

    def test_variance_nonnegative(self):
        for kwargs in (dict(L=6), dict(L=10, bc=OBC), dict(L=200, delta=0.02)):
            tbl = table(**kwargs)
            var = ss.number_moment(tbl, 2) - ss.number_moment(tbl, 1) ** 2
            assert var >= -1e-12

    def test_first_moment_vacuum(self):
        assert ss.number_moment(table(delta=0.0), 1) == 0.0

    def test_moments_match_fock(self):
        p = ModelParams(L=6, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        n_tot = sum(fock.number_operators(system.dark_ops()))
        for m in (1, 2, 3):
            ref = fock_expectation(psi, n_tot**m).real
            assert ss.number_moment(tbl, m) == pytest.approx(ref, abs=1e-10)


class TestPairExpectation:
    def test_vacuum(self):
        assert ss.pair_expectation(table(delta=0.0), 1) == 0

    @pytest.mark.parametrize("bc", [PBC, OBC])
    def test_matches_fock(self, bc):
        p = ModelParams(L=6, bc=bc, mu=0.19, delta=0.27, e_c=0.8, kappa=0.11)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        raiser = dark_pair_operator(system, bc)
        acc = psi.copy()
        for m in (1, 2):
            acc = raiser @ acc
            ref = complex(np.vdot(psi, acc))
            assert ss.pair_expectation(tbl, m) == pytest.approx(ref, abs=1e-10)

    def test_real_in_weak_dissipation_limit(self):
        tbl = table(L=40, mu=0.3, delta=0.1, e_c=1.0, kappa=1e-12)
        val = ss.pair_expectation(tbl, 1)
        assert abs(val.imag) < 1e-10 * abs(val.real)


class TestAnomalousCorrelation:
    def setup_method(self):
        self.p = ModelParams(L=8, bc=PBC, mu=0.23, delta=0.31, e_c=1.0,
                             kappa=0.07)
        self.tbl = ss.build_coefficients(self.p)

    def test_boundary_guard(self):
        for p in (ModelParams(L=8, bc=OBC, mu=0.1, delta=0.1, kappa=0.1),
                  ModelParams(L=7, bc=PBC, mu=0.1, delta=0.1, kappa=0.1)):
            with pytest.raises(BoundaryUnsupportedError):
                ss.anomalous_correlation(ss.build_coefficients(p), 1)

    def test_nearest_neighbor_is_pair_expectation_over_l(self):
        bdag = ss.pair_expectation(self.tbl, 1)
        assert ss.anomalous_correlation(self.tbl, 1) == pytest.approx(
            bdag / self.p.L, rel=1e-12)

    def test_longest_range_is_minus_pair_expectation_over_l(self):
        bdag = ss.pair_expectation(self.tbl, 1)
        assert ss.anomalous_correlation(self.tbl, self.p.L // 2) == pytest.approx(
            -bdag / self.p.L, rel=1e-12)

    def test_antisymmetry_under_site_swap(self):
        half = self.p.L // 2
        for m in range(1, half + 1):
            a = ss.anomalous_correlation(self.tbl, m)
            b = ss.anomalous_correlation(self.tbl, half + 1 - m)
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("L", [6, 10])
    def test_antipodal_cancellation(self, L):
        # rings of length 4k+2: the two wrap directions cancel exactly
        tbl = ss.build_coefficients(
            ModelParams(L=L, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07))
        assert abs(ss.anomalous_correlation(tbl, (L // 2 + 1) // 2)) < 1e-12

    @pytest.mark.parametrize("L", [6, 8])
    def test_matches_fock(self, L):
        p = ModelParams(L=L, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        dark = system.dark_ops()
        for m in range(1, L // 2 + 1):
            op = fock.dag(dark[0]) @ fock.dag(dark[2 * m - 1])
            ref = fock_expectation(psi, op)
            assert ss.anomalous_correlation(tbl, m) == pytest.approx(
                ref, abs=1e-10)


class TestNormalCorrelation:
    def setup_method(self):
        self.p = ModelParams(L=8, bc=PBC, mu=0.23, delta=0.31, e_c=1.0,
                             kappa=0.07)
        self.tbl = ss.build_coefficients(self.p)

    def test_site_occupation_at_m_zero(self):
        dark_occ = ss.normal_correlation(self.tbl, 0)
        assert dark_occ == pytest.approx(2.0 * ss.mean_density(self.tbl),
                                         rel=1e-12)

    def test_vacuum_vanishes(self):
        tbl = table(delta=0.0)
        for m in range(1, tbl.params.L // 2):
            assert ss.normal_correlation(tbl, m) == 0.0

    def test_symmetry_under_site_swap(self):
        half = self.p.L // 2
        for m in range(half + 1):
            a = ss.normal_correlation(self.tbl, m)
            b = ss.normal_correlation(self.tbl, half - m)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("L", [6, 8])
    def test_matches_fock(self, L):
        p = ModelParams(L=L, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        dark = system.dark_ops()
        for m in range(L // 2 + 1):
            op = fock.dag(dark[0]) @ dark[(2 * m) % L]
            ref = fock_expectation(psi, op)
            assert abs(ref.imag) < 1e-12
            assert ss.normal_correlation(tbl, m) == pytest.approx(
                ref.real, abs=1e-10)


def test_every_closed_form_matches_fock_at_L8():
    """Full observable sweep against the Fock oracle at the largest
    tractable doubled size."""
    for bc in (PBC, OBC):
        p = ModelParams(L=8, bc=bc, mu=0.21, delta=0.24, e_c=1.0, kappa=0.09)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        dark = system.dark_ops()
        n_tot = sum(fock.number_operators(dark))
        dens = fock_expectation(psi, n_tot).real / (2 * p.L)
        assert ss.mean_density(tbl) == pytest.approx(dens, abs=1e-9)
        raiser = dark_pair_operator(system, bc)
        ref = complex(np.vdot(psi, raiser @ psi))
        assert ss.pair_expectation(tbl, 1) == pytest.approx(ref, abs=1e-9)


def test_dark_to_physical_halves():
    assert ss.dark_to_physical(0.5) == 0.25
    assert ss.dark_to_physical(1 + 2j) == 0.5 + 1j


class TestGridObservables:
    def per_point(self, L, bc, mu, delta, e_c, kappa):
        tbl = ss.build_coefficients(
            ModelParams(L=L, bc=bc, mu=mu, delta=delta, e_c=e_c, kappa=kappa))
        row = (mu, delta, ss.mean_density(tbl))
        if not ss.has_correlations(L, bc):
            return row
        return row + (
            abs(ss.dark_to_physical(ss.anomalous_correlation(tbl, 1))),
            abs(ss.dark_to_physical(ss.normal_correlation(tbl, 1))))

    def test_rows_equal_per_point_functions_at_L1e5(self):
        # bit-for-bit: the grid reuses tables, it never approximates
        mus, deltas = [0.15, 0.25], [0.0, 0.02, 0.0224]
        rows = ss.grid_observables(100_000, PBC, mus, deltas, 1.0, 1e-8)
        expected = [self.per_point(100_000, PBC, mu, d, 1.0, 1e-8)
                    for mu in mus for d in deltas]
        assert rows == expected

    def test_underflowing_exps_skipped_at_L1e5(self, monkeypatch):
        # a point of the L = 1e5 benchmark grid: p_n is sharply peaked, and
        # 3% of the log terms lie above kernels.EXP_FLOOR (near the
        # transition, mu = 0.2, the span bridges two peaks and holds ~47%).
        # Counts the real entries that reach np.exp, so a return to
        # full-array exps, inside exp_span or around it, fails.
        given, reached = [], []
        exp, exp_span = np.exp, kernels.exp_span

        def counting_span(x, out):
            given.append(x.size)
            return exp_span(x, out)

        def counting_exp(x, *args, **kwargs):
            if np.isrealobj(x):
                reached.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(kernels, "exp_span", counting_span)
        monkeypatch.setattr(np, "exp", counting_exp)
        ss.grid_observables(100_000, PBC, [0.3], [0.021], 1.0, 1e-8)
        # the norm, p_n, the two anomalous sums and the normal sums
        assert len(given) == 5 and sum(given) > 3 * 50_000
        assert sum(reached) <= 0.1 * sum(given)

    @pytest.mark.parametrize("L,bc", [(2, PBC), (4, PBC), (9, PBC),
                                      (24, OBC), (25, OBC)])
    def test_small_and_density_only_chains(self, L, bc):
        mus, deltas = [-0.3, 0.2], [0.0, 0.05, 0.4]
        rows = ss.grid_observables(L, bc, mus, deltas, 1.0, 0.05)
        assert rows == [self.per_point(L, bc, mu, d, 1.0, 0.05)
                        for mu in mus for d in deltas]
        assert {len(r) for r in rows} == {5 if ss.has_correlations(L, bc)
                                          else 3}

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            ss.grid_observables(8, PBC, [0.2], [0.1, -0.1], 1.0, 0.05)
        with pytest.raises(ValueError):
            ss.grid_observables(8, PBC, [0.2], [0.1], 1.0, 0.0)
