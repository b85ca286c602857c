import math

import numpy as np
import pytest
from scipy.special import xlogy

from cqa_fermi import steadystate as ss, thermo
from cqa_fermi.core import PBC, ModelParams
from cqa_fermi.errors import (
    DomainError,
    IterationLimitError,
    NoBistableWindowError,
)


class TestFreeEnergy:
    def test_vanishes_at_low_density_weak_mode(self):
        assert thermo.free_energy(1e-12, 0.2, 0.0, 0.02, "weak") == (
            pytest.approx(0.0, abs=1e-9))

    def test_vanishes_at_low_density_full_mode(self):
        assert thermo.free_energy(1e-12, 0.2, 0.05, 0.02, "full") == (
            pytest.approx(0.0, abs=1e-9))

    def test_domain_guard(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                thermo.free_energy(bad, 0.2, 0.0, 0.02)

    def test_full_reduces_to_weak(self):
        rho = np.linspace(0.005, 0.995, 800)
        full = thermo.free_energy(rho, 0.2, 1e-8, 0.021, "full")
        weak = thermo.free_energy(rho, 0.2, 0.0, 0.021, "weak")
        assert np.abs(full - weak).max() < 1e-6

    def test_degenerate_wells_at_transition(self):
        # near-degenerate at the 5-digit quoted point, degenerate at the
        # self-located crossing
        prof = thermo.profile(0.2, 0.0, 0.02122, "weak")
        assert prof.two_wells
        assert abs(prof.delta_q_min) < 5e-4
        dc = thermo.critical_delta(0.2, mode="weak", tol=1e-9)
        assert abs(thermo.profile(0.2, 0.0, dc, "weak").delta_q_min) < 1e-7

    def test_finite_at_interior_extremes(self):
        for rho in (1e-9, 1.0 - 1e-9):
            val = thermo.free_energy(rho, 0.2, 0.01, 0.02, "full")
            assert np.isfinite(val)

    def test_smooth_at_rho_two_mu_weak_mode(self):
        # the continuous extension (mu - rho/2) ln|mu - rho/2| -> 0 applies
        # analytically at rho = 2 mu
        q = thermo.free_energy(np.array([0.4 - 1e-9, 0.4, 0.4 + 1e-9]),
                               0.2, 0.0, 0.02, "weak")
        assert np.all(np.isfinite(q))
        assert abs(q[2] - q[0]) < 1e-7


    @pytest.mark.parametrize("mode,kappa", [("weak", 0.0), ("full", 1e-3)])
    def test_batched_parameters_match_one_point_calls(self, mode, kappa):
        rho = np.linspace(0.003, 0.997, 41)
        mu = np.array([-0.3, 0.1, 0.2, 0.37])[:, None]
        delta = np.array([0.005, 0.021, 0.09, 0.3])[:, None]
        q = thermo.free_energy(rho, mu, kappa, delta, mode)
        assert q.shape == (4, 41)
        for j in range(4):
            one = [thermo.free_energy(float(r), float(mu[j, 0]), kappa,
                                      float(delta[j, 0]), mode) for r in rho]
            assert q[j].tolist() == one
            assert np.array_equal(
                q[j], thermo.free_energy(rho, mu[j, 0], kappa, delta[j, 0],
                                         mode))

    def test_batched_delta_takes_libm_log(self):
        # numpy's vector log misses libm's last bit on some inputs; the
        # reference is Q written out with math.log, in the module's order
        sweep = np.linspace(1e-4, 0.45, 20001)
        odd = [d for d, v in zip(sweep, np.log(sweep)) if v != math.log(d)]
        deltas = np.array(odd + [0.021])
        rho, mu = 0.3, 0.2
        rest = -2.0 * xlogy(mu - 0.5 * rho, abs(mu - 0.5 * rho)) \
            + 2.0 * xlogy(mu, abs(mu))
        entropy = (-xlogy(1.0 - 0.5 * rho, 1.0 - 0.5 * rho)
                   + xlogy(1.0 - rho, 1.0 - rho)
                   + xlogy(0.5 * rho, 0.5 * rho))
        want = [-(1.0 + math.log(d)) * rho + rest + entropy for d in deltas]
        assert thermo.free_energy(rho, mu, 0.0, deltas).tolist() == want

    @pytest.mark.parametrize("mu,kappa,delta,mode", [
        (np.nan, 0.0, 0.02, "weak"), (np.inf, 0.0, 0.02, "weak"),
        (0.2, 0.0, np.nan, "weak"), (0.2, 0.0, np.inf, "weak"),
        (0.2, np.nan, 0.02, "full"), (0.2, np.inf, 0.02, "full"),
        (0.2, np.nan, 0.02, "weak"),
        (0.2, 0.0, np.array([0.02, np.nan]), "weak"),
    ])
    def test_non_finite_parameters_rejected(self, mu, kappa, delta, mode):
        with pytest.raises(DomainError):
            thermo.free_energy(0.3, mu, kappa, delta, mode)
        with pytest.raises(DomainError):
            thermo.profile(mu, kappa, delta, mode)


class TestGoldenSection:
    @staticmethod
    def parabola(x, idx):
        return (x - 0.3 - 0.1 * idx) ** 2

    def test_brackets_match_one_at_a_time(self):
        a = np.array([0.0, 0.1, 0.25, 0.0])
        b = np.array([1.0, 0.6, 0.7, 0.45])
        x = thermo._golden_minimize(self.parabola, a, b)
        for i in range(a.size):
            one = thermo._golden_minimize(
                lambda t, _: self.parabola(t, i), a[i:i + 1], b[i:i + 1])
            assert x[i] == one[0]
        assert np.abs(x - np.array([0.3, 0.4, 0.5, 0.45])).max() < 1e-10

    def test_zero_xtol_stops_at_float_resolution(self):
        x = thermo._golden_minimize(self.parabola, [0.0, 1e-13],
                                    [1.0, 2e-13], xtol=0.0)
        assert abs(x[0] - 0.3) < 1e-7
        assert x[1] == 2e-13 or np.nextafter(x[1], 1.0) == 2e-13

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(thermo, "MAX_GOLDEN_STEPS", 5)
        with pytest.raises(IterationLimitError):
            thermo._golden_minimize(self.parabola, [0.0], [1.0])


class TestProfile:
    def test_low_phase(self):
        prof = thermo.profile(0.2, 0.0, 0.02, "weak")
        assert prof.rho_min < 0.4
        assert prof.rho_min == prof.rho_low

    def test_high_phase(self):
        prof = thermo.profile(0.2, 0.0, 0.0224, "weak")
        assert prof.rho_min > 0.4
        assert prof.rho_min == prof.rho_high

    def test_single_well_outside_critical_range(self):
        for delta in (0.02, 0.1, 0.3):
            prof = thermo.profile(-0.3, 0.0, delta, "weak")
            assert not prof.two_wells

    def test_wells_straddle_twice_mu(self):
        for delta in (0.02, 0.021, 0.0224):
            prof = thermo.profile(0.2, 1e-3, delta, "full")
            if prof.two_wells:
                assert prof.rho_low <= 0.4 <= prof.rho_high

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            thermo.profile(0.2, 0.0, 0.02, "weak", grid_size=100)

    def test_batch_matches_single_calls(self):
        # one batch per mode with mixed mu and delta; a vacuum entry and
        # single-well entries
        batches = {
            "weak": ([0.2, -0.3, 0.4], [0.0, 0.0, 0.0], [0.0212, 0.1, 0.09],
                     [True, False, True]),
            "full": ([0.2, 0.25, 0.2], [1e-3, 1e-3, 0.05], [0.021, 0.0, 0.3],
                     [True, False, False]),
        }
        for mode, (mu, kappa, delta, two_wells) in batches.items():
            batch = thermo.profile(mu, kappa, delta, mode, grid_size=2048)
            assert isinstance(batch, tuple) and len(batch) == len(mu)
            singles = [thermo.profile(m, k, d, mode, grid_size=2048)
                       for m, k, d in zip(mu, kappa, delta)]
            assert [p.two_wells for p in singles] == two_wells
            for got, want in zip(batch, singles):
                for name in ("mu", "kappa", "delta", "mode", "rho_min",
                             "rho_low", "rho_high", "delta_q_min", "wells"):
                    assert getattr(got, name) == getattr(want, name), name
                assert np.array_equal(got.rho, want.rho)
                assert np.array_equal(got.q, want.q)

    def test_scalars_repeat_across_a_sequence(self):
        deltas = [0.02, 0.0224]
        batch = thermo.profile(0.2, 0.0, deltas, "weak")
        for got, delta in zip(batch, deltas):
            assert got.rho_min == thermo.profile(0.2, 0.0, delta).rho_min

    def test_zero_pairing_gives_empty_chain(self):
        prof = thermo.profile(0.2, 0.0, 0.0, "weak")
        assert thermo.density_thermo(prof) == 0.0

    @pytest.mark.parametrize("delta", [0.0, 0.01, [0.0, 0.0], [0.0, 0.01]])
    def test_unknown_mode_rejected_for_every_delta(self, delta):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            thermo.profile(0.2, 0.0, delta, "bogus")

    @pytest.mark.parametrize("delta", [0.0, 0.01, [0.0, 0.0], [0.0, 0.01]])
    def test_full_mode_needs_kappa_for_every_delta(self, delta):
        with pytest.raises(DomainError, match="full mode requires kappa > 0"):
            thermo.profile(0.2, 0.0, delta, "full")
        with pytest.raises(DomainError, match="full mode requires kappa > 0"):
            thermo.profile(0.2, [1e-3, 0.0], delta, "full")

    def test_vacuum_profile_keeps_a_valid_mode(self):
        prof = thermo.profile(0.2, 1e-3, 0.0, "full")
        assert prof.mode == "full" and thermo.density_thermo(prof) == 0.0


class TestCriticalDelta:
    def test_weak_dissipation_value(self):
        assert thermo.critical_delta(0.2, mode="weak") == pytest.approx(
            0.02122, abs=2e-4)

    def test_finite_dissipation_value(self):
        assert thermo.critical_delta(0.2, kappa=1e-3, mode="full") == (
            pytest.approx(0.02138, abs=2e-4))

    def test_dissipation_shifts_boundary_up(self):
        weak = thermo.critical_delta(0.2, mode="weak")
        full = thermo.critical_delta(0.2, kappa=1e-3, mode="full")
        assert full > weak

    def test_no_window_beyond_terminal_point(self):
        with pytest.raises(NoBistableWindowError):
            thermo.critical_delta(0.45, kappa=0.2, mode="full")

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            thermo.critical_delta(0.7)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(DomainError):
            thermo.critical_delta(0.2, tol=tol)


    @pytest.mark.parametrize("kappa,mode", [(0.0, "weak"), (1e-3, "full")])
    def test_sequence_matches_scalar_calls(self, kappa, mode):
        mus = np.linspace(0.1, 0.4, 4)
        got = thermo.critical_delta(mus, kappa=kappa, mode=mode)
        assert isinstance(got, tuple)
        want = tuple(thermo.critical_delta(m, kappa=kappa, mode=mode)
                     for m in mus)
        assert got == want
        assert all(type(v) is float for v in got)

    def test_sequence_raises_first_failure_in_mu_order(self):
        # 0.04 is a single-well crossover, found only after the bisection;
        # 0.49 fails the endpoint check before it, and must not win
        with pytest.raises(NoBistableWindowError, match="single-well"):
            thermo.critical_delta([0.3, 0.04, 0.49], kappa=0.05, mode="full")
        with pytest.raises(NoBistableWindowError, match="no low-to-high"):
            thermo.critical_delta([0.3, 0.49, 0.04], kappa=0.05, mode="full")
        with pytest.raises(DomainError, match="0 < mu < 1/2"):
            thermo.critical_delta([0.2, 0.7, 0.04], kappa=0.05, mode="full")
        # a setting every entry shares fails each valid entry, in order
        with pytest.raises(DomainError, match="0 < mu < 1/2"):
            thermo.critical_delta([0.7, 0.2], kappa=0.0, mode="full")
        with pytest.raises(DomainError, match="kappa > 0"):
            thermo.critical_delta([0.2, 0.7], kappa=0.0, mode="full")

    # (mu, kappa) where labelling the wells by rho = 2 mu returned a point
    # off the line, with depth gaps 5.8e-4, 2.0e-3 and 4.6e-3; and
    # mu = 0.05 at kappa = 0.05, which that labelling called a crossover
    OFF_LINE = [(0.057, 0.05), (0.13, 0.1), (0.41, 0.1), (0.05, 0.05)]

    @pytest.mark.parametrize("kappa", [0.05, 0.1])
    def test_deepest_wells_level_at_every_returned_delta(self, kappa):
        # Q depends on delta only through -(1 + ln delta) rho, so the gap
        # between two wells moves at |dQ/ddelta| = |rho_1 - rho_2| / delta;
        # a bracket narrower than tol holds the level point within tol
        tol = 1e-6
        rho = np.linspace(0.0, 1.0, 2**18 + 2)[1:-1]
        named = [m for m, k in self.OFF_LINE if k == kappa]
        mus = named + np.round(np.arange(0.03, 0.5, 0.04), 2).tolist()
        checked = 0
        for mu in mus:
            try:
                d = thermo.critical_delta(mu, kappa=kappa, mode="full",
                                          tol=tol)
            except NoBistableWindowError:
                assert (mu, kappa) not in self.OFF_LINE
                continue
            # the two deepest grid minima of Q, each refined by a parabola
            q = thermo.free_energy(rho, mu, kappa, d, "full")
            i = np.nonzero((q[1:-1] < q[:-2]) & (q[1:-1] <= q[2:]))[0] + 1
            a, b, c = q[i - 1], q[i], q[i + 1]
            depth = b - (c - a) ** 2 / (8.0 * (c - 2.0 * b + a))
            two = np.argsort(depth)[:2]
            assert two.size == 2, (mu, kappa)
            gap = abs(depth[two[0]] - depth[two[1]])
            slope = abs(rho[i[two[0]]] - rho[i[two[1]]]) / d
            assert gap <= tol * slope, (mu, kappa, d, gap)
            checked += 1
        assert checked > 2 * len(named)

    def test_sequence_bisection_cap(self, monkeypatch):
        monkeypatch.setattr(thermo, "MAX_BISECTIONS", 3)
        with pytest.raises(IterationLimitError, match="after 3 halvings"):
            thermo.critical_delta([0.2, 0.3])


class TestDensityThermo:
    @pytest.mark.parametrize("delta", [0.020, 0.0224])
    def test_matches_exact_large_chain(self, delta):
        prof = thermo.profile(0.2, 1e-8, delta, "full")
        p = ModelParams(L=100_000, bc=PBC, mu=0.2, delta=delta, e_c=1.0,
                        kappa=1e-8)
        exact = ss.mean_density(ss.build_coefficients(p))
        assert thermo.density_thermo(prof) == pytest.approx(exact, abs=1e-3)

    def test_density_jump_across_transition(self):
        dc = thermo.critical_delta(0.2, mode="weak", tol=1e-7)
        lo = thermo.density_thermo(thermo.profile(0.2, 0.0, dc - 1e-4, "weak"))
        hi = thermo.density_thermo(thermo.profile(0.2, 0.0, dc + 1e-4, "weak"))
        assert hi - lo > 0.1


class TestWellDepthMonotonicity:
    # delta_q_min = Q(rho_high) - Q(rho_low) must fall with delta (the high
    # well deepens until it wins) and rise with mu (a larger mu raises the
    # boundary, pushing the system back toward the low phase); this is the
    # monotonicity that makes the bisection for the critical line valid.

    def test_monotone_in_delta(self):
        deltas = np.linspace(0.0205, 0.0220, 6)
        dq = [thermo.profile(0.2, 0.0, d, "weak").delta_q_min for d in deltas]
        assert all(q is not None for q in dq)
        assert np.all(np.diff(dq) < 0)

    def test_monotone_in_mu(self):
        mus = np.linspace(0.18, 0.22, 5)
        dq = [thermo.profile(m, 0.0, 0.021, "weak").delta_q_min for m in mus]
        assert all(q is not None for q in dq)
        assert np.all(np.diff(dq) > 0)

    def test_sign_convention_consistent_with_phases(self):
        # positive difference <=> low well global <=> low-density phase
        dc = thermo.critical_delta(0.2, mode="weak")
        below = thermo.profile(0.2, 0.0, dc - 5e-4, "weak")
        above = thermo.profile(0.2, 0.0, dc + 5e-4, "weak")
        assert below.delta_q_min > 0 and below.rho_min == below.rho_low
        assert above.delta_q_min < 0 and above.rho_min == above.rho_high


class TestAgainstExactDistribution:
    def test_log_probabilities_converge_to_free_energy(self):
        # -(1/L) ln p_n at L = 1e5 equals Q(rho) up to one additive constant
        L = 100_000
        p = ModelParams(L=L, bc=PBC, mu=0.2, delta=0.021, e_c=1.0, kappa=1e-8)
        tbl = ss.build_coefficients(p)
        n = np.arange(tbl.chain.n_max + 1)
        rho = 2.0 * n / L
        sel = (rho >= 0.02) & (rho <= 0.95)
        # ln p_n from the log-domain weights: p itself underflows far from
        # the wells at this system size
        log_p = 2.0 * tbl.alpha_log_mag + tbl.chain.log_counts - tbl.log_norm
        f = -log_p[sel] / L
        q = thermo.free_energy(rho[sel], 0.2, 1e-8, 0.021, "full")
        resid = f - q
        shift = 0.5 * (resid.max() + resid.min())
        assert np.abs(resid - shift).max() < 5e-3


class TestBetaAsymptotic:
    def test_matches_exact_coefficients(self):
        L, mu, kappa, delta = 10_000, 0.2, 1e-4, 0.02
        p = ModelParams(L=L, bc=PBC, mu=mu, delta=delta, e_c=1.0, kappa=kappa)
        tbl = ss.build_coefficients(p)
        for rho in (0.1, 0.3, 0.6):
            n = int(round(rho * L / 2))
            exact = 0.5 * (2.0 * tbl.alpha_log_mag[n] + tbl.chain.log_counts[n]
                           - tbl.log_norm)
            approx = thermo.beta_asymptotic(rho, mu, kappa, delta, L)
            assert approx == pytest.approx(exact, rel=1e-2)

    def test_log_magnitude_finite_near_edges(self):
        for rho in (1e-6, 1.0 - 1e-6):
            assert np.isfinite(
                thermo.beta_asymptotic(rho, 0.2, 1e-4, 0.02, 2000))

    def test_reproduces_free_energy_scaling(self):
        # -(2/L) ln|beta(rho)| -> Q(rho) + const up to O(log L / L)
        L, mu, kappa, delta = 50_000, 0.2, 1e-4, 0.021
        rho = np.array([0.1, 0.25, 0.5, 0.8])
        lb = np.array([thermo.beta_asymptotic(r, mu, kappa, delta, L)
                       for r in rho])
        q = thermo.free_energy(rho, mu, kappa, delta, "full")
        resid = -2.0 * lb / L - q
        assert resid.max() - resid.min() < np.log(L) / L * 20

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            thermo.beta_asymptotic(1.2, 0.2, 1e-4, 0.02, 5000)
        with pytest.raises(DomainError):
            thermo.beta_asymptotic(0.5, 0.2, 1e-4, 0.02, 50)
