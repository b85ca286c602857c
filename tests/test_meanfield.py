import numpy as np
import pytest
from scipy.integrate import quad

from cqa_fermi import cli, fock, meanfield as mf, steadystate as ss
from cqa_fermi.core import PBC, ModelParams, nearest_neighbor_pairing
from cqa_fermi.errors import NoBistableWindowError
from conftest import invert_critical_line


class TestResidual:
    def test_vacuum_self_consistent_without_pairing(self):
        assert mf.self_consistency_residual(0.0, 0.3, 0.0, 1.0, 0.01) == 0.0

    def test_free_limit_closed_form(self):
        mu, delta, kappa = 0.2, 0.1, 0.05
        a = mu**2 + kappa**2 / 4
        root = 0.5 * (1 - np.sqrt(a) / np.sqrt(a + 4 * delta**2))
        assert mf.self_consistency_residual(root, mu, delta, 0.0, kappa) == (
            pytest.approx(0.0, abs=1e-15))

    def test_half_filling_never_self_consistent(self):
        assert mf.self_consistency_residual(0.5, 0.2, 0.1, 1.0, 0.01) > 0


class TestSolveRoots:
    def test_three_roots_near_transition(self):
        r = mf.solve_roots(0.2, 0.0212, 1.0, 0.01)
        assert r.count == 3
        assert r.stable == (True, False, True)
        assert all(0 <= x <= 0.5 for x in r.roots)
        assert list(r.roots) == sorted(r.roots)

    def test_single_root_at_negative_mu(self):
        assert mf.solve_roots(-0.3, 0.1, 1.0, 0.01).count == 1

    def test_free_limit_single_root(self):
        for mu, delta, kappa in ((0.2, 0.1, 0.01), (-0.4, 0.3, 0.2)):
            r = mf.solve_roots(mu, delta, 0.0, kappa)
            assert r.count == 1
            assert r.stable == (True,)

    def test_roots_satisfy_unsquared_equation(self):
        for mu in (0.1, 0.2, 0.3, 0.45):
            r = mf.solve_roots(mu, 0.05, 1.0, 0.01)
            for x in r.roots:
                assert abs(mf.self_consistency_residual(
                    x, mu, 0.05, 1.0, 0.01)) < 1e-12

    def test_spurious_quartic_roots_rejected(self):
        # the radical-cleared quartic admits sign-branch solutions that
        # violate the original equation by a finite amount
        mu, delta, e_c, kappa = 0.2, 0.05, 1.0, 0.01
        b = mu**2 + kappa**2 / 4
        coeffs = [e_c**2, -(2 * e_c * mu + e_c**2),
                  b + 2 * e_c * mu + 4 * delta**2,
                  -(b + 4 * delta**2), delta**2]
        quartic = [z.real for z in np.roots(coeffs)
                   if abs(z.imag) < 1e-9 and -1e-9 <= z.real <= 0.5 + 1e-9]
        kept = mf.solve_roots(mu, delta, e_c, kappa).roots
        rejected = [x for x in quartic
                    if all(abs(x - r) > 1e-6 for r in kept)]
        for x in rejected:
            assert abs(mf.self_consistency_residual(
                x, mu, delta, e_c, kappa)) > 1e-6


class TestBistableRegion:
    def test_region_confined_to_critical_mu_range(self):
        mus = np.linspace(-0.1, 0.7, 33)
        deltas = np.linspace(0.005, 0.3, 24)
        grid = mf.bistable_region(mus, deltas, 1.0, 0.01)
        outside = (mus < 0) | (mus > 0.5)
        assert not grid[outside].any()
        assert grid.any()

    def test_window_contains_transition_at_mu_02(self):
        deltas = np.linspace(0.005, 0.1, 40)
        grid = mf.bistable_region(np.array([0.2]), deltas, 1.0, 0.01)
        window = deltas[grid[0]]
        assert window.size > 0
        assert window.min() < 0.0212 < window.max()

    def test_strong_dissipation_destroys_bistability(self):
        mus = np.linspace(0.0, 0.5, 21)
        deltas = np.linspace(0.01, 0.3, 16)
        assert not mf.bistable_region(mus, deltas, 1.0, 1.0).any()

    def test_grid_bounds_enforced(self):
        with pytest.raises(ValueError):
            mf.bistable_region(np.array([0.9]), np.array([0.1]), 1.0, 0.01)


class TestMaxwell:
    def test_inside_fold_window(self):
        mu_star = mf.maxwell_transition(0.1, 1.0, 0.01)
        lo, hi = mf._fold_window(0.1, 1.0, 0.01)
        assert lo < mu_star < hi

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1])
    def test_does_not_predict_exact_transition(self, delta):
        mu_star = mf.maxwell_transition(delta, 1.0, 0.01)
        mu_exact = invert_critical_line(delta, kappa=0.01)
        assert abs(mu_star - mu_exact) > 1e-3

    def test_window_closes_at_strong_dissipation(self):
        with pytest.raises(NoBistableWindowError):
            mf.maxwell_transition(0.05, 1.0, 1.0)

    def test_non_positive_tol_rejected(self):
        with pytest.raises(ValueError):
            mf.maxwell_transition(0.05, 1.0, 0.01, tol=0.0)

    def test_tol_below_float_spacing_terminates(self):
        mu_star = mf.maxwell_transition(0.05, 1.0, 0.01, tol=1e-300)
        assert mu_star == pytest.approx(
            mf.maxwell_transition(0.05, 1.0, 0.01), abs=1e-7)

    # recorded with the adaptive scipy quadrature the rule replaced; delta =
    # 0.05 is also the benchmark's mean-field op
    @pytest.mark.parametrize("delta,mu_star", [
        (0.02, 0.16619368033751916),
        (0.05, 0.2748501445361769),
        (0.1, 0.37920881023098774),
    ])
    def test_bytes_pinned(self, delta, mu_star):
        assert mf.maxwell_transition(delta, 1.0, 0.01) == mu_star

    # at kappa = 0 the two upper roots meet within solve_roots' dedupe just
    # inside the upper fold; these points need 1, 2, 2, 4 and 1 doublings of
    # the step in from that edge
    @pytest.mark.parametrize("delta,e_c", [
        (0.02, 1.0), (0.05, 1.0), (0.15, 1.0), (0.005, 0.5), (0.05, 0.5),
    ])
    def test_kappa_zero_continuous(self, delta, e_c):
        assert mf.maxwell_transition(delta, e_c, 0.0) == pytest.approx(
            mf.maxwell_transition(delta, e_c, 1e-6), abs=2e-8)

    def test_edge_doublings_bounded(self, monkeypatch):
        monkeypatch.setattr(mf, "MAX_EDGE_DOUBLINGS", 0)
        with pytest.raises(NoBistableWindowError, match="next to the fold"):
            mf.maxwell_transition(0.02, 1.0, 0.0)

    @pytest.mark.parametrize("delta", ["0.02", "0.05"])
    def test_cli_kappa_zero(self, tmp_path, delta):
        out = tmp_path / "mf.csv"
        assert cli.main(["mean-field", "--mu", "0.2", "--delta", delta,
                         "--kappa", "0", "--maxwell",
                         "--output", str(out)]) == cli.EXIT_OK
        assert "maxwell_mu" in cli.read_header(str(out)).summary

    @pytest.mark.parametrize("e_c", [1.4, 2.0])
    def test_window_above_first_scan(self, tmp_path, e_c):
        # the window runs past mu = 0.65, the top of the first fold scan
        out = tmp_path / "mf.csv"
        assert cli.main(["mean-field", "--mu", "0.3", "--delta", "0.05",
                         "--e-c", str(e_c), "--maxwell",
                         "--output", str(out)]) == cli.EXIT_OK
        mu_star = float(cli.read_header(str(out)).summary["maxwell_mu"])
        lo, hi = mf._fold_window(0.05, e_c, 0.01)
        assert hi > 0.65
        assert lo < mu_star < hi
        assert (mf.maxwell_area(mu_star - 1e-7, 0.05, e_c, 0.01) > 0
                > mf.maxwell_area(mu_star + 1e-7, 0.05, e_c, 0.01))

    def test_window_below_first_scan(self):
        # at e_c < 0 the window mirrors to mu < 0, past the bottom -0.05
        lo, hi = mf._fold_window(0.05, -1.0, 0.01)
        assert lo < -0.05 and lo < hi < 0
        assert (lo, hi) == pytest.approx(
            tuple(-m for m in reversed(mf._fold_window(0.05, 1.0, 0.01))),
            abs=1e-12)

    @pytest.mark.parametrize("e_c,mirror", [
        (-1.0, 0.2748501445361769),
        (-2.0, 0.3787117345606608),
    ])
    def test_negative_coupling_mirrors(self, e_c, mirror):
        # (mu, e_c) -> (-mu, -e_c) maps the S-curve onto itself
        mu_star = mf.maxwell_transition(0.05, e_c, 0.01)
        assert mu_star == -mirror
        lo, hi = mf._fold_window(0.05, e_c, 0.01)
        assert lo < mu_star < hi

    def test_negative_coupling_cli(self, tmp_path):
        out = tmp_path / "mf.csv"
        assert cli.main(["mean-field", "--mu=-0.3", "--delta", "0.05",
                         "--e-c", "-1", "--maxwell",
                         "--output", str(out)]) == cli.EXIT_OK
        assert cli.read_header(str(out)).summary["maxwell_mu"] == (
            "-0.2748501445361769")


def _mp_area(mu_star, n1, n3, delta, e_c, kappa):
    """40-digit area integral(e_c n + sqrt(max(g, 0)) - mu*) dn on [n1, n3].

    The root part is cut at n0 and at n1 * 2^k, so that tanh-sinh sees its
    square-root zero and the 1/sqrt(n) growth near 0 only at panel ends.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        d, k = mp.mpf(delta), mp.mpf(kappa)
        n1, n3, mu_star = mp.mpf(n1), mp.mpf(n3), mp.mpf(mu_star)
        n0 = (1 - (k / 2) / mp.sqrt(4 * d**2 + k**2 / 4)) / 2
        area = e_c * (n3**2 - n1**2) / 2 - mu_star * (n3 - n1)
        top = min(n3, n0)
        if top > n1:
            cuts = [n1]
            while 2 * cuts[-1] < top:
                cuts.append(2 * cuts[-1])
            area += mp.quad(lambda n: mp.sqrt(max(
                d**2 * (1 - 2 * n) ** 2 / (n * (1 - n)) - k**2 / 4, 0)),
                cuts + [top])
        return float(area)


# the stated absolute error bound of the equal-area rule
AREA_TOL = 1e-15


class TestEqualAreaRule:
    @pytest.mark.parametrize("kappa", [0.0, 1e-3, 0.01])
    @pytest.mark.parametrize("delta,e_c", [
        (0.02, 1.0), (0.05, 1.0), (0.1, 1.0), (0.01, 0.5), (0.05, 2.0),
    ])
    def test_area_in_fold_window(self, delta, e_c, kappa):
        lo, hi = mf._fold_window(delta, e_c, kappa)
        for mu_star in (lo + 0.25 * (hi - lo), lo + 0.5 * (hi - lo)):
            r = mf.solve_roots(mu_star, delta, e_c, kappa)
            ref = _mp_area(mu_star, r.roots[0], r.roots[2], delta, e_c,
                           kappa)
            assert abs(mf.maxwell_area(mu_star, delta, e_c, kappa)
                       - ref) < AREA_TOL

    @pytest.mark.parametrize("kappa", [0.0, 1e-8, 1e-3, 0.05])
    @pytest.mark.parametrize("delta", [0.005, 0.05, 0.3])
    @pytest.mark.parametrize("n1,below_n0", [
        (1e-10, 0.0),    # small n1, top exactly at n0
        (1e-4, 1e-9),    # top just below n0
        (0.01, 1e-4),
        (0.02, -0.01),   # top above n0: only [n1, n0] counts
    ])
    def test_root_area(self, delta, kappa, n1, below_n0):
        n0 = 0.5 * (1 - 0.5 * kappa / np.hypot(2 * delta, 0.5 * kappa))
        n3 = min(n0 - below_n0, 0.5)
        ref = _mp_area(0.0, n1, n3, delta, 0.0, kappa)
        assert abs(mf._root_area(n1, n3, delta, kappa) - ref) < AREA_TOL

    def test_kappa_zero_closed_form(self):
        # at kappa = 0 the root part is 2 delta [sqrt(n (1 - n))]
        n1, n3, delta = 0.01, 0.4, 0.05
        exact = 2 * delta * (np.sqrt(n3 * (1 - n3)) - np.sqrt(n1 * (1 - n1)))
        assert abs(mf._root_area(n1, n3, delta, 0.0) - exact) < AREA_TOL


class TestModeOccupation:
    def test_undriven_mode_empty(self):
        assert mf.nk_steady(0.0, 0.1, 0.2, 0.3, 1.0, 0.01) == 0.0

    def test_saturates_at_half(self):
        assert mf.nk_steady(np.pi / 2, 0.0, 0.2, 1e8, 0.0, 0.01) == (
            pytest.approx(0.5, abs=1e-12))

    def test_integral_reproduces_self_consistency_rhs(self):
        nbar, mu, delta, kappa = 0.13, 0.2, 0.05, 0.01
        val, _ = quad(lambda k: mf.nk_steady(k, nbar, mu, delta, 1.0, kappa),
                      -np.pi, np.pi)
        val /= 2 * np.pi
        a = (nbar - mu) ** 2 + kappa**2 / 4
        rhs = 0.5 * (1 - np.sqrt(a) / np.sqrt(a + 4 * delta**2))
        assert val == pytest.approx(rhs, abs=1e-12)


class TestFreeFiniteDensity:
    def test_no_pairing_empty(self):
        assert mf.free_finite_L_density(8, 0.2, 0.0, 0.1) == 0.0

    def test_matches_exact_diagonalization(self):
        L, mu, delta, kappa = 6, 0.2, 0.3, 0.01
        ops = fock.build_operators(L)
        H = fock.build_hamiltonian(nearest_neighbor_pairing(L, delta, PBC),
                                   mu, 0.0, ops)
        rho = fock.steady_state(fock.build_liouvillian(H, ops, kappa))
        n_tot = fock.total_number(L)
        ed = float(np.sum((n_tot @ rho).diagonal()).real) / L
        assert mf.free_finite_L_density(L, mu, delta, kappa) == (
            pytest.approx(ed, abs=1e-10))

    def test_converges_to_thermodynamic_closed_form(self):
        dens = mf.free_finite_L_density(10_000, 0.2, 0.05, 0.01)
        closed = mf.solve_roots(0.2, 0.05, 0.0, 0.01).roots[0]
        assert dens == pytest.approx(closed, abs=1e-6)


def test_stable_branches_track_exact_density():
    """Away from the transition the outer mean-field branches stay within
    0.02 of the exact finite-chain density."""
    for mu in (0.05, 0.45):
        for delta in (0.05, 0.15):
            p = ModelParams(L=2000, bc=PBC, mu=mu, delta=delta, e_c=1.0,
                            kappa=0.01)
            exact = ss.mean_density(ss.build_coefficients(p))
            r = mf.solve_roots(mu, delta, 1.0, 0.01)
            stable = [x for x, s in zip(r.roots, r.stable) if s]
            assert min(abs(exact - x) for x in stable) < 0.02


def test_fold_edges_match_discriminant_zeros():
    """Root-count changes happen where the quartic's discriminant vanishes."""
    sympy = pytest.importorskip("sympy")
    delta, e_c, kappa = 0.05, 1.0, 0.01
    lo, hi = mf._fold_window(delta, e_c, kappa)
    x, m = sympy.symbols("x m", real=True)
    d_r, k_r = sympy.Rational(1, 20), sympy.Rational(1, 100)  # exact 0.05, 0.01
    poly = sympy.Poly(
        x * (x - 1) * ((x - m) ** 2 + k_r**2 / 4) + d_r**2 * (1 - 2 * x) ** 2,
        x,
    )
    disc = sympy.lambdify(m, poly.discriminant(), "numpy")
    for edge in (lo, hi):
        # bracket the sign change of the discriminant around the fold edge
        a, c = edge - 1e-4, edge + 1e-4
        fa, fc = disc(a), disc(c)
        assert fa * fc < 0
        for _ in range(60):
            mid = 0.5 * (a + c)
            if disc(mid) * fa <= 0:
                c = mid
            else:
                a, fa = mid, disc(mid)
        assert abs(0.5 * (a + c) - edge) < 1e-8
