"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just reported.
"""

import math
import sys
import time

import numpy as np
import pytest

from cqa_fermi import fock, meanfield as mf, pseudospin as ps, \
    steadystate as ss, thermo
from cqa_fermi.combinatorics import (
    count_genfunc,
    count_obc,
    count_pbc,
    enumerate_dimers,
)
from cqa_fermi.core import OBC, PBC, ModelParams, nearest_neighbor_pairing
from conftest import cqa_state_and_system, dark_pair_operator, fock_expectation


def report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {verdict} ({detail})", file=sys.stdout)
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_critical_pairing_weak_dissipation():
    t0 = time.perf_counter()
    dc = thermo.critical_delta(0.2, mode="weak")
    elapsed = time.perf_counter() - t0
    ok = abs(dc - 0.02122) <= 2e-4 and elapsed < 5.0
    report("criterion 1 (weak-dissipation critical pairing)", ok,
           f"delta_crit={dc:.6f}, target 0.02122+-2e-4, {elapsed:.2f}s")


def test_criterion_02_critical_pairing_finite_dissipation():
    t0 = time.perf_counter()
    dc = thermo.critical_delta(0.2, kappa=1e-3, mode="full")
    elapsed = time.perf_counter() - t0
    ok = abs(dc - 0.02138) <= 2e-4 and elapsed < 5.0
    report("criterion 2 (finite-dissipation critical pairing)", ok,
           f"delta_crit={dc:.6f}, target 0.02138+-2e-4, {elapsed:.2f}s")


def test_criterion_03_thermodynamic_density_prediction():
    details = []
    ok = True
    for delta in (0.020, 0.0224):
        t0 = time.perf_counter()
        prof = thermo.profile(0.2, 1e-8, delta, mode="full")
        predicted = thermo.density_thermo(prof)
        p = ModelParams(L=100_000, bc=PBC, mu=0.2, delta=delta, e_c=1.0,
                        kappa=1e-8)
        exact = ss.mean_density(ss.build_coefficients(p))
        elapsed = time.perf_counter() - t0
        err = abs(exact - predicted)
        ok = ok and err < 1e-3 and elapsed < 30.0
        details.append(f"delta={delta}: |diff|={err:.2e}, {elapsed:.2f}s")
    report("criterion 3 (thermodynamic density at L=1e5)", ok,
           "; ".join(details))


def test_criterion_04_steady_state_cross_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for L in (2, 3, 4):
        for bc in (PBC, OBC):
            for e_c in (0.0, 1.0):
                for mu in (0.1, 0.25, 0.4):
                    for delta in (0.05, 0.15, 0.3):
                        p = ModelParams(L=L, bc=bc, mu=mu, delta=delta,
                                        e_c=e_c, kappa=0.1)
                        psi, _ = cqa_state_and_system(p)
                        rho_cqa = fock.partial_trace_absorber(psi)
                        ops, H = fock._single_system(p)
                        rho_ss = fock.steady_state(
                            fock.build_liouvillian(H, ops, p.kappa))
                        worst = max(worst,
                                    fock.trace_distance(rho_cqa, rho_ss))
                        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    report("criterion 4 (steady-state cross-oracle)", ok,
           f"{count} parameter points, worst trace distance {worst:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_05_closed_form_observables_vs_fock():
    worst = 0.0
    for L in (6, 8):
        p = ModelParams(L=L, bc=PBC, mu=0.23, delta=0.31, e_c=1.0,
                        kappa=0.07)
        psi, system = cqa_state_and_system(p)
        tbl = ss.build_coefficients(p)
        dark = system.dark_ops()
        n_tot = (dark[0].dag() @ dark[0]).matrix
        for d in dark[1:]:
            n_tot = n_tot + (d.dag() @ d).matrix
        worst = max(worst, abs(
            ss.mean_density(tbl)
            - fock_expectation(psi, n_tot).real / (2 * L)))
        raiser = dark_pair_operator(system, PBC)
        bdag_ref = complex(np.vdot(psi, raiser @ psi))
        worst = max(worst, abs(ss.pair_expectation(tbl, 1) - bdag_ref))
        for m in range(1, L // 2 + 1):
            op = dark[0].dag().matrix @ dark[2 * m - 1].dag().matrix
            worst = max(worst, abs(ss.anomalous_correlation(tbl, m)
                                   - fock_expectation(psi, op)))
        for m in range(L // 2 + 1):
            op = dark[0].dag().matrix @ dark[(2 * m) % L].matrix
            worst = max(worst, abs(ss.normal_correlation(tbl, m)
                                   - fock_expectation(psi, op).real))
    antipodal = 0.0
    for L in (6, 10):
        tbl = ss.build_coefficients(ModelParams(
            L=L, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07))
        antipodal = max(antipodal,
                        abs(ss.anomalous_correlation(tbl, (L // 2 + 1) // 2)))
    tbl8 = ss.build_coefficients(ModelParams(
        L=8, bc=PBC, mu=0.23, delta=0.31, e_c=1.0, kappa=0.07))
    bdag = ss.pair_expectation(tbl8, 1)
    endpoint = max(
        abs(ss.anomalous_correlation(tbl8, 1) - bdag / 8),
        abs(ss.anomalous_correlation(tbl8, 4) + bdag / 8),
    )
    ok = worst < 1e-9 and antipodal < 1e-12 and endpoint < 1e-12
    report("criterion 5 (closed-form observables vs Fock)", ok,
           f"worst={worst:.2e}, antipodal={antipodal:.2e}, "
           f"endpoint identity={endpoint:.2e}")


def test_criterion_06_combinatorics_triple_agreement():
    ok = True
    for L in range(2, 15):
        for n in range(L // 2 + 1):
            obc = count_obc(L, n).value
            ok = ok and count_genfunc(L, n).value == obc
            ok = ok and len(enumerate_dimers(L, n, OBC)) == obc
            ok = ok and len(enumerate_dimers(L, n, PBC)) == (
                count_pbc(L, n).value)
    # Fock-norm identity |(B^dag)^n |0>|^2 / (n!)^2 = N(L, n), including the
    # half-filled zero on even rings (count 2, state norm exactly 0)
    worst = 0.0
    half_filled = 0.0
    for L in (4, 6, 8):
        ops = fock.build_operators(L)
        import scipy.sparse as sp
        B = sp.csr_matrix((1 << L, 1 << L), dtype=complex)
        for j in range(L):
            B = B + ops[j].dag().matrix @ ops[(j + 1) % L].dag().matrix
        v = np.zeros(1 << L, dtype=complex)
        v[0] = 1.0
        for n in range(1, L // 2 + 1):
            v = B @ v
            norm_sq = np.vdot(v, v).real / math.factorial(n) ** 2
            if 2 * n == L:
                half_filled = max(half_filled, norm_sq)
                ok = ok and count_pbc(L, n).value == 2
            else:
                worst = max(worst, abs(norm_sq - count_pbc(L, n).value))
    ok = ok and worst < 1e-9 and half_filled < 1e-20
    report("criterion 6 (combinatorics triple agreement)", ok,
           f"L<=14 exact, norm identity worst={worst:.2e}, "
           f"half-filled norm={half_filled:.2e}")


def test_criterion_07_noninteracting_exactness():
    L, mu, delta, kappa = 6, 0.2, 0.3, 0.01
    ops = fock.build_operators(L)
    H = fock.build_hamiltonian(nearest_neighbor_pairing(L, delta, PBC),
                               mu, 0.0, ops)
    rho = fock.steady_state(fock.build_liouvillian(H, ops, kappa))
    ed = float(np.sum((fock.total_number(L).matrix @ rho).diagonal()).real) / L
    ksum = mf.free_finite_L_density(L, mu, delta, kappa)
    closed = ss.mean_density(ss.build_coefficients(
        ModelParams(L=L, bc=PBC, mu=mu, delta=delta, e_c=0.0, kappa=kappa)))
    spread = max(abs(ed - ksum), abs(ed - closed), abs(ksum - closed))
    ok = spread < 1e-10
    report("criterion 7 (noninteracting exactness)", ok,
           f"pairwise spread {spread:.2e}")


def test_criterion_08_mean_field_bistability_and_maxwell():
    r = mf.solve_roots(0.2, 0.0212, 1.0, 0.01)
    three_at_crit = r.count == 3
    deltas = np.linspace(0.005, 0.1, 40)
    window = deltas[mf.bistable_region(np.array([0.2]), deltas, 1.0,
                                       0.01)[0]]
    window_ok = window.size > 0 and window.min() < 0.0212 < window.max()
    mus = np.linspace(-0.1, 0.7, 33)
    grid = mf.bistable_region(mus, np.linspace(0.01, 0.3, 16), 1.0, 0.01)
    outside_empty = not grid[(mus < 0) | (mus > 0.5)].any()
    mismatch = math.inf
    for delta in (0.02, 0.05, 0.1):
        mu_star = mf.maxwell_transition(delta, 1.0, 0.01)
        mu_exact = _invert_critical_line(delta, kappa=0.01)
        mismatch = min(mismatch, abs(mu_star - mu_exact))
    ok = three_at_crit and window_ok and outside_empty and mismatch > 1e-3
    report("criterion 8 (mean-field bistability and Maxwell mismatch)", ok,
           f"3 roots at 0.0212: {three_at_crit}, window contains 0.0212: "
           f"{window_ok}, empty outside [0,0.5]: {outside_empty}, "
           f"min |maxwell - exact| = {mismatch:.4f}")


def _invert_critical_line(delta, kappa, lo=0.05, hi=0.49):
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if thermo.critical_delta(mid, kappa=kappa, mode="full") < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_09_tfim_equivalence_and_breakdown():
    free = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=0.0, kappa=0.01)
    inter = ModelParams(L=10, bc=PBC, mu=0.2, delta=0.3, e_c=1.0, kappa=0.01)
    dt = 0.008
    # free/interacting x fermion/spin as one batched integration
    f0, s0, f1, s1 = ps.integrate_moments(
        [ps.vacuum_state(10, kind) for kind in (ps.FERMION, ps.SPIN) * 2],
        [free, free, inter, inter], 500.0, dt)
    agree = max(np.abs(f0.s_minus - s0.s_minus).max(),
                np.abs(f0.s_z - s0.s_z).max())
    diverge = max(np.abs(f1.s_minus - s1.s_minus).max(),
                  np.abs(f1.s_z - s1.s_z).max())
    ratio_err = abs(ps.interaction_breakdown(0.5, 0.1j, 1.0, 0.01).ratio - 1.5)
    ok = agree < 1e-8 and diverge > 1e-3 and ratio_err < 1e-10
    report("criterion 9 (TFIM equivalence and breakdown)", ok,
           f"free agreement {agree:.2e}, interacting divergence "
           f"{diverge:.2e}, ratio error {ratio_err:.2e}")


def test_criterion_10_htrs_onsager():
    p = ModelParams(L=6, bc=PBC, mu=0.2, delta=0.15, e_c=1.0, kappa=0.01)
    times = np.linspace(0.0, 400.0, 161)
    rep = fock.htrs_breaking(
        p, fock.PerturbationSpec(site=1, gamma_p=0.1 * p.kappa), times,
        gamma_fractions=(0.0, 1.0))
    ok = (rep.asymmetry[0] < 1e-10 and rep.asymmetry[-1] > 1e-6
          and rep.h_eff_mismatch < 1e-9)
    report("criterion 10 (hTRS Onsager property)", ok,
           f"asym(0)={rep.asymmetry[0]:.2e}, "
           f"asym(0.1k)={rep.asymmetry[-1]:.2e}, "
           f"H_eff mismatch={rep.h_eff_mismatch:.2e}")


def test_criterion_11_cascade_nonreciprocity():
    p = ModelParams(L=4, bc=PBC, mu=0.25, delta=0.12, e_c=1.0, kappa=0.1)
    rep = fock.cascade_nonreciprocity_check(p, 0.1)
    ok = (rep.max_system_deviation < 1e-10
          and rep.max_absorber_deviation > 1e-6)
    report("criterion 11 (cascade nonreciprocity)", ok,
           f"upstream dev {rep.max_system_deviation:.2e}, "
           f"downstream dev {rep.max_absorber_deviation:.2e}")
