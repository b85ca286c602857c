"""The two kernel backends must agree on every exported reduction, and the
batched RK4 integrator must match an independent per-element loop."""

import math
import pathlib

import numpy as np
import pytest

from cqa_fermi import cli, kernels, pseudospin as ps
from cqa_fermi.core import PBC, ModelParams

DATA = pathlib.Path(__file__).parent / "data"


def normalize(text):
    """Output lines without the commit line, which changes every commit."""
    return [l for l in text.splitlines() if not l.startswith("# git ")]


PAIRS = [
    (kernels._logsumexp_real_np, kernels._logsumexp_real_nb),
    (kernels._logsumexp_complex_np, kernels._logsumexp_complex_nb),
]


def test_backend_flag_exposed():
    assert isinstance(kernels.USING_NUMBA, bool)


class TestLogsumexpReal:
    @pytest.mark.parametrize("np_fn,nb_fn", [PAIRS[0]])
    def test_agreement(self, np_fn, nb_fn):
        rng = np.random.default_rng(1)
        vals = rng.normal(scale=50.0, size=400)
        assert np_fn(vals) == pytest.approx(nb_fn(vals), rel=1e-13)

    def test_empty_and_all_minus_inf(self):
        for fn in PAIRS[0]:
            assert fn(np.array([])) == -math.inf
            assert fn(np.full(4, -math.inf)) == -math.inf

    def test_matches_direct_sum(self):
        vals = np.log(np.array([1.0, 2.0, 3.0]))
        for fn in PAIRS[0]:
            assert fn(vals) == pytest.approx(math.log(6.0), rel=1e-14)


class TestLogsumexpComplex:
    def test_agreement(self):
        rng = np.random.default_rng(2)
        lm = rng.normal(scale=30.0, size=300)
        ph = rng.uniform(-np.pi, np.pi, size=300)
        a = kernels._logsumexp_complex_np(lm, ph)
        b = kernels._logsumexp_complex_nb(lm, ph)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_exact_zeros_propagate(self):
        lm = np.full(3, -math.inf)
        ph = np.array([0.0, 1.0, -2.0])
        for fn in (kernels._logsumexp_complex_np,
                   kernels._logsumexp_complex_nb):
            out = fn(lm, ph)
            assert out[0] == -math.inf and out[1] == 0.0

    def test_matches_direct_sum(self):
        z = np.array([1 + 2j, -0.5 + 0.1j, 0.3 - 3j])
        lm = np.log(np.abs(z))
        ph = np.angle(z)
        direct = z.sum()
        for fn in (kernels._logsumexp_complex_np,
                   kernels._logsumexp_complex_nb):
            out = fn(lm, ph)
            val = math.exp(out[0]) * complex(math.cos(out[1]),
                                             math.sin(out[1]))
            assert val == pytest.approx(direct, rel=1e-13)


class TestCoefficientLogs:
    def test_agreement(self):
        args = (math.log(0.021), 0.2, 1e-3, 1.0, 5000.0, 2499)
        a = kernels._coefficient_logs_np(*args)
        b = kernels._coefficient_logs_nb(*args)
        assert np.allclose(a[0], b[0], rtol=1e-12, atol=1e-12)
        assert np.allclose(a[1], b[1], rtol=1e-12, atol=1e-12)

    def test_first_entries(self):
        lm, ph = kernels._coefficient_logs_np(math.log(0.1), 0.3, 0.2, 1.0,
                                              4.0, 1)
        assert lm[0] == 0.0 and ph[0] == 0.0
        # a_1 = 0.1 / (0.05 + 0.1i)
        a1 = 0.1 / complex(0.05, 0.1)
        assert lm[1] == pytest.approx(math.log(abs(a1)), rel=1e-14)
        assert ph[1] == pytest.approx(np.angle(a1), rel=1e-14)


def _python_rk4(s_minus, s_z, dk, mu, e_c, kappa, L, fs, dt, n_steps, stride):
    """Per-element RK4 of one trajectory in plain Python complex arithmetic."""
    K = len(s_minus)

    def rhs(s, z):
        nbar = 0.5 * (sum(z) / K + 1.0)
        coef = 2j * (mu - e_c * nbar - fs * e_c / (2.0 * L)) - kappa
        ds = [coef * s[i] + 2j * dk[i] * z[i]
              - fs * 1j * (e_c / L) * s[i] * (z[i] + 2.0) for i in range(K)]
        dz = [-kappa * (z[i] + 1.0) - 8.0 * dk[i] * s[i].imag
              for i in range(K)]
        return ds, dz

    def shifted(x, k, h):
        return [x[i] + h * k[i] for i in range(K)]

    s, z = [complex(v) for v in s_minus], [float(v) for v in s_z]
    rec_s, rec_z = [s], [z]
    for step in range(1, n_steps + 1):
        k1 = rhs(s, z)
        k2 = rhs(shifted(s, k1[0], dt / 2), shifted(z, k1[1], dt / 2))
        k3 = rhs(shifted(s, k2[0], dt / 2), shifted(z, k2[1], dt / 2))
        k4 = rhs(shifted(s, k3[0], dt), shifted(z, k3[1], dt))
        s = [s[i] + dt / 6 * (k1[0][i] + 2 * k2[0][i] + 2 * k3[0][i]
                              + k4[0][i]) for i in range(K)]
        z = [z[i] + dt / 6 * (k1[1][i] + 2 * k2[1][i] + 2 * k3[1][i]
                              + k4[1][i]) for i in range(K)]
        if step % stride == 0:
            rec_s.append(s)
            rec_z.append(z)
    return np.array(rec_s), np.array(rec_z)


class TestRk4:
    def test_matches_python_loop(self):
        # two trajectories in one call: the fermion closure from the vacuum
        # and the spin closure from a random state with other parameters
        L, K = 10.0, 5
        k = 2.0 * np.pi * np.arange(K) / L
        runs = [  # (s_minus, s_z, dk, mu, e_c, kappa, fs)
            (np.zeros(K, dtype=complex), -np.ones(K), 0.3 * np.sin(k),
             0.2, 1.0, 0.01, 1.0),
            (*_random_moments(10, 7), 0.2 * np.sin(k), -0.3, 0.7, 0.05, 0.0),
        ]
        cols = list(zip(*runs))
        s0, z0, dk = (np.concatenate(c) for c in cols[:3])
        mu, e_c, kappa, fs = (np.array(c) for c in cols[3:])
        rec_s, rec_z = kernels.rk4_moments(s0, z0, dk, mu, e_c, kappa, L,
                                           fs, 0.005, 2000, 200)
        assert rec_s.shape == (2, 11, K) and rec_z.shape == (2, 11, K)
        for t, run in enumerate(runs):
            ref_s, ref_z = _python_rk4(*run[:6], L, run[6], 0.005, 2000, 200)
            assert np.allclose(rec_s[t], ref_s, rtol=1e-12, atol=1e-14)
            assert np.allclose(rec_z[t], ref_z, rtol=1e-12, atol=1e-14)

    def test_batch_equals_single_calls(self):
        # fermion and spin closures, free and interacting, random starts,
        # K = 150 pairs so the density sum takes numpy's pairwise path
        L = 300
        states = [ps.MomentState(kind=kind, k=ps.momentum_grid(L),
                                 s_minus=sm, s_z=sz)
                  for kind, (sm, sz) in zip(
                      (ps.FERMION, ps.SPIN, ps.FERMION, ps.SPIN),
                      (_random_moments(L, seed) for seed in range(4)))]
        params = [ModelParams(L=L, bc=PBC, mu=0.2, delta=0.3, e_c=e_c,
                              kappa=0.01) for e_c in (0.0, 0.0, 1.0, 1.0)]
        batch = ps.integrate_moments(states, params, 2.0, 0.008,
                                     n_samples=11)
        assert isinstance(batch, tuple) and len(batch) == 4
        for st, p, traj in zip(states, params, batch):
            alone = ps.integrate_moments(st, p, 2.0, 0.008, n_samples=11)
            assert isinstance(alone, ps.MomentTrajectory)
            assert traj.kind == alone.kind
            assert np.array_equal(traj.times, alone.times)
            assert np.array_equal(traj.s_minus, alone.s_minus)
            assert np.array_equal(traj.s_z, alone.s_z)

    def test_rhs_matches_batch_rows(self):
        st = [_random_moments(10, seed) for seed in (1, 2)]
        dk = 0.3 * np.sin(ps.momentum_grid(10))
        args = (np.concatenate([s for s, _ in st]),
                np.concatenate([z for _, z in st]), np.tile(dk, 2),
                np.array([0.2, 0.1]), np.array([1.0, 0.5]),
                np.array([0.01, 0.02]), 10.0, np.array([1.0, 0.0]))
        ds, dz = kernels.moment_rhs(*args)
        for t, (s, z) in enumerate(st):
            one = kernels.moment_rhs(s, z, dk, *(a[t] for a in args[3:6]),
                                     10.0, args[7][t])
            assert np.array_equal(ds[5 * t:5 * t + 5], one[0])
            assert np.array_equal(dz[5 * t:5 * t + 5], one[1])

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            kernels.rk4_moments(np.zeros(5, dtype=complex), -np.ones(5),
                                np.zeros(5), np.zeros(2), np.zeros(2),
                                np.full(2, 0.01), 10.0, np.ones(2), 0.01,
                                1, 1)

    @pytest.mark.parametrize("name,argv", [
        ("tfim_L10_ec1.csv", "--L 10 --e-c 1 --t-final 20 --samples 41"),
        # K = 256 > 128 pairs: numpy sums the density pairwise
        ("tfim_L512_ec1.csv", "--L 512 --e-c 1 --t-final 2 --samples 11"),
    ])
    def test_tfim_bytes_pinned(self, tmp_path, name, argv):
        # recorded with the one-trajectory-per-call integrator
        out = tmp_path / name
        assert cli.main(["tfim", *argv.split(), "--output", str(out)]) == 0
        assert normalize(out.read_text()) == normalize(
            (DATA / name).read_text())


def _random_moments(L, seed):
    """(s_minus, s_z) inside the Bloch ball for every pair of an L ring."""
    rng = np.random.default_rng(seed)
    K = L // 2
    s_z = rng.uniform(-1.0, 1.0, K)
    r = 0.5 * np.sqrt(1.0 - s_z**2) * rng.uniform(0.0, 1.0, K)
    return r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, K)), s_z
