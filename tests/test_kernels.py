"""The log-domain kernels must match plain-Python reference loops, and the
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


def _python_logsumexp_real(log_vals):
    """Max-shifted log-sum-exp, one term at a time."""
    if len(log_vals) == 0:
        return -math.inf
    shift = max(log_vals)
    if shift == -math.inf:
        return -math.inf
    return shift + math.log(sum(math.exp(v - shift) for v in log_vals))


def _python_logsumexp_complex(log_mag, phase):
    """(ln|s|, arg s) of s = sum exp(log_mag + i phase), one term at a time."""
    shift = max(log_mag, default=-math.inf)
    if shift == -math.inf:
        return -math.inf, 0.0
    re = im = 0.0
    for lm, ph in zip(log_mag, phase):
        if lm > -math.inf:
            r = math.exp(lm - shift)
            re += r * math.cos(ph)
            im += r * math.sin(ph)
    mag = math.hypot(re, im)
    if mag == 0.0:
        return -math.inf, 0.0
    return shift + math.log(mag), math.atan2(im, re)


def _python_coefficient_logs(log_prefactor, mu, kappa, e_c, L, n_max):
    """Running sums of ln|a_n| and arg a_n, one factor at a time."""
    log_mag, phase = [0.0], [0.0]
    z_im = 0.5 * kappa
    for m in range(1, n_max + 1):
        z_re = mu - (e_c / L) * m
        log_mag.append(log_mag[-1] + log_prefactor
                       - 0.5 * math.log(z_re * z_re + z_im * z_im))
        phase.append(phase[-1] - math.atan2(z_im, z_re))
    return np.array(log_mag), np.array(phase)


def _kernel_logsumexp_complex(log_mag, phase):
    """The kernel, which takes the unit factors exp(i phase)."""
    return kernels.logsumexp_complex(log_mag, np.exp(1j * phase))


REAL = (kernels.logsumexp_real, _python_logsumexp_real)
COMPLEX = (_kernel_logsumexp_complex, _python_logsumexp_complex)


class TestLogsumexpReal:
    def test_agreement(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(scale=50.0, size=400)
        assert kernels.logsumexp_real(vals) == pytest.approx(
            _python_logsumexp_real(vals), rel=1e-13)

    def test_empty_and_all_minus_inf(self):
        for fn in REAL:
            assert fn(np.array([])) == -math.inf
            assert fn(np.full(4, -math.inf)) == -math.inf

    def test_matches_direct_sum(self):
        vals = np.log(np.array([1.0, 2.0, 3.0]))
        for fn in REAL:
            assert fn(vals) == pytest.approx(math.log(6.0), rel=1e-14)


class TestLogsumexpComplex:
    def test_agreement(self):
        rng = np.random.default_rng(2)
        lm = rng.normal(scale=30.0, size=300)
        ph = rng.uniform(-np.pi, np.pi, size=300)
        a = _kernel_logsumexp_complex(lm, ph)
        b = _python_logsumexp_complex(lm, ph)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)

    def test_exact_zeros_propagate(self):
        lm = np.full(3, -math.inf)
        ph = np.array([0.0, 1.0, -2.0])
        for fn in COMPLEX:
            out = fn(lm, ph)
            assert out[0] == -math.inf and out[1] == 0.0
            assert fn(np.array([]), np.array([])) == (-math.inf, 0.0)
            # a zero term leaves the sum of the others unchanged
            assert fn(np.array([0.0, -math.inf]),
                      np.array([0.3, 1.0])) == (0.0, 0.3)

    def test_matches_direct_sum(self):
        z = np.array([1 + 2j, -0.5 + 0.1j, 0.3 - 3j])
        lm = np.log(np.abs(z))
        ph = np.angle(z)
        direct = z.sum()
        for fn in COMPLEX:
            out = fn(lm, ph)
            val = math.exp(out[0]) * complex(math.cos(out[1]),
                                             math.sin(out[1]))
            assert val == pytest.approx(direct, rel=1e-13)


def _plain_logsumexp_real(log_vals):
    """The full-array formula: exp of every term, then one sum."""
    if log_vals.size == 0:
        return -math.inf
    shift = float(np.max(log_vals))
    if shift == -math.inf:
        return -math.inf
    return shift + math.log(float(np.sum(np.exp(log_vals - shift))))


def _plain_logsumexp_complex(log_mag, factor):
    """The full-array formula: every term times every factor, then one sum."""
    if log_mag.size == 0:
        return -math.inf, 0.0
    shift = float(np.max(log_mag))
    if shift == -math.inf:
        return -math.inf, 0.0
    acc = np.sum(np.exp(log_mag - shift) * factor)
    if acc == 0:
        return -math.inf, 0.0
    return shift + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


# the largest double whose exp is 0.0, its neighbour with a subnormal exp,
# and the floor of the span with its neighbours
EDGES = (-745.1332191019412, np.nextafter(-745.1332191019412, 0.0),
         kernels.EXP_FLOOR, np.nextafter(kernels.EXP_FLOOR, 0.0),
         np.nextafter(kernels.EXP_FLOOR, -np.inf))


def _span_cases(n, rng):
    """Arrays of n log-terms with max 0.0 and dead runs in various places."""
    live = np.append(rng.uniform(-745.0, 0.0, n - 1), 0.0)
    rng.shuffle(live)
    dead = rng.uniform(-2000.0, -746.5, n)
    k = n // 3
    edges = np.resize(np.array(EDGES + (-np.inf, 0.0)), n)
    rng.shuffle(edges)
    yield "live", live
    yield "dead head", np.concatenate([dead[:k], live[k:]])
    yield "dead tail", np.concatenate([live[:n - k], dead[n - k:]])
    yield "dead middle", np.concatenate([live[:k], dead[k:n - k],
                                         live[n - k:]])
    yield "dead both ends", np.concatenate([dead[:k], live[k:n - k],
                                            dead[n - k:]])
    yield "edges", edges
    with_nan = np.concatenate([dead[:k], live[k:n - k], dead[n - k:]])
    with_nan[n - k - 1] = np.nan
    yield "nan", with_nan
    lone_nan = dead.copy()
    lone_nan[k] = np.nan
    lone_nan[n - k - 1] = 0.0
    yield "nan in dead head", lone_nan
    with_inf = np.concatenate([dead[:k], live[k:]])
    with_inf[::7] = -np.inf
    with_inf[-1] = 0.0
    yield "-inf", with_inf


SIZES = (1, 40, kernels.SPAN_MIN_SIZE - 1, kernels.SPAN_MIN_SIZE,
         3 * kernels.SPAN_MIN_SIZE + 7)


class TestExpSpan:
    @pytest.mark.parametrize("n", SIZES)
    def test_equals_full_exp(self, n):
        rng = np.random.default_rng(n)
        for name, x in _span_cases(n, rng):
            want = np.exp(x)
            out = np.full(n, 7.0)
            lo, hi = kernels.exp_span(x, out)
            assert _bits(out) == _bits(want), name
            assert not (x[:lo] >= kernels.EXP_FLOOR).any()
            assert not (x[hi:] >= kernels.EXP_FLOOR).any()
            # in place, as the steady-state table calls it
            y = x.copy()
            assert kernels.exp_span(y, y) == (lo, hi)
            assert _bits(y) == _bits(want), name

    def test_span_skips_dead_ends(self):
        n = kernels.SPAN_MIN_SIZE
        x = np.full(n, -800.0)
        x[100] = np.nan
        x[200] = -746.0
        out = np.empty(n)
        assert kernels.exp_span(x, out) == (100, 201)
        assert np.isnan(out[100]) and out[200] == 0.0
        # below the gate every entry is exponentiated
        assert kernels.exp_span(x[:n - 1], out[:n - 1]) == (0, n - 1)

    @pytest.mark.parametrize("n", [0, 1, kernels.SPAN_MIN_SIZE])
    def test_all_dead_and_empty(self, n):
        for x in (np.full(n, -np.inf), np.full(n, -1000.0)):
            out = np.full(n, 7.0)
            kernels.exp_span(x, out)
            assert _bits(out) == _bits(np.zeros(n))
        if n >= kernels.SPAN_MIN_SIZE:
            assert kernels.exp_span(x, out) == (0, 0)

    @pytest.mark.parametrize("n", SIZES)
    def test_logsumexp_real_bits(self, n):
        rng = np.random.default_rng(100 + n)
        for name, x in _span_cases(n, rng):
            got = kernels.logsumexp_real(x)
            assert _bits(got) == _bits(_plain_logsumexp_real(x)), name

    @pytest.mark.parametrize("n", SIZES)
    def test_logsumexp_complex_bits(self, n):
        rng = np.random.default_rng(200 + n)
        for name, x in _span_cases(n, rng):
            phase = rng.uniform(-np.pi, np.pi, n)
            phase[::5] = 0.0
            factor = np.exp(1j * phase)
            want = _bits(_plain_logsumexp_complex(x, factor))
            assert _bits(kernels.logsumexp_complex(x, factor)) == want, name


class TestCoefficientLogs:
    def test_agreement(self):
        args = (math.log(0.021), 0.2, 1e-3, 1.0, 5000.0, 2499)
        a = kernels.coefficient_logs(*args)
        b = _python_coefficient_logs(*args)
        assert np.allclose(a[0], b[0], rtol=1e-12, atol=1e-12)
        assert np.allclose(a[1], b[1], rtol=1e-12, atol=1e-12)

    def test_first_entries(self):
        lm, ph = kernels.coefficient_logs(math.log(0.1), 0.3, 0.2, 1.0,
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

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("K", [1, 5, 150])
    @pytest.mark.parametrize("e_c,fs", [
        ((1.0, -0.6, 0.3), (1.0, 0.0, 1.0)),  # pair-breaking term kept
        ((1.0, 0.5, -2.0), (0.0, 0.0, 0.0)),  # spin closures only
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0)),   # fermion closure at e_c = 0
    ])
    def test_one_step_equals_public_rhs(self, T, K, e_c, fs):
        # records[:, 1] of one step is s + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        # with every slope from the public RHS, bit for bit
        rng = np.random.default_rng(10 * T + K)
        L, dt = 2.0 * K, 0.008
        st = [_random_moments(2 * K, seed) for seed in rng.integers(99, size=T)]
        s = np.concatenate([sm for sm, _ in st])
        z = np.concatenate([sz for _, sz in st])
        dk = np.tile(0.3 * np.sin(ps.momentum_grid(2 * K)), T)
        params = (rng.uniform(-0.3, 0.3, T), np.array(e_c[:T]),
                  rng.uniform(0.005, 0.05, T), L, np.array(fs[:T]))

        def rhs(s, z):
            return kernels.moment_rhs(s, z, dk, *params)

        k1 = rhs(s, z)
        k2 = rhs(s + dt / 2 * k1[0], z + dt / 2 * k1[1])
        k3 = rhs(s + dt / 2 * k2[0], z + dt / 2 * k2[1])
        k4 = rhs(s + dt * k3[0], z + dt * k3[1])
        want = [x + dt / 6 * (a + 2 * b + 2 * c + d)
                for x, a, b, c, d in zip((s, z), k1, k2, k3, k4)]
        rec = kernels.rk4_moments(s, z, dk, *params, dt, 1, 1)
        for got, ref in zip(rec, want):
            assert got.shape == (T, 2, K)
            assert np.array_equal(_int_view(got[:, 1]),
                                  _int_view(ref.reshape(T, K)))

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


def _int_view(a):
    """The bits of a float or complex array, so that -0.0 != +0.0."""
    return np.ascontiguousarray(a).view(np.int64)


def _random_moments(L, seed):
    """(s_minus, s_z) inside the Bloch ball for every pair of an L ring."""
    rng = np.random.default_rng(seed)
    K = L // 2
    s_z = rng.uniform(-1.0, 1.0, K)
    r = 0.5 * np.sqrt(1.0 - s_z**2) * rng.uniform(0.0, 1.0, K)
    return r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, K)), s_z
