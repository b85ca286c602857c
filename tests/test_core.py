import cmath
import dataclasses
import math

import numpy as np
import pytest

from cqa_fermi import kernels
from cqa_fermi.core import (
    OBC,
    PBC,
    ModelParams,
    PairingMatrix,
    nearest_neighbor_pairing,
    validate_params,
)
from cqa_fermi.errors import (
    BadLengthError,
    NonPositiveKappaError,
    OddPbcLengthWarning,
)


class TestValidateParams:
    def test_accepts_phase_diagram_parameters(self):
        p = ModelParams(L=400, bc=PBC, mu=0.2, delta=0.1, e_c=1.0, kappa=0.01)
        assert validate_params(p) is p

    def test_zero_kappa_rejected(self):
        with pytest.raises(NonPositiveKappaError):
            validate_params(ModelParams(L=4, bc=PBC, kappa=0.0))

    def test_short_chain_rejected(self):
        with pytest.raises(BadLengthError):
            validate_params(ModelParams(L=1, bc=OBC, kappa=0.1))

    @pytest.mark.parametrize("field", ["mu", "delta", "e_c", "kappa"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        p = ModelParams(L=4, bc=PBC, mu=0.2, delta=0.1, e_c=1.0, kappa=0.1)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            validate_params(dataclasses.replace(p, **{field: value}))

    def test_odd_pbc_warns_but_passes(self):
        p = ModelParams(L=5, bc=PBC, mu=0.1, delta=0.1, kappa=0.1)
        with pytest.warns(OddPbcLengthWarning):
            assert validate_params(p) is p


class TestLogComplex:
    """Log-domain complex arithmetic, (ln|z|, arg z), as the package carries
    it: products through ``kernels.coefficient_logs``, which returns the
    running product a_n = prefactor^n / prod_{m<=n} (mu~ - m e_c/L), and
    sums through ``kernels.logsumexp_complex``."""

    def test_empty_product_is_unity(self):
        lm, ph = kernels.coefficient_logs(math.log(0.3), 0.2, 0.1, 1.0,
                                          4.0, 0)
        assert lm.tolist() == [0.0] and ph.tolist() == [0.0]

    def test_i_times_i(self):
        # mu~ = i for every factor, so a_2 = 1 / (i * i) = -1
        lm, ph = kernels.coefficient_logs(0.0, 0.0, 2.0, 0.0, 4.0, 2)
        assert lm[2] == pytest.approx(0.0, abs=1e-15)
        assert cmath.exp(1j * ph[2]) == pytest.approx(-1.0, abs=1e-15)

    def test_phase_stays_in_half_open_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = rng.normal(size=4) + 1j * rng.normal(size=4)
            _, ph = kernels.logsumexp_complex(np.log(np.abs(vals)),
                                              np.exp(1j * np.angle(vals)))
            assert -math.pi < ph <= math.pi

    def test_product_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu, e_c = rng.normal(size=2)
            kappa = rng.uniform(0.1, 2.0)
            lm, ph = kernels.coefficient_logs(0.0, mu, kappa, e_c, 4.0, 6)
            direct = 1.0 / np.prod(complex(mu, 0.5 * kappa)
                                   - np.arange(1, 7) * e_c / 4.0)
            out = cmath.exp(complex(lm[6], ph[6]))
            assert abs(out - direct) <= 1e-10 * abs(direct)

    def test_zero_propagates(self):
        # delta = 0: a_0 = 1 and every later coefficient is exactly zero
        lm, ph = kernels.coefficient_logs(-math.inf, 0.3, 0.2, 1.0, 4.0, 3)
        assert lm[0] == 0.0
        assert np.all(lm[1:] == -math.inf)
        assert np.all(np.isfinite(ph))

    def test_sum_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = rng.normal(size=8) + 1j * rng.normal(size=8)
            direct = np.sum(vals)
            lm, ph = kernels.logsumexp_complex(np.log(np.abs(vals)),
                                               np.exp(1j * np.angle(vals)))
            out = cmath.exp(complex(lm, ph))
            assert abs(out - direct) <= 1e-12 * abs(direct)

    def test_sum_of_zeros_is_zero(self):
        zeros = np.full(2, -math.inf)
        assert kernels.logsumexp_complex(zeros, np.ones(2))[0] == -math.inf
        assert kernels.logsumexp_complex(np.array([]),
                                         np.array([]))[0] == -math.inf

    def test_huge_product_stays_finite(self):
        # 50000 factors 1/(mu~ - m/L) at L = 1e5: far beyond native range
        lm, ph = kernels.coefficient_logs(0.0, 0.2, 1e-6, 1.0, 100_000.0,
                                          50_000)
        assert np.all(np.isfinite(lm)) and np.all(np.isfinite(ph))
        assert lm[-1] > 1e4  # magnitudes grow far above overflow

    def test_against_extended_precision(self):
        # the same product truncated to 100 factors, checked against mpmath
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        L, mu, kappa = 100_000, 0.2, 1e-6
        acc = mpmath.mpc(1)
        for m in range(1, 101):
            acc *= mpmath.mpc(mu - m / L, kappa / 2)
        lm, ph = kernels.coefficient_logs(0.0, mu, kappa, 1.0, float(L), 100)
        assert lm[-1] == pytest.approx(-float(mpmath.log(abs(acc))),
                                       rel=1e-10)
        assert ph[-1] == pytest.approx(-float(mpmath.arg(acc)), abs=1e-10)


class TestPairingMatrix:
    def test_open_chain_entries(self):
        pm = nearest_neighbor_pairing(4, 1.0, OBC)
        assert pm.entries[0, 1] == 0.5
        assert pm.entries[1, 0] == -0.5
        assert pm.entries[0, 2] == 0
        assert pm.entries[3, 0] == 0

    def test_ring_wraparound(self):
        pm = nearest_neighbor_pairing(4, 1.0, PBC)
        assert pm.entries[3, 0] == 0.5
        assert pm.entries[0, 3] == -0.5

    def test_two_site_ring_cancels(self):
        # on a 2-ring the bond and its wraparound are the same pair of sites
        pm = nearest_neighbor_pairing(2, 1.0, PBC)
        assert not pm.entries.any()

    def test_zero_pairing(self):
        pm = nearest_neighbor_pairing(4, 0.0, PBC)
        assert not pm.entries.any()

    def test_antisymmetry_exact(self):
        for bc in (OBC, PBC):
            pm = nearest_neighbor_pairing(7, 0.37, bc)
            assert np.array_equal(pm.entries.T, -pm.entries)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            PairingMatrix.from_entries(np.ones((3, 3)))

    def test_caller_array_stays_writable(self):
        D = np.zeros((3, 3), dtype=complex)
        pm = PairingMatrix.from_entries(D)
        assert D.flags.writeable and not pm.entries.flags.writeable


def test_log_product_agrees_with_cmath_chain():
    # independent reference: accumulate in native complex where safe
    mu, kappa, e_c, L = 0.37, 0.21, 1.3, 7.0
    lm, ph = kernels.coefficient_logs(math.log(0.8), mu, kappa, e_c, L, 30)
    direct = 1.0 + 0j
    for m in range(1, 31):
        direct *= 0.8 / complex(mu - m * e_c / L, 0.5 * kappa)
    assert cmath.exp(complex(lm[30], ph[30])) == pytest.approx(direct,
                                                                rel=1e-10)
