import cmath
import dataclasses
import math

import numpy as np
import pytest

from cqa_fermi.core import (
    OBC,
    PBC,
    LogComplex,
    ModelParams,
    PairingMatrix,
    log_product,
    log_sum,
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

    def test_mu_tilde_derived(self):
        p = ModelParams(L=4, bc=PBC, mu=0.3, delta=0.1, kappa=0.2)
        assert p.mu_tilde == 0.3 + 0.1j


class TestLogComplex:
    def test_empty_product_is_unity(self):
        assert log_product([]) == LogComplex(0.0, 0.0)

    def test_i_times_i(self):
        i = LogComplex.from_complex(1j)
        out = log_product([i, i])
        assert out.log_mag == pytest.approx(0.0, abs=1e-15)
        assert out.phase == pytest.approx(math.pi)

    def test_phase_stays_in_half_open_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            vals = rng.normal(size=4) + 1j * rng.normal(size=4)
            out = log_product([LogComplex.from_complex(v) for v in vals])
            assert -math.pi < out.phase <= math.pi

    def test_product_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = rng.normal(size=6) + 1j * rng.normal(size=6)
            direct = np.prod(vals)
            out = log_product([LogComplex.from_complex(v) for v in vals])
            assert abs(out.to_complex() - direct) <= 1e-10 * abs(direct)

    def test_zero_propagates(self):
        terms = [LogComplex.from_complex(2.0), LogComplex.zero()]
        assert log_product(terms).is_zero

    def test_sum_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = rng.normal(size=8) + 1j * rng.normal(size=8)
            direct = np.sum(vals)
            out = log_sum([LogComplex.from_complex(v) for v in vals])
            assert abs(out.to_complex() - direct) <= 1e-12 * abs(direct)

    def test_sum_of_zeros_is_zero(self):
        assert log_sum([LogComplex.zero(), LogComplex.zero()]).is_zero
        assert log_sum([]).is_zero

    def test_huge_product_stays_finite(self):
        # 50000 factors (mu~ - m/L) at L = 1e5: far beyond native range
        L, mu, kappa = 100_000, 0.2, 1e-6
        mu_t = complex(mu, kappa / 2)
        terms = [LogComplex.from_complex(mu_t - m / L) for m in range(1, 50_001)]
        out = log_product(terms)
        assert math.isfinite(out.log_mag)
        assert out.log_mag < -1e4  # magnitudes shrink far below underflow

    def test_against_extended_precision(self):
        # same product truncated to 100 factors, checked against mpmath
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        L, mu, kappa = 100_000, 0.2, 1e-6
        acc = mpmath.mpc(1)
        terms = []
        for m in range(1, 101):
            z = complex(mu - m / L, kappa / 2)
            acc *= mpmath.mpc(z.real, z.imag)
            terms.append(LogComplex.from_complex(z))
        out = log_product(terms)
        ref_log = mpmath.log(abs(acc))
        assert out.log_mag == pytest.approx(float(ref_log), rel=1e-10)
        assert out.phase == pytest.approx(float(mpmath.arg(acc)), abs=1e-10)


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
        assert pm.norm == 0.0

    def test_zero_pairing(self):
        pm = nearest_neighbor_pairing(4, 0.0, PBC)
        assert pm.norm == 0.0
        assert not pm.normalized.any()

    def test_antisymmetry_exact(self):
        for bc in (OBC, PBC):
            pm = nearest_neighbor_pairing(7, 0.37, bc)
            assert np.array_equal(pm.entries.T, -pm.entries)

    def test_normalized_unit_frobenius(self):
        pm = nearest_neighbor_pairing(9, 0.37, OBC)
        assert np.linalg.norm(pm.normalized) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            PairingMatrix.from_entries(np.ones((3, 3)))


def test_log_product_agrees_with_cmath_chain():
    # independent reference: accumulate in native complex where safe
    rng = np.random.default_rng(23)
    vals = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-3, 3)) for _ in range(30)]
    direct = 1.0 + 0j
    for v in vals:
        direct *= v
    out = log_product([LogComplex.from_complex(v) for v in vals])
    assert out.to_complex() == pytest.approx(direct, rel=1e-10)
