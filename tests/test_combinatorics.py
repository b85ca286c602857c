import math

import pytest

from cqa_fermi.combinatorics import (
    count_genfunc,
    count_obc,
    count_pbc,
    enumerate_dimers,
    log_counts,
)
from cqa_fermi.core import OBC, PBC
from cqa_fermi.errors import OutOfRangeError, TooLargeError


class TestClosedForms:
    def test_open_chain_frozen_values(self):
        # brute-force enumeration oracle: only {1,3} fits two dimers on 4 sites
        assert count_obc(4, 2) == 1
        # {12,34},{12,45},{23,45}
        assert count_obc(5, 2) == 3

    def test_empty_placement(self):
        for L in (2, 7, 40):
            assert count_obc(L, 0) == 1
            assert count_pbc(L, 0) == 1
            assert count_genfunc(L, 0) == 1

    def test_single_dimer_on_ring(self):
        for L in (3, 6, 11):
            assert count_pbc(L, 1) == L

    def test_ring_frozen_values(self):
        assert count_pbc(6, 2) == 9  # enumeration oracle below
        assert count_pbc(4, 2) == 2  # the two maximal tilings

    def test_genfunc_worked_example(self):
        # (1/4)[C(7,5) C(2,0) + C(7,7) C(3,1)] = (21 + 3)/4 = 6 = C(4,2)
        assert count_genfunc(6, 2) == 6
        assert count_obc(6, 2) == 6
        assert count_genfunc(4, 2) == 1

    def test_out_of_range_raises_rather_than_returning_zero(self):
        with pytest.raises(OutOfRangeError):
            count_obc(6, 4)
        with pytest.raises(OutOfRangeError):
            count_pbc(6, 4)
        with pytest.raises(OutOfRangeError):
            count_genfunc(6, 4)
        with pytest.raises(OutOfRangeError):
            count_obc(6, -1)


class TestEnumeration:
    def test_small_open_chain(self):
        assert enumerate_dimers(4, 2, OBC) == [(1, 3)]

    def test_small_ring(self):
        assert enumerate_dimers(4, 2, PBC) == [(1, 3), (2, 4)]

    def test_impossible_placement_is_empty(self):
        assert enumerate_dimers(3, 2, OBC) == []

    def test_one_site_ring_has_no_dimer(self):
        # its only bond would join site 1 to itself; count_pbc(1, 1) raises
        assert enumerate_dimers(1, 1, PBC) == []
        assert enumerate_dimers(1, 1, OBC) == []
        with pytest.raises(OutOfRangeError):
            count_pbc(1, 1)

    def test_guard(self):
        with pytest.raises(TooLargeError):
            enumerate_dimers(30, 2, OBC)

    def test_placements_are_disjoint(self):
        for combo in enumerate_dimers(9, 3, PBC):
            covered = []
            for s in combo:
                covered += [s, s % 9 + 1]
            assert len(set(covered)) == 6


@pytest.mark.parametrize("L", range(2, 15))
def test_triple_agreement_all_small_chains(L):
    """Closed forms == generating function == explicit enumeration."""
    for n in range(L // 2 + 1):
        obc = count_obc(L, n)
        assert count_genfunc(L, n) == obc
        assert len(enumerate_dimers(L, n, OBC)) == obc
        assert len(enumerate_dimers(L, n, PBC)) == count_pbc(L, n)


@pytest.mark.parametrize("L", range(4, 15))
def test_transfer_recurrence(L):
    """N_obc(L, n) = N_obc(L-1, n) + N_obc(L-2, n-1): the chain ends with
    either an empty site or a dimer."""
    for n in range(1, L // 2 + 1):
        lhs = count_obc(L, n)
        rhs = count_obc(L - 2, n - 1)
        if n <= (L - 1) // 2:
            rhs += count_obc(L - 1, n)
        assert lhs == rhs


def test_log_counts_matches_exact():
    for L, bc in ((40, OBC), (40, PBC), (31, OBC)):
        n_max = L // 2 if bc == OBC else L // 2 - 1
        logs = log_counts(L, bc, n_max)
        for n in range(n_max + 1):
            exact = (count_obc if bc == OBC else count_pbc)(L, n)
            assert logs[n] == pytest.approx(math.log(exact), rel=1e-12,
                                           abs=1e-12)


def test_log_counts_large_chain_finite():
    logs = log_counts(100_000, PBC, 49_999)
    assert math.isfinite(logs[-1])
    assert logs[25_000] > 1e4  # astronomically many coverings, log stays tame
