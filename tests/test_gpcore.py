import itertools
import time
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfree import divisor, gpcore
from gpfree.errors import DomainError, ResourceLimit
from gpfree.limits import DEFAULT_LIMITS

from oracles import brute_3gp_triples, brute_canonical_gp, brute_first_gp


class TestKGeoProgression:
    def test_terms_power_of_two(self):
        gp = gpcore.KGeoProgression(5, 1, 1, 2)
        assert gp.terms() == [1, 2, 4, 8, 16]

    def test_terms_mixed_ratio(self):
        gp = gpcore.KGeoProgression(6, 1, 2, 3)
        assert gp.terms() == [32, 48, 72, 108, 162, 243]

    def test_rejects_trivial_ratio(self):
        with pytest.raises(DomainError):
            gpcore.KGeoProgression(3, 1, 1, 1)

    def test_rejects_shared_factor(self):
        with pytest.raises(DomainError):
            gpcore.KGeoProgression(3, 1, 2, 4)

    def test_rejects_short(self):
        with pytest.raises(DomainError):
            gpcore.KGeoProgression(2, 1, 1, 2)


class TestCanonicalize:
    def test_power_of_two(self):
        gp = gpcore.canonicalize([1, 2, 4])
        assert (gp.k, gp.a, gp.b, gp.c) == (3, 1, 1, 2)

    def test_six_term(self):
        gp = gpcore.canonicalize([32, 48, 72, 108, 162, 243])
        assert (gp.k, gp.a, gp.b, gp.c) == (6, 1, 2, 3)

    def test_not_a_gp(self):
        with pytest.raises(DomainError, match="^ratio 5/2 differs from 2/1$"):
            gpcore.canonicalize([1, 2, 5])

    def test_constant_is_trivial(self):
        with pytest.raises(DomainError, match="^all terms equal 7$"):
            gpcore.canonicalize([7, 7, 7])

    def test_decreasing_rejected(self):
        with pytest.raises(DomainError):
            gpcore.canonicalize([4, 2, 1])

    @given(
        a=st.integers(1, 50),
        b=st.integers(1, 8),
        c=st.integers(2, 9),
        k=st.integers(3, 6),
    )
    @settings(max_examples=300)
    def test_roundtrip_terms_then_canonicalize(self, a, b, c, k):
        import math

        if b >= c or math.gcd(b, c) != 1:
            return
        gp = gpcore.KGeoProgression(k, a, b, c)
        back = gpcore.canonicalize(gp.terms())
        assert (back.k, back.a, back.b, back.c) == (k, a, b, c)

    @given(terms=st.lists(st.integers(1, 500), min_size=3, max_size=6))
    @settings(max_examples=200)
    def test_agrees_with_brute_recovery(self, terms):
        try:
            gp = gpcore.canonicalize(terms)
        except DomainError:
            assert brute_canonical_gp(terms) is None or len(set(terms)) == 1
            return
        assert brute_canonical_gp(terms) == (gp.k, gp.a, gp.b, gp.c)


class TestEnumerate:
    def test_first_term_bound(self):
        stream = gpcore.enumerate_gps(3, 0, 4)
        got = {(g.a, g.b, g.c) for g in itertools.islice(stream, 500)}
        for want in [(1, 1, 2), (2, 1, 2), (4, 1, 2), (1, 2, 3), (1, 1, 3), (2, 1, 3)]:
            assert want in got
        assert all(gpcore.KGeoProgression(3, *t).terms()[0] <= 4 for t in got)

    def test_middle_bound_includes_expected(self):
        got = {(g.a, g.b, g.c) for g in gpcore.enumerate_gps(6, 2, 72)}
        assert (1, 2, 3) in got and (18, 1, 2) in got
        assert all(gpcore.KGeoProgression(6, *t).terms()[2] <= 72 for t in got)

    def test_bound_zero_empty(self):
        assert list(gpcore.enumerate_gps(6, 0, 0)) == []

    def test_family_order_deterministic(self):
        a = list(itertools.islice(gpcore.enumerate_gps(3, 0, 10**6), 50))
        b = list(itertools.islice(gpcore.enumerate_gps(3, 0, 10**6), 50))
        assert a == b


class TestFindAtPosition:
    def test_72_as_middle_of_6gp(self):
        got = {(g.a, g.b, g.c) for g in gpcore.find_gps_with_term_at(72, 6, 2)}
        assert got == {(18, 1, 2), (8, 1, 3), (2, 1, 6), (1, 2, 3)}

    def test_one_as_middle_is_impossible(self):
        assert gpcore.find_gps_with_term_at(1, 6, 2) == []

    def test_position_zero_rejected(self):
        with pytest.raises(DomainError):
            gpcore.find_gps_with_term_at(8, 3, 0)

    def test_exhaustive_against_enumerate(self):
        # the backward walk lists, in the same order, the forward walk's GPs
        # whose term at the position is n, for every n below the bound
        bound = 1499
        for k in range(3, 7):
            for pos in range(1, k):
                by_term = defaultdict(list)
                for g in gpcore.enumerate_gps(k, pos, bound):
                    by_term[g.terms()[pos]].append(g)
                for n in range(1, bound + 1):
                    assert gpcore.find_gps_with_term_at(n, k, pos) == by_term[n], (k, pos, n)


class TestContains:
    def test_small_rational_witness(self):
        w = gpcore.contains_gp([1, 2, 3, 4], 3, gpcore.RATIONAL)
        assert w is not None and w.terms() == [1, 2, 4]

    def test_rational_ratio_witness(self):
        w = gpcore.contains_gp([4, 6, 9], 3, gpcore.RATIONAL)
        assert w is not None and w.terms() == [4, 6, 9]

    def test_integer_mode_misses_rational_ratio(self):
        assert gpcore.contains_gp([4, 6, 9], 3, gpcore.INTEGER) is None

    def test_empty_and_free_sets(self):
        assert gpcore.contains_gp([], 3, gpcore.RATIONAL) is None
        assert gpcore.contains_gp([1, 3, 5, 7], 3, gpcore.RATIONAL) is None

    def test_against_triple_oracle(self):
        members = [1, 2, 3, 5, 7, 8, 11, 12, 18, 27, 45, 50, 75]
        sm = set(members)
        hits = [t for t in brute_3gp_triples(max(members))
                if all(v in sm for v in t)]
        w = gpcore.contains_gp(members, 3, gpcore.RATIONAL)
        assert (w is None) == (hits == [])

    @given(members=st.lists(st.integers(-30, 600), max_size=40), k=st.integers(3, 7),
           integer=st.booleans(),
           planted=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 5),
                                         st.integers(0, 7), st.integers(0, 3)))
    @example(members=[1, 2, 8, -5], k=4, integer=False, planted=None)
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_loop_oracle(self, members, k, integer, planted):
        # members with repeats, 0 and negatives, and maybe the terms of one progression
        # but the one at `drop` (none when drop >= k) and, when `more` > 0, all terms
        # of the same class at a + more; a negative member must not wrap around to
        # mark a term, as it would in a naive mask ([1, 2, 8, -5] at k=4)
        if planted:
            a, b, c, drop, more = planted
            b = 1 if integer else min(b, c - 1)
            members = members + [a * b ** (k - 1 - i) * c**i for i in range(k) if i != drop]
            members += [(a + more) * b ** (k - 1 - i) * c**i for i in range(k) if more]
        mode = gpcore.INTEGER if integer else gpcore.RATIONAL
        assert gpcore.contains_gp(members, k, mode) == brute_first_gp(members, k, integer)

    def test_first_a_of_a_class(self):
        assert gpcore.contains_gp([12, 6, 3, 4, 2, 1], 3).terms() == [1, 2, 4]

    def test_negative_member_is_no_term(self):
        assert gpcore.contains_gp([1, 2, 8, -5], 4) is None
        assert gpcore.contains_gp([1, 2, 8, -5, 4], 4).terms() == [1, 2, 4, 8]

    @pytest.mark.parametrize("k", [3, 2])
    def test_member_above_budget_refused_first(self, k):
        """The budget is checked before k and before any search, as `gp contains` did."""
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimit, match=f"^member {10**20} exceeds budget 10000000$"):
            gpcore.contains_gp([1, 2, 10**20], k)
        assert time.perf_counter() - t0 < 0.1

    def test_budget_comes_from_limits(self):
        members = [1, 2, 4, 200]
        with pytest.raises(ResourceLimit, match="^member 200 exceeds budget 199$"):
            gpcore.contains_gp(members, 3, gpcore.RATIONAL, DEFAULT_LIMITS._replace(process_max_n=199))
        w = gpcore.contains_gp(members, 3, limits=DEFAULT_LIMITS._replace(process_max_n=200))
        assert w.terms() == [1, 2, 4]


class TestPowerFreeIntegers:
    """A cross-module check between `divisor` and `gpcore`.  A k-GP a*b**(k-1),
    ..., a*c**(k-1) of (k-1)-free integers needs b = 1, since b**(k-1) divides
    the first term, and then c**(k-1) divides the last: the (k-1)-free
    integers hold no k-GP.  The k-free integers hold 1, 2, ..., 2**(k-1)."""

    N = 10**4

    def _free(self, k):  # the n <= N with d_k(n) == 1, that is, k-free
        values = divisor.sieve(divisor.Interval(0, self.N), divisor.DivisorSpec(k=k))
        return [n for n, v in enumerate(values, 1) if v == 1]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_k_minus_1_free_integers_hold_no_k_gp(self, k):
        assert gpcore.contains_gp(self._free(k - 1), k) is None

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_k_free_integers_hold_powers_of_two(self, k):
        assert gpcore.contains_gp(self._free(k), k).terms() == [2**i for i in range(k)]


class TestTripleEnumeration:
    def test_small(self):
        assert gpcore.enumerate_3gp_triples(10) == [(1, 2, 4), (1, 3, 9), (2, 4, 8), (4, 6, 9)]

    def test_tiny_empty(self):
        assert gpcore.enumerate_3gp_triples(3) == []

    @pytest.mark.parametrize("n", [25, 80, 200])
    def test_matches_pair_scan_oracle(self, n):
        assert gpcore.enumerate_3gp_triples(n) == brute_3gp_triples(n)
