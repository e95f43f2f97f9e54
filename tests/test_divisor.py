import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfree import divisor
from gpfree.errors import DomainError, ResourceLimit
from gpfree.limits import DEFAULT_LIMITS

from oracles import brute_d_ij, brute_d_k

LOG2 = math.log(2)
INT64_MAX = 2**63 - 1


def _primes_between(lo, hi):
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, math.isqrt(p) + 1))]


MID_PRIMES = _primes_between(50, 3000)
SPECS = st.one_of(
    st.builds(divisor.DivisorSpec.single, st.integers(1, 5)),
    st.builds(divisor.DivisorSpec.pair, st.integers(1, 4), st.integers(1, 4)),
)
# s = k or min(i, j) >= 3: only primes up to the cube root of n matter
CUBE_SPECS = st.one_of(
    st.builds(divisor.DivisorSpec.single, st.integers(3, 6)),
    st.builds(divisor.DivisorSpec.pair, st.integers(3, 5), st.integers(3, 5)),
)


@st.composite
def windows(draw):
    """(x, h): random, long, or built so that large primes land inside.

    "two-primes": two primes > h divide the same n.  "prime-power": p**2 or
    p**3 divides some n for a prime p > h.  "long": enough multiples of the
    small primes that they are applied as strided slices.
    """
    shape = draw(st.sampled_from(["random", "long", "two-primes", "prime-power"]))
    if shape == "random":
        return draw(st.integers(0, 10**9)), draw(st.integers(1, 60))
    if shape == "long":
        return draw(st.integers(0, 10**6)), draw(st.integers(100, 1500))
    h = draw(st.integers(1, 40))
    p = draw(st.sampled_from(MID_PRIMES))
    if shape == "two-primes":
        n = p * draw(st.sampled_from([q for q in MID_PRIMES if q != p])) * draw(st.integers(1, 30))
    else:
        n = p ** draw(st.integers(2, 3)) * draw(st.integers(1, 40))
    return max(0, n - 1 - draw(st.integers(0, h - 1))), h


def _cube_part_value(n, spec, primes):
    """spec.of(n) from the prime powers p**a || n with p <= n**(1/3).

    Any other prime has exponent <= 2 in n, which weighs 1 when s >= 3.
    """
    value = 1
    for p in primes[n % primes == 0].tolist():
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        value *= spec.of(p**a)
    return value


def _classic_sieve(limit):
    """Primes <= limit from one boolean array."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@pytest.fixture(scope="module")
def cube_root_primes():
    return _classic_sieve(2**21)  # 2**21 = cube root of 2**63


class TestFactorize:
    def test_72(self):
        assert divisor.factorize(72) == [(2, 3), (3, 2)]

    def test_one(self):
        assert divisor.factorize(1) == []

    def test_large_power_of_two(self):
        assert divisor.factorize(2**62) == [(2, 62)]

    @given(n=st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_product_reconstructs(self, n):
        prod = 1
        for p, e in divisor.factorize(n):
            prod *= p**e
        assert prod == n


class TestPointwise:
    def test_d_k_of_one(self):
        for k in range(1, 8):
            assert divisor.d_k(1, k) == 1

    def test_d_2_of_12(self):
        assert divisor.d_k(12, 2) == 2

    def test_d_32_of_72(self):
        assert divisor.d_ij(72, 3, 2) == 6

    def test_d_22_of_36(self):
        assert divisor.d_ij(36, 2, 2) == 9

    def test_d_31_of_8(self):
        assert divisor.d_ij(8, 3, 1) == 5

    def test_primes_have_unit_pair_count(self):
        for p in [2, 3, 5, 7, 11, 97, 101]:
            assert divisor.d_ij(p, 2, 2) == 1
            assert divisor.d_ij(p, 3, 1) == 2

    @given(n=st.integers(1, 5000), k=st.integers(1, 5))
    @settings(max_examples=150)
    def test_d_k_matches_oracle(self, n, k):
        assert divisor.d_k(n, k) == brute_d_k(n, k)

    @given(n=st.integers(1, 5000), i=st.integers(1, 4), j=st.integers(1, 4))
    @settings(max_examples=150)
    def test_d_ij_matches_oracle(self, n, i, j):
        assert divisor.d_ij(n, i, j) == brute_d_ij(n, i, j)


class TestSieve:
    def test_d2_prefix(self):
        values = divisor.sieve(divisor.Interval(0, 12), divisor.DivisorSpec.single(2))
        assert list(values) == [1, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1, 2]

    def test_d1_single_cell(self):
        values = divisor.sieve(divisor.Interval(5, 1), divisor.DivisorSpec.single(1))
        assert list(values) == [4]

    def test_segment_matches_pointwise_high(self):
        x, h = 10**6, 10**3
        values = divisor.sieve(divisor.Interval(x, h), divisor.DivisorSpec.pair(3, 2))
        for n, v in enumerate(values, x + 1):
            assert v == divisor.d_ij(n, 3, 2)

    def test_window_budget(self):
        with pytest.raises(ResourceLimit):
            divisor.sieve(divisor.Interval(0, DEFAULT_LIMITS.sieve_max_len + 1),
                          divisor.DivisorSpec.single(2))

    @given(window=windows(), spec=SPECS)
    @example(window=(0, 1), spec=divisor.DivisorSpec.single(1))
    @example(window=(0, 1), spec=divisor.DivisorSpec.pair(1, 1))
    @example(window=(0, 1024), spec=divisor.DivisorSpec.single(1))
    @example(window=(0, 1024), spec=divisor.DivisorSpec.single(2))
    @example(window=(1009 * 1013 - 5, 6), spec=divisor.DivisorSpec.pair(1, 2))
    @example(window=(1009**2 * 3 - 2, 4), spec=divisor.DivisorSpec.single(2))
    @example(window=(0, 100), spec=divisor.DivisorSpec.single(64))  # d_64 is 1 below 2**64
    @settings(max_examples=120, deadline=None)
    def test_segment_matches_pointwise_random(self, window, spec):
        values = divisor.sieve(divisor.Interval(*window), spec)
        for n, v in enumerate(values, window[0] + 1):
            assert v == spec.of(n)

    @given(window=windows(), spec=SPECS, esc=st.sampled_from([1, 3, 16]))
    @example(window=(10**6, 1500), spec=divisor.DivisorSpec.pair(1, 1), esc=3)
    @example(window=(0, 1024), spec=divisor.DivisorSpec.single(1), esc=1)
    @settings(max_examples=60, deadline=None)
    def test_escaped_values_stay_exact(self, window, spec, esc):
        """With codes for fewer values than the window holds, the positions of
        the escape code keep their exact values, in the table and in the sum."""
        x, h = window
        D = 0.35
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divisor, "_ESC", esc)
            values = divisor.sieve(divisor.Interval(x, h), spec)
            pair = (spec.i, spec.j) if spec.k is None else (1, spec.k)
            S = divisor.sum_S(divisor.Interval(x, h), *pair, D)
        for n, v in enumerate(values, x + 1):
            assert v == spec.of(n)
        assert S == math.fsum(math.exp(-D * divisor.d_ij(n, *pair)) for n in range(x + 1, x + h + 1))

    @given(h=st.integers(1, 30), slack=st.integers(0, 1000), spec=CUBE_SPECS)
    @example(h=1, slack=0, spec=divisor.DivisorSpec.single(3))
    @example(h=30, slack=0, spec=divisor.DivisorSpec.pair(3, 4))
    @settings(max_examples=25, deadline=None)
    def test_window_ending_near_int64_max(self, h, slack, spec, cube_root_primes):
        x = INT64_MAX - h - slack
        limits = DEFAULT_LIMITS._replace(mertens_max_x=2**32)
        values = divisor.sieve(divisor.Interval(x, h), spec, limits)
        for n, v in enumerate(values, x + 1):
            assert v == _cube_part_value(n, spec, cube_root_primes)

    def test_powers_of_two_up_to_2_62(self):
        limits = DEFAULT_LIMITS._replace(mertens_max_x=2**32)
        spec = divisor.DivisorSpec.single(3)
        values = divisor.sieve(divisor.Interval(2**62 - 1, 1), spec, limits)
        assert values == (62 // 3 + 1,)

    # the float guess overshoots r**k - 1 at r = 1000003 and undershoots
    # r**k at r = 10**17 + 3, so both correction loops run
    @pytest.mark.parametrize("r, k", [(1000003, 3), (10**17 + 3, 2), (10**15 + 37, 3)])
    def test_iroot_at_exact_powers(self, r, k):
        assert divisor._iroot(r**k - 1, k) == r - 1
        assert divisor._iroot(r**k, k) == r

    def test_prime_base_budget(self):
        with pytest.raises(ResourceLimit):
            divisor.sieve(divisor.Interval(INT64_MAX - 10, 10), divisor.DivisorSpec.single(2))
        small = DEFAULT_LIMITS._replace(mertens_max_x=999)
        with pytest.raises(ResourceLimit):  # isqrt(10**6) = 1000
            divisor.sum_S(divisor.Interval(10**6 - 1, 1), 2, 3, LOG2, small)
        divisor.sum_S(divisor.Interval(10**6 - 2, 1), 2, 3, LOG2, small)

    def test_primes_upto_matches_trial_division(self):
        assert divisor.primes_upto(3000).tolist() == _primes_between(2, 3001)
        for limit in (0, 1, 2, 3, 4):
            assert divisor.primes_upto(limit).tolist() == _primes_between(2, limit + 1)
        # crosses the segment boundaries of the odd-only generator
        limit = 3 * 2**20 + 5
        assert np.array_equal(divisor.primes_upto(limit), _classic_sieve(limit))


def _sha256_of_repr(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class TestKernelAnchors:
    """Digests of outputs of the earlier numpy sieve and prime generator.

    Any rewrite of the window sieve or of the prime base must reproduce them
    bit for bit.
    """

    def test_cofactor_path_window(self):  # s = 1: cofactors above sqrt(x+h)
        values = divisor.sieve(divisor.Interval(10**15, 2000), divisor.DivisorSpec.single(1))
        assert _sha256_of_repr(values) == (
            "72a5739c96c50a02a9ca1acb9bfb976876d7856a23fd9b0e57e439200d5d0faf")

    def test_pair_window(self):
        values = divisor.sieve(divisor.Interval(10**12, 10**5), divisor.DivisorSpec.pair(3, 1))
        assert _sha256_of_repr(values) == (
            "70c3cdc8ed479b7c1cc008b2e5ff0b696e6fa8aead4400eba423575cb6485d7d")

    def test_window_with_255_values(self):  # the most distinct values one byte can code
        values = divisor.sieve(divisor.Interval(10**9, 10**6), divisor.DivisorSpec.pair(1, 1))
        assert _sha256_of_repr(values) == (
            "94b4d0d7802d1d3795565291253ed43c00355e05598980d09b21341461df381f")

    def test_primes_upto_1e6(self):
        primes = divisor.primes_upto(10**6).tolist()
        assert len(primes) == 78498
        assert _sha256_of_repr(primes) == (
            "e896772a51c956190908057a4923318858086d5e5c088bcb4b954c0172b92b14")


class TestSums:
    def test_small_exact(self):
        s = divisor.sum_S(divisor.Interval(0, 4), 2, 2, LOG2)
        assert s == pytest.approx(1.625, abs=1e-12)

    def test_mertens_at_ten(self):
        assert divisor.mertens_sum(10) == pytest.approx(1.0 / 2 + 1.0 / 3 + 1.0 / 5 + 1.0 / 7)

    def test_mertens_small_x(self):
        assert divisor.mertens_sum(3) == pytest.approx(1.0 / 2 + 1.0 / 3)
        with pytest.raises(DomainError):
            divisor.mertens_sum(2 - 1)

    def test_mertens_budget(self):
        with pytest.raises(ResourceLimit):
            divisor.mertens_sum(DEFAULT_LIMITS.mertens_max_x * 10)

    # at D = 700 every term with d >= 2 underflows to 0.0, at D = 1000 every term does
    @pytest.mark.parametrize("D", [0.35, 700.0, 1000.0])
    @pytest.mark.parametrize("i, j", [(2, 3), (1, 1)])
    def test_sum_matches_direct_fsum(self, i, j, D):
        x, h = 500, 200
        direct = math.fsum(
            sorted(math.exp(-D * divisor.d_ij(n, i, j)) for n in range(x + 1, x + h + 1))
        )
        assert divisor.sum_S(divisor.Interval(x, h), i, j, D) == direct

    def test_tiny_and_zero_sums(self):
        assert divisor.sum_S(divisor.Interval(0, 1000), 2, 3, 700.0) == 5.994683338605941e-302
        assert divisor.sum_S(divisor.Interval(0, 1000), 2, 3, 1000.0) == 0.0

    def test_sum_anchor_with_292_values(self):  # more distinct values than one byte codes
        assert divisor.sum_S(divisor.Interval(10**12, 10**6), 1, 1, 0.5) == 9506.529943611966

    @pytest.mark.parametrize("x, S", [
        (10**6, 367607.5788922655),
        (10**9, 367603.45426077815),
        (10**12, 367601.743892638),
    ])
    def test_sum_anchor_h_1e6(self, x, S):
        assert divisor.sum_S(divisor.Interval(x, 10**6), 2, 3, 0.693147) == S

    def test_mertens_anchor_1e8(self):
        assert divisor.mertens_sum(10**8) == 3.1749752299205256


def _fsum_of_reciprocals(x):
    return math.fsum(1.0 / p for p in divisor.primes_upto(x))


class TestMertensBitIdentity:
    """mertens_sum sums 1/p as integer significands per binary exponent and
    rounds once; that must be the very double math.fsum gives."""

    def test_every_small_x(self):
        for x in range(3, 301):
            assert divisor.mertens_sum(x) == _fsum_of_reciprocals(x), x

    @pytest.mark.parametrize("x", [3 + k * 2**20 + d for k in (1, 2, 3) for d in range(-2, 3)])
    def test_segment_edges(self, x):  # a segment holds 2**19 odd numbers
        assert divisor.mertens_sum(x) == _fsum_of_reciprocals(x)

    @pytest.mark.parametrize("x", [2**k + d for k in range(2, 25) for d in (-1, 1)])
    def test_where_the_exponent_of_1_over_p_steps(self, x):
        assert divisor.mertens_sum(x) == _fsum_of_reciprocals(x)

    @given(x=st.integers(3, 3 * 10**6))
    @settings(max_examples=50, deadline=None)
    def test_random_x(self, x):
        assert divisor.mertens_sum(x) == _fsum_of_reciprocals(x)
