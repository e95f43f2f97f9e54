import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfree import DEFAULT_LIMITS, bounds
from gpfree.errors import DomainError

mp.mp.dps = 40

REL = 1e-12


def mp_C(i, j):
    return mp.log(2) * (mp.mpf(1) / i + mp.mpf(1) / j)


class TestConstants:
    def test_scale_is_exact_rational(self):
        # C_ij is log 2 times the double nearest the rational 1/i + 1/j
        assert bounds.C_ij(2, 3) == math.log(2) * float(Fraction(5, 6))
        assert bounds.C_ij(1, 1) == math.log(2) * 2

    def test_C_11(self):
        assert bounds.C_ij(1, 1) == pytest.approx(2 * math.log(2), rel=REL)

    def test_C_23_headline_value(self):
        assert bounds.C_ij(2, 3) == pytest.approx(0.5776226504666211, rel=REL)

    @given(i=st.integers(1, 9), j=st.integers(1, 9))
    def test_matches_high_precision(self, i, j):
        assert bounds.C_ij(i, j) == pytest.approx(float(mp_C(i, j)), rel=REL)

    def test_bad_exponents(self):
        with pytest.raises(DomainError):
            bounds.C_ij(0, 3)
        with pytest.raises(DomainError):
            bounds.C_ij(2, 0)

    def test_float_division_is_the_rounded_fraction(self):
        # (i + j) / (i * j) rounds once, as float(Fraction) does: the same bits
        for i in range(1, 60):
            for j in range(1, 60):
                scale = Fraction(1, i) + Fraction(1, j)
                assert bounds.C_ij(i, j) == math.log(2) * float(scale), (i, j)
        assert bounds.C_2_3 == math.log(2) * float(Fraction(5, 6))


class TestExpOverflow:
    """An exponent past exp's float range is a DomainError, not an OverflowError."""

    @pytest.mark.parametrize("call", [
        lambda: bounds.gap_envelope(16, 300.0, 1.0),
        lambda: bounds.h_short(16, 2, 3, 300.0),
        lambda: bounds.survival_bound(16, 1.0, 1.0, 300.0),
    ], ids=["gap_envelope", "h_short", "survival_bound"])
    def test_overflow_is_a_domain_error(self, call):
        with pytest.raises(DomainError, match="overflows a float"):
            call()

    def test_envelope_product_overflow_is_a_domain_error(self):
        # exp(...) is finite (about 35.3 at x = 1e6); only C_eps times it overflows
        assert bounds.gap_envelope(1e6, 0.1, 1.0) < 36
        with pytest.raises(DomainError, match="overflows a float"):
            bounds.gap_envelope(1e6, 0.1, 1e308)
        assert bounds.gap_envelope(1e6, 0.1, 1e306) < math.inf

    def test_largest_finite_exponent_still_evaluates(self):
        # exp overflows just above log(max float) = 709.78
        eps = 709.0 * math.log(math.log(16)) / math.log(16) - bounds.C_2_3
        assert bounds.gap_envelope(16, eps, 1.0) == pytest.approx(math.exp(709.0), rel=1e-9)


class TestHShort:
    def test_rejects_below_min_x(self):
        with pytest.raises(DomainError):
            bounds.h_short(15.15, 2, 3, 0.1)

    def test_value_at_16(self):
        want = float(mp.e ** ((mp_C(2, 3) + mp.mpf("0.2"))
                              * mp.log(16) / mp.log(mp.log(16))))
        got = bounds.h_short(16, 2, 3, 0.1)
        assert got == pytest.approx(want, rel=REL)
        assert got == pytest.approx(8.28, abs=0.01)

    def test_eventually_below_sqrt_x(self):
        # h_short(x) < sqrt(x) iff log log x > 2*(C_{2,3} + 2*eps); the
        # crossover is x ~ 28 for eps = 0.01 and x ~ 1e76 for eps = 1.
        x = 100.0
        while x < 1e15:
            assert bounds.h_short(x, 2, 3, 0.01) < math.sqrt(x)
            x *= 3.7
        x = 1e76
        while x < 1e300:
            assert bounds.h_short(x, 2, 3, 1.0) < math.sqrt(x)
            x *= 1e10

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(DomainError):
            bounds.h_short(1e4, 2, 3, bad)

    def test_monotone_in_epsilon(self):
        vals = [bounds.h_short(1e4, 2, 3, e / 10) for e in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestGapEnvelope:
    def test_value_at_1e6(self):
        got = bounds.gap_envelope(1e6, 0.1, 1.0)
        want = float(mp.e ** ((mp_C(2, 3) + mp.mpf("0.1"))
                              * mp.log(1e6) / mp.log(mp.log(1e6))))
        assert got == pytest.approx(want, rel=REL)
        assert got == pytest.approx(35.3, abs=0.2)

    def test_linear_in_c_eps(self):
        base = bounds.gap_envelope(1e5, 0.3, 1.0)
        assert bounds.gap_envelope(1e5, 0.3, 7.25) == pytest.approx(7.25 * base, rel=REL)

    def test_strictly_increasing_in_x(self):
        xs = [16.0 * 1.5**p for p in range(60)]
        vals = [bounds.gap_envelope(x, 0.2, 1.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [1e-6, 0.05, 0.5, 3.0])
    def test_strictly_increasing_at_every_integer(self, eps):
        # gap_report fits C_eps at the first t of each gap value, which needs the
        # computed envelope to grow at every step t -> t + 1 up to process_max_n,
        # by far more than its rounding
        top = DEFAULT_LIMITS.process_max_n
        rng = random.Random(eps)
        ts = [*range(16, 5000), *(int(16 * (top / 16) ** (p / 2000)) for p in range(2000)),
              *(rng.randrange(16, top) for _ in range(2000)), top - 1]
        for t in ts:
            lo, hi = bounds.gap_envelope(t, eps, 1.0), bounds.gap_envelope(t + 1, eps, 1.0)
            assert hi > lo * (1 + 1e-12), t

    def test_guards(self):
        with pytest.raises(DomainError):
            bounds.gap_envelope(10, 0.1, 1.0)
        with pytest.raises(DomainError):
            bounds.gap_envelope(100, -0.1, 1.0)
        with pytest.raises(DomainError):
            bounds.gap_envelope(100, 0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_arguments(self, bad):
        for args in ((bad, 0.1, 1.0), (100, bad, 1.0), (100, 0.1, bad)):
            with pytest.raises(DomainError):
                bounds.gap_envelope(*args)

class TestSurvivalBound:
    def test_value_at_1e4(self):
        got = bounds.survival_bound(1e4, 1.0, 1.0, 0.1)
        want = float(mp.e ** (-(mp.e ** ((mp_C(2, 3) + mp.mpf("0.1"))
                                         * mp.log(1e4) / mp.log(mp.log(1e4))))))
        assert got == pytest.approx(want, rel=REL)
        assert got == pytest.approx(6.0e-8, rel=0.05)

    @given(
        x=st.floats(16, 1e8),
        C=st.floats(0.1, 3),
        E=st.floats(0.1, 3),
        eps=st.floats(0.01, 1),
    )
    @settings(max_examples=100)
    def test_monotone_decreasing_in_each(self, x, C, E, eps):
        v = bounds.survival_bound(x, C, E, eps)
        assert bounds.survival_bound(x * 1.5, C, E, eps) <= v
        assert bounds.survival_bound(x, C * 1.5, E, eps) <= v
        assert bounds.survival_bound(x, C, E * 1.5, eps) <= v

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        with pytest.raises(DomainError):
            bounds.survival_bound(1e4, 1.0, 1.0, bad)

    def test_rejects_nan_fit_parameters(self):
        with pytest.raises(DomainError):
            bounds.survival_bound(1e4, math.nan, 1.0, 0.1)
        with pytest.raises(DomainError):
            bounds.survival_bound(1e4, 1.0, math.nan, 0.1)

    @pytest.mark.parametrize("C, E", [(math.inf, 0.0), (0.0, math.inf), (math.inf, 1.0),
                                      (1.0, math.inf)])
    def test_rejects_infinite_fit_parameters(self, C, E):
        # inf * 0 would make the bound NaN, and inf * positive the bound 0
        with pytest.raises(DomainError):
            bounds.survival_bound(16, C, E, 0.1)


class TestPDefault:
    def test_at_two(self):
        assert bounds.p_default(2) == pytest.approx(1 - 1 / math.log(4), rel=REL)

    def test_at_1e6(self):
        assert bounds.p_default(10**6) == pytest.approx(0.9276, abs=5e-4)

    def test_tends_to_one(self):
        vals = [bounds.p_default(10**e) for e in range(1, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.95

    def test_guard(self):
        with pytest.raises(DomainError):
            bounds.p_default(1)


# Exact values, recorded from the implementation as it stood when these tests
# were added.  A reordered float expression changes a printed row, and
# pytest.approx would not see it.
EXACT_X = (16, 1e3, 1e6, 1e9, 1e12, 1e15)
EXACT_EPS = (0.05, 0.1, 0.5)
# per x: (i, j) = (2, 3), then (1, 1), each at every EXACT_EPS
H_SHORT_EXACT = {
    16: [6.311195215493494, 8.283004421381245, 72.91185173543886,
         56.88019571301504, 74.6512976533074, 657.1244043171007],
    1e3: [11.268291302864883, 16.1096374706596, 281.1301211739018,
          202.83391597080907, 289.98015450782754, 5060.458754785035],
    1e6: [35.349612151603964, 59.82561154510523, 4026.3089374971532,
          2490.1165609168943, 4214.268191587155, 283623.4389681832],
    1e9: [102.77935521074647, 203.61624186955058, 48313.071275387956,
          25876.467753181758, 51263.88568947333, 12163645.396989541],
    1e12: [281.85218064522223, 648.0115089328763, 505910.01721305185,
           236518.71468875234, 543784.5073451658, 424538801.670699],
    1e15: [740.6178633405189, 1963.6941918370671, 4796354.094573782,
           1968586.4744050016, 5219563.309588657, 12748865865.113209],
}
# per x: c_eps = 1.0, then criterion 7's fitted 0.1231371748043651, each at every EXACT_EPS
GAP_ENVELOPE_EXACT = {
    16: [5.509008901766543, 6.311195215493494, 18.72478032179619,
         0.6783637921356303, 0.777142748474695, 2.305716547658353],
    1e3: [9.424193940056531, 11.268291302864883, 47.07267426971946,
          1.1604686165869793, 1.3875455559073802, 5.796396120059384],
    1e6: [27.17273831695447, 35.349612151603964, 289.99774933972515,
          3.345974228048092, 4.352851370778566, 35.70950355331819],
    1e9: [73.02181518252515, 102.77935521074647, 1583.186228167064,
          8.991700020662641, 12.655959428865621, 194.94907932567122],
    1e12: [185.88345636529536, 281.85218064522223, 7875.292244210911,
           22.889163659692947, 34.706481237102224, 969.7412377108598],
    1e15: [454.8354919537946, 740.6178633405189, 36602.679061206705,
           56.0071574799438, 91.19759130139686, 4507.150489867884],
}
# per x: (C, E) = (1.0, 1.0), then (0.01, 0.02), each at every EXACT_EPS
SURVIVAL_BOUND_EXACT = {
    16: [0.00405011946095525, 0.001815861595764551, 7.377873955145678e-09,
         0.9988988049803644, 0.9987385572455315, 0.9962620475381471],
    1e3: [8.074666152526565e-05, 1.277153996399808e-05, 3.602444645361208e-21,
          0.9981169364051243, 0.9977488793205666, 0.9906296431322177],
    1e6: [1.5813561457283622e-12, 4.444864284375518e-16, 1.1365216087233053e-126,
          0.994580192776133, 0.9929550106782815, 0.9436503722039842],
    1e9: [1.936549523351239e-32, 2.3093681846545003e-45, 0.0,
          0.9855017634088183, 0.9796539606577309, 0.7285950082140263],
    1e12: [1.869995766990223e-81, 3.918801209173497e-123, 0.0,
           0.963505877227887, 0.9451889388998503, 0.20699545368296507],
    1e15: [2.9339700126360758e-198, 2.27e-322, 0.0,
           0.9130477511454035, 0.8623245486125948, 0.000661807511628431],
}


@pytest.mark.parametrize("x", EXACT_X)
def test_h_short_exact(x):
    got = [bounds.h_short(x, i, j, e) for i, j in ((2, 3), (1, 1)) for e in EXACT_EPS]
    assert got == H_SHORT_EXACT[x]


@pytest.mark.parametrize("x", EXACT_X)
def test_gap_envelope_exact(x):
    got = [bounds.gap_envelope(x, e, c) for c in (1.0, 0.1231371748043651) for e in EXACT_EPS]
    assert got == GAP_ENVELOPE_EXACT[x]


@pytest.mark.parametrize("x", EXACT_X)
def test_survival_bound_exact(x):
    got = [bounds.survival_bound(x, C, E, e) for C, E in ((1.0, 1.0), (0.01, 0.02))
           for e in EXACT_EPS]
    assert got == SURVIVAL_BOUND_EXACT[x]
