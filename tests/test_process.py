import gc
import itertools
import json
import math
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfree import bounds, divisor, gpcore, process
from gpfree.errors import DomainError, ResourceLimit
from gpfree.limits import DEFAULT_LIMITS
from oracles import brute_first_gp, brute_progressions, brute_removal

K6 = process.ProcessKind.SIX_GP
K5 = process.ProcessKind.FIVE_GP
K3 = process.ProcessKind.THREE_GP_INT


def cfg(kind, n, seed):
    return process.ProcessConfig(kind, n, seed)


def coin(seed, gp):
    """The uniform value in [0, 1) that `process` takes from the top 53 bits of coin_bits."""
    return (process.coin_bits(seed, *gp) >> 11) * 2**-53


def bitmap_removed(blob, n):
    """The t in [1, n] whose bit t - 1 is set in the little-endian bitmap."""
    return tuple(t for t in range(1, n + 1) if blob[(t - 1) >> 3] >> ((t - 1) & 7) & 1)


class TestCoin:
    def test_deterministic(self):
        gp = gpcore.KGeoProgression(6, 3, 2, 5)
        assert coin(42, gp) == coin(42, gp)

    def test_uniform_half_split(self):
        # Over all 6-GPs with second middle term <= 1e5 the below-1/2
        # fraction must sit within 3 sigma of a fair binomial.
        gps = list(gpcore.enumerate_gps(6, 2, 10**5))
        n = len(gps)
        below = sum(1 for gp in gps if coin(12345, gp) < 0.5)
        sigma = 0.5 * math.sqrt(n)
        assert abs(below - n / 2) <= 3 * sigma

    def test_seed_changes_some_coin(self):
        gps = list(itertools.islice(gpcore.enumerate_gps(6, 2, 10**4), 1000))
        a = [coin(1, gp) for gp in gps]
        b = [coin(2, gp) for gp in gps]
        assert a != b

    def test_range(self):
        for i, gp in enumerate(gpcore.enumerate_gps(6, 2, 500)):
            v = coin(i, gp)
            assert 0.0 <= v < 1.0

    def test_derive_seed_distinct(self):
        seeds = {process.derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestRuns:
    def test_6gp_removes_one_middle_per_gp(self):
        # GP [1,2,4,8,16,32] has middles 4 and 8; exactly one goes.
        for seed in range(20):
            run = process.run(cfg(K6, 16, seed))
            removed = frozenset(run.removed)
            assert len({4, 8} & removed) >= 1
            # the account of this specific GP: coin decides 4 xor 8
            gp = gpcore.KGeoProgression(6, 1, 1, 2)
            picked = 4 if coin(seed, gp) < 0.5 else 8
            assert picked in removed

    def test_survivors_partition(self):
        run = process.run(cfg(K6, 100, 3))
        assert sorted(run.survivors() + list(run.removed)) == list(range(1, 101))

    def test_reproducible_across_calls(self):
        a = process.run(cfg(K5, 5000, 9))
        b = process.run(cfg(K5, 5000, 9))
        assert a == b

    def test_worker_count_invariance(self):
        for kind in (K6, K5, K3):
            one = process.run(cfg(kind, 20000, 11), workers=1)
            many = process.run(cfg(kind, 20000, 11), workers=8)
            assert process.run_to_json(one) == process.run_to_json(many)

    def test_truncation_soundness(self):
        # enlarging the horizon never flips a decision already visible
        small = process.run(cfg(K6, 1000, 5))
        large = process.run(cfg(K6, 4000, 5))
        assert set(small.removed) <= set(large.removed)

    def test_horizon_budget(self):
        with pytest.raises(ResourceLimit):
            process.run(cfg(K6, DEFAULT_LIMITS.process_max_n + 1, 1))

    def test_min_horizon(self):
        with pytest.raises(DomainError):
            cfg(K6, 15, 1)

    def test_5gp_forced_coin_removes_third_term(self, monkeypatch):
        # coin forced to 0 is always below the removal threshold p, so the
        # third term a*b^2*c^2 is removed on every GP's account.
        monkeypatch.setattr(process, "_coin_array", lambda *a: 0.0)
        run = process.run(cfg(K5, 200, 1))
        gp = gpcore.KGeoProgression(5, 1, 1, 2)  # [1,2,4,8,16]
        assert gp.terms()[2] in frozenset(run.removed)
        for g in gpcore.enumerate_gps(5, 1, 200):
            t3 = g.terms()[2]
            if t3 <= 200:
                assert t3 in frozenset(run.removed)

    def test_3gp_int_removes_second_or_third(self):
        run = process.run(cfg(K3, 64, 2))
        # (a=1, r=2): one of 2, 4 goes
        assert {2, 4} & frozenset(run.removed)

    def test_3gp_int_survivors_keep_rational_triples(self):
        # (4,6,9) has ratio 3/2, outside the integer-ratio family, so some
        # seed keeps all three.
        for seed in range(50):
            s = set(process.run(cfg(K3, 100, seed)).survivors())
            if {4, 6, 9} <= s:
                break
        else:
            pytest.fail("no seed kept the rational-ratio triple (4,6,9)")


def _larger_term(k, a, b, c):
    """The term a biased coin removes when below its threshold."""
    return a * b * b * c * c if k == 5 else a * c * c


class TestScalarReference:
    """The vector kernel against brute_removal, which shares no code with it."""

    @given(kind=st.sampled_from([K6, K5, K3]), seed=st.integers(0, 2**64 - 1),
           n=st.integers(16, 3000))
    @settings(max_examples=40, deadline=None)
    def test_run_matches_scalar_reference(self, kind, seed, n):
        run = process.run(cfg(kind, n, seed))
        assert (run.removed, run.dropped_outside) == brute_removal(kind.value, n, seed)

    @pytest.mark.parametrize("kind", [K5, K3])
    @pytest.mark.parametrize("below", [False, True])
    def test_coin_on_the_threshold(self, kind, below, monkeypatch):
        # every coin sits exactly on its math.log threshold (not below it, so
        # the smaller term goes) or one ulp under it (the larger term goes);
        # np.log and math.log disagree in the last bit for some terms here
        def thr(k, a, b, c):
            t = 1.0 - 1.0 / math.log(_larger_term(k, a, b, c) + 2)
            return math.nextafter(t, 0.0) if below else t

        def coins(seed, k, a, b, c):
            return np.array([thr(k, ai, b, ci) for ai, ci in zip(a.tolist(), c.tolist())])

        monkeypatch.setattr(process, "_coin_array", coins)
        n = 3000
        run = process.run(cfg(kind, n, 1))
        assert (run.removed, run.dropped_outside) == brute_removal(kind.value, n, 1, coin=thr)
        want = brute_removal(kind.value, n, 1, coin=lambda *_: 0.0 if below else 1.0)
        assert (run.removed, run.dropped_outside) == want

    def test_threshold_where_numpy_log_differs(self):
        # larger terms at which np.log(x + 2) and math.log(x + 2) round
        # differently on x86-64 builds; the decision must follow math.log
        larger = np.array([19141, 819857, 833747, 1106344, 1820954, 2019046, 2441054])
        thr = np.array([1.0 - 1.0 / math.log(t + 2) for t in larger.tolist()])
        assert not process._below_p(thr, larger).any()
        assert process._below_p(np.nextafter(thr, 0.0), larger).all()

    def test_chunk_size_does_not_matter(self, monkeypatch):
        configs = [cfg(kind, 2000, 5) for kind in (K6, K5, K3)]
        before = [(process.run_to_json(r), process.run_to_bitmap(r))
                  for r in map(process.run, configs)]
        monkeypatch.setattr(process, "_CHUNK", 7)
        after = [(process.run_to_json(r), process.run_to_bitmap(r))
                 for r in map(process.run, configs)]
        assert after == before


class TestProgressions:
    """process._progressions against brute_progressions, which shares no code with it."""

    @pytest.mark.parametrize("chunk", [1, 7, 2**16])
    @pytest.mark.parametrize("n", [16, 17, 100, 1000])
    @pytest.mark.parametrize("kind", [K6, K5, K3])
    def test_matches_plain_loops(self, kind, n, chunk, monkeypatch):
        # chunk 1 makes each c its own block, so the gcd filter leaves some
        # blocks empty (at n = 1000, c = 4 at b = 2 for 6gp and 5gp)
        monkeypatch.setattr(process, "_CHUNK", chunk)
        got = []
        for a, b, c in process._progressions(kind, n):
            assert type(b) is int
            assert a.dtype == c.dtype == np.int64
            assert 1 <= a.size == c.size <= chunk
            got += zip(a.tolist(), itertools.repeat(b), c.tolist())
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(brute_progressions(kind.value, n))


class TestVerifyFree:
    @pytest.mark.parametrize("kind", [K6, K5, K3])
    def test_runs_are_free(self, kind):
        for seed in (1, 2, 3):
            run = process.run(cfg(kind, 3000, seed))
            assert process.verify_free(run) is None

    def test_fault_injection_detected(self):
        run = process.run(cfg(K6, 100, 1))
        survivors = set(run.survivors())
        # re-insert enough of [1,2,4,8,16,32] to complete a 6-GP
        forced = survivors | {1, 2, 4, 8, 16, 32}
        removed = tuple(sorted(set(range(1, 101)) - forced))
        bad = process.ProcessRun(run.config, removed, run.dropped_outside)
        w = process.verify_free(bad)
        assert w is not None and set(w.terms()) <= forced

    def test_empty_survivors(self):
        run = process.ProcessRun(cfg(K6, 16, 1), tuple(range(1, 17)), 0)
        assert process.verify_free(run) is None

    @pytest.mark.parametrize("kind, gp", [
        (K6, gpcore.KGeoProgression(6, 1, 2, 3)),
        (K5, gpcore.KGeoProgression(5, 3, 2, 3)),
        (K3, gpcore.KGeoProgression(3, 5, 1, 7)),
    ], ids=["6gp", "5gp", "3gp-int"])
    def test_planted_gp_matches_oracle(self, kind, gp):
        # put the terms of one progression back among the survivors: the witness is
        # the first progression in (c, b, a) order that the plain-loop oracle finds
        run = process.run(cfg(kind, 3000, 1))
        removed = tuple(t for t in run.removed if t not in gp.terms())
        assert len(removed) < len(run.removed)
        bad = process.ProcessRun(run.config, removed, run.dropped_outside)
        w = process.verify_free(bad)
        assert w is not None and w == brute_first_gp(bad.survivors(), gp.k, kind is K3)


class TestHittingProperty:
    @pytest.mark.parametrize("kind,k", [(K6, 6), (K5, 5)])
    def test_every_contained_gp_is_hit(self, kind, k):
        n, seed = 2000, 4
        run = process.run(cfg(kind, n, seed))
        removed = frozenset(run.removed)
        for gp in gpcore.enumerate_gps(k, k - 1, n):
            assert removed & set(gp.terms()), f"unhit {gp}"

    def test_integer_ratio_hit(self):
        n, seed = 2000, 4
        removed = frozenset(process.run(cfg(K3, n, seed)).removed)
        for a in range(1, n + 1):
            for r in range(2, n + 1):
                if a * r * r > n:
                    break
                assert {a * r, a * r * r} & removed


class TestSquarefreeCore:
    """Every 6-GP event of n needs c^2 | n with c >= 2, so 6gp removes no
    squarefree n (d_2(n) == 1) whatever the seed; the biased kinds do."""

    @pytest.fixture(scope="class")
    def d2(self):
        return divisor.sieve(divisor.Interval(0, 10**5), divisor.DivisorSpec(k=2))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_6gp_removes_no_squarefree_n(self, d2, seed):
        removed = process.run(cfg(K6, 10**5, seed)).removed
        assert removed and [n for n in removed if d2[n - 1] == 1] == []

    @pytest.mark.parametrize("kind,count", [(K5, 17044), (K3, 16965)])
    def test_biased_kinds_remove_squarefree_n(self, d2, kind, count):
        removed = process.run(cfg(kind, 10**5, 1)).removed
        assert sum(d2[n - 1] == 1 for n in removed) == count


class TestGapReport:
    def _fake_run(self, n, survivors):
        removed = tuple(sorted(set(range(1, n + 1)) - set(survivors)))
        return process.ProcessRun(cfg(K6, n, 0), removed, 0)

    def test_example_gaps(self):
        rep = process.gap_report(self._fake_run(20, {16, 17, 20}), 0.5)
        assert rep.gaps == ((16, 1), (17, 3))
        assert rep.max_gap == 3

    def test_fitted_value_definition(self):
        rep = process.gap_report(self._fake_run(40, {16, 18, 25, 33}), 0.5)
        want = max(g / bounds.gap_envelope(t, 0.5, 1.0) for t, g in rep.gaps)
        assert rep.fitted_c_eps == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("t", [42, 44, 60, 68, 76, 143])
    def test_fitted_value_uses_the_scalar_envelope(self, t):
        # fitted_c_eps equals 1 / gap_envelope(t, eps, 1.0) bit for bit
        for eps in (0.1, 0.5):
            rep = process.gap_report(self._fake_run(t + 1, {t, t + 1}), eps)
            assert rep.fitted_c_eps == 1 / bounds.gap_envelope(t, eps, 1.0)

    @pytest.mark.parametrize("kind", [K6, K5, K3])
    def test_fitted_value_is_the_scalar_maximum(self, kind):
        # bit for bit: the printed fitted_c_eps must not depend on how the
        # envelope was evaluated
        run = process.run(cfg(kind, 30000, 2))
        for eps in (0.05, 0.1, 0.5, 1.0, 3.0):
            rep = process.gap_report(run, eps)
            assert rep.fitted_c_eps == max(
                g / bounds.gap_envelope(t, eps, 1.0) for t, g in rep.gaps)

    def test_monotone_in_epsilon(self):
        run = process.run(cfg(K6, 5000, 1))
        vals = [process.gap_report(run, e / 10).fitted_c_eps for e in range(1, 11)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            process.gap_report(self._fake_run(20, {16, 17, 20}), eps)

    def test_too_few_survivors(self):
        with pytest.raises(DomainError, match="^need at least two survivors >= 16$"):
            process.gap_report(self._fake_run(20, {17}), 0.5)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            process.gap_report(self._fake_run(40, {16, 18, 25, 33}), 0.5)
            assert gc.isenabled() == enabled
        finally:
            gc.enable() if was else gc.disable()


def fires(kind, seed, n):
    """Whether one of n's removal events fires under the coins of `seed`."""
    return any(((process.coin_bits(seed, *key) >> 11) * 2.0**-53 < thr) == below
               for key, thr, below in process._removal_events(kind, n))


class TestSurvival:
    def test_6gp_wide_window_matches_full_runs(self):
        # h*h >= x: the window holds a squarefree n, which no 6-GP event removes
        empties = process.survival_probability(K6, 100, 10, 10, 1)
        assert empties == full_run_empties(K6, 100, 10, 10, 1) == 0

    def test_basic_run(self):
        empties = process.survival_probability(K3, 1000, 5, 200, 3)
        assert 0 <= empties <= 200

    def test_trial_prefix_stability(self):
        a = process.survival_probability(K3, 500, 4, 50, 9)
        b = process.survival_probability(K3, 500, 4, 100, 9)
        # doubling trials keeps the first 50 outcomes; empties can only grow
        assert b >= a

    def test_low_x_rejected(self):
        with pytest.raises(DomainError):
            process.survival_probability(K6, 10, 2, 10, 1)

    @pytest.mark.parametrize("h, trials", [(0, 5), (5, 0)])
    def test_nonpositive_h_or_trials_rejected(self, h, trials):
        with pytest.raises(DomainError, match="^h and trials must be positive$"):
            process.survival_probability(K3, 100, h, trials, 1)

    def test_window_end_at_the_horizon_budget(self):
        limits = DEFAULT_LIMITS._replace(process_max_n=105)
        assert 0 <= process.survival_probability(K3, 100, 5, 3, 1, limits) <= 3
        with pytest.raises(ResourceLimit, match=r"^x \+ h exceeds budget 105$"):
            process.survival_probability(K3, 100, 6, 3, 1, limits)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # coin_bits would reduce the seed mod 2**64; run() rejects it too
        with pytest.raises(DomainError, match="seed must fit in 64 bits"):
            process.survival_probability(K3, 100, 5, 5, seed)

    # the event-based estimator must agree with literally running the
    # process and inspecting the window
    def test_matches_full_runs_3gp(self):
        empties = process.survival_probability(K3, 100, 6, 60, 5)
        assert empties == full_run_empties(K3, 100, 6, 60, 5)

    def test_matches_full_runs_6gp(self):
        empties = process.survival_probability(K6, 400, 10, 60, 7)
        assert empties == full_run_empties(K6, 400, 10, 60, 7)

    @pytest.mark.parametrize("x,h", [(200, 3), (1000, 2), (5000, 2)])
    def test_matches_full_runs_5gp(self, x, h):
        empties = process.survival_probability(K5, x, h, 40, 1)
        assert empties == full_run_empties(K5, x, h, 40, 1)

    @given(kind=st.sampled_from([K6, K5, K3]), seed=st.integers(0, 2**64 - 1),
           x=st.one_of(st.integers(16, 3000), st.integers(65000, 70000)),
           h=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_events_remove_what_run_removes(self, kind, seed, x, h):
        # element by element: n fires one of its events exactly when the full
        # run removes it; above x = 65536 some 5-GPs have terms beyond 2**64
        removed = frozenset(process.run(cfg(kind, x + h, seed)).removed)
        for n in range(x + 1, x + h + 1):
            assert fires(kind, seed, n) == (n in removed), n

    @pytest.mark.parametrize("kind,k,positions", [(K6, 6, (2, 3)), (K5, 5, (1, 2)), (K3, 3, (1, 2))])
    def test_event_keys_are_the_progressions_through_n(self, kind, k, positions):
        # the forward walk's canonical k-GPs with n at a removable position
        want = defaultdict(list)
        for pos in positions:
            for gp in gpcore.enumerate_gps(k, pos, 1499):
                if kind is not K3 or gp.b == 1:
                    want[gp.terms()[pos]].append((k, gp.a, gp.b, gp.c))
        for n in range(16, 1500):
            got = sorted(key for key, _, _ in process._removal_events(kind, n))
            assert got == sorted(want[n]), n

    def test_events_built_once_and_only_when_reached(self, monkeypatch):
        calls = []
        events = process._removal_events
        monkeypatch.setattr(process, "_removal_events",
                            lambda kind, n: calls.append(n) or events(kind, n))
        # trials stop at the first survivor, far before the end of the window
        assert process.survival_probability(K3, 16, 10**6, 20, 1) == 0
        assert 0 < len(calls) == len(set(calls)) < 1000
        # a 6-GP window builds lazily too
        calls.clear()
        process.survival_probability(K6, 10**4, 99, 20, 1)
        assert 0 < len(calls) == len(set(calls)) < 99


class TestFairFamilyRow:
    """A fair k-GP family is one `_FAMILY` row: the fair 8-GP family, patched
    into the 6gp row, runs, verifies and estimates with no other change."""

    @pytest.fixture(autouse=True)
    def eight_gp(self, monkeypatch):
        monkeypatch.setitem(process._FAMILY, K6, (8, gpcore.RATIONAL, (4, 3), (3, 4), False))

    def test_run_is_8gp_free(self):
        run = process.run(cfg(K6, 10**5, 2))
        assert len(run.removed) == 10731
        assert process.verify_free(run) is None
        assert gpcore.contains_gp(run.survivors(), 8) is None

    @pytest.mark.parametrize("x,h", [(16, 60), (1000, 80), (5000, 40)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_events_remove_what_run_removes(self, x, h, seed):
        removed = frozenset(process.run(cfg(K6, x + h, seed)).removed)
        for n in range(x + 1, x + h + 1):
            assert fires(K6, seed, n) == (n in removed), n

    # 80 = 2^4 * 5 and 81 = 3^4 both carry a cube; (100, 110] has h*h >= x
    @pytest.mark.parametrize("x,h,want", [(79, 2, 18), (100, 10, 0)])
    def test_survival_matches_full_runs(self, x, h, want):
        empties = process.survival_probability(K6, x, h, 30, 4)
        assert empties == full_run_empties(K6, x, h, 30, 4) == want


def full_run_empties(kind, x, h, trials, seed):
    """Trials whose full run of the process leaves no survivor in (x, x+h]."""
    empties = 0
    for t in range(trials):
        run = process.run(cfg(kind, x + h, process.derive_seed(seed, t)))
        if not (set(run.survivors()) & set(range(x + 1, x + h + 1))):
            empties += 1
    return empties


class TestSerialization:
    def test_json_roundtrip(self):
        run = process.run(cfg(K5, 1000, 8))
        assert process.run_from_json(process.run_to_json(run)) == run

    def test_json_is_canonical(self):
        run = process.run(cfg(K5, 300, 8))
        s = process.run_to_json(run)
        assert " " not in s and s == process.run_to_json(process.run_from_json(s))

    def test_bitmap_roundtrip(self):
        run = process.run(cfg(K6, 777, 3))
        blob = process.run_to_bitmap(run)
        assert len(blob) == 8 * ((777 + 63) // 64)
        assert bitmap_removed(blob, 777) == run.removed

    @pytest.mark.parametrize("edit", [
        {"removed": [7, 7]},                 # duplicate
        {"removed": [9, 8]},                 # not increasing
        {"removed": [-3, 7]},                # below 1
        {"removed": [0, 7]},
        {"removed": [7, 101]},               # above n
        {"removed": [7, 8.0]},               # not integers
        {"removed": [7, True]},
        {"removed": [7, 2**70]},
        {"removed": "7"},
        {"dropped_outside": -1},
        {"dropped_outside": 1.5},
        {"counts_removed": 3},               # counts disagree with the list
        {"counts_survivors": 100},
        {"n": 100.0},
        {"no_counts": True},
        {"removed": [True, 5]},              # a JSON boolean, increasing only as 1
        {"n": 10**12},                       # malformed above the budget: DomainError first
    ])
    def test_malformed_run_rejected(self, edit):
        d = process.run_to_dict(process.ProcessRun(cfg(K6, 100, 1), (7, 8), 0))
        if "removed" in edit:
            d["removed"] = edit["removed"]
            if isinstance(edit["removed"], list):
                d["counts"].update(removed=2, survivors=98)
        d["counts"]["dropped_outside"] = edit.get("dropped_outside", 0)
        d["counts"]["removed"] = edit.get("counts_removed", d["counts"]["removed"])
        d["counts"]["survivors"] = edit.get("counts_survivors", d["counts"]["survivors"])
        d["config"]["n"] = edit.get("n", 100)
        if "no_counts" in edit:
            del d["counts"]
        with pytest.raises(DomainError):
            process.run_from_json(json.dumps(d))

    def test_truncated_json_rejected(self):
        with pytest.raises(DomainError):
            process.run_from_json(process.run_to_json(process.run(cfg(K6, 100, 1)))[:-1])

    def test_int_literal_beyond_digit_limit_rejected(self):
        text = process.run_to_json(process.ProcessRun(cfg(K6, 100, 1), (7,), 0))
        with pytest.raises(DomainError):
            process.run_from_json(text.replace('"removed":[7]', '"removed":[' + "9" * 5000 + "]"))

    def test_horizon_above_budget_refused(self):
        n = DEFAULT_LIMITS.process_max_n + 1
        text = process.run_to_json(process.ProcessRun(cfg(K6, n, 1), (7,), 0))
        with pytest.raises(ResourceLimit, match=f"^run horizon {n} exceeds budget {n - 1}$"):
            process.run_from_json(text)
        run = process.run_from_json(text, DEFAULT_LIMITS._replace(process_max_n=n))
        assert run.config.n == n and run.removed == (7,)

    def test_huge_horizon_refused_before_any_mask(self):
        text = process.run_to_json(process.ProcessRun(cfg(K6, 10**12, 1), (7,), 0))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match=f"^run horizon {10**12} exceeds budget"):
                process.run_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_removal_list_loads(self):
        run = process.ProcessRun(cfg(K6, 16, 1), (), 0)
        assert process.run_from_json(process.run_to_json(run)) == run

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(16, 400))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, n):
        run = process.run(cfg(K3, n, seed))
        assert process.run_from_json(process.run_to_json(run)) == run
        assert bitmap_removed(process.run_to_bitmap(run), n) == run.removed
