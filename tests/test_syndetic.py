import hashlib
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfree import syndetic
from gpfree.errors import DomainError
from gpfree.limits import DEFAULT_LIMITS

from oracles import (
    brute_3gp_triples,
    brute_cnf_selection,
    brute_disjoint_free_selection,
    brute_overlapping_free_selection,
    brute_selection_violation,
)


class TestInstance:
    def test_n4_disjoint(self):
        inst = syndetic.build_instance(4, syndetic.DISJOINT)
        assert inst.pairs == ((1, 2), (3, 4))
        assert inst.triples == ((1, 2, 4),)

    def test_n10_disjoint(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        assert len(inst.pairs) == 5
        assert inst.triples == ((1, 2, 4), (1, 3, 9), (2, 4, 8), (4, 6, 9))

    def test_n640_shape(self):
        inst = syndetic.build_instance(640, syndetic.DISJOINT)
        assert len(inst.pairs) == 320
        assert len(inst.triples) == len(brute_3gp_triples(640))

    def test_overlapping_pairs(self):
        inst = syndetic.build_instance(6, syndetic.OVERLAPPING)
        assert inst.pairs == ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError):
            syndetic.build_instance(7, syndetic.DISJOINT)


class TestVerifySelection:
    def test_triple_found(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        assert syndetic.verify_selection(inst, [2, 4, 6, 8, 10]) == (2, 4, 8)

    def test_triple_free(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        assert syndetic.verify_selection(inst, [1, 3, 6, 8, 10]) is None

    def test_missing_pair_rejected(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        with pytest.raises(DomainError, match=r"^pair \{5,6\} has no selected element$"):
            syndetic.verify_selection(inst, [1, 3, 8, 10])

    def test_out_of_range_rejected(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        with pytest.raises(DomainError, match=r"^selection contains integers outside \[1, N\]$"):
            syndetic.verify_selection(inst, [1, 3, 6, 8, 10, 11])

    def test_both_of_a_disjoint_pair_rejected(self):
        inst = syndetic.build_instance(10, syndetic.DISJOINT)
        with pytest.raises(DomainError, match=r"^pair \{5,6\} has both elements selected$"):
            syndetic.verify_selection(inst, [1, 3, 5, 6, 8, 10])

    def test_reads_the_clauses_alone(self):
        """A hand-built instance needs no index: the first contained triple, in order."""
        inst = syndetic.SearchInstance(10, syndetic.OVERLAPPING,
                                       tuple((i, i + 1) for i in range(1, 10)),
                                       ((1, 2, 4), (1, 3, 9), (2, 4, 8), (4, 6, 9)))
        assert syndetic.verify_selection(inst, range(1, 11)) == (1, 2, 4)
        assert syndetic.verify_selection(inst, [2, 3, 5, 6, 7, 8, 10]) is None


class TestSelectionOracle:
    """The certificate check that shares no code with gpfree can fail."""

    def test_accepts_free_selection(self):
        assert brute_selection_violation(10, "disjoint", [1, 3, 6, 8, 10]) is None

    def test_rejects_disjoint_selection_containing_1_2_4(self):
        assert brute_selection_violation(4, "disjoint", [1, 2, 4]) == (
            "both-chosen", (1, 2))

    def test_rejects_3gp(self):
        assert brute_selection_violation(10, "disjoint", [2, 4, 6, 8, 10]) == (
            "3gp", (2, 4, 8))
        assert brute_selection_violation(4, "overlapping", [1, 2, 4]) == (
            "3gp", (1, 2, 4))

    def test_rejects_skipped_pair(self):
        assert brute_selection_violation(10, "disjoint", [1, 3, 8, 10]) == (
            "uncovered", (5, 6))

    def test_rejects_both_of_a_pair(self):
        assert brute_selection_violation(10, "disjoint", [1, 3, 5, 6, 8, 10]) == (
            "both-chosen", (5, 6))

    def test_rejects_out_of_range(self):
        assert brute_selection_violation(10, "disjoint", [0, 3, 6, 8, 10]) == (
            "out-of-range", 0)
        assert brute_selection_violation(10, "disjoint", [1, 3, 6, 8, 10, 11]) == (
            "out-of-range", 11)


class TestDimacs:
    def test_n10_clause_counts(self):
        text = syndetic.export_dimacs(syndetic.build_instance(10, syndetic.DISJOINT))
        clauses = [ln for ln in text.splitlines()
                   if ln and not ln.startswith(("c", "p"))]
        positive = [c for c in clauses if not c.startswith("-")]
        negative = [c for c in clauses if c.startswith("-")]
        assert len(positive) == 5 and len(negative) == 4
        assert "p cnf 10 9" in text


class TestSearchSmall:
    def test_n4_counterexample(self):
        out = syndetic.search(syndetic.build_instance(4, syndetic.DISJOINT))
        assert out.verdict == syndetic.COUNTEREXAMPLE
        assert syndetic.verify_selection(
            syndetic.build_instance(4, syndetic.DISJOINT), out.selection) is None

    @pytest.mark.parametrize("n", range(4, 42, 2))
    def test_disjoint_agrees_with_literal_enumeration(self, n):
        out = syndetic.search(syndetic.build_instance(n, syndetic.DISJOINT))
        brute = brute_disjoint_free_selection(n)
        if brute is None:
            assert out.verdict == syndetic.EXHAUSTED
        else:
            assert out.verdict == syndetic.COUNTEREXAMPLE
            assert brute_selection_violation(n, "disjoint", out.selection) is None

    @pytest.mark.parametrize("n", range(4, 28, 2))
    def test_overlapping_agrees_with_oracle(self, n):
        out = syndetic.search(syndetic.build_instance(n, syndetic.OVERLAPPING))
        brute = brute_overlapping_free_selection(n)
        if brute is None:
            assert out.verdict == syndetic.EXHAUSTED
        else:
            assert out.verdict == syndetic.COUNTEREXAMPLE


@st.composite
def _random_instances(draw):
    """Pair clauses of either shape with random "not all IN" triples: clause sets
    build_instance never makes (odd N, triples that are no 3-GP)."""
    pairing = draw(st.sampled_from([syndetic.DISJOINT, syndetic.OVERLAPPING]))
    if pairing == syndetic.DISJOINT:
        n = 2 * draw(st.integers(2, 6))
        pairs = tuple((2 * i - 1, 2 * i) for i in range(1, n // 2 + 1))
    else:
        n = draw(st.integers(3, 12))
        pairs = tuple((i, i + 1) for i in range(1, n))
    rng, density = draw(st.randoms(use_true_random=False)), draw(st.floats(0.0, 1.0))
    triples = tuple(t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < density)
    return syndetic.SearchInstance(n, pairing, pairs, triples)


class TestRandomInstances:
    @given(inst=_random_instances())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_enumeration(self, inst):
        """Disjoint is enumerated with exactly-one semantics, which by monotonicity
        decides at-least-one too; every counterexample must pass verify_selection."""
        out = syndetic.search(inst)
        brute = brute_cnf_selection(inst.n, inst.pairs, inst.triples,
                                    exactly_one=inst.pairing == syndetic.DISJOINT)
        assert out.verdict == (syndetic.EXHAUSTED if brute is None else syndetic.COUNTEREXAMPLE)
        if out.selection is not None:
            assert syndetic.verify_selection(inst, out.selection) is None


class TestSearchConfigurations:
    def test_counterexamples_always_verified(self):
        inst = syndetic.build_instance(200, syndetic.DISJOINT)
        out = syndetic.search(inst)
        assert out.verdict == syndetic.COUNTEREXAMPLE
        assert syndetic.verify_selection(inst, out.selection) is None

    def test_invalid_counterexample_raises(self, monkeypatch):
        # the re-check is an explicit raise, which `python -O` keeps
        monkeypatch.setattr(syndetic, "verify_selection", lambda inst, sel: (1, 2, 4))
        with pytest.raises(RuntimeError, match="invalid counterexample"):
            syndetic.search(syndetic.build_instance(4, syndetic.DISJOINT))

    def test_worker_verdict_invariance(self):
        inst = syndetic.build_instance(200, syndetic.DISJOINT)
        outs = [syndetic.search(inst, workers=w) for w in (1, 2, 8)]
        assert len({o.verdict for o in outs}) == 1
        assert len({tuple(o.selection) for o in outs}) == 1

    @pytest.mark.parametrize("pairing", [syndetic.DISJOINT, syndetic.OVERLAPPING])
    def test_blind_engine_fails_its_own_check(self, monkeypatch, pairing):
        """An engine that counts its pair clauses but none of its triples picks a
        selection holding a 3-GP; verify_selection shares no table with it, so the
        search raises."""
        init = syndetic._Engine.__init__

        def blind_init(self, *args):
            init(self, *args)
            self.occ = [[c for c in cs if len(self.clauses[c]) == 2] for cs in self.occ]
        monkeypatch.setattr(syndetic._Engine, "__init__", blind_init)
        with pytest.raises(RuntimeError, match="invalid counterexample"):
            syndetic.search(syndetic.build_instance(10, pairing))

    def test_budget_exhaustion(self):
        limits = DEFAULT_LIMITS._replace(search_node_budget=3)
        out = syndetic.search(
            syndetic.build_instance(640, syndetic.OVERLAPPING), limits=limits)
        assert out.verdict == syndetic.BUDGET_EXHAUSTED
        assert out.selection is None

    def test_time_budget_exhaustion(self):
        # a deadline already past stops the search at its first node
        limits = DEFAULT_LIMITS._replace(search_time_budget_s=-1.0)
        out = syndetic.search(
            syndetic.build_instance(640, syndetic.OVERLAPPING), limits=limits)
        assert (out.verdict, out.stats.nodes, out.selection) == (
            syndetic.BUDGET_EXHAUSTED, 1, None)

    def test_stats_reported(self):
        out = syndetic.search(syndetic.build_instance(40, syndetic.DISJOINT))
        assert out.stats.nodes >= 1


class TestHeadlineSizes:
    def test_overlapping_640_exhausted(self):
        out = syndetic.search(syndetic.build_instance(640, syndetic.OVERLAPPING))
        assert out.verdict == syndetic.EXHAUSTED

    def test_overlapping_640_outcome_repeats(self):
        # the outcome holds no clock: two searches of one instance compare equal
        inst = syndetic.build_instance(640, syndetic.OVERLAPPING)
        assert syndetic.search(inst) == syndetic.search(inst)

    def test_overlapping_638_still_open(self):
        out = syndetic.search(syndetic.build_instance(638, syndetic.OVERLAPPING))
        assert out.verdict == syndetic.COUNTEREXAMPLE

    def test_disjoint_640_has_free_selection(self):
        inst = syndetic.build_instance(640, syndetic.DISJOINT)
        out = syndetic.search(inst)
        assert out.verdict == syndetic.COUNTEREXAMPLE
        assert syndetic.verify_selection(inst, out.selection) is None
        assert brute_selection_violation(640, "disjoint", out.selection) is None

    def test_disjoint_10000_deeper_than_recursion_limit(self):
        """The search depth (one level per pair) exceeds Python's stack."""
        out = syndetic.search(syndetic.build_instance(10000, syndetic.DISJOINT))
        assert out.verdict == syndetic.COUNTEREXAMPLE
        assert brute_selection_violation(10000, "disjoint", out.selection) is None

    def test_disjoint_100000_pinned(self):
        """The ladder beyond the snapshots, recorded from an earlier engine."""
        out = syndetic.search(syndetic.build_instance(100000, syndetic.DISJOINT))
        assert (out.verdict, out.stats.nodes, out.stats.prunings) == (
            syndetic.COUNTEREXAMPLE, 12071, {})
        assert hashlib.sha256(json.dumps(list(out.selection)).encode()).hexdigest() == (
            "d9ef0645055a567724ac83bfb5823630a9c541e7c4addfea3409525de9b8f257")

    def test_oracle_rejects_640_witness_with_planted_3gp(self):
        """Flipping one pair of the witness to complete a triple is caught."""
        out = syndetic.search(syndetic.build_instance(640, syndetic.DISJOINT))
        chosen = set(out.selection)
        for tr in brute_3gp_triples(640):
            missing = [e for e in tr if e not in chosen]
            partner = missing[0] + 1 if missing[0] % 2 else missing[0] - 1
            if len(missing) == 1 and partner not in tr:
                break
        else:
            pytest.fail("no triple is one pair flip away from complete")
        planted = (chosen - {partner}) | {missing[0]}
        violation = brute_selection_violation(640, "disjoint", planted)
        assert violation is not None and violation[0] == "3gp"


_SNAPSHOTS = json.loads(
    (pathlib.Path(__file__).with_name("syndetic_snapshots.json")).read_text())


def _instance(key):
    pairing, n, *_ = key.split()
    return syndetic.build_instance(int(n), pairing)


class TestSnapshots:
    """Verdicts, statistics, witnesses, DIMACS text and node-budget cut-offs, pinned
    from an earlier engine: every even N in 4..200 and 638, 640, 1280, 2560, 5120 and
    10000 under both pairings."""

    @pytest.mark.parametrize("key", sorted(_SNAPSHOTS["searches"]))
    def test_search(self, key):
        out = syndetic.search(_instance(key))
        witness = None if out.selection is None else list(out.selection)
        assert {"verdict": out.verdict, "nodes": out.stats.nodes,
                "prunings": out.stats.prunings, "witness": witness,
                } == _SNAPSHOTS["searches"][key]

    @pytest.mark.parametrize("key", sorted(_SNAPSHOTS["dimacs_sha256"]))
    def test_dimacs(self, key):
        text = syndetic.export_dimacs(_instance(key))
        assert hashlib.sha256(text.encode()).hexdigest() == _SNAPSHOTS["dimacs_sha256"][key]

    @pytest.mark.parametrize("key", sorted(_SNAPSHOTS["node_budgets"]))
    def test_node_budget(self, key):
        limits = DEFAULT_LIMITS._replace(search_node_budget=int(key.split()[2]))
        out = syndetic.search(_instance(key), limits=limits)
        assert {"verdict": out.verdict, "nodes": out.stats.nodes,
                "prunings": out.stats.prunings} == _SNAPSHOTS["node_budgets"][key]
