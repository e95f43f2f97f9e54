"""The library's record types: validation, immutability and repr.

The reprs and error messages are those of the earlier dataclass records;
Limits adds its survival_max_trials field at the end.
"""

import math
from array import array

import pytest

from gpfree import bounds, divisor, gpcore, limits, syndetic
from gpfree import process as P
from gpfree.errors import DomainError

RECORDS = {
    "Limits": (
        limits.Limits,
        "Limits(sieve_max_len=10000000, mertens_max_x=100000000, process_max_n=10000000, "
        "search_node_budget=None, search_time_budget_s=None, survival_max_trials=1000000)",
    ),
    "KGeoProgression": (
        lambda: gpcore.KGeoProgression(3, 1, 2, 3),
        "KGeoProgression(k=3, a=1, b=2, c=3)",
    ),
    "DivisorSpec": (
        lambda: divisor.DivisorSpec.pair(3, 2),
        "DivisorSpec(k=None, i=3, j=2)",
    ),
    "Interval": (lambda: divisor.Interval(10, 5), "Interval(x=10, h=5)"),
    "ProcessConfig": (
        lambda: P.ProcessConfig(P.ProcessKind.FIVE_GP, 100, 7),
        "ProcessConfig(kind=<ProcessKind.FIVE_GP: '5gp'>, n=100, seed=7)",
    ),
    "ProcessRun": (
        lambda: P.ProcessRun(P.ProcessConfig(P.ProcessKind.SIX_GP, 16, 1), (4, 9), 2),
        "ProcessRun(config=ProcessConfig(kind=<ProcessKind.SIX_GP: '6gp'>, n=16, seed=1), "
        "removed=(4, 9), dropped_outside=2)",
    ),
    "GapReport": (
        lambda: P.GapReport(array("q", [16]), [2], 2, 0.25),
        "GapReport(starts=array('q', [16]), lengths=[2], max_gap=2, fitted_c_eps=0.25)",
    ),
    "SearchInstance": (
        lambda: syndetic.build_instance(4),
        "SearchInstance(n=4, pairing='disjoint', pairs=((1, 2), (3, 4)), triples=((1, 2, 4),))",
    ),
    "SearchStats": (
        lambda: syndetic.SearchStats(0, {}),
        "SearchStats(nodes=0, prunings={})",
    ),
    "SearchOutcome": (
        lambda: syndetic.search(syndetic.build_instance(4)),
        "SearchOutcome(verdict='counterexample', stats=SearchStats(nodes=1, prunings={}), "
        "selection=(1, 3))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, want = RECORDS[name]
    assert repr(make()) == want


@pytest.mark.parametrize("name", RECORDS)
def test_refuses_attribute_assignment(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("make, message", [
    (lambda: gpcore.KGeoProgression(2, 1, 1, 2), "k must be >= 3, got 2"),
    (lambda: gpcore.KGeoProgression(3, 0, 1, 2), "a, b, c must be positive"),
    (lambda: gpcore.KGeoProgression(3, 1, 2, 2), "need b < c for ratio > 1, got b=2, c=2"),
    (lambda: gpcore.KGeoProgression(3, 1, 2, 4), "ratio 4/2 not in lowest terms"),
    (lambda: gpcore.KGeoProgression(3, 1, 1, 2**32), "largest term exceeds 64 bits"),
    (lambda: gpcore.KGeoProgression(65, 1, 1, 2), "largest term exceeds 64 bits"),
    (lambda: divisor.DivisorSpec(k=2, i=1), "give either k or (i, j), not both"),
    (lambda: divisor.DivisorSpec(k=0), "k must be >= 1, got 0"),
    (lambda: divisor.DivisorSpec(i=1), "pair spec needs both i and j"),
    (lambda: divisor.DivisorSpec(), "pair spec needs both i and j"),
    (lambda: divisor.DivisorSpec.pair(0, 2), "exponents must be >= 1, got (0, 2)"),
    (lambda: divisor.Interval(-1, 5), "x must be >= 0, got -1"),
    (lambda: divisor.Interval(0, 0), "h must be >= 1, got 0"),
    (lambda: divisor.Interval(2**63 - 5, 5), "interval end exceeds supported width"),
    (lambda: P.ProcessConfig(P.ProcessKind.SIX_GP, 15, 1), "horizon must be >= 16, got 15"),
    (lambda: P.ProcessConfig(P.ProcessKind.SIX_GP, 100, -1), "seed must fit in 64 bits"),
    (lambda: P.ProcessConfig(P.ProcessKind.SIX_GP, 100, 2**64), "seed must fit in 64 bits"),
])
def test_validation_errors(make, message):
    with pytest.raises(DomainError) as exc:
        make()
    assert type(exc.value) is DomainError and str(exc.value) == message


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: gpcore.canonicalize([0, 1, 2]),
                 "terms must be positive integers", id="canonicalize"),
    pytest.param(lambda: gpcore.find_gps_with_term_at(0, 3, 1),
                 "n must be positive, got 0", id="find_gps_with_term_at-n"),
    pytest.param(lambda: gpcore.find_gps_with_term_at(8, 2, 1),
                 "k must be >= 3, got 2", id="find_gps_with_term_at-k"),
    pytest.param(lambda: gpcore.find_gps_with_term_at(8, 3, 3),
                 "position 3 out of range for k=3", id="find_gps_with_term_at-position"),
    pytest.param(lambda: gpcore.contains_gp([1, 2, 4], 3, "real"),
                 "unknown mode 'real'", id="contains_gp"),
    pytest.param(lambda: gpcore.enumerate_3gp_triples(0),
                 "n must be positive, got 0", id="enumerate_3gp_triples"),
    pytest.param(lambda: syndetic.build_instance(4, "cyclic"),
                 "unknown pairing 'cyclic'", id="build_instance"),
    pytest.param(lambda: divisor.factorize(0),
                 "n must be positive, got 0", id="factorize"),
    # two bad arguments: the first check in each function's order wins
    pytest.param(lambda: bounds.gap_envelope(math.nan, -1, 0),
                 "x must be finite and >= 16, got nan", id="gap_envelope-x-first"),
    pytest.param(lambda: bounds.h_short(1e4, 0, 3, -1),
                 "epsilon must be positive and finite, got -1", id="h_short-epsilon-first"),
    pytest.param(lambda: bounds.survival_bound(1e4, math.nan, 1, -1),
                 "C and E must be nonnegative and finite, got nan and 1",
                 id="survival_bound-fit-parameters-first"),
    pytest.param(lambda: gpcore.find_gps_with_term_at(0, 2, 5),
                 "n must be positive, got 0", id="find_gps_with_term_at-n-first"),
    pytest.param(lambda: next(gpcore.enumerate_gps(2, 5, 10)),
                 "k must be >= 3, got 2", id="enumerate_gps-k-first"),
])
def test_entry_point_validation_errors(make, message):
    test_validation_errors(make, message)
