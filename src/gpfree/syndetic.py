"""Exhaustive pruned search over pair selections in [1, N] for 3-GP freeness.

A selection picks at least one integer from every pair of consecutive
integers: disjoint pairing uses the pairs {2i-1, 2i} (and by monotonicity of
triple-hitting, exactly-one selections decide the at-least-one question too);
overlapping pairing uses every {i, i+1}, the reading under which gaps never
exceed one skipped integer.  The instance is exactly the CNF that
export_dimacs writes, plus the pairing: the pairs, and every triple
x < y < z <= N with y**2 == x*z once, as gpcore's plain (x, y, z) int tuples.
The search decides whether some selection avoids them all, returning an
explicit counterexample selection or an exhaustion certificate with
statistics.  verify_selection re-checks a counterexample against those
clauses alone, sharing no table with the engine.

The engine is a DPLL-style backtracker that branches on the first undecided
element, iterative so that its depth is not bounded by Python's recursion
limit.  It builds its own element indexes from the instance.
Propagation rules:
  * a triple with two chosen elements forbids its third element;
  * a forbidden element forces the other element of every pair holding it
    to be chosen;
  * in disjoint mode a chosen element forbids the other element of its pair.
Elements belonging to no triple are chosen greedily up front: adding such an
element to any valid selection keeps it valid, so the restriction is sound
for both verdicts.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Optional, Sequence

from .errors import DomainError, MalformedSelection
from .gpcore import enumerate_3gp_triples
from .limits import DEFAULT_LIMITS, Limits

DISJOINT = "disjoint"
OVERLAPPING = "overlapping"

EXHAUSTED = "exhausted"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget-exhausted"

_UNDEC, _IN, _OUT = 0, 1, 2


# the CNF of export_dimacs plus its pairing mode; triples: (x, y, z) with x < y < z, y*y == x*z
SearchInstance = namedtuple("SearchInstance", "n pairing pairs triples")

# prunings: cause -> count; elapsed_ms covers engine set-up and search
SearchStats = namedtuple("SearchStats", "nodes prunings elapsed_ms")

# selection: the counterexample, present iff the verdict is COUNTEREXAMPLE
SearchOutcome = namedtuple("SearchOutcome", "verdict stats selection", defaults=(None,))


def build_instance(n: int, pairing: str = DISJOINT) -> SearchInstance:
    if n < 4 or n % 2:
        raise DomainError(f"N must be even and >= 4, got {n}")
    if pairing not in (DISJOINT, OVERLAPPING):
        raise DomainError(f"unknown pairing {pairing!r}")
    if pairing == DISJOINT:
        pairs = tuple((2 * i - 1, 2 * i) for i in range(1, n // 2 + 1))
    else:
        pairs = tuple((i, i + 1) for i in range(1, n))
    return SearchInstance(n, pairing, pairs, tuple(enumerate_3gp_triples(n)))


def verify_selection(instance: SearchInstance, selection: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Certificate check on the clauses alone: the first contained triple, or None."""
    chosen = set(selection)
    if not chosen <= set(range(1, instance.n + 1)):
        raise MalformedSelection("selection contains integers outside [1, N]")
    for e1, e2 in instance.pairs:
        if e1 not in chosen and e2 not in chosen:
            raise MalformedSelection(f"pair {{{e1},{e2}}} has no selected element")
    if instance.pairing == DISJOINT:
        for e1, e2 in instance.pairs:
            if e1 in chosen and e2 in chosen:
                raise MalformedSelection(f"pair {{{e1},{e2}}} has both elements selected")
    for x, y, z in instance.triples:
        if x in chosen and y in chosen and z in chosen:
            return (x, y, z)
    return None


def export_dimacs(instance: SearchInstance) -> str:
    """CNF encoding: variable e = 'integer e selected'.

    One positive clause per pair (at least one selected) and one negative
    clause per triple (not all three selected).
    """
    lines = [
        f"c syndetic 3-GP instance N={instance.n} pairing={instance.pairing}",
        f"p cnf {instance.n} {len(instance.pairs) + len(instance.triples)}",
    ]
    for e1, e2 in instance.pairs:
        lines.append(f"{e1} {e2} 0")
    for x, y, z in instance.triples:
        lines.append(f"-{x} -{y} -{z} 0")
    return "\n".join(lines) + "\n"


class _Engine:
    """Backtracking core shared by both pairings; it decides elements only.

    It builds its two working tables from the instance's clauses.  mates[e]
    is the other element of each pair holding e, in pair order (the partner
    in disjoint mode; e - 1 and e + 1, where in [1, N], in overlapping mode).
    member[e] lists the indices of the triples holding e, ascending.  The
    node and time budgets are two fields that dfs checks at every node.
    """

    def __init__(self, instance: SearchInstance, limits: Limits):
        seconds = limits.search_time_budget_s
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.node_budget = limits.search_node_budget
        self.inst = instance
        self.disjoint = instance.pairing == DISJOINT
        self.n = n = instance.n
        self.mates = mates = [[] for _ in range(n + 1)]
        for e1, e2 in instance.pairs:
            mates[e1].append(e2)
            mates[e2].append(e1)
        self.member = member = [[] for _ in range(n + 1)]
        for t, tr in enumerate(instance.triples):
            for e in tr:
                member[e].append(t)
        self.state = bytearray(n + 1)
        self.tcount = [0] * len(instance.triples)
        self.trail: list[int] = []  # signed: +e set IN, -e set OUT
        self.nodes, self.prunings = 0, {}

    # -- propagation ---------------------------------------------------------

    def assign(self, lit: int) -> bool:
        """Assign literal (+e IN / -e OUT) and run propagation to fixpoint."""
        state, tcount, mates, trail = self.state, self.tcount, self.mates, self.trail
        member, triples, prunings = self.member, self.inst.triples, self.prunings
        queue = [lit]
        while queue:
            q = queue.pop()
            e, want = (q, _IN) if q > 0 else (-q, _OUT)
            if state[e] == want:
                continue
            if state[e] != _UNDEC:
                prunings["element-both-forced"] = prunings.get("element-both-forced", 0) + 1
                return False
            state[e] = want
            trail.append(q)
            if want == _OUT:
                queue.extend(mates[e])  # every pair through e now needs its other element
                continue
            if self.disjoint:  # exactly one of each pair
                queue.append(-mates[e][0])
            complete = False
            # increment all counters before any early exit so undo stays symmetric
            for t in member[e]:
                tcount[t] += 1
                if tcount[t] == 3:
                    complete = True
            if complete:
                prunings["triple-complete"] = prunings.get("triple-complete", 0) + 1
                return False
            for t in member[e]:
                if tcount[t] == 2:
                    x, y, z = triples[t]
                    third = x if state[x] != _IN else (y if state[y] != _IN else z)
                    if state[third] == _UNDEC:
                        queue.append(-third)
        return True

    def undo(self, mark: int) -> None:
        state, tcount, member = self.state, self.tcount, self.member
        while len(self.trail) > mark:
            s = self.trail.pop()
            e = abs(s)
            state[e] = _UNDEC
            if s > 0:
                for t in member[e]:
                    tcount[t] -= 1

    def preassign_unconstrained(self) -> None:
        """Select triple-free elements up front; sound by monotonicity.

        No such assign fails: it can only force a disjoint mate OUT, whose one
        mate is the element itself, already IN.
        """
        for e in range(1, self.n + 1):
            if not self.member[e] and self.state[e] == _UNDEC:
                self.assign(e)

    # -- branching -----------------------------------------------------------

    def dfs(self) -> str:
        """Depth-first search that branches on the first undecided element.

        A frame is (element, untried branch literals, trail mark).  Each
        time a frame is resumed it undoes to its mark, then tries its next
        literal: the undo order of the plain recursive backtracker.  Every
        element below the top frame's stays decided, so the scan for the next
        one starts there.  Disjoint pairs stay atomic: OUT e is IN its partner.
        """
        budget, deadline, state = self.node_budget, self.deadline, self.state
        stack, e = [], 1
        while True:
            e = state.find(_UNDEC, e)
            if e < 0:
                return COUNTEREXAMPLE
            self.nodes += 1
            if ((budget is not None and self.nodes > budget)
                    or (deadline is not None and time.monotonic() > deadline)):
                return BUDGET_EXHAUSTED
            # overlapping: try OUT first: it forces both neighbours IN
            lits = [e, -e] if self.disjoint else [-e, e]
            stack.append((e, iter(lits), len(self.trail)))
            while stack:
                e, lits, mark = stack[-1]
                self.undo(mark)
                lit = next(lits, 0)
                if not lit:
                    stack.pop()
                elif self.assign(lit):
                    break
            else:
                return EXHAUSTED

    def selection(self) -> tuple[int, ...]:
        return tuple(e for e in range(1, self.n + 1) if self.state[e] == _IN)


def search(
    instance: SearchInstance,
    workers: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> SearchOutcome:
    """Decide the instance.

    The search is serial; `workers` is accepted and has no effect.  Verdict,
    counterexample witness and statistics are deterministic, apart from
    elapsed_ms.  Counterexamples are re-checked through verify_selection
    before being returned; one that fails the check raises RuntimeError.
    """
    t0 = time.perf_counter()
    eng = _Engine(instance, limits)
    eng.preassign_unconstrained()
    verdict = eng.dfs()
    sel = eng.selection() if verdict == COUNTEREXAMPLE else None
    stats = SearchStats(eng.nodes, eng.prunings, (time.perf_counter() - t0) * 1000.0)
    if sel is not None:
        witness = verify_selection(instance, sel)
        if witness is not None:
            raise RuntimeError(f"engine produced an invalid counterexample: {witness} is a 3-GP")
    return SearchOutcome(verdict, stats, sel)
