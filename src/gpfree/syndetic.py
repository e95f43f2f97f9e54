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
limit.  It keeps one counter per clause: a pair fails when neither element
is chosen and, listed again in disjoint mode, when both are; a triple fails
when all three are.  One rule propagates them all: a clause one element short
of failing forces its last undecided element the other way.  Elements in no
triple are chosen up front: choosing one (and dropping its disjoint mate)
keeps any valid selection valid, so this is sound for both verdicts.
"""

from __future__ import annotations

import time
from collections import namedtuple
from typing import Optional, Sequence

from .errors import DomainError
from .gpcore import enumerate_3gp_triples
from .limits import DEFAULT_LIMITS, Limits

DISJOINT = "disjoint"
OVERLAPPING = "overlapping"

EXHAUSTED = "exhausted"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget-exhausted"

_UNDEC, _IN, _OUT = 0, 1, 2
_CONFLICTS = {2: "element-both-forced", 3: "triple-complete"}  # by failed clause size


# the CNF of export_dimacs plus its pairing mode; triples: (x, y, z) with x < y < z, y*y == x*z
SearchInstance = namedtuple("SearchInstance", "n pairing pairs triples")

SearchStats = namedtuple("SearchStats", "nodes prunings")  # prunings: cause -> count

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
        raise DomainError("selection contains integers outside [1, N]")
    for e1, e2 in instance.pairs:
        if e1 not in chosen and e2 not in chosen:
            raise DomainError(f"pair {{{e1},{e2}}} has no selected element")
    if instance.pairing == DISJOINT:
        for e1, e2 in instance.pairs:
            if e1 in chosen and e2 in chosen:
                raise DomainError(f"pair {{{e1},{e2}}} has both elements selected")
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
    """Backtracking core: one counter per clause and one counting rule.

    The first len(pairs) clauses fail when all OUT, the rest when all IN.
    occ[lit] lists, in clause order, the clauses that literal +e (IN) or -e
    (OUT, an end-relative index) pushes toward failing; left[c] counts the
    elements of clause c not yet at its failing value.  At 1 the clause forces
    its last undecided element the other way; at 0 it is a conflict, named by
    its size.  dfs checks the node and time budgets at every node.
    """

    def __init__(self, instance: SearchInstance, limits: Limits):
        seconds = limits.search_time_budget_s
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.node_budget = limits.search_node_budget
        self.inst = instance
        self.n = n = instance.n
        pairs = instance.pairs
        self.clauses = clauses = (
            pairs + (pairs if instance.pairing == DISJOINT else ()) + instance.triples)
        self.occ = occ = [[] for _ in range(2 * n + 1)]
        for c in range(len(pairs)):
            for e in clauses[c]:
                occ[-e].append(c)
        for c in range(len(pairs), len(clauses)):
            for e in clauses[c]:
                occ[e].append(c)
        self.left = bytearray(map(len, clauses))
        self.state = bytearray(n + 1)
        self.trail: list[int] = []  # signed: +e set IN, -e set OUT
        self.nodes, self.prunings = 0, {}

    def assign(self, lit: int) -> bool:
        """Assign literal (+e IN / -e OUT) and run propagation to fixpoint."""
        state, left, occ, clauses, trail = self.state, self.left, self.occ, self.clauses, self.trail
        queue = [lit]
        while queue:
            q = queue.pop()
            e = abs(q)
            if state[e]:  # already q: the other value would have failed the clause that queued q
                continue
            state[e] = _IN if q > 0 else _OUT
            trail.append(q)
            failed = None
            for c in occ[q]:  # count every clause before any exit so undo stays symmetric
                left[c] -= 1
                if left[c] == 1:
                    for x in clauses[c]:
                        if not state[x]:
                            queue.append(-x if q > 0 else x)
                elif not left[c]:
                    failed = c
            if failed is not None:
                cause = _CONFLICTS[len(clauses[failed])]
                self.prunings[cause] = self.prunings.get(cause, 0) + 1
                return False
        return True

    def undo(self, mark: int) -> None:
        state, left, occ, trail = self.state, self.left, self.occ, self.trail
        while len(trail) > mark:
            q = trail.pop()
            state[abs(q)] = _UNDEC
            for c in occ[q]:
                left[c] += 1

    def preassign_unconstrained(self) -> None:
        """Select the elements in no triple up front; no such assign fails.

        Only triples decide: a disjoint "not both IN" clause just forces the
        mate OUT, which fails no clause; counting it would choose nothing.
        """
        state, occ, clauses = self.state, self.occ, self.clauses
        for e in range(1, self.n + 1):
            # occ[e] runs in clause order, triples last
            if not state[e] and (not occ[e] or len(clauses[occ[e][-1]]) == 2):
                self.assign(e)

    def dfs(self) -> str:
        """Depth-first search that branches on the first undecided element.

        A frame is (element, untried branch literals, trail mark).  Each
        time a frame is resumed it undoes to its mark, then tries its next
        literal: the undo order of the plain recursive backtracker.  Every
        element below the top frame's stays decided, so the scan for the next
        one starts there.  Disjoint pairs stay atomic: OUT e is IN its partner.
        """
        budget, deadline, state = self.node_budget, self.deadline, self.state
        in_first = self.inst.pairing == DISJOINT  # overlapping: OUT forces both neighbours IN
        stack, e = [], 1
        while True:
            e = state.find(_UNDEC, e)
            if e < 0:
                return COUNTEREXAMPLE
            self.nodes += 1
            if ((budget is not None and self.nodes > budget)
                    or (deadline is not None and time.monotonic() > deadline)):
                return BUDGET_EXHAUSTED
            lits = [e, -e] if in_first else [-e, e]
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
    counterexample witness and statistics are deterministic.  Counterexamples
    are re-checked through verify_selection before being returned; one that
    fails the check raises RuntimeError.
    """
    eng = _Engine(instance, limits)
    eng.preassign_unconstrained()
    verdict = eng.dfs()
    sel = eng.selection() if verdict == COUNTEREXAMPLE else None
    stats = SearchStats(eng.nodes, eng.prunings)
    if sel is not None:
        witness = verify_selection(instance, sel)
        if witness is not None:
            raise RuntimeError(f"engine produced an invalid counterexample: {witness} is a 3-GP")
    return SearchOutcome(verdict, stats, sel)
