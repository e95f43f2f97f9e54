"""Canonical geometric progressions over the positive integers.

A nontrivial k-term GP with rational ratio c/b > 1 (gcd(b,c)=1) is stored as
(k, a, b, c) with term i equal to a*b**(k-1-i)*c**i.  The lowest-terms
convention makes the representation unique, so enumeration never
double-counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import DomainError, NotAGeometricProgression, TrivialProgression

MAX_TERM = 2**64 - 1  # all terms must fit in 64 bits

RATIONAL = "rational"
INTEGER = "integer"


@dataclass(frozen=True)
class KGeoProgression:
    k: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.k < 3:
            raise DomainError(f"k must be >= 3, got {self.k}")
        if self.a < 1 or self.b < 1 or self.c < 1:
            raise DomainError("a, b, c must be positive")
        if self.b >= self.c:
            raise DomainError(f"need b < c for ratio > 1, got b={self.b}, c={self.c}")
        if gcd(self.b, self.c) != 1:
            raise DomainError(f"ratio {self.c}/{self.b} not in lowest terms")
        if self.a * self.c ** (self.k - 1) > MAX_TERM:
            raise DomainError("largest term exceeds 64 bits")

    @property
    def ratio(self) -> tuple[int, int]:
        """(numerator, denominator) of the common ratio."""
        return self.c, self.b

    def terms(self) -> list[int]:
        k, a, b, c = self.k, self.a, self.b, self.c
        return [a * b ** (k - 1 - i) * c**i for i in range(k)]

    def term_at(self, position: int) -> int:
        if not 0 <= position < self.k:
            raise DomainError(f"position {position} out of range for k={self.k}")
        return self.a * self.b ** (self.k - 1 - position) * self.c**position


@dataclass(frozen=True)
class GPTriple:
    """3-term GP as x < y < z with y**2 == x*z (rational ratio implied)."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if not 0 < self.x < self.y < self.z:
            raise DomainError(f"need 0 < x < y < z, got {self}")
        if self.y * self.y != self.x * self.z:
            raise DomainError(f"({self.x},{self.y},{self.z}) is not a 3-GP")

    def terms(self) -> list[int]:
        return [self.x, self.y, self.z]


def canonicalize(sequence: Sequence[int]) -> KGeoProgression:
    """Inverse of KGeoProgression.terms(): recover the unique (k, a, b, c) form.

    Raises NotAGeometricProgression if the ratio is non-constant or any
    implied division fails, TrivialProgression for a constant sequence.
    """
    seq = list(sequence)
    k = len(seq)
    if k < 3:
        raise DomainError(f"need at least 3 terms, got {k}")
    if any(t < 1 for t in seq):
        raise DomainError("terms must be positive integers")
    if len(set(seq)) == 1:
        raise TrivialProgression(f"all terms equal {seq[0]}")
    g = gcd(seq[0], seq[1])
    b, c = seq[0] // g, seq[1] // g
    if b >= c:
        raise NotAGeometricProgression("sequence is not strictly increasing")
    for t0, t1 in zip(seq, seq[1:]):
        if t0 * c != t1 * b:
            raise NotAGeometricProgression(
                f"ratio {t1}/{t0} differs from {c}/{b}"
            )
    bk = b ** (k - 1)
    if seq[0] % bk != 0:
        raise NotAGeometricProgression(
            f"first term {seq[0]} not divisible by b**(k-1) = {bk}"
        )
    return KGeoProgression(k, seq[0] // bk, b, c)


def _coprime_to(c: int) -> Iterator[int]:
    """b in 1..c-1 with gcd(b, c) == 1, ascending."""
    for b in range(1, c):
        if gcd(b, c) == 1:
            yield b


def enumerate_gps(k: int, position: int, max_term_at_position: int) -> Iterator[KGeoProgression]:
    """Canonical k-GPs whose term at `position` is <= the bound.

    For position >= 1 the family is finite and is emitted in lexicographic
    order of the term tuples.  For position 0 the family is infinite (the
    first term a*b**(k-1) does not involve c), so a lexicographic stream
    would never leave first-term 1; we fall back to a fair enumeration
    ordered by (c, b, a) in which every member appears at a finite index.
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not 0 <= position < k:
        raise DomainError(f"position {position} out of range for k={k}")
    bound = max_term_at_position
    if bound < 1:
        return
    if position == 0:
        for c in count(2):
            for b in _coprime_to(c):
                wb = b ** (k - 1)
                if wb > bound:
                    break
                for a in range(1, bound // wb + 1):
                    yield KGeoProgression(k, a, b, c)
        return

    eb, ec = k - 1 - position, position
    found: list[KGeoProgression] = []
    for c in count(2):
        if c**ec > bound:
            break
        for b in _coprime_to(c):
            w = b**eb * c**ec
            if w > bound:
                break
            for a in range(1, bound // w + 1):
                found.append(KGeoProgression(k, a, b, c))
    found.sort(key=lambda gp: gp.terms())
    yield from found


def find_gps_with_term_at(n: int, k: int, position: int) -> list[KGeoProgression]:
    """All canonical k-GPs whose term at `position` equals n, term-lex sorted.

    position 0 is rejected: a*b**(k-1) = n leaves c unconstrained, so the
    family is infinite.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not 0 <= position < k:
        raise DomainError(f"position {position} out of range for k={k}")
    if position == 0:
        raise DomainError("position 0 fixes only a*b**(k-1); infinitely many GPs")
    eb, ec = k - 1 - position, position
    out: list[KGeoProgression] = []
    for c in count(2):
        wc = c**ec
        if wc > n:
            break
        if n % wc:
            continue
        m = n // wc
        for b in _coprime_to(c):
            wb = b**eb
            if wb > m:
                break
            if m % wb == 0:
                out.append(KGeoProgression(k, m // wb, b, c))
    out.sort(key=lambda gp: gp.terms())
    return out


def contains_gp(
    members: Sequence[int], k: int, mode: str = RATIONAL
) -> Optional[KGeoProgression]:
    """First (in (c, b, a) order) nontrivial k-GP fully contained in the set.

    `members` must be deduplicated positive integers (order irrelevant).  In
    integer mode only ratio denominators b == 1 qualify.  Exact: every
    candidate with largest term <= max(members) is tested against the set.
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if mode not in (RATIONAL, INTEGER):
        raise DomainError(f"unknown mode {mode!r}")
    if len(members) < k:
        return None
    present = set(members)
    top = max(present)
    for c in count(2):
        wc = c ** (k - 1)
        if wc > top:
            break
        bs = (1,) if mode == INTEGER else tuple(_coprime_to(c))
        for b in bs:
            wb = b ** (k - 1)
            for a in range(1, top // wc + 1):
                if a * wb not in present:
                    continue
                if a * wc not in present:
                    continue
                gp = KGeoProgression(k, a, b, c)
                if all(t in present for t in gp.terms()):
                    return gp
    return None


def enumerate_3gp_triples(n: int) -> list[GPTriple]:
    """All x < y < z <= n with y**2 == x*z, lexicographically sorted."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    out: list[GPTriple] = []
    c = 2
    while c * c <= n:
        cc = c * c
        for b in _coprime_to(c):
            bb = b * b
            for a in range(1, n // cc + 1):
                out.append(GPTriple(a * bb, a * b * c, a * cc))
        c += 1
    out.sort(key=lambda t: (t.x, t.y, t.z))
    return out
