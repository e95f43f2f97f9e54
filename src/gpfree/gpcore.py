"""Canonical geometric progressions over the positive integers.

A nontrivial k-term GP with rational ratio c/b > 1 (gcd(b,c)=1) is stored as
(k, a, b, c) with term i equal to a*b**(k-1-i)*c**i; lowest terms make the
form unique, so enumeration never double-counts.  `_classes` walks the (b, c)
classes forward by the weight b**eb * c**ec of one position, `_cofactors`
backward over the divisors of a term (`process run` has its own numpy walk).
The freeness search ANDs one strided slice of a 0/1 byte mask per term, for
every a of a class at once.  3-GPs are plain (x, y, z) int tuples.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import DomainError, ResourceLimit
from .limits import DEFAULT_LIMITS, Limits

MAX_TERM = 2**64 - 1  # all terms must fit in 64 bits

RATIONAL = "rational"
INTEGER = "integer"


def _check_k(k: int, position: int = 0) -> None:
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not 0 <= position < k:
        raise DomainError(f"position {position} out of range for k={k}")


class KGeoProgression(namedtuple("KGeoProgression", "k a b c")):
    __slots__ = ()

    def __new__(cls, k: int, a: int, b: int, c: int):
        _check_k(k)
        if a < 1 or b < 1 or c < 1:
            raise DomainError("a, b, c must be positive")
        if b >= c:
            raise DomainError(f"need b < c for ratio > 1, got b={b}, c={c}")
        if gcd(b, c) != 1:
            raise DomainError(f"ratio {c}/{b} not in lowest terms")
        if k > 64 or a * c ** (k - 1) > MAX_TERM:  # k > 64: c**(k-1) >= 2**64
            raise DomainError("largest term exceeds 64 bits")
        return super().__new__(cls, k, a, b, c)

    def terms(self) -> list[int]:
        k, a, b, c = self.k, self.a, self.b, self.c
        return [a * b ** (k - 1 - i) * c**i for i in range(k)]


def canonicalize(sequence: Sequence[int]) -> KGeoProgression:
    """Inverse of KGeoProgression.terms(): recover the unique (k, a, b, c) form.

    Raises DomainError unless the terms are at least 3 positive integers with
    one constant ratio above 1.
    """
    seq = list(sequence)
    k = len(seq)
    if k < 3:
        raise DomainError(f"need at least 3 terms, got {k}")
    if any(t < 1 for t in seq):
        raise DomainError("terms must be positive integers")
    if len(set(seq)) == 1:
        raise DomainError(f"all terms equal {seq[0]}")
    g = gcd(seq[0], seq[1])
    b, c = seq[0] // g, seq[1] // g
    if b >= c:
        raise DomainError("sequence is not strictly increasing")
    for t0, t1 in zip(seq, seq[1:]):
        if t0 * c != t1 * b:
            raise DomainError(f"ratio {t1}/{t0} differs from {c}/{b}")
    # the last term seq[0]*c^(k-1)/b^(k-1) is an integer and gcd(b, c) = 1, so b^(k-1) | seq[0]
    return KGeoProgression(k, seq[0] // b ** (k - 1), b, c)


def _classes(eb: int, ec: int, bound: int, integer: bool = False) -> Iterator[tuple[int, int, int]]:
    """(b, c, w) for coprime 1 <= b < c with weight w = b**eb * c**ec <= bound.

    Ordered by (c, b), b = 1 only when `integer`; with ec = 0 the stream never ends.
    """
    if ec >= bound.bit_length():  # 2**ec > bound: no class, and no huge c**ec to build
        return
    for c in count(2):
        wc = c**ec
        if ec and wc > bound:
            return
        for b in range(1, 2 if integer else c):
            w = b**eb * wc
            if w > bound:
                break
            if gcd(b, c) == 1:
                yield b, c, w


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending."""
    from .divisor import factorize  # here, so that the gp commands do not import it

    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _cofactors(divs: list[int], eb: int, ec: int, integer: bool = False) -> Iterator[tuple[int, int, int]]:
    """(a, b, c) with a * b**eb * c**ec == n for coprime 1 <= b < c, ordered by (c, b).

    The backward walk over `divs`, the divisors of n ascending, for ec >= 1: c runs over
    them, b over those below c if eb >= 1, over 1..c-1 if eb == 0, and is 1 if `integer`.
    """
    n = divs[-1]
    for c in divs[1:]:
        wc = c**ec
        if n % wc:
            continue
        m = n // wc
        for b in (1,) if integer else divs if eb else range(1, c):
            if b >= c:
                break
            wb = b**eb
            if m % wb == 0 and gcd(b, c) == 1:
                yield m // wb, b, c


def enumerate_gps(k: int, position: int, max_term_at_position: int) -> Iterator[KGeoProgression]:
    """Canonical k-GPs whose term at `position` is <= the bound, in term-lex order.

    For position 0 the family is infinite (a*b**(k-1) does not involve c), so a
    term-lex stream would never leave first term 1: it comes in (c, b, a) order.
    """
    _check_k(k, position)
    bound = max_term_at_position
    if bound < 1:
        return
    gps = (KGeoProgression(k, a, b, c)
           for b, c, w in _classes(k - 1 - position, position, bound)
           for a in range(1, bound // w + 1))
    yield from gps if position == 0 else sorted(gps, key=KGeoProgression.terms)


def find_gps_with_term_at(n: int, k: int, position: int) -> list[KGeoProgression]:
    """All canonical k-GPs whose term at `position` (>= 1) equals n, term-lex sorted."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    _check_k(k, position)
    if position == 0:
        raise DomainError("position 0 fixes only a*b**(k-1); infinitely many GPs")
    gps = (KGeoProgression(k, a, b, c)
           for a, b, c in _cofactors(_divisors(n), k - 1 - position, position))
    return sorted(gps, key=KGeoProgression.terms)


def contains_gp(
    members: Sequence[int], k: int, mode: str = RATIONAL, limits: Limits = DEFAULT_LIMITS
) -> Optional[KGeoProgression]:
    """First (in (c, b, a) order) nontrivial k-GP fully contained in the set.

    Repeats are harmless and integers < 1 are not members; integer mode asks b == 1.  A member
    above `limits.process_max_n` raises ResourceLimit before the 0/1 member mask is built.
    """
    top = max(members, default=0)
    if top > limits.process_max_n:
        raise ResourceLimit(f"member {top} exceeds budget {limits.process_max_n}")
    _check_k(k)
    if mode not in (RATIONAL, INTEGER):
        raise DomainError(f"unknown mode {mode!r}")
    mask = bytearray(max(top, 0) + 1)
    for t in members:
        if t > 0:  # a negative t would wrap around to mark a term
            mask[t] = 1
    return _first_gp(mask, k, mode)


def _first_gp(mask: bytearray, k: int, mode: str) -> Optional[KGeoProgression]:
    """First k-GP, in (c, b, a) order, of the t >= 1 with mask[t] == 1 (a 0/1 mask).

    Term i is a*w_i: mask[w_i : A*w_i + 1 : w_i] lists it for a = 1..A = top // c**(k-1).
    The k slices of a class are ANDed as ints, stopping at the first zero.
    """
    top = len(mask) - 1
    if mask.count(1) < k:  # fewer members than terms
        return None
    for b, c, wc in _classes(0, k - 1, top, mode == INTEGER):
        hits = -1
        for w in (b ** (k - 1 - i) * c**i for i in range(k)):
            hits &= int.from_bytes(mask[w : w * (top // wc) + 1 : w], "little")
            if not hits:
                break
        else:  # byte a - 1 is nonzero iff every term of a is a member: take the lowest
            return KGeoProgression(k, ((hits & -hits).bit_length() - 1) // 8 + 1, b, c)
    return None


def enumerate_3gp_triples(n: int) -> list[tuple[int, int, int]]:
    """All (x, y, z) with x < y < z <= n and y**2 == x*z, lexicographically sorted."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    return sorted((a * b * b, a * b * c, a * c * c)
                  for b, c, w in _classes(0, 2, n)
                  for a in range(1, n // w + 1))
