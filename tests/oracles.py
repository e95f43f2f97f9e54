"""Independent brute-force oracles used by the tests.

Everything here is written for maximal transparency, not speed: direct
definitions, exhaustive loops, no sieving and no pruning beyond the obvious.
"""

from __future__ import annotations

import math

import numpy as np


def divisors_of(n: int) -> list[int]:
    """All divisors of n by the sqrt scan."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def brute_d_k(n: int, k: int) -> int:
    """#{a >= 1 : a^k | n}: every such a divides n, so scan the divisors of n."""
    return sum(1 for a in divisors_of(n) if n % a**k == 0)


def brute_d_ij(n: int, i: int, j: int) -> int:
    """#{(a, b) : a^i * b^j | n} by a literal double loop over divisors."""
    divs = divisors_of(n)
    count = 0
    for a in divs:
        ai = a**i
        if n % ai:
            continue
        rest = n // ai
        count += sum(1 for b in divs if b**j <= rest and rest % (b**j) == 0)
    return count


def brute_3gp_triples(n: int) -> list[tuple[int, int, int]]:
    """All x < y < z <= n with y*y == x*z, by scanning every (x, z) pair."""
    out = []
    for x in range(1, n + 1):
        for z in range(x + 2, n + 1):
            y2 = x * z
            y = math.isqrt(y2)
            if y * y == y2 and x < y < z:
                out.append((x, y, z))
    return sorted(out)


def brute_first_gp(members, k: int, integer: bool) -> tuple[int, int, int, int] | None:
    """First (k, a, b, c), in (c, b, a) order, whose k terms a*b^(k-1-i)*c^i all lie in `members`.

    Plain loops over coprime 1 <= b < c (b = 1 when `integer`) and a >= 1, up to
    the largest member, each term tested against the set of members.
    """
    chosen = set(members)
    top = max(chosen, default=0)
    c = 2
    while c ** (k - 1) <= top:
        for b in range(1, 2 if integer else c):
            if math.gcd(b, c) != 1:
                continue
            a = 1
            while a * c ** (k - 1) <= top:
                if all(a * b ** (k - 1 - i) * c**i in chosen for i in range(k)):
                    return (k, a, b, c)
                a += 1
        c += 1
    return None


def brute_selection_violation(n: int, pairing: str, selection) -> tuple | None:
    """First way `selection` fails to be a 3-GP-free pair selection, or None.

    `pairing` is "disjoint" (pairs {2i-1, 2i}, exactly one element of each
    chosen) or "overlapping" (pairs {i, i+1}, at least one chosen).  The
    checks run in this order and the first failure is returned:
    ("out-of-range", e), ("uncovered", pair), ("both-chosen", pair) for a
    disjoint pair, then ("3gp", (x, y, z)) from `brute_3gp_triples`.
    """
    if pairing == "disjoint":
        assert n % 2 == 0
        pairs = [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
    elif pairing == "overlapping":
        pairs = [(i, i + 1) for i in range(1, n)]
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    chosen = set(selection)
    for e in sorted(chosen):
        if not 1 <= e <= n:
            return ("out-of-range", e)
    for (a, b) in pairs:
        if a not in chosen and b not in chosen:
            return ("uncovered", (a, b))
    if pairing == "disjoint":
        for (a, b) in pairs:
            if a in chosen and b in chosen:
                return ("both-chosen", (a, b))
    for (x, y, z) in brute_3gp_triples(n):
        if x in chosen and y in chosen and z in chosen:
            return ("3gp", (x, y, z))
    return None


def brute_cnf_selection(n: int, pairs, triples, exactly_one: bool) -> list[int] | None:
    """First subset of [1, n], in bitmask order, that satisfies the clauses, or None.

    Every pair needs at least one chosen element (exactly one when
    `exactly_one`), and no triple may have all three chosen.  All 2^n subsets
    are filtered one clause at a time.
    """
    masks = range(1 << n)  # bit e-1 set: e chosen
    for a, b in pairs:
        pm = (1 << (a - 1)) | (1 << (b - 1))
        masks = [m for m in masks if m & pm and not (exactly_one and m & pm == pm)]
    for triple in triples:
        tm = sum(1 << (e - 1) for e in triple)
        masks = [m for m in masks if m & tm != tm]
    if not masks:
        return None
    return [e for e in range(1, n + 1) if masks[0] >> (e - 1) & 1]


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _fmix64(z: int) -> int:
    """The murmur3 64-bit finalizer."""
    z ^= z >> 33
    z = z * 0xFF51AFD7ED558CCD & _M64
    z ^= z >> 33
    z = z * 0xC4CEB9FE1A85EC53 & _M64
    return z ^ (z >> 33)


def brute_coin(seed: int, k: int, a: int, b: int, c: int) -> float:
    """The coin of progression (k, a, b, c): top 53 bits of a chained fmix."""
    h = seed
    for v in (k, a, b, c):
        h = _fmix64(h ^ (v * _GOLDEN & _M64))
    return (h >> 11) / 2**53


def brute_progressions(kind: str, n: int) -> list[tuple[int, int, int]]:
    """Every (a, b, c) of a removal process whose smaller removable term is <= n.

    Plain loops over c >= 2, coprime 1 <= b < c (b = 1 for "3gp-int") and
    a >= 1.  The smaller removable term of a*b^(k-1-i)*c^i is a*b^3*c^2 for
    "6gp" (i = 2), a*b^3*c for "5gp" and a*c for "3gp-int" (i = 1).
    """
    eb, ec = {"6gp": (3, 2), "5gp": (3, 1), "3gp-int": (1, 1)}[kind]
    out = []
    c = 2
    while c**ec <= n:
        for b in range(1, 2 if kind == "3gp-int" else c):
            if b**eb * c**ec > n:
                break
            if math.gcd(b, c) != 1:
                continue
            a = 1
            while a * b**eb * c**ec <= n:
                out.append((a, b, c))
                a += 1
        c += 1
    return out


def brute_removal(kind: str, n: int, seed: int, coin=None) -> tuple[tuple[int, ...], int]:
    """(sorted removals in [1, n], removals above n) of one removal process.

    Straight from the definitions, one progression at a time.  Every
    progression a*b^(k-1-i)*c^i (b < c coprime, b = 1 for "3gp-int") whose
    smaller removable term is <= n flips `coin(k, a, b, c)` (default: the
    hashed coin).  "6gp" removes the middle i=2 when the coin is below 1/2,
    else i=3; "5gp" and "3gp-int" remove the term i=2 when the coin is below
    1 - 1/log(term + 2), else the term i=1.
    """
    if coin is None:
        def coin(k, a, b, c):
            return brute_coin(seed, k, a, b, c)
    k, lo_i, hi_i = {"6gp": (6, 2, 3), "5gp": (5, 1, 2), "3gp-int": (3, 1, 2)}[kind]

    def term(a, b, c, i):
        return a * b ** (k - 1 - i) * c**i

    removed, dropped = set(), 0
    c = 2
    while term(1, 1, c, lo_i) <= n:
        for b in range(1, 2 if kind == "3gp-int" else c):
            if term(1, b, c, lo_i) > n:
                break
            if math.gcd(b, c) != 1:
                continue
            a = 1
            while term(a, b, c, lo_i) <= n:
                u = coin(k, a, b, c)
                lo, hi = term(a, b, c, lo_i), term(a, b, c, hi_i)
                if kind == "6gp":
                    t = lo if u < 0.5 else hi
                else:
                    t = hi if u < 1.0 - 1.0 / math.log(hi + 2) else lo
                if t <= n:
                    removed.add(t)
                else:
                    dropped += 1
                a += 1
        c += 1
    return tuple(sorted(removed)), dropped


def brute_disjoint_free_selection(n: int) -> list[int] | None:
    """Literal enumeration of all 2^(n/2) disjoint-pair selections.

    Pairs are {1,2},{3,4},...; selection i takes 2i+1 when bit i of the
    counter is 0, else 2i+2.  Returns the first triple-free selection in
    counter order, or None if every selection contains a 3-GP.  Vectorized
    with numpy but with no search-space pruning: every selection is built
    and checked.
    """
    assert n % 2 == 0 and n <= 64
    npairs = n // 2
    total = 1 << npairs
    counters = np.arange(total, dtype=np.uint64)
    chosen = np.zeros(total, dtype=np.uint64)
    for i in range(npairs):
        bit = (counters >> np.uint64(i)) & np.uint64(1)
        lo = np.uint64(1 << (2 * i))        # element 2i+1, 0-indexed bit 2i
        hi = np.uint64(1 << (2 * i + 1))    # element 2i+2
        chosen |= np.where(bit == 0, lo, hi)
    free = np.ones(total, dtype=bool)
    for (x, y, z) in brute_3gp_triples(n):
        m = np.uint64((1 << (x - 1)) | (1 << (y - 1)) | (1 << (z - 1)))
        free &= (chosen & m) != m
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return None
    mask = int(chosen[idx[0]])
    return [e + 1 for e in range(n) if mask >> e & 1]


def brute_overlapping_free_selection(n: int) -> list[int] | None:
    """Enumerate every selection hitting all pairs {i, i+1}, check each.

    A valid selection is exactly a subset whose complement has no two
    consecutive elements; those complements are generated recursively and
    each full selection is tested against every triple.
    """
    triples = brute_3gp_triples(n)

    def rec(i: int, out: set[int]) -> list[int] | None:
        if i > n:
            sel = set(range(1, n + 1)) - out
            for (x, y, z) in triples:
                if x in sel and y in sel and z in sel:
                    break
            else:
                return sorted(sel)
            return None
        got = rec(i + 1, out)  # keep i in the selection
        if got is not None:
            return got
        if i - 1 not in out:   # drop i, only if i-1 kept
            out.add(i)
            got = rec(i + 1, out)
            out.discard(i)
            return got
        return None

    return rec(1, set())


def brute_canonical_gp(terms: list[int]) -> tuple[int, int, int, int] | None:
    """Recover (k, a, b, c) from terms by trying all small (b, c), or None."""
    k = len(terms)
    for c in range(2, 200):
        for b in range(1, c):
            if math.gcd(b, c) != 1:
                continue
            if terms[0] % b ** (k - 1) != 0:
                continue
            a = terms[0] // b ** (k - 1)
            if [a * b ** (k - 1 - i) * c**i for i in range(k)] == terms:
                return (k, a, b, c)
    return None
