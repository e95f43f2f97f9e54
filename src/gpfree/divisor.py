"""Divisor-counting functions d_k and d_{i,j}, a window sieve for them, and
the short-interval sums S_{i,j}(x, h, D) = sum exp(-D*d_{i,j}(n)) over
(x, x+h].

d_k(n) counts k-th powers dividing n; per prime power p**alpha it contributes
floor(alpha/k) + 1.  d_{i,j}(n) counts pairs (a, b) with a**i * b**j | n; per
prime power it contributes the lattice points under i*e + j*f <= alpha.  Both
are multiplicative, which the test suite confirms against literal pair
counting.

The window sieve holds a bytearray of one-byte codes into the window's own
list of distinct values and applies each prime power as one strided slice
translated through a 256-byte code table.  `sieve` maps the codes back to
ints; `sum_S` counts them and sums count * exp(-D*value) exactly, as integer
significands rounded once, the rounding `mertens_sum` uses too.  The prime
base, the primes <= sqrt(x+h), is picked from the segments of one odd-only
bytearray sieve, bounded by `Limits.mertens_max_x`.  Only `mertens_sum`, which
sums 1/p over the same segments as arrays, imports numpy (inside the
function), so `divisor table` and `sum` start without it.  The pointwise d_k,
d_ij and DivisorSpec.of are one weight-driven product over `factorize`.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import chain, compress, repeat
from math import isqrt
from operator import add, mul, ne

from .errors import DomainError, ResourceLimit
from .limits import DEFAULT_LIMITS, Limits

Factorization = list[tuple[int, int]]


_SEGMENT = 1 << 19  # odd numbers per segment of the prime generator
_RUN = 1 << 14  # odd numbers per run that the primes are picked from
# compress picks the primes' offsets out of this list without making an int
# per candidate, as compress over a range would
_OFFSETS = list(range(0, 2 * _RUN, 2))


def _prime_segments(limit: int) -> Iterator[tuple[int, bytes]]:
    """Segments (lo, flags) of the primes <= limit, ascending: lo + 2*t is prime
    exactly when flags[t] is 1.  The first segment is (2, b"\x01").

    Odd-only segmented sieve of Eratosthenes: each segment holds up to 2**19
    odd numbers lo, lo+2, ... as bytearray flags, crossed off by slice
    assignment with the odd primes <= sqrt(limit), so memory stays bounded
    however large `limit` is.
    """
    if limit < 2:
        return
    yield 2, b"\x01"
    base = primes_upto(isqrt(limit))[1:]
    for lo in range(3, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit + 1)  # the segment is lo, lo+2, ... < hi
        m = (hi - lo + 1) // 2
        flags = bytearray(b"\x01") * m
        for p in base:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            if first % 2 == 0:
                first += p
            marks = range((first - lo) // 2, m, p)
            flags[marks.start :: p] = bytes(len(marks))
        yield lo, flags


@lru_cache(maxsize=8)
def primes_upto(limit: int) -> array:
    """All primes <= limit, ascending, as one int64 array.

    The cache hands the same array to every caller, which must not change it.
    """
    return array("q", chain.from_iterable(
        map(add, repeat(lo + 2 * c), compress(_OFFSETS, flags[c : c + _RUN]))
        for lo, flags in _prime_segments(limit) for c in range(0, len(flags), _RUN)))


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n."""
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division; factorize(1) == []."""
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    out: Factorization = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):  # 6k-1, 6k+1
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def _lattice_count(alpha: int, i: int, j: int) -> int:
    """#{(e, f) >= 0 : i*e + j*f <= alpha}."""
    return sum((alpha - i * e) // j + 1 for e in range(alpha // i + 1))


class DivisorSpec(namedtuple("DivisorSpec", "k i j")):
    """Either a single exponent k (d_k) or a pair (i, j) (d_{i,j})."""

    __slots__ = ()

    def __new__(cls, k: int | None = None, i: int | None = None, j: int | None = None):
        if k is not None:
            if i is not None or j is not None:
                raise DomainError("give either k or (i, j), not both")
            if k < 1:
                raise DomainError(f"k must be >= 1, got {k}")
        else:
            if i is None or j is None:
                raise DomainError("pair spec needs both i and j")
            if i < 1 or j < 1:
                raise DomainError(f"exponents must be >= 1, got ({i}, {j})")
        return super().__new__(cls, k, i, j)

    @classmethod
    def single(cls, k: int) -> "DivisorSpec":
        return cls(k=k)

    @classmethod
    def pair(cls, i: int, j: int) -> "DivisorSpec":
        return cls(i=i, j=j)

    def weight(self, alpha: int) -> int:
        """Contribution of a prime power p**alpha."""
        if self.k is not None:
            return alpha // self.k + 1
        return _lattice_count(alpha, self.i, self.j)

    def of(self, n: int) -> int:
        """Pointwise value: the product of weight(alpha) over p**alpha || n."""
        return math.prod(self.weight(alpha) for _, alpha in factorize(n))

    def label(self) -> str:
        return f"d_{self.k}" if self.k is not None else f"d_{{{self.i},{self.j}}}"


def d_k(n: int, k: int) -> int:
    return DivisorSpec.single(k).of(n)


def d_ij(n: int, i: int, j: int) -> int:
    return DivisorSpec.pair(i, j).of(n)


class Interval(namedtuple("Interval", "x h")):
    """Half-open window (x, x+h]; entries are n = x+1 .. x+h."""

    __slots__ = ()

    def __new__(cls, x: int, h: int):
        if x < 0:
            raise DomainError(f"x must be >= 0, got {x}")
        if h < 1:
            raise DomainError(f"h must be >= 1, got {h}")
        if x + h > 2**63 - 1:
            raise DomainError("interval end exceeds supported width")
        return super().__new__(cls, x, h)


_ESC = 255  # the code of every value the sieve meets once codes 0..254 are taken


def _sieve_codes(
    interval: Interval, spec: DivisorSpec, limits: Limits
) -> tuple[bytearray, list[int | None], dict[int, int]]:
    """spec.of(n) for n = x+1 .. x+h as (codes, values, escaped): one byte code
    per n, the value of each code (None for the unused codes and _ESC), and
    the exact value at each position t whose code is _ESC."""
    if interval.h > limits.sieve_max_len:
        raise ResourceLimit(
            f"window length {interval.h} exceeds budget {limits.sieve_max_len}"
        )
    x, h = interval.x, interval.h
    n0, end = x + 1, x + h
    if isqrt(end) > limits.mertens_max_x:
        raise ResourceLimit(
            f"prime base up to isqrt({end}) = {isqrt(end)} exceeds budget "
            f"{limits.mertens_max_x}"
        )
    W = [spec.weight(a) for a in range(64)]  # n < 2**63
    codes = bytearray(h)  # code 0 is the value 1
    values: list[int | None] = [1]
    index = {1: 0}
    escaped: dict[int, int] = {}
    # tables[a] = (table, known): table maps each code in `known` to the code of
    # its value * W[a] / W[a-1]; the others are filled in when a slice first holds them
    tables: dict[int, tuple[bytearray, bytearray]] = {}

    def scale(old: bytearray, where: Sequence[int], a: int) -> bytearray:
        """old, the codes at positions `where`, with the value of each times
        W[a] / W[a-1]: the power of some p at those n goes from a-1 to a."""
        if a not in tables:
            tables[a] = bytearray(range(256)), bytearray((_ESC,))
        table, known = tables[a]
        fresh = old.translate(None, known)
        while fresh:
            c = fresh[0]
            v = values[c] // W[a - 1] * W[a]
            if v not in index and len(values) < _ESC:
                index[v] = len(values)
                values.append(v)
            table[c] = index.get(v, _ESC)
            known.append(c)
            fresh = fresh.translate(None, bytes((c,)))
        new = old.translate(table)
        t = new.find(_ESC)
        while t >= 0:
            n = where[t]
            escaped[n] = (escaped[n] if old[t] == _ESC else values[old[t]]) // W[a - 1] * W[a]
            t = new.find(_ESC, t + 1)
        return new

    if max(W) > 1:
        # Only primes with p**s | n change the value.  With s == 1 a prime above
        # sqrt(x+h) can still divide n once; `prod` collects the sieved part of n
        # so that such a cofactor shows.
        s = next(a for a, w in enumerate(W) if w > 1)
        prod = [1] * h if s == 1 else None
        for p in primes_upto(_iroot(end, max(s, 2))):
            # the multiples of p**s, p**(s+1), ... in the window are nested slices
            a, q = s, p**s
            while (o := (-n0) % q) < h:  # so q <= x+h
                if W[a] != W[a - 1]:
                    codes[o::q] = scale(codes[o::q], range(o, h, q), a)
                if prod is not None:
                    prod[o::q] = map(mul, prod[o::q], repeat(p))
                a, q = a + 1, q * p
        if prod is not None:
            where = list(compress(range(h), map(ne, prod, range(n0, end + 1))))
            for t, c in zip(where, scale(bytearray(map(codes.__getitem__, where)), where, 1)):
                codes[t] = c
    return codes, values + [None] * (256 - len(values)), escaped


def sieve(interval: Interval, spec: DivisorSpec, limits: Limits = DEFAULT_LIMITS) -> tuple[int, ...]:
    """values[t] == spec.of(x + 1 + t) over (x, x+h], by one segmented sieve.

    Let s be the least exponent whose weight exceeds 1 (s = k for d_k,
    min(i, j) for d_{i,j}); only primes p with p**s | n matter.  The window
    is a bytearray of one-byte codes into its own list of distinct values.
    Each prime power p**a, a >= s, is one strided slice of it, translated
    (bytes.translate) by a 256-byte table that takes a code to the code of
    its value times W(a)/W(a-1); a table entry is filled the first time a
    slice holds its code.  Once codes 0..254 are taken, further values share
    the escape code 255, and their positions keep exact ints.
    For s = 1, whatever is left of n after dividing out the primes <=
    sqrt(x+h) is a prime with exponent 1; a per-n list of the sieved part of
    n finds it.

    Raises ResourceLimit when h exceeds `limits.sieve_max_len` or the prime
    base sqrt(x+h) exceeds `limits.mertens_max_x`.
    """
    codes, values, escaped = _sieve_codes(interval, spec, limits)
    out = map(values.__getitem__, codes)
    if escaped:
        out = list(out)
        for t, v in escaped.items():
            out[t] = v
    return tuple(out)


_SAMPLE = 256  # codes a histogram looks at to pick the next one to peel off
_SHORT = 1 << 12  # codes a Counter takes once peeling stops


def _histogram(codes: bytearray) -> Counter:
    """How often each byte occurs in `codes`.

    Peels off the commonest byte of a short sample with one bytes.translate
    at a time, while each such pass removes at least 1/16 of what is left,
    and counts the rest with a Counter, which costs far more per byte than
    a translate pass.
    """
    counts: Counter = Counter()
    rest = bytes(codes)
    while len(rest) > _SHORT:
        c = Counter(rest[:_SAMPLE]).most_common(1)[0][0]
        left = rest.translate(None, bytes((c,)))
        counts[c] = len(rest) - len(left)
        rest = left
        if counts[c] * 16 < len(rest):
            break
    counts.update(rest)
    return counts


def _round_sum(totals: dict[int, int]) -> float:
    """The double nearest sum(t * 2**(e-53)) over the items (e, t) of totals,
    rounded once by one int/int division: what math.fsum over the terms gives."""
    emin = min(totals)
    return sum(t << (e - emin) for e, t in totals.items()) / (1 << (53 - emin))


def sum_S(
    interval: Interval, i: int, j: int, D: float, limits: Limits = DEFAULT_LIMITS
) -> float:
    """S_{i,j}(x, h, D) = sum over n in (x, x+h] of exp(-D * d_{i,j}(n)).

    The sieve's codes are counted (`_histogram`), and math.exp runs once per
    distinct value of d_{i,j}.  Each term is an exact double m * 2**(e-53)
    with a 53-bit int m, so count * m is summed exactly per exponent e and
    rounded once, to the double math.fsum over the h terms gives.
    """
    if not 0 < D < math.inf:  # written so that NaN fails too
        raise DomainError(f"D must be positive and finite, got {D}")
    codes, values, escaped = _sieve_codes(interval, DivisorSpec.pair(i, j), limits)
    counts = Counter(escaped.values())
    for c, m in _histogram(codes).items():
        if c != _ESC:
            counts[values[c]] += m
    totals: Counter = Counter()
    for v, m in counts.items():
        mant, e = math.frexp(math.exp(-D * v))
        totals[e] += m * int(math.ldexp(mant, 53))
    return _round_sum(totals)


def mertens_sum(x: int, limits: Limits = DEFAULT_LIMITS) -> float:
    """Sum of 1/p over primes p <= x (the sum behind log log x + O(1)).

    numpy, imported here, splits each sieve segment's 1/p into exact doubles
    m * 2**(e-53) with 53-bit ints m (np.frexp).  The m are summed exactly, per
    exponent e and in 26-bit halves so that no int64 sum overflows; `_round_sum`
    rounds the total once, to the double math.fsum over the 1/p gives.
    """
    if x < 3:
        raise DomainError(f"x must be >= 3, got {x}")
    if x > limits.mertens_max_x:
        raise ResourceLimit(f"x = {x} exceeds budget {limits.mertens_max_x}")
    import numpy as np

    totals = Counter()
    for lo, flags in _prime_segments(x):
        mant, exps = np.frexp(1.0 / (lo + 2.0 * np.flatnonzero(np.frombuffer(flags, dtype=bool))))
        m = np.ldexp(mant, 53).astype(np.int64)
        starts = np.flatnonzero(np.diff(exps, prepend=1))  # the p ascend, so the e descend
        for e, high, low in zip(exps[starts].tolist(),
                                np.add.reduceat(m >> 26, starts).tolist(),
                                np.add.reduceat(m & ((1 << 26) - 1), starts).tolist()):
            totals[e] += (high << 26) + low
    return _round_sum(totals)
