"""Divisor-counting functions d_k and d_{i,j}, a numpy window sieve for them,
and the short-interval sums S_{i,j}(x, h, D) = sum exp(-D*d_{i,j}(n)) over
(x, x+h].

d_k(n) counts k-th powers dividing n; per prime power p**alpha it contributes
floor(alpha/k) + 1.  d_{i,j}(n) counts pairs (a, b) with a**i * b**j | n; per
prime power it contributes the lattice points under i*e + j*f <= alpha.  Both
are multiplicative, which the test suite confirms against literal pair
counting.

`sieve` works on int64 arrays: strided slices for the prime powers with many
multiples in the window, one vectorised batch for the rest.  Its prime base,
the primes <= sqrt(x+h), comes from an odd-only segmented generator and is
bounded by `Limits.mertens_max_x`; `mertens_sum` streams the same generator
into one math.fsum.  The pointwise d_k, d_ij and DivisorSpec.of are one
weight-driven product over `factorize`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import isqrt

import numpy as np

from .errors import DomainError, ResourceLimit
from .limits import DEFAULT_LIMITS, Limits

Factorization = list[tuple[int, int]]


_SEGMENT = 1 << 19  # odd numbers per segment of the prime generator


def _prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Primes <= limit, ascending, as one int64 array per segment.

    Odd-only segmented sieve of Eratosthenes: each segment holds 2**19 odd
    numbers and is crossed off by the odd primes <= sqrt(limit), so memory
    stays bounded however large `limit` is.
    """
    if limit < 2:
        return
    yield np.array([2], dtype=np.int64)
    base = primes_upto(isqrt(limit))[1:].tolist()
    for lo in range(3, limit + 1, 2 * _SEGMENT):
        hi = min(lo + 2 * _SEGMENT, limit + 1)  # the segment is lo, lo+2, ... < hi
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in base:
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            if first % 2 == 0:
                first += p
            flags[(first - lo) // 2 :: p] = False
        yield lo + 2 * np.flatnonzero(flags).astype(np.int64)


@lru_cache(maxsize=8)
def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as one read-only int64 array."""
    out = np.concatenate([np.empty(0, dtype=np.int64), *_prime_segments(limit)])
    out.setflags(write=False)  # the cache hands the same array to every caller
    return out


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


@dataclass(frozen=True)
class DivisorSpec:
    """Either a single exponent k (d_k) or a pair (i, j) (d_{i,j})."""

    k: int | None = None
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        if self.k is not None:
            if self.i is not None or self.j is not None:
                raise DomainError("give either k or (i, j), not both")
            if self.k < 1:
                raise DomainError(f"k must be >= 1, got {self.k}")
        else:
            if self.i is None or self.j is None:
                raise DomainError("pair spec needs both i and j")
            if self.i < 1 or self.j < 1:
                raise DomainError(f"exponents must be >= 1, got ({self.i}, {self.j})")

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


@dataclass(frozen=True)
class Interval:
    """Half-open window (x, x+h]; entries are n = x+1 .. x+h."""

    x: int
    h: int

    def __post_init__(self):
        if self.x < 0:
            raise DomainError(f"x must be >= 0, got {self.x}")
        if self.h < 1:
            raise DomainError(f"h must be >= 1, got {self.h}")
        if self.x + self.h > 2**63 - 1:
            raise DomainError("interval end exceeds supported width")

    def values(self) -> range:
        return range(self.x + 1, self.x + self.h + 1)


@dataclass(frozen=True)
class DivisorTable:
    interval: Interval
    spec: DivisorSpec
    values: tuple[int, ...]  # values[t] == spec.of(x + 1 + t)

    def rows(self):
        for t, v in enumerate(self.values):
            yield self.interval.x + 1 + t, v


# A prime power with at least this many multiples in the window is applied as
# strided slices; rarer ones go through the batch, whose per-hit cost is
# higher but which has no per-prime interpreter overhead.
_STRIDE_MIN_HITS = 64


def _sieve_values(interval: Interval, spec: DivisorSpec, limits: Limits) -> np.ndarray:
    """int64 array of spec.of(n) for n = x+1 .. x+h."""
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
    W = np.array([spec.weight(a) for a in range(64)], dtype=np.int64)  # n < 2**63
    vals = np.ones(h, dtype=np.int64)
    if W.max() == 1:
        return vals
    # Only primes with p**s | n change the value.  With s == 1 a prime above
    # sqrt(x+h) can still divide n once; `prod` collects the sieved part of n
    # so that such a cofactor shows.
    s = int(np.argmax(W > 1))
    prod = np.ones(h, dtype=np.int64) if s == 1 else None
    ps = primes_upto(_iroot(end, max(s, 2)))
    qs = ps**s
    cut = int(np.searchsorted(qs, h // _STRIDE_MIN_HITS, side="right"))

    for p, q in zip(ps[:cut].tolist(), qs[:cut].tolist()):
        o = (-n0) % q
        e = np.full((h - 1 - o) // q + 1, s, dtype=np.int64)  # exponent of p
        qq = q * p
        while qq <= end and (oo := (-n0) % qq) < h:
            e[(oo - o) // q :: qq // q] += 1
            qq *= p
        vals[o::q] *= W[e]
        if prod is not None:
            prod[o::q] *= p**e

    # one entry per (prime, multiple of p**s in the window)
    ps, qs = ps[cut:], qs[cut:]
    off = (-n0) % qs
    hits = np.where(off < h, (h - 1 - off) // qs + 1, 0)
    idx = np.repeat(np.arange(len(qs)), hits)
    rank = np.arange(len(idx)) - np.repeat(np.cumsum(hits) - hits, hits)
    t = off[idx] + rank * qs[idx]
    pb = ps[idx]
    n = n0 + t
    m = n // qs[idx]  # n / p**alpha, with alpha = s so far
    alpha = np.full(len(idx), s, dtype=np.int64)
    live = np.flatnonzero(m % pb == 0)
    while live.size:
        alpha[live] += 1
        m[live] //= pb[live]
        live = live[m[live] % pb[live] == 0]
    np.multiply.at(vals, t, W[alpha])  # two primes may divide the same n

    if prod is not None:
        np.multiply.at(prod, t, n // m)
        vals[(n0 + np.arange(h, dtype=np.int64)) // prod > 1] *= W[1]
    return vals


def sieve(interval: Interval, spec: DivisorSpec, limits: Limits = DEFAULT_LIMITS) -> DivisorTable:
    """Segmented bulk evaluation over (x, x+h].

    Let s be the least exponent whose weight exceeds 1 (s = k for d_k,
    min(i, j) for d_{i,j}); only primes p with p**s | n matter.  A prime
    power p**s with many multiples in the window is applied as one strided
    slice, with the exponent raised by nested strides over p**(s+1), ...;
    the remaining primes, each with few multiples in the window, are applied
    as one vectorised batch.  For s = 1, whatever is left of n after
    dividing out the primes <= sqrt(x+h) is a prime with exponent 1.

    Raises ResourceLimit when h exceeds `limits.sieve_max_len` or the prime
    base sqrt(x+h) exceeds `limits.mertens_max_x`.
    """
    vals = _sieve_values(interval, spec, limits)
    return DivisorTable(interval, spec, tuple(vals.tolist()))


def sum_S(
    interval: Interval, i: int, j: int, D: float, limits: Limits = DEFAULT_LIMITS
) -> float:
    """S_{i,j}(x, h, D) = sum over n in (x, x+h] of exp(-D * d_{i,j}(n)).

    math.exp runs once per distinct value of d_{i,j}, and math.fsum takes
    that term once per n it belongs to.  fsum is exactly rounded, so the
    order of the terms does not matter and the result is deterministic.
    """
    if D <= 0:
        raise DomainError(f"D must be positive, got {D}")
    vals = _sieve_values(interval, DivisorSpec.pair(i, j), limits)
    distinct, counts = np.unique(vals, return_counts=True)
    return math.fsum(chain.from_iterable(
        repeat(math.exp(-D * v), c) for v, c in zip(distinct.tolist(), counts.tolist())
    ))


def mertens_sum(x: int, limits: Limits = DEFAULT_LIMITS) -> float:
    """Sum of 1/p over primes p <= x (the sum behind log log x + O(1)).

    The primes are generated and summed one segment at a time.
    """
    if x < 3:
        raise DomainError(f"x must be >= 3, got {x}")
    if x > limits.mertens_max_x:
        raise ResourceLimit(f"x = {x} exceeds budget {limits.mertens_max_x}")
    return math.fsum(chain.from_iterable((1.0 / seg).tolist() for seg in _prime_segments(x)))
