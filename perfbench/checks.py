"""Output checks built on oracles that share no code with the gpfree engine.

Each `check_*` function takes a finished command's stdout (and what the
workload knows about its inputs) and raises `CheckFailed` when the output is
wrong.  The oracles here are written from the definitions only:

* `removal_reference` re-runs a removal process with numpy over the same coin
  hash, so a run file can be compared byte for byte with the library's own
  serialization of the reference removal set;
* `free_of_3gp` checks a pair selection by pairs and by y*y == x*z triples;
* `d_k` / `d_ij` count divisors by trial division;
* `gp_brute_force` searches a small member set for k-term progressions.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from functools import lru_cache
from math import gcd, isqrt

import numpy as np


class CheckFailed(Exception):
    """An output did not match the oracle."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def payload(out: str) -> dict:
    try:
        env = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON envelope: {exc}") from None
    require(set(env) == {"version", "command", "seed", "payload", "elapsed_ms"},
            f"envelope keys {sorted(env)}")
    return env["payload"]


_ELAPSED = re.compile(r'"elapsed_ms": -?[0-9.e+-]+')


def stable_bytes(out: str) -> int:
    """Length of stdout with every elapsed_ms value blanked (run-invariant)."""
    return len(_ELAPSED.sub('"elapsed_ms": 0', out).encode())


# ---------------------------------------------------------------------------
# removal processes: numpy reference over the same 64-bit coin hash

_GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


def _fmix(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(33))
    z = z * np.uint64(0xFF51AFD7ED558CCD)
    z = z ^ (z >> np.uint64(33))
    z = z * np.uint64(0xC4CEB9FE1A85EC53)
    return z ^ (z >> np.uint64(33))


def coin_bits_array(seed: int, k: int, a, b, c) -> np.ndarray:
    """The hash of (seed, k, a, b, c), elementwise; uint64 arithmetic wraps."""
    a = np.asarray(a, dtype=np.uint64)
    h = np.full(a.shape, seed & _M64, dtype=np.uint64)
    g = np.uint64(_GOLDEN)
    with np.errstate(over="ignore"):
        h = _fmix(h ^ np.uint64((k * _GOLDEN) & _M64))
        for v in (a, b, c):
            h = _fmix(h ^ (np.asarray(v, dtype=np.uint64) * g))
    return h


def _coprime_classes(n: int, eb: int, ec: int) -> tuple[np.ndarray, np.ndarray]:
    bs, cs = [], []
    for c in range(2, n + 1):
        if c**ec > n:
            break
        for b in range(1, c):
            if b**eb * c**ec > n:
                break
            if gcd(b, c) == 1:
                bs.append(b)
                cs.append(c)
    return np.array(bs, dtype=np.int64), np.array(cs, dtype=np.int64)


def _expand(counts: np.ndarray, *cols: np.ndarray):
    """a = 1..count per class, with the class columns repeated alongside."""
    total = int(counts.sum())
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    a = np.arange(total, dtype=np.int64) - starts + 1
    return (a,) + tuple(np.repeat(col, counts) for col in cols)


def _biased(lo_term: np.ndarray, hi_term: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """hi_term with probability 1 - 1/log(hi_term + 2), else lo_term."""
    u01 = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    log = math.log
    thr = np.array([1.0 - 1.0 / log(t + 2) for t in hi_term.tolist()], dtype=np.float64)
    return np.where(u01 < thr, hi_term, lo_term)


def removal_reference(kind: str, n: int, seed: int) -> tuple[np.ndarray, int]:
    """(sorted distinct removals <= n, removals that fell above n)."""
    if kind == "6gp":
        b, c = _coprime_classes(n, 3, 2)
        w2, w3 = b**3 * c**2, b**2 * c**3
        a, b, c, w2, w3 = _expand(n // w2, b, c, w2, w3)
        below = coin_bits_array(seed, 6, a, b, c) < np.uint64(1 << 63)
        u = np.where(below, a * w2, a * w3)
    elif kind == "5gp":
        b, c = _coprime_classes(n, 3, 1)
        w1, w2 = b**3 * c, b**2 * c**2
        a, b, c, w1, w2 = _expand(n // w1, b, c, w1, w2)
        u = _biased(a * w1, a * w2, coin_bits_array(seed, 5, a, b, c))
    elif kind == "3gp-int":
        r = np.arange(2, n + 1, dtype=np.int64)
        a, r = _expand(n // r, r)
        u = _biased(a * r, a * r * r, coin_bits_array(seed, 3, a, np.ones_like(a), r))
    else:
        raise ValueError(kind)
    inside = u <= n
    return np.unique(u[inside]), int((~inside).sum())


def survivors_from(removed: np.ndarray, n: int) -> np.ndarray:
    alive = np.ones(n + 1, dtype=bool)
    alive[0] = False
    alive[removed] = False
    return np.flatnonzero(alive)


def envelope(x, epsilon: float, c_eps: float):
    """C_eps * exp(((5/6) log 2 + eps) * log x / log log x), from the paper."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    return c_eps * np.exp((5.0 / 6.0 * math.log(2) + epsilon) * lx / np.log(lx))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# 3-GP selections

def gp3_triples(n: int) -> set[tuple[int, int, int]]:
    """All x < y < z <= n with y*y == x*z, by divisors of y*y."""
    out = set()
    for y in range(2, n + 1):
        yy = y * y
        for x in _divisors_below(yy, y):
            z = yy // x
            if z <= n:
                out.add((x, y, z))
    return out


def _divisors_below(m: int, bound: int) -> list[int]:
    divs = [1]
    for p, e in factor(m):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return [d for d in divs if d < bound]


def free_of_3gp(selection: list[int], n: int, pairing: str) -> str | None:
    """None if `selection` meets every pair and holds no 3-GP, else why not."""
    chosen = set(selection)
    if len(chosen) != len(selection) or any(not 1 <= e <= n for e in chosen):
        return "selection has repeats or integers outside [1, N]"
    step = 2 if pairing == "disjoint" else 1
    for lo in range(1, n, step):
        if lo not in chosen and lo + 1 not in chosen:
            return f"pair {{{lo},{lo + 1}}} has no selected element"
    for y in sorted(chosen):
        yy = y * y
        for x in _divisors_below(yy, y):
            if x in chosen and yy // x <= n and yy // x in chosen:
                return f"selected 3-GP ({x}, {y}, {yy // x})"
    return None


# ---------------------------------------------------------------------------
# divisor functions by trial division

@lru_cache(maxsize=1)
def _small_primes(limit: int = 1_000_100) -> tuple[int, ...]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return tuple(np.flatnonzero(flags).tolist())


def factor(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m <= ~1e12 by trial division."""
    out = []
    for p in _small_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        require(m < 1_000_100**2, f"cannot trial-divide {m}")
        out.append((m, 1))
    return out


def d_k(m: int, k: int) -> int:
    return math.prod(e // k + 1 for _, e in factor(m))


def d_ij(m: int, i: int, j: int) -> int:
    """#{(a, b) : a**i * b**j divides m}, counted per prime power."""
    return math.prod(
        sum(1 for f in range(e + 1) for g in range(e + 1) if i * f + j * g <= e)
        for _, e in factor(m)
    )


def divisor_value(m: int, spec: tuple) -> int:
    return d_k(m, spec[1]) if spec[0] == "k" else d_ij(m, spec[1], spec[2])


# ---------------------------------------------------------------------------
# k-term progressions in small member sets

def is_gp(terms: list[int], integer_ratio: bool) -> bool:
    if len(terms) < 3 or terms[0] <= 0 or terms[1] <= terms[0]:
        return False
    g = gcd(terms[0], terms[1])
    b, c = terms[0] // g, terms[1] // g
    if integer_ratio and b != 1:
        return False
    return all(t * c == u * b for t, u in zip(terms, terms[1:]))


def gp_brute_force(members: list[int], k: int, integer_ratio: bool) -> bool:
    """True iff some k-term GP with ratio > 1 lies inside `members`."""
    present = set(members)
    ms = sorted(present)
    for i, x in enumerate(ms):
        for y in ms[i + 1:]:
            g = gcd(x, y)
            b, c = x // g, y // g
            if integer_ratio and b != 1:
                continue
            t, ok = y, True
            for _ in range(k - 2):
                if (t * c) % b:
                    ok = False
                    break
                t = t * c // b
                if t not in present:
                    ok = False
                    break
            if ok:
                return True
    return False
