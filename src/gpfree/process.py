"""Seeded simulation of the three randomized GP-removal processes.

Each process walks every progression in its target family whose smaller
removable term is at most the horizon N, flips a per-progression coin, and
removes one of two designated terms.  Progressions whose removable terms both
exceed N cannot touch [1, N], so this truncation determines the survivor set
T intersected with [1, N] exactly.

Coins are a pure 64-bit hash of (seed, k, a, b, c) rather than draws from a
sequential stream: the result is independent of enumeration order, chunking,
and worker count, and enlarging N never changes the coin of an
already-enumerated progression.

Only `run`'s vector kernel and `run_to_bitmap` import numpy, when called.
Run files, `verify_free`, `gap_report` and `survival_probability` use the
standard library alone, on a bytearray survivor mask.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from enum import Enum
from functools import cache, partial
from itertools import compress, islice
from math import isqrt
from operator import ge, sub
from typing import Optional

from .bounds import _check_positive, gap_envelope, p_default
from .errors import DomainError, ResourceLimit
from .gpcore import (
    INTEGER,
    RATIONAL,
    KGeoProgression,
    _cofactors,
    _divisors,
    _first_gp,
    contains_gp,  # noqa: F401  perfbench/layers.py rebinds these two in this module
    find_gps_with_term_at,  # noqa: F401
)
from .limits import DEFAULT_LIMITS, Limits

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV53 = 2.0**-53


def _mix64(z: int) -> int:
    """Finalizer-style 64-bit avalanche (murmur3 fmix constants)."""
    z &= _M64
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & _M64
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & _M64
    z ^= z >> 33
    return z


def coin_bits(seed: int, k: int, a: int, b: int, c: int) -> int:
    h = seed & _M64
    for v in (k, a, b, c):
        h = _mix64(h ^ ((v * _GOLDEN) & _M64))
    return h


def derive_seed(seed: int, index: int) -> int:
    """Per-trial sub-seed; stable under extending the trial count."""
    return _mix64(_mix64(seed & _M64) ^ ((index * _GOLDEN) & _M64))


class ProcessKind(str, Enum):
    SIX_GP = "6gp"
    FIVE_GP = "5gp"
    THREE_GP_INT = "3gp-int"


class ProcessConfig(namedtuple("ProcessConfig", "kind n seed")):
    __slots__ = ()

    def __new__(cls, kind: ProcessKind, n: int, seed: int):
        if n < 16:
            raise DomainError(f"horizon must be >= 16, got {n}")
        if not 0 <= seed <= _M64:
            raise DomainError("seed must fit in 64 bits")
        return super().__new__(cls, kind, n, seed)


class ProcessRun(namedtuple("ProcessRun", "config removed dropped_outside")):
    """`removed` is sorted within [1, n]; `dropped_outside` counts the removals above n."""

    __slots__ = ()

    def survivors(self) -> list[int]:
        alive = _alive(self)
        return list(compress(range(len(alive)), alive))


def _alive(run_: ProcessRun) -> bytearray:
    """Mask over 0..n: 1 at the survivors (index 0 is never alive)."""
    mask = bytearray(b"\1") * (run_.config.n + 1)
    mask[0] = 0
    for t in run_.removed:
        mask[t] = 0
    return mask


# ---------------------------------------------------------------------------
# the vector kernel

_CHUNK = 1 << 16  # classes or progressions per array pass; bounds memory
_NEAR = 1e-9      # coins this close to a log threshold are re-decided by p_default


def _coin_array(seed: int, k: int, a, b: int, c):
    """The coins (coin_bits(seed, k, a, b, c) >> 11) * 2**-53 of one int b and
    the equally long int64 arrays a and c, elementwise."""
    import numpy as np
    s33, golden, fm1, fm2 = (np.uint64(v) for v in (
        33, _GOLDEN, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53))
    h = np.uint64(_mix64((seed & _M64) ^ ((k * _GOLDEN) & _M64)))
    # b's round is hashed as a Python int: a numpy uint64 scalar product warns on overflow
    for v in (a.astype(np.uint64) * golden, np.uint64((b * _GOLDEN) & _M64),
              c.astype(np.uint64) * golden):
        h = h ^ v
        for m in (fm1, fm2):  # _mix64, in place
            h ^= h >> s33
            h *= m
        h ^= h >> s33
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


# kind -> (k, ratio mode, exponents (eb, ec) of the smaller removable term
# a*b^eb*c^ec, exponents of the larger one, biased).  A fair coin (6-GP) removes
# the smaller middle when below 1/2; a biased coin removes the larger term with
# probability p_default(larger) = 1 - 1/log(larger + 2), else the smaller.
_FAMILY = {
    ProcessKind.SIX_GP: (6, RATIONAL, (3, 2), (2, 3), False),
    ProcessKind.FIVE_GP: (5, RATIONAL, (3, 1), (2, 2), True),
    ProcessKind.THREE_GP_INT: (3, INTEGER, (0, 1), (0, 2), True),
}


def _progressions(kind: ProcessKind, n: int):
    """(a, b, c) chunks of every progression (k, a, b, c) of the kind's family
    whose smaller removable term a*b^sb*c^sc is <= n.

    Classes are coprime b < c (b = 1, c = r for the integer-ratio family), in
    blocks of at most _CHUNK c values.  A chunk holds 1 to _CHUNK progressions
    of one block: `b` is the block's Python int, `a` and `c` int64 arrays.
    """
    import numpy as np
    _, mode, (sb, sc) = _FAMILY[kind][:3]
    for b in range(1, 2 if mode is INTEGER else n):  # the integer-ratio family has b = 1 only
        if b**sb * (b + 1) ** sc > n:
            break
        top = isqrt(n // b**sb) if sc == 2 else n // b**sb
        for lo in range(b + 1, top + 1, _CHUNK):
            c = np.arange(lo, min(lo + _CHUNK, top + 1), dtype=np.int64)
            c = c[np.gcd(c, b) == 1]
            # class i holds a = 1 .. edge[i+1] - edge[i], progressions edge[i] .. edge[i+1] - 1
            edge = np.concatenate(([0], np.cumsum(n // (b**sb * c**sc))))
            for first in range(0, int(edge[-1]), _CHUNK):
                last = min(first + _CHUNK, int(edge[-1]))
                i0, i1 = np.searchsorted(edge, (first, last - 1), side="right") - (1, 0)
                reps = np.diff(np.clip(edge[i0:i1 + 1], first, last))
                a = np.arange(first + 1, last + 1, dtype=np.int64) - np.repeat(edge[i0:i1], reps)
                yield a, b, np.repeat(c[i0:i1], reps)


def _below_p(u, larger):
    """u < p_default(larger) elementwise, decided exactly as p_default does."""
    import numpy as np
    thr = 1.0 - 1.0 / np.log(larger + 2.0)
    below = u < thr
    near = np.flatnonzero(np.abs(u - thr) <= _NEAR)
    if near.size:
        below[near] = [ui < p_default(t) for ui, t in zip(u[near].tolist(), larger[near].tolist())]
    return below


def run(config: ProcessConfig, workers: int = 1, limits: Limits = DEFAULT_LIMITS) -> ProcessRun:
    """Execute one process realization.

    One vectorized pass over the progressions, at most _CHUNK at a time.
    `workers` is accepted for compatibility and has no effect.
    """
    import numpy as np
    cap = min(limits.process_max_n, 3 * 10**9)  # terms are <= n**2 and must fit int64
    if config.n > cap:
        raise ResourceLimit(f"horizon {config.n} exceeds budget {cap}")
    n, seed = config.n, config.seed
    k, _, (sb, sc), (lb, lc), biased = _FAMILY[config.kind]
    hit = np.zeros(n + 1, dtype=bool)
    dropped = 0
    for a, b, c in _progressions(config.kind, n):
        smaller, larger = a * b**sb * c**sc, a * b**lb * c**lc
        u = _coin_array(seed, k, a, b, c)
        below = _below_p(u, larger) if biased else u < 0.5
        removed = np.where(below == biased, larger, smaller)
        inside = removed <= n
        hit[removed[inside]] = True
        dropped += removed.size - int(np.count_nonzero(inside))
    return ProcessRun(config, tuple(np.flatnonzero(hit).tolist()), dropped)


def verify_free(run_: ProcessRun) -> Optional[KGeoProgression]:
    """Witness GP of the kind's target family among the survivors, if any."""
    k, mode = _FAMILY[run_.config.kind][:2]
    return _first_gp(_alive(run_), k, mode)


# ---------------------------------------------------------------------------
# gap analysis

class GapReport(namedtuple("GapReport", "starts lengths max_gap fitted_c_eps")):
    """`starts` holds the survivors t >= 16 ascending but the last, as
    array("q"), and lengths[i] is the gap from starts[i] to the next survivor."""

    __slots__ = ()

    @property
    def gaps(self) -> tuple[tuple[int, int], ...]:
        """(t_i, t_{i+1} - t_i) for t_i >= 16."""
        return tuple(zip(self.starts, self.lengths))


def gap_report(run_: ProcessRun, epsilon: float) -> GapReport:
    """Gap statistics of the survivors against the main gap envelope.

    fitted_c_eps is the smallest C_eps for which every measured gap satisfies
    gap <= gap_envelope(t_i, epsilon, C_eps).
    """
    _check_positive("epsilon", epsilon)
    alive = _alive(run_)
    alive[:16] = bytes(16)
    t = array("q", compress(range(len(alive)), alive))
    if len(t) < 2:
        raise DomainError("need at least two survivors >= 16")
    g = list(map(sub, islice(t, 1, None), t))
    del t[-1]
    # gap_envelope grows strictly in t >= 16, by far more than its rounding up to
    # process_max_n, so each gap value's ratio is largest where it first occurs
    first = {gi: t[g.index(gi)] for gi in set(g)}
    fitted = max(gi / gap_envelope(ti, epsilon, 1.0) for gi, ti in first.items())
    return GapReport(t, g, max(first), fitted)


# ---------------------------------------------------------------------------
# Monte Carlo survival-probability estimation

def _removal_events(kind: ProcessKind, n: int) -> list[tuple[tuple[int, int, int, int], float, bool]]:
    """Events that would remove n: (coin key, threshold, fires-when-below).

    Read off `_FAMILY`, the table `run` walks: gpcore's backward walk finds
    each (k, a, b, c) whose smaller removable term a*b^sb*c^sc, or larger one
    a*b^lb*c^lc, is n.  The threshold is 1/2 for the fair coin and p(larger)
    for a biased one, and the event fires below it exactly when "n is the
    smaller term" differs from "the coin is biased".  n is removed in a trial
    iff some event's coin falls on its firing side.  Equivalent to running
    the full truncated process, since any progression able to remove n has
    its smaller removable term <= n.
    """
    k, mode, smaller, larger, biased = _FAMILY[kind]
    divs = _divisors(n)
    events = []
    for is_smaller, (eb, ec) in ((True, smaller), (False, larger)):
        for a, b, c in _cofactors(divs, eb, ec, mode == INTEGER):
            thr = p_default(a * b ** larger[0] * c ** larger[1]) if biased else 0.5
            events.append(((k, a, b, c), thr, is_smaller != biased))
    return events


def survival_probability(
    kind: ProcessKind,
    x: int,
    h: int,
    trials: int,
    seed: int,
    limits: Limits = DEFAULT_LIMITS,
) -> int:
    """How many of `trials` independent trials wipe out (x, x+h].

    Trial t runs the process with seed derive_seed(seed, t), restricted to
    the removal events of the window.  The events of n are built the first
    time a trial reaches n and kept for later trials, so a trial that finds
    a survivor early costs only the events up to it.

    A progression whose removable terms both lie in the window is one coin key, so
    each trial is the seeded run restricted to (x, x+h], for every kind and every h.
    """
    if x < 16:
        raise DomainError(f"x must be >= 16, got {x}")
    if h < 1 or trials < 1:
        raise DomainError("h and trials must be positive")
    if not 0 <= seed <= _M64:
        raise DomainError("seed must fit in 64 bits")
    if x + h > limits.process_max_n:
        raise ResourceLimit(f"x + h exceeds budget {limits.process_max_n}")
    if trials > limits.survival_max_trials:
        raise ResourceLimit(f"trials {trials} exceeds budget {limits.survival_max_trials}")

    window = range(x + 1, x + h + 1)
    events_of = cache(partial(_removal_events, kind))
    empties = 0
    for t in range(trials):
        ts = derive_seed(seed, t)
        empties += all(
            any(((coin_bits(ts, *key) >> 11) * _INV53 < thr) == below
                for key, thr, below in events_of(n))
            for n in window
        )
    return empties


# ---------------------------------------------------------------------------
# serialization

def run_to_dict(run_: ProcessRun) -> dict:
    return {
        "config": {
            "kind": run_.config.kind.value,
            "n": run_.config.n,
            "seed": run_.config.seed,
        },
        "removed": run_.removed,  # the run's own tuple; json.dumps writes it as an array
        "counts": {
            "removed": len(run_.removed),
            "survivors": run_.config.n - len(run_.removed),
            "dropped_outside": run_.dropped_outside,
        },
    }


def run_to_json(run_: ProcessRun) -> str:
    """The run file's one writer: sorted-key, no-whitespace JSON, byte-stable per config."""
    return json.dumps(run_to_dict(run_), sort_keys=True, separators=(",", ":"))


def run_from_json(s: str, limits: Limits = DEFAULT_LIMITS) -> ProcessRun:
    """The run file's one reader, inverse of run_to_json; DomainError unless the text is a
    consistent run document, then ResourceLimit if its horizon exceeds `limits.process_max_n`."""
    try:
        d = json.loads(s)
    except ValueError as exc:  # JSONDecodeError, or an int literal beyond int()'s digit limit
        raise DomainError(f"malformed run file: {exc}") from None
    try:
        cfg = ProcessConfig(ProcessKind(d["config"]["kind"]), d["config"]["n"], d["config"]["seed"])
        removed, counts = d["removed"], d["counts"]
        dropped = counts["dropped_outside"]
        ok = (
            type(cfg.n) is int and type(cfg.seed) is int and type(removed) is list
            and {int}.issuperset(map(type, removed))  # no bool, float or nested list
            and type(dropped) is int and dropped >= 0
            and counts["removed"] == len(removed) and counts["survivors"] == cfg.n - len(removed)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed run file: {exc!r}") from None
    if not ok:
        raise DomainError("malformed run file: bad removed list or counts")
    if removed and (removed[0] < 1 or removed[-1] > cfg.n
                    or any(map(ge, removed, islice(removed, 1, None)))):
        raise DomainError(f"run file removals must increase strictly within [1, {cfg.n}]")
    if cfg.n > limits.process_max_n:
        raise ResourceLimit(f"run horizon {cfg.n} exceeds budget {limits.process_max_n}")
    return ProcessRun(cfg, tuple(removed), dropped)


def run_to_bitmap(run_: ProcessRun) -> bytes:
    """Little-endian 64-bit words; bit t set means integer t+1 was removed."""
    import numpy as np
    bits = np.zeros(64 * ((run_.config.n + 63) // 64), dtype=bool)
    bits[np.array(run_.removed, dtype=np.int64) - 1] = True
    return np.packbits(bits, bitorder="little").tobytes()
