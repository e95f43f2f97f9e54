"""Per-layer split: an in-process replay of the workload under a span recorder,
plus a probe pass that times each module's public functions directly.

The replay runs each command through `gpfree.cli.main(argv)` with stdout
captured, once untraced and once traced, alternating which goes first;
tracing overhead is the difference of the two summed walls.  While traced, the public functions listed in TARGETS are
rebound, in this process only, to wrappers that record a span (name, start,
end, parent, command id).  A span's self time is its duration minus the
durations of its children.  Hot per-element functions (`coin_bits`,
`gap_envelope` inside `gap_report`) are not wrapped; the probe pass times
them on a batch of the same points.

The spans and the report go to results/; baseline/<workload>.json holds the
per-layer figures of the seed commit, and the report prints each metric
against it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import checks
from checks import require
from common import CLI, HERE, RESULTS, WORK, Record, child_env, fmt_line
from workloads import Cmd

# (layer, function, modules whose namespace binds it)
TARGETS = [
    ("process", "run", ["process"]),
    ("process", "run_to_dict", ["process"]),
    ("process", "run_to_json", ["process"]),
    ("process", "run_from_json", ["process"]),
    ("process", "gap_report", ["process"]),
    ("process", "verify_free", ["process"]),
    ("process", "survival_probability", ["process"]),
    ("gpcore", "canonicalize", ["gpcore"]),
    ("gpcore", "enumerate_gps", ["gpcore"]),
    ("gpcore", "contains_gp", ["gpcore", "process"]),
    ("gpcore", "find_gps_with_term_at", ["gpcore", "process"]),
    ("gpcore", "enumerate_3gp_triples", ["gpcore", "syndetic"]),
    ("bounds", "gap_envelope", ["bounds"]),
    ("divisor", "primes_upto", ["divisor"]),
    ("divisor", "sieve", ["divisor"]),
    ("divisor", "sum_S", ["divisor"]),
    ("divisor", "mertens_sum", ["divisor"]),
    ("syndetic", "build_instance", ["syndetic"]),
    ("syndetic", "search", ["syndetic"]),
    ("syndetic", "verify_selection", ["syndetic"]),
    ("syndetic", "export_dimacs", ["syndetic"]),
]
KINDS = ("6gp", "5gp", "3gp-int")


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, command id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = None

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cmd])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*a, **kw):
                it = fn(*a, **kw)
                while True:
                    i = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            i = self.open(name)
            try:
                return fn(*a, **kw)
            finally:
                self.close(i)
        return wrapper

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own


def install(rec: Recorder):
    """Rebind every target to its wrapper; returns the undo list."""
    undo = []
    for layer, attr, homes in TARGETS:
        original = getattr(importlib.import_module(f"gpfree.{layer}"), attr)
        wrapped = rec.wrap(f"{layer}.{attr}", original)
        for home in homes:
            mod = importlib.import_module(f"gpfree.{home}")
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)
    return undo


def uninstall(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def execute(cmd, clear_primes, rec: Recorder | None = None) -> Record:
    """One command through cli.main in this process, as a fresh run would be."""
    from gpfree import cli
    clear_primes()  # a fresh process starts with an empty prime cache
    if cmd.before is not None:
        cmd.before()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t = time.perf_counter()
        root = rec.open("cli.main") if rec is not None else None
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
        finally:
            if root is not None:
                rec.close(root)
        wall = time.perf_counter() - t
    return Record(cmd, rc, out.getvalue(), err.getvalue(), wall)


def replay(cmds, clear_primes, rec: Recorder):
    """Each command untraced and traced, alternating which runs first."""
    plain, traced = [], []
    for i, cmd in enumerate(cmds):
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if not tracing:
                plain.append(execute(cmd, clear_primes))
                continue
            rec.cmd = i
            undo = install(rec)
            try:
                traced.append(execute(cmd, clear_primes, rec))
            finally:
                uninstall(undo)
    return plain, traced


def span_cost(calls: int = 100_000) -> float:
    """Seconds one wrapped call adds, from a wrapped no-op."""
    def noop():
        return None
    rec = Recorder()
    wrapped = rec.wrap("noop", noop)
    t = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t_wrapped = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    return (t_wrapped - (time.perf_counter() - t)) / calls


def timed(fn, *a, reps=1, **kw):
    """(median wall over reps, last result)."""
    walls = []
    for _ in range(reps):
        t = time.perf_counter()
        res = fn(*a, **kw)
        walls.append(time.perf_counter() - t)
    return statistics.median(walls), res


def import_cost(samples: int = 7) -> float:
    """Median fresh-interpreter `import gpfree.cli` minus a bare interpreter."""
    env = child_env()

    def median_wall(code):
        walls = []
        for _ in range(samples):
            t = time.perf_counter()
            subprocess.run([CLI[0], "-c", code], env=env, check=True)
            walls.append(time.perf_counter() - t)
        return statistics.median(walls)

    median_wall("import gpfree.cli")  # warm the bytecode cache
    return median_wall("import gpfree.cli") - median_wall("pass")


def probes(seed: int, sizes) -> tuple[dict, list[str], list[Record]]:
    """Time each layer's public functions directly; (metrics, notes, checks)."""
    from gpfree import bounds, divisor, gpcore, process, syndetic
    from gpfree.errors import GPFreeError
    m, notes, recs = {}, [], []

    def probe_check(name, ok, msg):
        def check(_out):
            require(ok, msg)
        recs.append(Record(Cmd(["probe", name], check), 0, "", "", 0.0))

    runs = {}
    for i, (kind, n) in enumerate(sizes.process):
        cfg = process.ProcessConfig(process.ProcessKind(kind), n, seed + i)
        t1, r1 = timed(process.run, cfg, workers=1)
        t2, r2 = timed(process.run, cfg, workers=2)
        probe_check(f"run {kind}", r1 == r2, f"{kind}: workers=1 and workers=2 runs differ")
        removed, dropped = len(r2.removed), r2.dropped_outside
        m.update({
            f"process.run_s.{kind}": (t1, "s"),
            f"process.run_w2_s.{kind}": (t2, "s"),
            f"process.pool_speedup.{kind}": (t1 / t2, "ratio"),
            f"process.removed.{kind}": (removed, "count"),
            f"process.dropped_outside.{kind}": (dropped, "count"),
            f"process.in_range_ratio.{kind}": (removed / (removed + dropped), "ratio"),
        })
        notes.append(f"pool_speedup.{kind} = run_s {t1:.3f} s / run_w2_s {t2:.3f} s at n={n}")
        runs[kind] = r2

    rng = random.Random(f"coin:{seed}")
    keys = [(rng.choice((3, 5, 6)), rng.randrange(1, 10**6), rng.randrange(1, 100),
             rng.randrange(2, 1000)) for _ in range(sizes.coin_batch)]

    def coin_batch():
        for key in keys:
            process.coin_bits(seed, *key)
    t, _ = timed(coin_batch, reps=3)
    m["process.coin_bits_ns"] = (t / len(keys) * 1e9, "ns")

    r6 = runs["6gp"]
    t, text = timed(process.run_to_json, r6, reps=3)
    m["process.run_to_json_s"] = (t, "s")
    t, back = timed(process.run_from_json, text, reps=3)
    m["process.run_from_json_s"] = (t, "s")
    probe_check("json round trip", back == r6, "run_from_json(run_to_json(run)) != run")
    t, rep = timed(process.gap_report, r6, 0.5)
    m["process.gap_report_s"] = (t, "s")
    starts = [g[0] for g in rep.gaps]
    t, _ = timed(lambda: [bounds.gap_envelope(x, 0.5, 1.0) for x in starts])
    m["bounds.gap_envelope_s"] = (t, "s")
    m["bounds.gap_envelope_calls"] = (len(starts), "count")
    t, witness = timed(process.verify_free, r6)
    m["process.verify_free_s"] = (t, "s")
    probe_check("verify_free", witness is None, f"6gp survivors hold {witness}")
    t, _ = timed(gpcore.contains_gp, r6.survivors(), 6, gpcore.RATIONAL)
    m["gpcore.contains_gp_s"] = (t, "s")

    for kind in KINDS:
        t0 = time.perf_counter()
        try:
            process.survival_probability(process.ProcessKind(kind), 10**5, 5,
                                         sizes.survival_trials, seed)
        except GPFreeError as exc:
            notes.append(f"survival_probability.{kind} at x=1e5 raised: {exc}")
        m[f"process.survival_probability_s.{kind}"] = (time.perf_counter() - t0, "s")

    def find_window():
        for n in range(10**6 + 1, 10**6 + 51):
            for pos in (2, 3):
                gpcore.find_gps_with_term_at(n, 6, pos)
    m["gpcore.find_gps_with_term_at_s"] = (timed(find_window, reps=3)[0], "s")
    m["gpcore.enumerate_3gp_triples_s"] = (
        timed(gpcore.enumerate_3gp_triples, max(sizes.ladder), reps=3)[0], "s")

    divisor.primes_upto.cache_clear()
    t, ps = timed(divisor.primes_upto, sizes.mertens_x)
    m["divisor.primes_upto_s"] = (t, "s")
    m["divisor.primes_count"] = (len(ps), "count")
    del ps
    spec = divisor.DivisorSpec.pair(2, 3)
    sieve_s, ints = 0.0, 0
    for x, h in sizes.sieve_windows:
        divisor.primes_upto.cache_clear()
        t, _ = timed(divisor.sieve, divisor.Interval(x, h), spec)
        sieve_s, ints = sieve_s + t, ints + h
    m["divisor.sieve_s"] = (sieve_s, "s")
    m["divisor.integers_sieved"] = (ints, "count")
    m["divisor.sieve_ns_per_int"] = (sieve_s / ints * 1e9, "ns")
    x, h = sizes.sieve_windows[0]
    divisor.primes_upto.cache_clear()
    m["divisor.sum_S_s"] = (timed(divisor.sum_S, divisor.Interval(x, h), 2, 3, 0.693147)[0], "s")
    divisor.primes_upto.cache_clear()
    t, s = timed(divisor.mertens_sum, sizes.mertens_x)
    m["divisor.mertens_sum_s"] = (t, "s")
    divisor.primes_upto.cache_clear()

    t, inst = timed(syndetic.build_instance, 640, "overlapping", reps=3)
    m["syndetic.build_instance_s"] = (t, "s")
    m["syndetic.triples"] = (len(inst.triples), "count")
    t, out = timed(syndetic.search, inst, workers=1, reps=5)
    m["syndetic.search_s"] = (t, "s")
    m["syndetic.nodes"] = (out.stats.nodes, "count")
    m["syndetic.prunings"] = (sum(out.stats.prunings.values()), "count")
    probe_check("search 640", out.verdict == "exhausted", f"overlapping 640: {out.verdict}")
    t, out2 = timed(syndetic.search, inst, workers=2, reps=3)
    m["syndetic.search_w2_s"] = (t, "s")
    probe_check("search 640 w2", out2.verdict == "exhausted", f"overlapping 640 w2: {out2.verdict}")
    m["syndetic.export_dimacs_s"] = (timed(syndetic.export_dimacs, inst, reps=5)[0], "s")
    return m, notes, recs


def run(workload: str, seed: int, cmds, sizes, warmup):
    """The traced run: (records for tally, per-layer metrics, report lines, split).

    `warmup` (the workload at smoke sizes) is replayed first and discarded, so
    that one-time imports and pool start-up land in neither timed replay.
    """
    from gpfree import divisor
    clear_primes = divisor.primes_upto.cache_clear
    for cmd in warmup:
        execute(cmd, clear_primes)
    rec = Recorder()
    plain, traced = replay(cmds, clear_primes, rec)
    plain_wall = sum(r.wall for r in plain)
    traced_wall = sum(r.wall for r in traced)

    mismatch = [" ".join(a.cmd.argv) for a, b in zip(plain, traced)
                if a.rc != b.rc or (a.rc == 0 and checks.stable_bytes(a.out) != checks.stable_bytes(b.out))]

    def same_outputs(_out):
        require(not mismatch, f"traced and untraced replays differ on {mismatch[:3]}")
    records = traced + [Record(Cmd(["replay", "consistency"], same_outputs), 0, "", "", 0.0)]

    own = rec.self_times()
    by_layer, by_sub, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, t in zip(rec.spans, own):
        by_layer[s[0].split(".")[0]] += t
        calls[s[0]] += 1
        if s[0] == "cli.main":
            by_sub[cmds[s[4]].sub] += t
    out_bytes = defaultdict(int)
    for r in traced:
        out_bytes[r.cmd.sub] += checks.stable_bytes(r.out)
    overhead = traced_wall - plain_wall
    total_self = sum(own)

    m = {
        "cli.import_s": (import_cost(), "s"),
        "cli.overhead_s": (by_layer["cli"], "s"),
        "cli.stdout_bytes": (sum(out_bytes.values()), "count"),
        "trace.replay_s": (plain_wall, "s"),
        "trace.traced_s": (traced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.accounted_share": ((total_self - overhead) / plain_wall, "ratio"),
    }
    pm, notes, checks_ = probes(seed, sizes)
    m.update(pm)
    records += checks_

    lines = [f"  replay of {len(cmds)} commands: untraced {plain_wall:.3f} s, traced "
             f"{traced_wall:.3f} s, {len(rec.spans)} spans; self times {total_self:.3f} s "
             f"- overhead {overhead:.3f} s = {(total_self - overhead) / plain_wall:.1%} of the "
             f"untraced replay; calibrated span cost {span_cost() * 1e6:.2f} us x "
             f"{len(rec.spans)} spans"]
    split = {"self_s": dict(sorted(by_layer.items())),
             "cli_overhead_s": dict(sorted(by_sub.items())),
             "stdout_bytes": dict(sorted(out_bytes.items())), "calls": dict(sorted(calls.items()))}
    base = _load_baseline(workload)
    base_split = base.get("layers", {})
    for section, unit in (("self_s", "s"), ("cli_overhead_s", "s"), ("stdout_bytes", "count"),
                          ("calls", "count")):
        for name, value in split[section].items():
            was = base_split.get(section, {}).get(name)
            lines.append(fmt_line(f"{section}[{name}]", value, unit,
                                  "seed-commit baseline " + (f"{was:.6g}" if was is not None else "n/a")))
    lines += [f"  note: {n}" for n in notes]
    base_metrics = base.get("metrics", {})
    for name, (value, unit) in m.items():
        was = base_metrics.get(name, {}).get("value")
        lines.append(fmt_line(name, value, unit,
                              "seed-commit baseline " + (f"{was:.6g}" if was is not None else "n/a")))

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "command"], "spans": rec.spans,
         "commands": [" ".join(c.argv).replace(str(WORK), "<work>") for c in cmds]}) + "\n")
    return records, m, lines, split


def _load_baseline(workload: str) -> dict:
    """The seed commit's traced result for the workload (a copied results file)."""
    path = HERE / "baseline" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


if __name__ == "__main__":
    sys.exit("run via perfbench/run.py --trace 1")
