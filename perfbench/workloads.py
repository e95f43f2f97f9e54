"""The three workloads: command lists generated from a seed, each command
paired with the check its output must pass.

Only generated inputs reach the program: process seeds, window positions and
member files.  Every command that takes --workers gets --workers 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
from checks import CheckFailed, payload, require

WORKLOADS = ("survivors", "windows", "cli-sweep")
WORKERS = "2"
LOG2 = "0.693147"
JENSEN_PAIRS = [(1, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]

# The no-op command behind setup_s: interpreter start, `import gpfree`,
# parser build, one envelope value.
SETUP_ARGV = ["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1",
              "--from", "1e6", "--to", "1e6", "--points", "1"]

# Defects reproduced at the seed commit.  A command listed under one of them
# may fail with that signature and the run stays correct; the failure still
# counts in `failed`.  Once fixed, the command's output is checked as usual.
KNOWN_DEFECTS = {
    "survival-5gp-64bit": (
        "process survival --kind 5gp exits 1 'largest term exceeds 64 bits' for x >= 65536",
        lambda rc, err: rc == 1 and "largest term exceeds 64 bits" in err,
    ),
    "disjoint-recursion": (
        "syndetic search --pairing disjoint raises RecursionError for large N (>= 8000 at 2 workers)",
        lambda rc, err: rc != 0 and "RecursionError" in err,
    ),
}

# Overlapping pairing: counterexamples up to 638, exhaustion from 640 on.
OVERLAP_THRESHOLD = 640
# Disjoint pairing: largest ladder rung with a verified free selection at seed.
DISJOINT_FREE_UPTO = 7500


@dataclass
class Cmd:
    argv: list[str]
    check: Optional[Callable[[str], None]] = None
    known_defect: Optional[str] = None
    before: Optional[Callable[[], None]] = field(default=None, repr=False)

    @property
    def sub(self) -> str:
        return f"{self.argv[0]} {self.argv[1]}"


@dataclass(frozen=True)
class Sizes:
    process: tuple = (("6gp", 10**6), ("5gp", 10**5), ("3gp-int", 10**5))
    sum_h: int = 10**6
    table_h: int = 10**5
    jensen: int = 6
    mertens_x: int = 10**8
    overlap_band: tuple = tuple(range(612, 670, 2))
    ladder: tuple = (640, 1280, 2560, 5120, 10000)
    survival_trials: int = 200
    gp_cmds: int = 10
    small_tables: int = 16
    envelopes: int = 16
    # probe pass only (layers.py)
    coin_batch: int = 100_000
    sieve_windows: tuple = ((10**6, 10**5), (10**9, 10**4))


SMOKE = Sizes(process=(("6gp", 20000), ("5gp", 5000), ("3gp-int", 5000)),
              sum_h=10**4, table_h=2000, jensen=2, mertens_x=10**6,
              overlap_band=(636, 638, 640, 642), ladder=(640, 10000),
              survival_trials=20, gp_cmds=2, small_tables=3, envelopes=3,
              coin_batch=5000, sieve_windows=((10**6, 10**3),))


def setup_cmd() -> Cmd:
    return Cmd(list(SETUP_ARGV), check_envelope(0.1, 1.0, 1e6, 1e6, 1))


def build(name: str, seed: int, work: Path, sizes: Sizes) -> list[Cmd]:
    rng = random.Random(f"{name}:{seed}")
    if name == "survivors":
        return _survivors(seed, work, sizes)
    if name == "windows":
        return _windows(rng, sizes)
    if name == "cli-sweep":
        return _cli_sweep(rng, work, sizes)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# survivors: run -> verify -> gaps for each kind

def _survivors(seed: int, work: Path, sizes: Sizes) -> list[Cmd]:
    refs = lru_cache(maxsize=None)(checks.removal_reference)  # one reference per config
    cmds = []
    for i, (kind, n) in enumerate(sizes.process):
        pseed = seed + i  # seed 1 gives the criterion-7 anchor run for 6gp
        f = str(work / f"run-{kind}-{n}-{pseed}.json")
        cmds += [
            Cmd(["process", "run", "--kind", kind, "--n", str(n), "--seed", str(pseed),
                 "--out", f, "--workers", WORKERS], check_run(refs, kind, n, pseed, f)),
            Cmd(["process", "verify", "--in", f], check_verify),
            Cmd(["process", "gaps", "--in", f, "--epsilon", "0.5"],
                check_gaps(refs, kind, n, pseed, anchor=(kind, n, pseed) == ("6gp", 10**6, 1))),
        ]
    return cmds


def check_run(refs, kind, n, seed, path):
    def check(out):
        from gpfree import process
        p = payload(out)
        removed, dropped = refs(kind, n, seed)
        require(p["config"] == {"kind": kind, "n": n, "seed": seed}, f"config {p['config']}")
        want = {"removed": len(removed), "survivors": n - len(removed), "dropped_outside": dropped}
        require(p["counts"] == want, f"counts {p['counts']} != reference {want}")
        cfg = process.ProcessConfig(process.ProcessKind(kind), n, seed)
        ref_json = process.run_to_json(process.ProcessRun(cfg, tuple(removed.tolist()), dropped))
        with open(path, "rb") as fh:
            got = checks.sha256(fh.read())
        require(got == checks.sha256(ref_json), f"run file sha256 {got[:12]} != reference")
    return check


def check_verify(out):
    p = payload(out)
    require(p["free"] is True and p["witness"] is None, f"verify says {p}")


def check_gaps(refs, kind, n, seed, anchor):
    def check(out):
        p = payload(out)
        removed, _ = refs(kind, n, seed)
        surv = checks.survivors_from(removed, n)
        surv = surv[surv >= 16]
        gaps = np.diff(surv)
        rows = np.array(p["rows"], dtype=np.int64).reshape(-1, 2)
        require(p["gap_count"] == len(gaps) == len(rows), f"gap_count {p['gap_count']}")
        require(np.array_equal(rows[:, 0], surv[:-1]) and np.array_equal(rows[:, 1], gaps),
                "gap rows differ from the reference survivors")
        require(p["max_gap"] == int(gaps.max()), f"max_gap {p['max_gap']}")
        fitted = float((gaps / checks.envelope(surv[:-1], 0.5, 1.0)).max())
        require(math.isclose(p["fitted_c_eps"], fitted, rel_tol=1e-9),
                f"fitted_c_eps {p['fitted_c_eps']} != {fitted}")
        if anchor:  # criterion 7's frozen anchors
            require(p["max_gap"] == 7, f"anchor max_gap {p['max_gap']} != 7")
            require(math.isclose(p["fitted_c_eps"], 0.1231371748043651, rel_tol=1e-12),
                    f"anchor fitted_c_eps {p['fitted_c_eps']!r}")
    return check


# ---------------------------------------------------------------------------
# windows: long divisor sieves

def _windows(rng: random.Random, sizes: Sizes) -> list[Cmd]:
    cmds = []
    for x in (10**6, 10**9, 10**12):
        cmds.append(_sum_cmd(x, sizes.sum_h, 2, 3, LOG2))
    cmds.append(_table_cmd(rng, 10**9, sizes.table_h, ("k", 2), spots=24))
    for e in (4, 5, 6, 7):  # criterion 8's Shiu points
        x = 10**e
        cmds.append(_sum_cmd(x, math.ceil(x**0.4), 2, 2, LOG2))
    for _ in range(sizes.jensen):
        x, h = rng.randint(0, 10**9), rng.randint(1, 10**4)
        i, j = rng.choice(JENSEN_PAIRS)
        D = f"{rng.uniform(0.05, 1.5):.6f}"
        values = {}
        cmds.append(_table_cmd(rng, x, h, ("ij", i, j), spots=8, keep=values))
        cmds.append(_sum_cmd(x, h, i, j, D, jensen=values))
    cmds.append(Cmd(["divisor", "mertens", "--x", str(sizes.mertens_x)],
                    check_mertens(sizes.mertens_x)))
    return cmds


def _spec_args(spec) -> list[str]:
    return ["--k", str(spec[1])] if spec[0] == "k" else ["--i", str(spec[1]), "--j", str(spec[2])]


def _table_cmd(rng, x, h, spec, spots, keep=None) -> Cmd:
    picks = sorted(rng.sample(range(h), min(spots, h)))
    return Cmd(["divisor", "table", *_spec_args(spec), "--start", str(x), "--len", str(h)],
               check_table(x, h, spec, picks, keep))


def check_table(x, h, spec, picks, keep):
    def check(out):
        p = payload(out)
        rows = p["rows"]
        require(p["interval"] == {"x": x, "h": h} and len(rows) == h, "table window")
        require(all(r[0] == x + 1 + t for t, r in enumerate(rows)), "table rows not x+1..x+h")
        require(p["values"] == [r[1] for r in rows], "values differ from rows")
        for t in picks:
            want = checks.divisor_value(x + 1 + t, spec)
            require(rows[t][1] == want, f"{spec} at n={x + 1 + t}: {rows[t][1]} != {want}")
        if keep is not None:
            keep["values"] = p["values"]
    return check


def _sum_cmd(x, h, i, j, D, jensen=None) -> Cmd:
    return Cmd(["divisor", "sum", "--i", str(i), "--j", str(j), "--start", str(x),
                "--len", str(h), "--D", D], check_sum(x, h, i, j, float(D), jensen))


def check_sum(x, h, i, j, D, jensen):
    def check(out):
        p = payload(out)
        S = p["S"]
        require((p["x"], p["h"], p["i"], p["j"], p["D"]) == (x, h, i, j, D), "sum echo")
        require(0 < S <= h * math.exp(-D) * (1 + 1e-12), f"S={S} outside (0, h*exp(-D)]")
        if jensen is not None:  # against the companion table of the same window
            vals = jensen.get("values")
            require(vals is not None, "companion table missing")
            want = math.fsum(math.exp(-D * v) for v in vals)
            require(math.isclose(S, want, rel_tol=1e-12), f"S={S} != {want} from table")
            require(S >= h * math.exp(-D * sum(vals) / h) * (1 - 1e-9), "Jensen bound fails")
        elif h <= 1000:
            want = math.fsum(math.exp(-D * checks.d_ij(n, i, j)) for n in range(x + 1, x + h + 1))
            require(math.isclose(S, want, rel_tol=1e-12), f"S={S} != trial division {want}")
    return check


def check_mertens(x):
    def check(out):
        s = payload(out)["sum"]
        want = math.log(math.log(x)) + 0.2615
        require(abs(s - want) < 0.01, f"mertens sum {s} not within 0.01 of {want}")
    return check


# ---------------------------------------------------------------------------
# cli-sweep: many short commands

def _cli_sweep(rng: random.Random, work: Path, sizes: Sizes) -> list[Cmd]:
    cmds = []
    for n in sizes.overlap_band:
        cmds.append(_search_cmd(n, "overlapping"))
    for n in sizes.ladder:
        cmds.append(_search_cmd(n, "disjoint"))
    for pairing in ("overlapping", "disjoint"):
        cmds.append(Cmd(["syndetic", "export", "--n", "640", "--pairing", pairing],
                        check_export(640, pairing)))
    for kind in ("6gp", "5gp", "3gp-int"):
        for x in (10**5, 10**6):
            h = rng.randint(2, 8)
            defect = "survival-5gp-64bit" if kind == "5gp" and x >= 65536 else None
            cmds.append(Cmd(["process", "survival", "--kind", kind, "--x", str(x), "--h", str(h),
                             "--trials", str(sizes.survival_trials),
                             "--seed", str(rng.randrange(2**32))],
                            check_survival(kind, x, h, sizes.survival_trials), defect))
    for _ in range(sizes.gp_cmds):
        cmds.append(_decompose_cmd(rng))
    for _ in range(sizes.gp_cmds * 4 // 5):
        k = rng.randint(3, 5)
        pos, bound = rng.randint(1, k - 1), rng.randint(50, 300)
        cmds.append(Cmd(["gp", "enumerate", "--k", str(k), "--position", str(pos),
                         "--bound", str(bound)], check_enumerate(k, pos, bound)))
    for t in range(sizes.gp_cmds):
        cmds.append(_contains_cmd(rng, work / f"members-{t}.txt"))
    for t in range(sizes.small_tables):
        x = rng.randint(0, 10 ** (3 * (t % 4 + 1)))
        spec = ("k", rng.randint(1, 4)) if rng.random() < 0.5 else ("ij", *rng.choice(JENSEN_PAIRS))
        cmds.append(_table_cmd(rng, x, rng.randint(1, 1000), spec, spots=4))
    for _ in range(sizes.envelopes):
        eps = rng.choice((0.1, 0.25, 0.5))
        c_eps = round(rng.uniform(0.05, 2.0), 4)
        x0 = float(rng.randint(16, 1000))
        x1 = x0 * 10 ** rng.randint(1, 9)
        points = rng.randint(1, 40)
        cmds.append(Cmd(["bounds", "envelope", "--epsilon", str(eps), "--c-eps", str(c_eps),
                         "--from", repr(x0), "--to", repr(x1), "--points", str(points)],
                        check_envelope(eps, c_eps, x0, x1, points)))
    return cmds


def _search_cmd(n: int, pairing: str) -> Cmd:
    defect = "disjoint-recursion" if pairing == "disjoint" and n > DISJOINT_FREE_UPTO else None
    return Cmd(["syndetic", "search", "--n", str(n), "--pairing", pairing,
                "--workers", WORKERS], check_search(n, pairing), defect)


def expected_verdict(n: int, pairing: str) -> Optional[str]:
    if pairing == "overlapping":
        return "counterexample" if n < OVERLAP_THRESHOLD else "exhausted"
    return "counterexample" if n <= DISJOINT_FREE_UPTO else None


def check_search(n, pairing):
    def check(out):
        p = payload(out)
        require((p["N"], p["pairing"]) == (n, pairing), "search echo")
        want = expected_verdict(n, pairing)
        require(p["verdict"] in ("counterexample", "exhausted"), f"verdict {p['verdict']}")
        require(want is None or p["verdict"] == want, f"verdict {p['verdict']}, expected {want}")
        if p["verdict"] == "counterexample":
            why = checks.free_of_3gp(p["counterexample"], n, pairing)
            require(why is None, f"counterexample rejected: {why}")
    return check


def check_export(n, pairing):
    def check(out):
        lines = out.splitlines()
        triples = checks.gp3_triples(n)
        npairs = n // 2 if pairing == "disjoint" else n - 1
        require(lines[1] == f"p cnf {n} {npairs + len(triples)}", f"header {lines[1]!r}")
        clauses = [tuple(map(int, ln.split())) for ln in lines[2:]]
        step = 2 if pairing == "disjoint" else 1
        want_pairs = {(lo, lo + 1, 0) for lo in range(1, n, step)}
        want_triples = {(-x, -y, -z, 0) for x, y, z in triples}
        require(set(clauses) == want_pairs | want_triples and len(clauses) == len(set(clauses)),
                "clauses differ from pairs + 3-GP triples")
    return check


def check_survival(kind, x, h, trials):
    def check(out):
        p = payload(out)
        require((p["kind"], p["x"], p["h"], p["trials"]) == (kind, x, h, trials), "survival echo")
        require(0 <= p["empties"] <= trials and p["estimate"] == p["empties"] / trials,
                f"estimate {p['estimate']} from {p['empties']}/{trials}")
    return check


def _random_gp(rng, k):
    while True:
        c = rng.randint(2, 7)
        b = rng.randint(1, c - 1)
        if math.gcd(b, c) == 1:
            return k, rng.randint(1, 20), b, c


def _terms(k, a, b, c):
    return [a * b ** (k - 1 - i) * c**i for i in range(k)]


def _decompose_cmd(rng) -> Cmd:
    k, a, b, c = _random_gp(rng, rng.randint(3, 6))
    terms = _terms(k, a, b, c)
    want = {"k": k, "a": a, "b": b, "c": c, "terms": terms}

    def check(out):
        require(payload(out) == want, f"decompose gave {payload(out)}, want {want}")
    return Cmd(["gp", "decompose", "--terms", ",".join(map(str, terms))], check)


def check_enumerate(k, pos, bound):
    def check(out):
        p = payload(out)
        count = 0
        for c in range(2, bound + 1):
            if c**pos > bound:
                break
            for b in range(1, c):
                w = b ** (k - 1 - pos) * c**pos
                if w > bound:
                    break
                if math.gcd(b, c) == 1:
                    count += bound // w
        gps = p["gps"]
        require(p["truncated"] or len(gps) == count, f"{len(gps)} GPs, expected {count}")
        for g in gps:
            require(g["terms"] == _terms(k, g["a"], g["b"], g["c"]) and g["k"] == k
                    and math.gcd(g["b"], g["c"]) == 1 and g["b"] < g["c"]
                    and g["terms"][pos] <= bound, f"bad GP {g}")
        require(gps == sorted(gps, key=lambda g: g["terms"]), "GPs not term-sorted")
    return check


def _contains_cmd(rng, path: Path) -> Cmd:
    k = rng.choice((3, 4))
    integer = rng.random() < 0.5
    members = set(rng.sample(range(1, 3001), 60))
    if rng.random() < 0.5:  # plant a progression
        kk, a, b, c = _random_gp(rng, k)
        members.update(_terms(kk, a, 1 if integer else b, c))
    members = sorted(members)
    path.write_text(" ".join(map(str, rng.sample(members, len(members)))) + "\n")
    want = checks.gp_brute_force(members, k, integer)
    mode = "int" if integer else "rational"

    def check(out):
        w = payload(out)["witness"]
        require((w is not None) == want, f"witness {w}, brute force says {want}")
        if w is not None:
            require(w["k"] == k and checks.is_gp(w["terms"], integer)
                    and set(w["terms"]) <= set(members), f"bad witness {w}")
    return Cmd(["gp", "contains", "--k", str(k), "--mode", mode, "--input", str(path)], check)


def check_envelope(eps, c_eps, x0, x1, points):
    def check(out):
        p = payload(out)
        rows = p["rows"]
        require(math.isclose(p["C_2_3"], 5 / 6 * math.log(2), rel_tol=1e-15), "C_2_3")
        require(len(rows) == points and rows[0][0] == x0, "envelope grid")
        if points > 1:
            require(math.isclose(rows[-1][0], x1, rel_tol=1e-9), "grid end")
        xs = [r[0] for r in rows]
        want = checks.envelope(xs, eps, c_eps)
        for (x, v), w in zip(rows, want.tolist()):
            require(math.isclose(v, w, rel_tol=1e-12), f"envelope({x}) = {v} != {w}")
    return check


def failure(rc: int, out: str, err: str, cmd: Cmd) -> Optional[str]:
    """Why a finished command counts as failed, or None."""
    if rc != 0:
        return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    if "Traceback" in err:
        return "traceback on stderr"
    if cmd.check is not None:
        try:
            cmd.check(out)
        except CheckFailed as exc:
            return f"check: {exc}"
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"check: malformed output ({type(exc).__name__}: {exc})"
    return None


def expected_failure(cmd: Cmd, rc: int, err: str) -> bool:
    return cmd.known_defect is not None and KNOWN_DEFECTS[cmd.known_defect][1](rc, err)
