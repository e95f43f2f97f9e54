"""gpfree benchmark: closed-loop CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload survivors --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ./src.
One client issues the workload's commands one after another, each as a fresh
`gpfree` process (interpreter start counts).  With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics from an in-process replay (see layers.py).  Lines
above it give every metric with its unit and sample count, the environment,
and any failed command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from common import CLI, RESULTS, ROOT, SRC, WORK, Record, child_env, fmt_line

MIN_SETUP_SAMPLES = 9
# Summed wall time per subcommand, reported under these end-to-end names.
SUB_METRICS = {
    "process run": "process_run_s", "process verify": "process_verify_s",
    "process gaps": "process_gaps_s", "process survival": "process_survival_s",
    "divisor sum": "divisor_sum_s", "divisor table": "divisor_table_s",
    "divisor mertens": "divisor_mertens_s", "syndetic search": "syndetic_search_s",
    "syndetic export": "syndetic_export_s", "gp decompose": "gp_decompose_s",
    "gp enumerate": "gp_enumerate_s", "gp contains": "gp_contains_s",
    "bounds envelope": "bounds_envelope_s",
}


def environment() -> dict:
    import numpy
    sha = None  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = b"".join(p.read_bytes() for p in sorted((SRC / "gpfree").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": hashlib.sha256(src).hexdigest()[:16],
        "workers": 2,
        "GPFREE_WORKERS": os.environ.get("GPFREE_WORKERS"),
    }


def run_cli(cmd, env, setup=False) -> Record:
    """Run one command as a fresh process; wall time and its own max-RSS."""
    if cmd.before is not None:
        cmd.before()
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(CLI + cmd.argv, stdout=out, stderr=err, env=env, cwd=WORK)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Record(cmd, proc.returncode, out.read().decode(), err.read().decode(),
                      wall, usage.ru_maxrss, setup)


def tally(records) -> tuple[int, list[str], list[str]]:
    """(failed count, unexpected problems, expected known-defect failures)."""
    failed, problems, known = 0, [], []
    for r in records:
        why = workloads.failure(r.rc, r.out, r.err, r.cmd)
        if why is None:
            continue
        failed += 1
        line = f"{' '.join(r.cmd.argv)} -> {why}"
        (known if workloads.expected_failure(r.cmd, r.rc, r.err) else problems).append(line)
    return failed, problems, known


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def measure(cmds, seconds: float):
    """Closed loop over `cmds`, with set-up samples spread through the run."""
    env = child_env()
    records = [run_cli(workloads.setup_cmd(), env, setup=True)]  # warm-up, not a sample
    samples = []
    every = max(1, len(cmds) // (MIN_SETUP_SAMPLES - 1))
    t0 = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if i % every == 0:
            samples.append(run_cli(workloads.setup_cmd(), env, setup=True))
        records.append(run_cli(cmd, env))
    while len(samples) < MIN_SETUP_SAMPLES or time.perf_counter() - t0 < seconds:
        samples.append(run_cli(workloads.setup_cmd(), env, setup=True))
    return records + samples, samples


def end_to_end(records, samples) -> tuple[dict, dict]:
    """Gated metrics and per-subcommand sums, each name -> (value, unit, samples)."""
    cmds = [r for r in records if not r.setup]
    walls = [r.wall for r in cmds]
    n = len(walls)
    beyond = n - 1 - int(0.9 * (n - 1))
    metrics = {
        "wall_s": (sum(walls), "s", f"n=1 sequence of {n} commands"),
        "setup_s": (statistics.median(r.wall for r in samples), "s",
                    f"median of n={len(samples)} no-op commands"),
        "peak_rss_mb": (max(r.rss_kb for r in records) / 1024, "MB",
                        f"max over n={len(records)} command processes"),
        "cmd_p50_s": (percentile(walls, 0.5), "s", f"n={n} commands"),
        "cmd_p90_s": (percentile(walls, 0.9), "s",
                      f"n={n} commands, {beyond} beyond p90"
                      + ("" if beyond >= 10 else " (fewer than 10: read as a high sample)")),
    }
    subs = {}
    for r in cmds:
        subs.setdefault(r.cmd.sub, []).append(r.wall)
    extra = {SUB_METRICS[s]: (sum(w), "s", f"n={len(w)} commands") for s, w in sorted(subs.items())}
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    args = ap.parse_args(argv)

    if not (SRC / "gpfree" / "cli.py").is_file():
        print(f"error: no gpfree sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
        cmds = workloads.build(args.workload, args.seed, WORK, sizes)
        env = environment()
        print(f"env: {json.dumps(env, sort_keys=True)}")
        if args.trace:
            import layers
            warm = WORK / "warmup"
            warm.mkdir()
            warmup = workloads.build(args.workload, args.seed, warm, workloads.SMOKE)
            records, metrics, lines, split = layers.run(args.workload, args.seed, cmds, sizes,
                                                        warmup)
        else:
            split = None
            records, samples = measure(cmds, args.seconds)
            metrics, extra = end_to_end(records, samples)
            lines = [fmt_line(k, *v) for k, v in {**metrics, **extra}.items()]
        failed, problems, known = tally(records)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = len(records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands attempted, {failed} failed")
    print("\n".join(lines))
    print(fmt_line("error_rate", failed / attempted, "ratio",
                   f"{failed} failed / {attempted} attempted; {len(known)} known defects"))
    for line in known:
        print(f"  known defect: {line}")
    for line in problems:
        print(f"  FAILED: {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {**result, "env": env, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "report": lines, "known": known, "problems": problems,
              "layers": split,
              "commands": [[" ".join(r.cmd.argv).replace(str(WORK), "<work>"), r.rc, r.wall,
                            r.rss_kb, r.setup] for r in records]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
