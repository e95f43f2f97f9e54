"""Self-test of the benchmark harness, at smoke sizes (about a minute).

    python3 perfbench/selftest.py        # from the root of a source checkout

1. Each workload with --trace 0 and --trace 1: the result line carries exactly
   the BENCHMARK.json metrics with their units, the report prints every
   end-to-end metric of the workload with its unit and sample count, and the
   run is correct, with only known-defect failures.
2. A tampered run file and a wrong search verdict each raise `failed` and
   clear `correct` instead of passing silently.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / "_work_selftest"

# Per workload, the end-to-end names the report must print besides the
# BENCHMARK.json ones.
REPORTED = {
    "survivors": ["process_run_s", "process_verify_s", "process_gaps_s", "error_rate"],
    "windows": ["divisor_sum_s", "divisor_table_s", "divisor_mertens_s", "error_rate"],
    "cli-sweep": ["syndetic_search_s", "process_survival_s", "error_rate"],
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs() -> None:
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = bench(name, trace)
            assert p.returncode == 0, p.stderr
            lines = p.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], "\n".join(l for l in lines if "FAILED" in l)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace {trace}: {set(got) ^ set(want)}"
            report = {l.split()[0]: l for l in lines[:-1] if l.startswith("  ") and l.split()}
            for metric in (list(want) + REPORTED[name]) if trace == 0 else ["error_rate"]:
                unit = want.get(metric, "ratio" if metric == "error_rate" else "s")
                line = report.get(metric, "")
                assert f" {unit} " in line and ("n=" in line or "attempted" in line), \
                    f"{name}: no '{metric}' line with unit and sample count"
            print(f"ok  {name} trace {trace}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, each a known defect")


def check_detection() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import run
    import workloads
    from common import child_env

    work = run.WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cmds = workloads.build("survivors", 1, work, workloads.SMOKE)[:2]
        path = Path(cmds[0].argv[cmds[0].argv.index("--out") + 1])

        def tamper():  # drop one removal, keeping the counts consistent
            doc = json.loads(path.read_text())
            doc["removed"] = doc["removed"][1:]
            doc["counts"]["removed"] -= 1
            doc["counts"]["survivors"] += 1
            path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        cmds[1].before = tamper
        records, _ = run.measure(cmds, 0)
        failed, problems, _ = run.tally(records)
        assert failed == 1 and "sha256" in problems[0], problems
        print("ok  tampered run file counted as failed:", problems[0][-60:])

        cmd = next(c for c in workloads.build("cli-sweep", 1, work, workloads.SMOKE)
                   if c.argv[:4] == ["syndetic", "search", "--n", "638"])
        rec = run.run_cli(cmd, child_env())
        assert run.tally([rec])[0] == 0
        rec.out = rec.out.replace('"verdict": "counterexample"', '"verdict": "exhausted"')
        failed, problems, _ = run.tally([rec])
        assert failed == 1 and "verdict" in problems[0], problems
        print("ok  wrong verdict counted as failed:", problems[0][-60:])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
            "_work*", "results", "__pycache__"))
        p = bench("survivors", 0, cwd=bare)
        assert p.returncode != 0 and '"metrics"' not in p.stdout, p.stdout
        print(f"ok  without src/ the benchmark exits {p.returncode}: {p.stderr.strip()}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    check_bare_directory()
    check_detection()
    check_runs()
    print("selftest passed")
