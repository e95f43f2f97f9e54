import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpfree import DEFAULT_LIMITS, __version__, bounds, cli, divisor, gpcore, process
from test_process import full_run_empties


def _env_with_src():
    """Environment for a child interpreter that imports this checkout's gpfree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestEnvelopeShape:
    def test_fields_present(self, capsys):
        doc = run_json(capsys, "divisor", "mertens", "--x", "10")
        assert set(doc) == {"version", "command", "seed", "payload", "elapsed_ms"}
        assert doc["command"] == ["divisor", "mertens", "--x", "10"]

    def test_payload_byte_identical_across_calls(self, capsys):
        a = run_json(capsys, "process", "run", "--kind", "6gp", "--n", "500",
                     "--seed", "3", "--workers", "1")
        b = run_json(capsys, "process", "run", "--kind", "6gp", "--n", "500",
                     "--seed", "3", "--workers", "4")
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True)
        assert a["seed"] == 3


class TestStreamedRows:
    """_emit writes "rows" and "values" a chunk at a time; the text is the one-shot text."""

    @staticmethod
    def _one_shot_csv(columns, rows):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    @pytest.mark.parametrize("size", [0, 1, 7, 50])
    def test_emit_matches_one_shot(self, capsys, monkeypatch, chunk, size):
        monkeypatch.setattr(cli, "_ROWS_CHUNK", chunk)
        rows = [(i, 0.5 * i) for i in range(size)]
        payload = {"columns": ["i", "half"], "rows": rows, "values": [v for _, v in rows],
                   "zeta": "after"}
        args = SimpleNamespace(_argv=["x", "\0", "--in", "rows"], format="json")

        def columns():  # one-pass iterators, as `bounds envelope` hands over
            return (i for i, _ in rows), (v for _, v in rows)

        cli._emit(args, {**payload, "rows": columns()}, seed=3, elapsed_ms=1.25)
        envelope = {"version": __version__, "command": args._argv, "seed": 3,
                    "payload": payload, "elapsed_ms": 1.25}
        assert capsys.readouterr().out == json.dumps(envelope, sort_keys=True) + "\n"
        args.format = "csv"
        cli._emit(args, {**payload, "rows": columns()})
        assert capsys.readouterr().out == self._one_shot_csv(payload["columns"], rows)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    @pytest.mark.parametrize("size", [0, 1, 7, 50])
    def test_columns_match_one_shot(self, capsys, monkeypatch, chunk, size):
        monkeypatch.setattr(cli, "_ROWS_CHUNK", chunk)
        a, b = range(2**62, 2**62 + size), [-i * i for i in range(size)]
        rows = list(zip(a, b))
        payload = {"columns": ["n", "value"], "values": b}
        args = SimpleNamespace(_argv=["x"], format="json")
        cli._emit(args, {**payload, "rows": (a, b)})
        envelope = {"version": __version__, "command": ["x"], "seed": None,
                    "payload": {**payload, "rows": rows}, "elapsed_ms": 0.0}
        assert capsys.readouterr().out == json.dumps(envelope, sort_keys=True) + "\n"
        args.format = "csv"
        cli._emit(args, {**payload, "rows": (a, b)})
        assert capsys.readouterr().out == self._one_shot_csv(payload["columns"], rows)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    def test_gaps_match_one_shot(self, capsys, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(cli, "_ROWS_CHUNK", chunk)
        run = process.run(process.ProcessConfig(process.ProcessKind.SIX_GP, 2000, 1))
        (tmp_path / "run.json").write_text(process.run_to_json(run))
        t = [x for x in run.survivors() if x >= 16]
        rows = [(a, b - a) for a, b in zip(t, t[1:])]
        argv = ["process", "gaps", "--in", str(tmp_path / "run.json"), "--epsilon", "0.5"]
        code, out = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["payload"]["gap_count"] == len(rows) > 1000
        doc["payload"]["rows"] = rows
        assert out == json.dumps(doc, sort_keys=True) + "\n"
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and out == self._one_shot_csv(["t", "gap"], rows)

    def test_table_matches_one_shot(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_CHUNK", 7)
        argv = ["divisor", "table", "--k", "2", "--start", "100", "--len", "50"]
        code, out = run_cli(capsys, *argv)
        doc = json.loads(out)
        values = [divisor.d_k(n, 2) for n in range(101, 151)]
        rows = list(zip(range(101, 151), values))
        doc["payload"].update(rows=rows, values=values)
        assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and out == self._one_shot_csv(["n", "value"], rows)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_envelope_matches_one_shot(self, capsys, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_ROWS_CHUNK", chunk)
        argv = ["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "16",
                "--to", "1e15", "--points", "50"]
        code, out = run_cli(capsys, *argv)
        doc = json.loads(out)
        ratio = (1e15 / 16) ** (1 / 49)
        rows = [(x, bounds.gap_envelope(x, 0.1, 1.0)) for x in (16 * ratio**p for p in range(50))]
        doc["payload"]["rows"] = rows
        assert code == 0 and out == json.dumps(doc, sort_keys=True) + "\n"
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and out == self._one_shot_csv(["x", "value"], rows)


class TestGp:
    def test_decompose(self, capsys):
        doc = run_json(capsys, "gp", "decompose", "--terms", "32,48,72,108,162,243")
        assert (doc["payload"]["a"], doc["payload"]["b"], doc["payload"]["c"]) == (1, 2, 3)

    def test_decompose_bad_terms_exit_1(self, capsys):
        code, _ = run_cli(capsys, "gp", "decompose", "--terms", "1,2,5")
        assert code == 1

    def test_enumerate_empty(self, capsys):
        doc = run_json(capsys, "gp", "enumerate", "--k", "6", "--position", "0",
                       "--bound", "0")
        assert doc["payload"]["gps"] == []

    def test_contains_from_file(self, capsys, tmp_path):
        f = tmp_path / "three.txt"
        f.write_text("4 6 9\n")
        doc = run_json(capsys, "gp", "contains", "--k", "3", "--mode", "rational",
                       "--input", str(f))
        assert doc["payload"]["witness"]["terms"] == [4, 6, 9]


class TestDivisor:
    def test_sum_example(self, capsys):
        doc = run_json(capsys, "divisor", "sum", "--i", "2", "--j", "2",
                       "--start", "0", "--len", "4", "--D", "0.693147")
        assert doc["payload"]["S"] == pytest.approx(1.625, abs=1e-4)

    def test_table_single_value(self, capsys):
        doc = run_json(capsys, "divisor", "table", "--i", "3", "--j", "2",
                       "--start", "71", "--len", "1")
        assert doc["payload"]["rows"] == [[72, 6]]

    def test_table_csv(self, capsys):
        code, out = run_cli(capsys, "divisor", "table", "--i", "3", "--j", "2",
                            "--start", "71", "--len", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,value", "72,6"]

    def test_mertens_example(self, capsys):
        doc = run_json(capsys, "divisor", "mertens", "--x", "10")
        assert doc["payload"]["sum"] == pytest.approx(1.1762, abs=1e-4)

    def test_budget_exit_3(self, capsys):
        code, _ = run_cli(capsys, "divisor", "table", "--k", "2",
                          "--start", "0", "--len", "99999999999")
        assert code == 3

    def test_prime_base_budget_exit_3(self, capsys):
        # sqrt(2**63) is about 3.04e9, beyond the default prime-base budget of 1e8
        code = cli.main(["divisor", "table", "--k", "2",
                         "--start", "9223372036854000000", "--len", "10"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith("resource limit: ") and len(err.strip().splitlines()) == 1

    def test_window_at_1e15(self, capsys):
        doc = run_json(capsys, "divisor", "table", "--k", "2",
                       "--start", str(10**15 - 1), "--len", "3")
        assert doc["payload"]["rows"][0] == [10**15, 64]  # 2**15 * 5**15


class TestProcess:
    def test_run_verify_gaps_pipeline(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        doc = run_json(capsys, "process", "run", "--kind", "6gp", "--n", "2000",
                       "--seed", "1", "--out", str(out), "--workers", "1")
        assert doc["payload"]["written"] == str(out)
        doc = run_json(capsys, "process", "verify", "--in", str(out))
        assert doc["payload"]["free"] is True
        doc = run_json(capsys, "process", "gaps", "--in", str(out),
                       "--epsilon", "0.5")
        assert doc["payload"]["max_gap"] >= 1
        assert doc["payload"]["fitted_c_eps"] > 0

    def test_survival(self, capsys):
        doc = run_json(capsys, "process", "survival", "--kind", "3gp-int",
                       "--x", "100", "--h", "5", "--trials", "50", "--seed", "2")
        assert doc["payload"]["trials"] == 50

    def test_survival_5gp_beyond_64_bit_terms(self, capsys):
        # some 5-GPs through x = 1e5 have their largest term above 2**64
        doc = run_json(capsys, "process", "survival", "--kind", "5gp",
                       "--x", "100000", "--h", "2", "--trials", "10", "--seed", "1")
        p = doc["payload"]
        empties = full_run_empties(process.ProcessKind.FIVE_GP, 10**5, 2, 10, 1)
        assert p == {"kind": "5gp", "x": 10**5, "h": 2, "trials": 10,
                     "empties": empties, "estimate": empties / 10}

    def test_survival_wide_6gp_window_exit_0(self, capsys):
        # h*h >= x: the window holds a squarefree n, which no 6-GP event removes
        doc = run_json(capsys, "process", "survival", "--kind", "6gp",
                       "--x", "100", "--h", "50", "--trials", "10", "--seed", "2")
        empties = full_run_empties(process.ProcessKind.SIX_GP, 100, 50, 10, 2)
        assert doc["payload"]["empties"] == empties == 0


class TestSyndetic:
    def test_n4_counterexample(self, capsys):
        doc = run_json(capsys, "syndetic", "search", "--n", "4", "--workers", "1")
        assert doc["payload"]["verdict"] == "counterexample"

    def test_overlapping_640_exhausted(self, capsys):
        doc = run_json(capsys, "syndetic", "search", "--n", "640",
                       "--pairing", "overlapping", "--workers", "1")
        assert doc["payload"]["verdict"] == "exhausted"

    def test_export_dimacs(self, capsys):
        code, out = run_cli(capsys, "syndetic", "export", "--n", "10")
        assert code == 0
        clauses = [ln for ln in out.splitlines()
                   if ln and not ln.startswith(("c", "p"))]
        assert len(clauses) == 9

    def test_budget_option_gone_exit_2(self, capsys):
        # the node budget is set through --config alone (TestOptionTable)
        with pytest.raises(SystemExit) as exc:
            cli.main(["syndetic", "search", "--n", "640", "--budget", "5", "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err

    def test_time_budget_exit_3(self, capsys, tmp_path):
        f = tmp_path / "limits.conf"
        f.write_text("search_time_budget_s = -1.0\n")
        code, _ = run_cli(capsys, "syndetic", "search", "--n", "640",
                          "--pairing", "overlapping", "--config", str(f))
        assert code == 3

    def test_payload_byte_identical_across_workers(self, capsys):
        a, b = (run_json(capsys, "syndetic", "search", "--n", "640",
                         "--pairing", "overlapping", "--workers", w)
                for w in ("1", "2"))
        assert json.dumps(a["payload"], sort_keys=True) == json.dumps(
            b["payload"], sort_keys=True)


class TestBounds:
    def test_envelope_value(self, capsys):
        doc = run_json(capsys, "bounds", "envelope", "--epsilon", "0.1",
                       "--c-eps", "1", "--from", "1000000", "--to", "1000000",
                       "--points", "1")
        assert doc["payload"]["rows"][0][1] == pytest.approx(35.3, abs=0.2)
        assert doc["payload"]["C_2_3"] == pytest.approx(0.5776226, abs=1e-6)

    @pytest.mark.parametrize("bad", [["--epsilon", "nan", "--c-eps", "1"],
                                     ["--epsilon", "0.1", "--c-eps", "nan"]])
    def test_nan_parameter_exit_1(self, capsys, bad):
        code, out = run_cli(capsys, "bounds", "envelope", *bad, "--from", "16",
                            "--to", "1e6", "--points", "3")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("ends", [("16", "1e12"), ("1e12", "16")])
    def test_far_end_overflow_writes_nothing(self, capsys, ends):
        # only the rows near 1e12 overflow; the first rows must not be written
        code, out = run_cli(capsys, "bounds", "envelope", "--epsilon", "0.1",
                            "--c-eps", "1e306", "--from", ends[0], "--to", ends[1],
                            "--points", "1000")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_streamed(self, fmt):
        # holding every row and the whole text took about 17 MB at 100,000 points
        tracemalloc.start()
        try:
            with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
                code = cli.main(["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1",
                                 "--from", "16", "--to", "1e6", "--points", "100000",
                                 "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 10e6

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_budget_override(self, capsys, tmp_path):
        f = tmp_path / "limits.conf"
        f.write_text("# tiny budget\nprocess_max_n = 100\n")
        code, _ = run_cli(capsys, "process", "run", "--kind", "6gp", "--n", "500",
                          "--seed", "1", "--workers", "1", "--config", str(f))
        assert code == 3

    def test_unknown_key_exit_1(self, capsys, tmp_path):
        f = tmp_path / "limits.conf"
        f.write_text("bogus = 1\n")
        code, _ = run_cli(capsys, "divisor", "mertens", "--x", "10",
                          "--config", str(f))
        assert code == 1


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter holds at start-up, with this environment's site."""
    out = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                         env=_env_with_src(), capture_output=True, text=True, check=True).stdout
    return set(out.split())


class TestCleanExits:
    """Bad input ends in one stderr line and an exit code, never a traceback."""

    def _err_line(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err
        return err

    def test_bad_workers_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "abc")
        code = cli.main(["process", "run", "--kind", "6gp", "--n", "100", "--seed", "1"])
        assert code == 2
        assert cli.WORKERS_ENV in self._err_line(capsys)
        # subcommands without --workers never read it
        assert run_json(capsys, "divisor", "mertens", "--x", "10")["payload"]["x"] == 10

    def test_non_integer_config_value_exit_2(self, capsys, tmp_path):
        f = tmp_path / "limits.conf"
        for key, value, argv in [
            ("process_max_n", "lots", ["process", "run", "--kind", "6gp", "--n", "100",
                                       "--seed", "1"]),
            # NaN compares false with every elapsed time, so it would mean no budget
            ("search_time_budget_s", "nan", ["syndetic", "search", "--n", "640",
                                             "--pairing", "overlapping"]),
        ]:
            f.write_text(f"{key} = {value}\n")
            assert cli.main([*argv, "--config", str(f)]) == 2
            assert key in self._err_line(capsys)

    @pytest.mark.parametrize("sub", ["verify", "gaps"])
    def test_tampered_run_file_exit_1(self, capsys, tmp_path, sub):
        f = tmp_path / "run.json"
        code = cli.main(["process", "run", "--kind", "6gp", "--n", "10000", "--seed", "1",
                         "--out", str(f)])
        assert code == 0
        doc = json.loads(f.read_text())
        doc["removed"] = [5000, -3, 7, 7]
        doc["counts"].update(removed=4, survivors=10000 - 4, dropped_outside=-1)
        f.write_text(json.dumps(doc))
        capsys.readouterr()
        extra = ["--epsilon", "0.5"] if sub == "gaps" else []
        assert cli.main(["process", sub, "--in", str(f)] + extra) == 1
        self._err_line(capsys)

    @pytest.mark.parametrize("sub", ["verify", "gaps"])
    def test_boolean_removal_exit_1(self, capsys, tmp_path, sub):
        # JSON true is not the integer 1: [true, 5] increases only if it were
        f = tmp_path / "run.json"
        f.write_text(json.dumps({"config": {"kind": "6gp", "n": 100, "seed": 1},
                                 "removed": [True, 5],
                                 "counts": {"removed": 2, "survivors": 98, "dropped_outside": 0}}))
        extra = ["--epsilon", "0.5"] if sub == "gaps" else []
        assert cli.main(["process", sub, "--in", str(f)] + extra) == 1
        assert self._err_line(capsys).startswith("error: malformed run file")

    @pytest.mark.parametrize("argv", [
        ["process", "verify", "--in", "{missing}"],
        ["process", "gaps", "--in", "{missing}", "--epsilon", "0.5"],
        ["divisor", "mertens", "--x", "10", "--config", "{missing}"],
        ["gp", "contains", "--k", "3", "--input", "{missing}"],
    ], ids=["verify", "gaps", "config", "contains"])
    def test_missing_file_exit_1(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "absent")
        assert cli.main([a.format(missing=missing) for a in argv]) == 1
        assert missing in self._err_line(capsys)

    @pytest.mark.parametrize("argv, code", [
        (["gp", "decompose", "--terms", "1,x"], 2),
        (["gp", "contains", "--k", "3", "--input", "{tokens}"], 1),
        (["gp", "contains", "--k", "3", "--input", "{latin1}"], 1),
        (["process", "run", "--kind", "6gp", "--n", "100", "--seed", "1",
          "--out", "{absent}/run.json"], 1),
        (["gp", "enumerate", "--k", "3", "--position", "0", "--bound", "10",
          "--max-items", "0"], 2),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "16",
          "--to", "32", "--points", "0"], 2),
        (["process", "survival", "--kind", "6gp", "--x", "100", "--h", "5", "--trials", "5",
          "--seed", str(2**64)], 1),
        (["process", "survival", "--kind", "6gp", "--x", "100", "--h", "5", "--trials", "5",
          "--seed", "-1"], 1),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "-16",
          "--to", "16", "--points", "3"], 1),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "0",
          "--to", "16", "--points", "3"], 1),
        (["bounds", "envelope", "--epsilon", "300", "--c-eps", "1", "--from", "16",
          "--to", "100", "--points", "2"], 1),
        (["process", "gaps", "--in", "{run}", "--epsilon", "300"], 1),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1e308", "--from", "1e6",
          "--to", "1e6", "--points", "1"], 1),
        (["divisor", "sum", "--i", "2", "--j", "3", "--start", "0", "--len", "5", "--D", "nan"], 1),
        (["divisor", "sum", "--i", "2", "--j", "3", "--start", "0", "--len", "5", "--D", "inf"], 1),
        (["divisor", "table", "--k", "2", "--i", "2", "--j", "3", "--start", "1", "--len", "3"], 1),
        (["divisor", "table", "--k", "2", "--j", "3", "--start", "1", "--len", "3"], 1),
    ], ids=["terms-token", "input-token", "input-encoding", "out-dir", "max-items-0",
            "points-0", "survival-seed-too-big", "survival-seed-negative",
            "grid-negative-end", "grid-zero-end", "envelope-exp-overflow", "gaps-exp-overflow",
            "envelope-product-overflow", "sum-D-nan", "sum-D-inf", "table-k-and-ij",
            "table-k-and-j"])
    def test_bad_input_exits_cleanly(self, capsys, tmp_path, argv, code):
        (tmp_path / "tokens").write_text("1 x 4\n")
        (tmp_path / "latin1").write_bytes(b"1 \xe9 4\n")
        (tmp_path / "run").write_text(json.dumps({
            "config": {"kind": "6gp", "n": 100, "seed": 1}, "removed": [],
            "counts": {"removed": 0, "survivors": 100, "dropped_outside": 0}}))
        paths = {name: str(tmp_path / name) for name in ("tokens", "latin1", "run", "absent")}
        assert cli.main([a.format(**paths) for a in argv]) == code
        prefix = "usage error: " if code == 2 else "error: "
        assert self._err_line(capsys).startswith(prefix)

    @pytest.mark.parametrize("argv", [
        ["process", "verify", "--in", "{huge_run}"],
        ["process", "gaps", "--in", "{huge_run}", "--epsilon", "0.5"],
        ["process", "verify", "--in", "{run}", "--config", "{tiny}"],
        ["gp", "contains", "--k", "3", "--input", "{huge_members}"],
        ["gp", "contains", "--k", "3", "--input", "{members}", "--config", "{tiny}"],
        ["process", "survival", "--kind", "6gp", "--x", "9999999", "--h", "2", "--trials", "1",
         "--seed", "1"],
    ], ids=["verify", "gaps", "verify-config", "contains", "contains-config", "survival"])
    def test_input_above_budget_exit_3(self, capsys, tmp_path, monkeypatch, argv):
        paths = _fuzz_files(tmp_path)

        def must_not_run(*args, **kwargs):
            raise AssertionError("work started on an input above the budget")
        for name in ("verify_free", "gap_report", "_alive", "_removal_events"):
            monkeypatch.setattr(process, name, must_not_run)
        monkeypatch.setattr(gpcore, "_first_gp", must_not_run)  # contains_gp's search
        assert cli.main([a.format(**paths) for a in argv]) == 3
        assert self._err_line(capsys).startswith("resource limit: ")

    def test_trials_above_budget_exit_3(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a trial started above the trials budget")
        monkeypatch.setattr(process, "_removal_events", must_not_run)
        argv = ["process", "survival", "--kind", "5gp", "--x", "1000", "--h", "2", "--seed", "1"]
        top = str(DEFAULT_LIMITS.survival_max_trials + 1)
        assert cli.main(argv + ["--trials", top]) == 3
        assert self._err_line(capsys).startswith(f"resource limit: trials {top} exceeds budget")
        conf = tmp_path / "limits.conf"
        conf.write_text("survival_max_trials = 10\n")
        assert cli.main(argv + ["--trials", "11", "--config", str(conf)]) == 3
        self._err_line(capsys)
        monkeypatch.undo()
        doc = run_json(capsys, *argv, "--trials", "10", "--config", str(conf))
        assert doc["payload"]["trials"] == 10

    def test_unwritable_out_found_before_run(self, capsys, tmp_path, monkeypatch):
        from gpfree import process

        def must_not_run(*args, **kwargs):
            raise AssertionError("process.run called with an unwritable --out")
        monkeypatch.setattr(process, "run", must_not_run)
        out = tmp_path / "absent" / "run.json"
        code = cli.main(["process", "run", "--kind", "5gp", "--n", "3000000", "--seed", "1",
                         "--out", str(out)])
        assert code == 1
        assert self._err_line(capsys).startswith(f"error: cannot write {out}")

    def test_failed_run_leaves_no_out_file(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        code = cli.main(["process", "run", "--kind", "6gp", "--n", str(10**8), "--seed", "1",
                         "--out", str(out)])
        assert code == 3 and not out.exists()
        self._err_line(capsys)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_final_write_exits_1(self, capsys):
        # /dev/full opens before the run, then refuses the run file's text
        code = cli.main(["process", "run", "--kind", "6gp", "--n", "100", "--seed", "1",
                         "--out", "/dev/full"])
        assert code == 1
        assert self._err_line(capsys) == "error: cannot write /dev/full: No space left on device\n"

    @pytest.mark.parametrize("argv, loads_numpy", [
        (["gp", "decompose", "--terms", "2,6,18"], False),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "1e6",
          "--to", "1e6", "--points", "1"], False),
        (["syndetic", "search", "--n", "40", "--pairing", "overlapping"], False),
        (["divisor", "table", "--k", "2", "--start", "0", "--len", "10"], False),
        (["divisor", "sum", "--i", "2", "--j", "3", "--start", "0", "--len", "10", "--D", "0.5"],
         False),
        (["divisor", "mertens", "--x", "1000"], True),
        (["process", "survival", "--kind", "6gp", "--x", "100", "--h", "5", "--trials", "5",
          "--seed", "1"], False),
        (["process", "verify", "--in", "{run}"], False),
        (["process", "gaps", "--in", "{run}", "--epsilon", "0.5"], False),
        (["process", "run", "--kind", "6gp", "--n", "100", "--seed", "1"], True),
        (["gp", "enumerate", "--k", "3", "--position", "1", "--bound", "20"], False),
        (["gp", "contains", "--k", "3", "--input", "{members}"], False),
        (["syndetic", "export", "--n", "10"], False),
        (["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "16",
          "--to", "1e6", "--points", "3", "--format", "csv"], False),
        (["divisor", "table", "--k", "2", "--start", "0", "--len", "10", "--format", "csv"], False),
        (["process", "gaps", "--in", "{run}", "--epsilon", "0.5", "--format", "csv"], False),
    ], ids=["gp", "bounds", "syndetic", "divisor", "divisor-sum", "divisor-mertens",
            "process-survival", "process-verify", "process-gaps", "process-run",
            "gp-enumerate", "gp-contains", "syndetic-export", "bounds-csv", "divisor-csv",
            "process-gaps-csv"])
    def test_numpy_loaded_only_where_used(self, tmp_path, bare_modules, argv, loads_numpy):
        """Each command loads what it runs: modules counted beyond a bare interpreter's."""
        run = tmp_path / "run.json"
        run.write_text(process.run_to_json(process.run(process.ProcessConfig(
            process.ProcessKind.SIX_GP, 200, 1))))
        (tmp_path / "members.txt").write_text("4 6 9\n")
        probe = ("import sys; from gpfree import cli; code = cli.main(sys.argv[1:]); "
                 "print(code, *sorted(sys.modules))")
        argv = [a.format(run=run, members=tmp_path / "members.txt") for a in argv]
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=_env_with_src(),
                             capture_output=True, text=True, check=True).stdout
        code, *modules = out.splitlines()[-1].split()
        loaded = set(modules) - bare_modules
        assert code == "0"
        assert ("numpy" in loaded) == loads_numpy
        assert "dataclasses" not in loaded
        assert "csv" not in loaded, "no command loads csv"
        if argv[0] == "bounds":
            assert not loaded & {"gpfree.gpcore", "gpfree.syndetic", "gpfree.divisor",
                                 "gpfree.process", "fractions"}
        if argv[0] == "gp":
            assert "gpfree.syndetic" not in loaded

    def test_import_loads_no_pool_machinery(self):
        probe = ("import sys, gpfree.cli; "
                 "print([m for m in ('concurrent.futures', 'multiprocessing') "
                 "if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_broken_pipe_exit_1(self):
        env = _env_with_src()
        # several MB of output: the writer blocks on the full pipe until the
        # reader closes it after 10 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "gpfree.cli", "divisor", "table", "--k", "2",
             "--start", "0", "--len", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err


_HELP_TEXTS = json.loads(
    (pathlib.Path(__file__).with_name("cli_help_texts.json")).read_text())


class TestHelpTexts:
    """--help of the top level, each group and each leaf, and the usage errors of a
    missing or unknown group and an unknown leaf, pinned from the parser that built
    every leaf of every group."""

    @pytest.mark.parametrize("argv", sorted(_HELP_TEXTS))
    def test_text_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        try:
            code = cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert {"code": code, "stdout": out, "stderr": err} == _HELP_TEXTS[argv]


def _fuzz_files(root):
    """Input files for the CLI, good and bad, written under `root`."""
    def run_doc(n, removed):
        return json.dumps({"config": {"kind": "6gp", "n": n, "seed": 1}, "removed": removed,
                           "counts": {"removed": len(removed), "survivors": n - len(removed),
                                      "dropped_outside": 0}})
    texts = {
        "run": process.run_to_json(process.run(process.ProcessConfig(
            process.ProcessKind.SIX_GP, 200, 1))),
        "huge_run": run_doc(10**13, []),
        "bad_run": run_doc(100, [5, 3]),
        "members": "1 2 3 5 8 9 27 200\n",
        "huge_members": f"1 2 {10**20}\n",
        "tokens": "1 x 4\n",
        "config": "process_max_n = 5000\nsearch_node_budget = 50\n",
        "tiny": "process_max_n = 100\n",
        "bad_config": "process_max_n = lots\n",
        "nan_config": "search_time_budget_s = nan\n",
    }
    paths = {"missing": str(root / "absent"), "out": str(root / "out.json"),
             "out_dir": str(root / "absent" / "out.json")}
    for name, text in texts.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    return paths


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    return _fuzz_files(tmp_path_factory.mktemp("fuzz"))


def _mostly(good, bad):
    """`good` seven times in eight, so that most drawn commands get past parsing."""
    return st.integers(0, 7).flatmap(lambda i: good if i else bad)


def _ints(lo, hi, huge=True):
    """Small in-range integers mixed with zero, negative, NaN, non-numeric and huge ones."""
    bad = ["0", "-1", "-12", "nan", "x"] + [str(10**20)] * huge
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(bad))


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr),
                   st.sampled_from(["0", "-1", "-16", "nan", "inf", "-inf", "1e308", "x"]))


def _files(*names):
    return _mostly(st.sampled_from([f"{{{n}}}" for n in names]), st.just("{missing}"))


def _argv(words, *options):
    """`words` then each (flag, values) option; any option may be left out."""
    drawn = [_mostly(values.map(lambda v, f=flag: [f, v]), st.just([]))
             for flag, values in options]
    return st.tuples(*drawn).map(lambda parts: words + [t for p in parts for t in p])


_CONFIG = ("--config", _files("config", "tiny", "bad_config", "nan_config"))
_FORMAT = ("--format", st.sampled_from(["json", "csv", "xml"]))
_KIND = ("--kind", st.sampled_from(["6gp", "5gp", "3gp-int", "7gp"]))
_SEED = ("--seed", _ints(0, 2**64 - 1))
_PAIRING = ("--pairing", st.sampled_from(["disjoint", "overlapping", "none"]))
_WINDOW = [("--start", _ints(0, 10**6)), ("--len", _ints(1, 1000))]

# Every option of every command, as in cli._COMMANDS (TestOptionTable checks the
# flags).  Sizes are capped where the CLI has no budget yet (ROADMAP item 6):
# `syndetic --n`, `gp enumerate --bound` and `--max-items`, and `bounds envelope
# --points` take no huge values.
_FUZZED = {
    ("gp", "enumerate"): [("--k", _ints(1, 7)), ("--position", _ints(0, 6)),
                          ("--bound", _ints(1, 1000, huge=False)),
                          ("--max-items", _ints(1, 1000, huge=False))],
    ("gp", "decompose"): [("--terms", st.lists(_ints(1, 500), max_size=6).map(",".join))],
    ("gp", "contains"): [("--k", _ints(1, 7)),
                         ("--mode", st.sampled_from(["rational", "int", "real"])),
                         ("--input", _files("members", "huge_members", "tokens")), _CONFIG],
    ("divisor", "table"): [("--k", _ints(1, 5)), ("--i", _ints(1, 4)), ("--j", _ints(1, 4)),
                           *_WINDOW, _CONFIG, _FORMAT],
    ("divisor", "sum"): [("--i", _ints(1, 4)), ("--j", _ints(1, 4)), *_WINDOW,
                         ("--D", _floats(0, 2)), _CONFIG],
    ("divisor", "mertens"): [("--x", _ints(1, 10**5)), _CONFIG],
    ("process", "run"): [_KIND, ("--n", _ints(1, 2000)), _SEED,
                         ("--out", _files("out", "out_dir")), ("--workers", _ints(1, 4)),
                         _CONFIG],
    ("process", "gaps"): [("--in", _files("run", "huge_run", "bad_run", "members")),
                          ("--epsilon", _floats(0.01, 5)), _CONFIG, _FORMAT],
    ("process", "verify"): [("--in", _files("run", "huge_run", "bad_run", "members")),
                            _CONFIG],
    ("process", "survival"): [_KIND, ("--x", _ints(1, 10**4)), ("--h", _ints(1, 1000)),
                              ("--trials", _ints(1, 20)), _SEED, _CONFIG],
    ("syndetic", "search"): [("--n", _ints(1, 2000, huge=False)), _PAIRING,
                             ("--workers", _ints(1, 4)), _CONFIG],
    ("syndetic", "export"): [("--n", _ints(1, 2000, huge=False)), _PAIRING],
    ("bounds", "envelope"): [("--epsilon", _floats(0.01, 5)), ("--c-eps", _floats(0.01, 5)),
                             ("--from", _floats(16, 1e6)), ("--to", _floats(16, 1e6)),
                             ("--points", _ints(1, 50, huge=False)), _FORMAT],
}
_COMMANDS = st.one_of(*(_argv(list(cmd), *options) for cmd, options in _FUZZED.items()))


class TestCliFuzz:
    @given(argv=_COMMANDS)
    @example(argv=["process", "verify", "--in", "{huge_run}"])
    @example(argv=["process", "gaps", "--in", "{huge_run}", "--epsilon", "0.5"])
    @example(argv=["gp", "contains", "--k", "3", "--input", "{huge_members}"])
    @example(argv=["gp", "enumerate", "--k", str(10**20), "--position", "1", "--bound", "10"])
    @example(argv=["gp", "enumerate", "--k", str(10**20), "--position", str(10**20 - 1),
                   "--bound", "10"])
    @example(argv=["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "-16",
                   "--to", "16", "--points", "3"])
    @example(argv=["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1", "--from", "0",
                   "--to", "16", "--points", "3"])
    @example(argv=["bounds", "envelope", "--epsilon", "300", "--c-eps", "1", "--from", "16",
                   "--to", "100", "--points", "2"])
    @example(argv=["process", "gaps", "--in", "{run}", "--epsilon", "300"])
    @example(argv=["bounds", "envelope", "--epsilon", "0.1", "--c-eps", "1e308", "--from", "1e6",
                   "--to", "1e6", "--points", "1"])
    @example(argv=["process", "survival", "--kind", "5gp", "--x", "1000", "--h", "2",
                   "--trials", str(10**20), "--seed", "1"])
    @settings(max_examples=800, deadline=None)
    def test_exit_code_and_nothing_else(self, fuzz_files, argv):
        argv = [a.format(**fuzz_files) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        # JSON has no infinities or NaNs; json.dumps would write them as these words
        assert "Infinity" not in out.getvalue() and "NaN" not in out.getvalue(), argv


def _flags(options):
    return {flag for flag, _ in options}


class TestOptionTable:
    """Each command reads every option it takes: --config sets a budget that the
    command checks, and --format csv changes what it prints."""

    # the rest of an argv that exits 0, and a one-line budget file that makes it exit 3
    BUDGETED = {
        ("gp", "contains"): (["--k", "3", "--input", "{members}"], "process_max_n = 100"),
        ("divisor", "table"): (["--k", "2", "--start", "0", "--len", "10"], "sieve_max_len = 5"),
        ("divisor", "sum"): (["--i", "2", "--j", "3", "--start", "0", "--len", "10",
                              "--D", "0.5"], "sieve_max_len = 5"),
        ("divisor", "mertens"): (["--x", "1000"], "mertens_max_x = 100"),
        ("process", "run"): (["--kind", "6gp", "--n", "200", "--seed", "1"],
                             "process_max_n = 100"),
        ("process", "gaps"): (["--in", "{run}", "--epsilon", "0.5"], "process_max_n = 100"),
        ("process", "verify"): (["--in", "{run}"], "process_max_n = 100"),
        ("process", "survival"): (["--kind", "6gp", "--x", "100", "--h", "5", "--trials", "5",
                                   "--seed", "1"], "survival_max_trials = 4"),
        ("syndetic", "search"): (["--n", "640", "--pairing", "overlapping"],
                                 "search_node_budget = 5"),
    }
    # the rest of an argv whose payload has rows
    WITH_ROWS = {
        ("divisor", "table"): ["--k", "2", "--start", "0", "--len", "10"],
        ("process", "gaps"): ["--in", "{run}", "--epsilon", "0.5"],
        ("bounds", "envelope"): ["--epsilon", "0.1", "--c-eps", "1", "--from", "16",
                                 "--to", "1e6", "--points", "3"],
    }

    @staticmethod
    def _carrying(flag):
        return {(group, leaf) for group, leaf, _, options in cli._COMMANDS
                if flag in _flags(options)}

    def test_lists_match_the_table(self):
        assert set(self.BUDGETED) == self._carrying("--config")
        assert set(self.WITH_ROWS) == self._carrying("--format")

    def test_fuzz_draws_every_option(self):
        table = {(group, leaf): _flags(options) for group, leaf, _, options in cli._COMMANDS}
        assert {cmd: _flags(options) for cmd, options in _FUZZED.items()} == table

    @pytest.mark.parametrize("cmd", sorted(BUDGETED), ids=" ".join)
    def test_config_budget_is_read(self, capsys, tmp_path, cmd):
        paths = _fuzz_files(tmp_path)
        rest, line = self.BUDGETED[cmd]
        argv = [*cmd, *(a.format(**paths) for a in rest)]
        assert cli.main(argv) == 0
        (tmp_path / "budget.cfg").write_text(line + "\n")
        assert cli.main([*argv, "--config", str(tmp_path / "budget.cfg")]) == 3
        assert capsys.readouterr().err.startswith("resource limit: ")

    @pytest.mark.parametrize("cmd", sorted(WITH_ROWS), ids=" ".join)
    def test_csv_is_not_json(self, capsys, tmp_path, cmd):
        paths = _fuzz_files(tmp_path)
        argv = [*cmd, *(a.format(**paths) for a in self.WITH_ROWS[cmd])]
        code, out = run_cli(capsys, *argv)
        columns = json.loads(out)["payload"]["columns"]
        code_csv, out_csv = run_cli(capsys, *argv, "--format", "csv")
        assert code == code_csv == 0 and out_csv != out
        assert out_csv.splitlines()[0] == ",".join(columns)
