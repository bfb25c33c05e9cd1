"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import EXPERIMENTS, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli(["list"])
        assert code == 0
        for key in EXPERIMENTS:
            assert key in text


class TestRun:
    def test_fig01(self):
        code, text = run_cli(
            ["run", "fig01", "--seed", "7", "--samples", "40", "--evals", "150", "--runs", "2"]
        )
        assert code == 0
        assert "Figure 1" in text
        assert "deco" in text

    def test_table2(self):
        code, text = run_cli(["run", "table2", "--samples", "40"])
        assert code == 0
        assert "gamma" in text and "normal" in text

    def test_speedup(self):
        code, text = run_cli(["run", "speedup", "--samples", "20", "--evals", "50"])
        assert code == 0
        assert "speedup" in text

    def test_unknown_experiment_rejected(self):
        code, text = run_cli(["run", "fig99"])
        assert code == 2
        assert "unknown experiment 'fig99'" in text
        assert text.count("\n") == 1  # one-line error, not a traceback dump


class TestSchedule:
    def test_montage_schedule(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--samples", "40", "--evals", "150"]
        )
        assert code == 0
        assert "feasible:        True" in text
        assert "instance mix" in text

    def test_numeric_deadline(self):
        code, text = run_cli(
            ["schedule", "--app", "ligo", "--tasks", "30", "--deadline", "100000",
             "--samples", "40", "--evals", "100"]
        )
        assert code == 0

    def test_infeasible_exit_code(self):
        code, text = run_cli(
            ["schedule", "--app", "ligo", "--tasks", "30", "--deadline", "1",
             "--samples", "30", "--evals", "60"]
        )
        assert code == 1
        assert "feasible:        False" in text

    def test_execute_flag(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1", "--execute",
             "--samples", "40", "--evals", "150"]
        )
        assert code == 0
        assert "measured (10 runs)" in text

    def test_workers_flag_matches_serial_plan(self):
        import warnings

        args = ["schedule", "--app", "montage", "--degrees", "1",
                "--samples", "40", "--evals", "150"]
        code_serial, serial = run_cli(args)
        with warnings.catch_warnings():
            # Advisory oversubscription warning on small CI hosts.
            warnings.simplefilter("ignore", RuntimeWarning)
            code, sharded = run_cli(args + ["--workers", "2"])
        assert code == code_serial == 0
        assert "workers:         2 beam shards" in sharded
        # Every decision line (cost, mix, probability) is byte-identical;
        # only the workers line and the wall-clock line may differ.
        decisions = [
            line for line in serial.splitlines()
            if line.split(":")[0].strip()
            in ("deadline", "feasible", "P(mk <= D)", "expected cost", "instance mix")
        ]
        for line in decisions:
            assert line in sharded


class TestScheduleValidation:
    def test_missing_dax_path(self):
        code, text = run_cli(["schedule", "--dax", "/no/such/file.xml"])
        assert code == 2
        assert "DAX file not found" in text

    def test_unparsable_dax(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("this is not a dax file")
        code, text = run_cli(["schedule", "--dax", str(bad)])
        assert code == 2
        assert "cannot parse DAX file" in text

    def test_dax_schedule_runs(self, tmp_path):
        from repro.workflow import generators, write_dax

        wf = generators.montage(degrees=1.0, seed=7)
        path = tmp_path / "montage.xml"
        write_dax(wf, path)
        code, text = run_cli(
            ["schedule", "--dax", str(path), "--deadline", "100000",
             "--samples", "40", "--evals", "100"]
        )
        assert code == 0
        assert "instance mix" in text

    def test_percentile_out_of_range(self):
        code, text = run_cli(["schedule", "--percentile", "150"])
        assert code == 2
        assert "(0, 100]" in text

    def test_bad_deadline_keyword(self):
        code, text = run_cli(["schedule", "--deadline", "soonish"])
        assert code == 2
        assert "tight|medium|loose" in text


class TestLint:
    def test_bundled_programs_clean(self):
        code, text = run_cli(["lint", "--bundled"])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_flags_bad_file(self, tmp_path):
        prog = tmp_path / "bad.wlog"
        prog.write_text(
            "goal minimize C in totalcst(C).\n"
            "var x(A, Con) forall item(A).\n"
            "totalcost(C) :- item(C).\n"
            "/* lint: assume item/1 */\n"
        )
        code, text = run_cli(["lint", str(prog)])
        assert code == 1
        assert "E201" in text and "totalcst/1" in text
        assert "did you mean totalcost" in text
        assert f"{prog}:1:20" in text
        assert "^" in text  # caret excerpt rendered

    def test_json_format(self, tmp_path):
        import json

        prog = tmp_path / "bad.wlog"
        prog.write_text("goal minimize C in missing(C).\nvar x(A, Con) forall vm(A).\n")
        code, text = run_cli(["lint", "--format", "json", str(prog)])
        assert code == 1
        findings = json.loads(text)
        assert any(f["check"] == "E201" and f["line"] == 1 for f in findings)

    def test_syntax_error_reported_as_diagnostic(self, tmp_path):
        prog = tmp_path / "syn.wlog"
        prog.write_text("f(a) g.\n")
        code, text = run_cli(["lint", str(prog)])
        assert code == 1
        assert "E101" in text and ":1:6" in text

    def test_strict_promotes_warnings(self, tmp_path):
        prog = tmp_path / "warn.wlog"
        prog.write_text(
            "goal minimize C in total(C).\n"
            "var x(A, Con) forall item(A).\n"
            "total(C) :- item(C), item(Unused).\n"
            "/* lint: assume item/1 */\n"
        )
        code, _ = run_cli(["lint", str(prog)])
        assert code == 0
        code, text = run_cli(["lint", "--strict", str(prog)])
        assert code == 1
        assert "W301" in text

    def test_assume_flag(self, tmp_path):
        prog = tmp_path / "driver.wlog"
        prog.write_text(
            "goal minimize C in total(C).\n"
            "var x(A, Con) forall item(A).\n"
            "total(C) :- item(C).\n"
        )
        code, text = run_cli(["lint", str(prog)])
        assert code == 1  # item/1 unknown
        code, text = run_cli(["lint", "--assume", "item/1", str(prog)])
        assert code == 0

    def test_missing_file(self):
        code, text = run_cli(["lint", "/no/such/prog.wlog"])
        assert code == 2
        assert "no such file" in text

    def test_bad_assume_spec(self):
        code, text = run_cli(["lint", "--assume", "notanindicator", "--bundled"])
        assert code == 2
        assert "PRED/ARITY" in text

    def test_no_targets(self):
        code, text = run_cli(["lint"])
        assert code == 2

    def test_example_files_clean(self):
        import pathlib

        examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
        examples = sorted(str(p) for p in examples_dir.glob("*.wlog"))
        assert len(examples) == 5
        code, text = run_cli(["lint", *examples])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text


class TestWorkersOption:
    def test_run_with_workers(self):
        code, text = run_cli(
            ["run", "fig01", "--seed", "7", "--samples", "40", "--evals", "150",
             "--runs", "2", "--workers", "2"]
        )
        assert code == 0
        assert "Figure 1" in text

    def test_schedule_execute_with_workers(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1", "--execute",
             "--samples", "40", "--evals", "150", "--workers", "2"]
        )
        assert code == 0
        assert "measured (10 runs)" in text

    def test_rejects_zero(self):
        code, text = run_cli(["run", "fig01", "--workers", "0"])
        assert code == 2
        assert "--workers must be a positive integer" in text
        assert text.count("\n") == 1  # one-line error, no traceback

    def test_rejects_negative(self):
        code, text = run_cli(["schedule", "--workers", "-3"])
        assert code == 2
        assert "--workers must be a positive integer" in text

    def test_rejects_non_integer(self):
        code, text = run_cli(["run", "fig01", "--workers", "2.5"])
        assert code == 2
        assert "--workers must be a positive integer" in text

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        code, text = run_cli(["run", "fig01", "--samples", "40", "--evals", "150"])
        assert code == 2
        assert "REPRO_WORKERS" in text
        assert text.count("\n") == 1

    def test_env_var_zero_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        code, text = run_cli(
            ["run", "fig01", "--seed", "7", "--samples", "40", "--evals", "150",
             "--runs", "2"]
        )
        assert code == 0

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")  # would fail if consulted
        code, _ = run_cli(
            ["run", "fig01", "--seed", "7", "--samples", "40", "--evals", "150",
             "--runs", "2", "--workers", "1"]
        )
        assert code == 0


class TestRemovedSurface:
    """The engine has one configuration: the switches and `repro bench` are gone."""

    @pytest.mark.parametrize(
        "switch",
        ["incremental", "analytic-screen", "dominance-mask", "arena", "adaptive-sharding"],
    )
    def test_schedule_rejects_removed_switch(self, switch, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["schedule", "--app", "montage", "--workers", "2", f"--no-{switch}"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["solver", "parallel", "service", "faults"])
    def test_bench_subcommand_is_gone(self, target, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["bench", target])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCalibrate:
    def test_calibrate(self):
        code, text = run_cli(["calibrate"])
        assert code == 0
        assert "m1.xlarge" in text


class TestFaultFlags:
    def test_schedule_with_faults(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--samples", "40", "--evals", "150",
             "--faults", "--failure-rate", "0.1"]
        )
        assert code == 0
        assert "fault model:" in text

    def test_schedule_faults_execute_reports_aborts(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--samples", "40", "--evals", "150",
             "--faults", "--failure-rate", "0.1", "--execute"]
        )
        assert code == 0
        assert "measured" in text

    def test_failure_rate_out_of_range(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--faults", "--failure-rate", "1.5"]
        )
        assert code == 2
        assert "--failure-rate must be in [0, 1)" in text
        assert text.count("\n") == 1  # one-line error, not a traceback dump

    def test_mtbf_must_be_positive(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--faults", "--mtbf", "-3"]
        )
        assert code == 2
        assert "--mtbf must be > 0" in text

    def test_on_abort_validated(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--faults", "--on-abort", "bogus"]
        )
        assert code == 2
        assert "--on-abort" in text


class TestBackendFlags:
    def test_schedule_analytic_backend(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--backend", "analytic", "--samples", "40", "--evals", "150"]
        )
        assert code == 0
        assert "backend:         analytic" in text

    def test_schedule_rejects_unknown_backend(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--backend", "bogus"]
        )
        assert code == 2
        assert "--backend must be one of" in text
        assert "analytic" in text  # the message names the valid choices
        assert text.count("\n") == 1  # one-line usage error, no traceback


class TestAnalyze:
    def test_infeasible_example_rejected(self):
        import pathlib

        example = pathlib.Path(__file__).parents[1] / "examples" / "infeasible_deadline.wlog"
        code, text = run_cli(["analyze", str(example)])
        assert code == 1
        assert "E401" in text and "deadline-unreachable" in text
        assert "1 error(s)" in text

    def test_clean_example_passes(self):
        import pathlib

        example = pathlib.Path(__file__).parents[1] / "examples" / "example1_scheduling.wlog"
        code, text = run_cli(["analyze", str(example)])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_bundled_programs_clean(self):
        code, text = run_cli(["analyze", "--bundled"])
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_sarif_output(self):
        import json
        import pathlib

        example = pathlib.Path(__file__).parents[1] / "examples" / "infeasible_deadline.wlog"
        code, text = run_cli(["analyze", "--format", "sarif", str(example)])
        assert code == 1
        log = json.loads(text)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-wlog"
        assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["E401"]

    def test_syntax_error_reported_without_crash(self, tmp_path):
        prog = tmp_path / "broken.wlog"
        prog.write_text("goal minimize C in totalcost(C")
        code, text = run_cli(["analyze", str(prog)])
        assert code == 1
        assert "E101" in text

    def test_missing_file(self):
        code, text = run_cli(["analyze", "/no/such/prog.wlog"])
        assert code == 2
        assert "no such file" in text


class TestLintSarifAndExplain:
    def test_lint_sarif_shares_emitter(self, tmp_path):
        import json

        prog = tmp_path / "bad.wlog"
        prog.write_text("goal minimize C in totalcst(C).\n")
        code, text = run_cli(["lint", "--format", "sarif", str(prog)])
        assert code == 1
        log = json.loads(text)
        assert log["version"] == "2.1.0"
        assert any(r["ruleId"] == "E201" for r in log["runs"][0]["results"])

    def test_lint_explain_prints_catalog(self):
        from repro.wlog.diagnostics import checks_markdown

        code, text = run_cli(["lint", "--explain"])
        assert code == 0
        assert text == checks_markdown()


class TestSolveDeadlineFlag:
    def test_rejects_nonpositive(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--solve-deadline", "0"]
        )
        assert code == 2
        assert "--solve-deadline must be > 0 seconds" in text

    def test_undersized_budget_reports_timeout(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--samples", "40", "--evals", "150",
             "--solve-deadline", "0.000001"]
        )
        assert code == 0  # best incumbent is still a usable, feasible plan
        assert "timed out:" in text
        assert "solve watchdog" in text

    def test_ample_budget_is_silent(self):
        code, text = run_cli(
            ["schedule", "--app", "montage", "--degrees", "1",
             "--samples", "40", "--evals", "150",
             "--solve-deadline", "1000000"]
        )
        assert code == 0
        assert "timed out:" not in text


class TestServeFlags:
    """Validation-only: a well-formed serve blocks on serve_forever."""

    def test_rejects_bad_depths(self):
        code, text = run_cli(["serve", "--degrade-depth", "0"])
        assert code == 2
        assert "degrade_depth must be an integer >= 1, got 0" in text

    def test_rejects_bad_hang_after(self):
        code, text = run_cli(["serve", "--hang-after", "0"])
        assert code == 2
        assert "hang_after_s must be a finite number > 0, got 0.0" in text

    def test_rejects_bad_max_attempts(self):
        code, text = run_cli(["serve", "--max-attempts", "0"])
        assert code == 2
        assert "max_attempts must be an integer >= 1, got 0" in text

    def test_rejects_no_samples_before_the_journal_opens(self, tmp_path, monkeypatch):
        import repro.service.http

        def started(*args, **kwargs):
            raise AssertionError("the service started")

        monkeypatch.setattr(repro.service.http, "ServiceServer", started)
        journal = tmp_path / "journal" / "jobs.jsonl"
        code, text = run_cli(["serve", "--samples", "0", "--journal", str(journal)])
        assert code == 2
        assert "num_samples must be >= 1, got 0" in text
        assert not journal.parent.exists()


class TestSubmitFlags:
    def test_rejects_unknown_backend(self):
        for backend in ("bogus", "cpu"):
            code, text = run_cli(
                ["submit", "--app", "montage", "--backend", backend]
            )
            assert code == 2
            assert f"--backend must be one of gpu|analytic, got {backend!r}" in text

    def test_rejects_nonpositive_solve_deadline(self):
        code, text = run_cli(
            ["submit", "--app", "montage", "--solve-deadline", "-1"]
        )
        assert code == 2
        assert "--solve-deadline must be > 0 seconds" in text

    def test_unreachable_service_exits_2(self):
        code, text = run_cli(
            ["submit", "--app", "montage", "--url", "http://127.0.0.1:9",
             "--timeout", "1"]
        )
        assert code == 2
        assert "cannot reach service" in text

    def test_missing_wlog_file(self):
        code, text = run_cli(
            ["submit", "--app", "montage", "--wlog", "/no/such/prog.wlog"]
        )
        assert code == 2
        assert "WLog program not found" in text
