"""Tests for the command-line interface."""

import pytest

from repro.cli import ALGORITHMS, BUILDERS, MACHINES, main
from repro.workloads import kernel_source


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "kernel.s"
    path.write_text(kernel_source("daxpy"))
    return str(path)


def run_cli(argv):
    lines: list[str] = []
    status = main(argv, out=lines.append)
    return status, "\n".join(lines)


class TestScheduleCommand:
    def test_section6_default(self, asm_file):
        status, text = run_cli(["schedule", asm_file])
        assert status == 0
        assert "total:" in text
        assert "ldd" in text

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm(self, asm_file, algorithm):
        status, text = run_cli(["schedule", asm_file,
                                "--algorithm", algorithm])
        assert status == 0
        assert "block 0:" in text

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    def test_every_machine(self, asm_file, machine):
        status, _ = run_cli(["schedule", asm_file, "--machine", machine])
        assert status == 0

    def test_schedule_reports_improvement(self, asm_file):
        _, text = run_cli(["schedule", asm_file, "--machine", "sparc"])
        summary = [l for l in text.splitlines() if l.startswith("! total")]
        assert len(summary) == 1
        assert "->" in summary[0]

    def test_window_option(self, asm_file):
        status, text = run_cli(["schedule", asm_file, "--window", "4"])
        assert status == 0
        assert text.count("! block") >= 3  # daxpy split into chunks

    def test_emits_all_instructions(self, asm_file):
        _, text = run_cli(["schedule", asm_file])
        body = [l for l in text.splitlines() if l.startswith("\t")]
        from repro.asm import parse_asm
        assert len(body) == len(parse_asm(kernel_source("daxpy")))


class TestDagCommand:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_builder(self, asm_file, builder):
        status, text = run_cli(["dag", asm_file, "--builder", builder])
        assert status == 0
        assert "arcs" in text
        assert "RAW" in text

    def test_dag_lists_nodes(self, asm_file):
        _, text = run_cli(["dag", asm_file])
        assert "fmuld" in text

    def test_dag_dot_output(self, asm_file):
        status, text = run_cli(["dag", asm_file, "--dot"])
        assert status == 0
        assert text.startswith("digraph")
        assert "->" in text


class TestStatsCommand:
    def test_table3_row(self, asm_file):
        status, text = run_cli(["stats", asm_file])
        assert status == 0
        assert "insts/bb max" in text

    def test_stats_with_window(self, asm_file):
        _, unwindowed = run_cli(["stats", asm_file])
        _, windowed = run_cli(["stats", asm_file, "--window", "3"])
        assert unwindowed != windowed


class TestMinicCommand:
    @pytest.fixture
    def c_file(self, tmp_path):
        path = tmp_path / "kernel.c"
        path.write_text("double a, b, c; int i;\n"
                        "c = a * b + c / a;\n"
                        "i = (i + 1) % 5;\n")
        return str(path)

    def test_compile_only(self, c_file):
        status, text = run_cli(["minic", c_file])
        assert status == 0
        assert "fdivd" in text
        assert "sdiv" in text

    def test_compile_and_schedule(self, c_file):
        status, text = run_cli(["minic", c_file, "--schedule"])
        assert status == 0
        assert "-> " in text and "cycles" in text

    def test_machine_option(self, c_file):
        status, _ = run_cli(["minic", c_file, "--schedule",
                             "--machine", "sparc"])
        assert status == 0


class TestParser:
    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            run_cli(["bogus"])

    def test_unknown_algorithm_fails(self, asm_file):
        with pytest.raises(SystemExit):
            run_cli(["schedule", asm_file, "--algorithm", "nope"])

    @pytest.mark.parametrize("command", ["bench", "profile"])
    def test_removed_measurement_commands_are_unknown(self, command):
        with pytest.raises(SystemExit) as exc:
            run_cli([command])
        assert exc.value.code == 2

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            run_cli(["schedule", "/nonexistent/file.s"])


class TestVerifyCommand:
    def test_clean_file_passes(self, asm_file):
        status, text = run_cli(["verify", asm_file])
        assert status == 0
        assert "PASS" in text
        assert "FAIL" not in text
        assert "0 failed" in text

    def test_figure1_flags_landskov(self, tmp_path):
        path = tmp_path / "figure1.s"
        path.write_text(kernel_source("figure1"))
        status, text = run_cli(["verify", str(path)])
        assert status == 1
        assert "[landskov]: FAIL (timing)" in text
        assert "[n2]: PASS" in text

    def test_single_builder_option(self, asm_file):
        status, text = run_cli(["verify", asm_file,
                                "--builder", "table-forward"])
        assert status == 0
        assert "[table-forward]" in text
        assert "[landskov]" not in text

    def test_no_semantics_option(self, asm_file):
        status, _ = run_cli(["verify", asm_file, "--no-semantics"])
        assert status == 0


class TestErrorDiagnostics:
    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.s"
        path.write_text("bogusop %o0, %o1\n")
        status, text = run_cli(["schedule", str(path)])
        assert status == 2
        assert "repro: error:" in text

    def test_verify_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.s"
        path.write_text("add %o0\n")
        status, text = run_cli(["verify", str(path)])
        assert status == 2
        assert "repro: error:" in text


class TestExitStatuses:
    """Exit-status contract: 0 success, 1 check failure, 2 ReproError --
    across every subcommand."""

    @pytest.fixture
    def bad_file(self, tmp_path):
        path = tmp_path / "bad.s"
        path.write_text("add %o0, %o1, %o2\nbogusop %o9\n")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["schedule", "{f}"],
        ["dag", "{f}"],
        ["stats", "{f}"],
        ["verify", "{f}"],
    ])
    def test_success_is_0(self, asm_file, argv):
        status, _ = run_cli([a.format(f=asm_file) for a in argv])
        assert status == 0

    @pytest.mark.parametrize("argv", [
        ["schedule", "{f}"],
        ["dag", "{f}"],
        ["stats", "{f}"],
        ["verify", "{f}"],
    ])
    def test_parse_error_is_2(self, bad_file, argv):
        status, text = run_cli([a.format(f=bad_file) for a in argv])
        assert status == 2
        assert "repro: error:" in text

    def test_fuzz_clean_is_0(self, tmp_path):
        status, text = run_cli(["fuzz", "--seed", "0",
                                "--iterations", "4",
                                "--out", str(tmp_path / "fz")])
        assert status == 0
        assert "0 disagreements" in text

    def test_fuzz_disagreement_is_1(self, tmp_path):
        status, text = run_cli(["fuzz", "--seed", "0",
                                "--iterations", "2", "--inject-fault",
                                "--out", str(tmp_path / "fz")])
        assert status == 1
        assert "FAIL" in text
        assert "reproducer:" in text

    def test_verify_broken_builder_is_1(self, asm_file, monkeypatch):
        from repro import cli
        from repro.dag.builders import CompareAllBuilder

        class _Pruning(CompareAllBuilder):
            """Deliberately drops every arc: schedules built from it
            must fail independent verification."""

            name = "pruning"

            def _construct(self, dag, space, oracle, stats):
                pass

        monkeypatch.setitem(cli.BUILDERS, "n2", _Pruning)
        status, text = run_cli(["verify", asm_file, "--builder", "n2"])
        assert status == 1
        assert "FAIL" in text
        assert "failed" in text.splitlines()[-1]


class TestResilientScheduleFlags:
    def test_chain_option(self, asm_file):
        status, text = run_cli(["schedule", asm_file,
                                "--chain", "n2"])
        assert status == 0
        assert "total:" in text

    def test_unknown_chain_is_2(self, asm_file):
        status, text = run_cli(["schedule", asm_file,
                                "--chain", "bogus"])
        assert status == 2
        assert "unknown builder" in text

    def test_max_work_degrades_not_crashes(self, asm_file):
        status, text = run_cli(["schedule", asm_file,
                                "--max-work", "2"])
        assert status == 0
        assert "degraded to original order" in text
        assert "timeout failed" in text
        assert "total:" in text

    @pytest.mark.parametrize("flag,value", [
        ("--max-work", "0"), ("--max-work", "-5"),
        ("--block-timeout", "0"), ("--block-timeout", "-1")])
    def test_out_of_range_budget_is_2_before_any_work(
            self, asm_file, tmp_path, flag, value):
        journal = tmp_path / "run.jsonl"
        status, text = run_cli(["schedule", asm_file, flag, value,
                                "--journal", str(journal)])
        assert status == 2
        assert text.startswith(f"repro: error: {flag} must be greater "
                               f"than 0")
        assert "cycles" not in text
        assert not journal.exists()

    def test_verify_flag(self, asm_file):
        status, text = run_cli(["schedule", asm_file, "--verify"])
        assert status == 0
        assert "total:" in text

    def test_resume_without_journal_is_2(self, asm_file):
        status, text = run_cli(["schedule", asm_file, "--resume"])
        assert status == 2
        assert "--resume requires --journal" in text

    def test_resume_with_missing_journal_starts_fresh(self, asm_file,
                                                      tmp_path):
        journal = tmp_path / "run.jsonl"
        status, _ = run_cli(["schedule", asm_file, "--journal",
                             str(journal), "--resume"])
        assert status == 0
        assert journal.exists()

    def test_journal_fingerprint_mismatch_is_2(self, asm_file, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        status, _ = run_cli(["schedule", asm_file, "--journal", journal])
        assert status == 0
        status, text = run_cli(["schedule", asm_file, "--journal",
                                journal, "--resume",
                                "--machine", "sparc"])
        assert status == 2
        assert "different run" in text


class TestLenientFlag:
    @pytest.fixture
    def messy_file(self, tmp_path):
        path = tmp_path / "messy.s"
        path.write_text("add %o0, %o1, %o2\n"
                        "bogusop %o0\n"
                        "add %o2, 1, %o3\n")
        return str(path)

    def test_lenient_schedule_recovers(self, messy_file):
        status, text = run_cli(["schedule", messy_file, "--lenient"])
        assert status == 0
        assert "! skipped line 2:" in text
        assert "bogusop" in text  # the diagnostic quotes the line
        assert text.count("add") == 2

    def test_lenient_stats_and_dag(self, messy_file):
        for command in ("stats", "dag"):
            status, text = run_cli([command, messy_file, "--lenient"])
            assert status == 0
            assert "! skipped line 2:" in text
