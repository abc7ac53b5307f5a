"""Command-line interface tests: reports, exit statuses, byte-level replay."""

import dataclasses
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import chronobell as cb
from chronobell import chronology, cli, flash, lambdafile, localpolytope
from chronobell.errors import OracleDisagreementError, StreamExhaustedError

SQRT2 = math.sqrt(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra) -> dict:
    """This process's environment plus `extra`, with the package on PYTHONPATH."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


BAD_TOLERANCES = ["-1", "nan", "inf"]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any lambda word, oracle, trial or flash run is computed."""
    def work(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(cli, "_resolve_lambda", work)
    monkeypatch.setattr(lambdafile, "word_blocks", work)
    for name in ("quantum_behavior", "chsh_facet_check", "local_membership_lp"):
        monkeypatch.setattr(localpolytope, name, work)
    for name in ("distribution_covariance_check", "covariance_pass"):
        monkeypatch.setattr(chronology, name, work)
    for name in ("make_hit_kernel", "run_flash_process", "run_flash_processes", "flash_batches"):
        monkeypatch.setattr(flash, name, work)


class TestChsh:
    def test_default_report(self, capsys):
        code, report, _ = run_json(capsys, "chsh")
        assert code == 0
        results = report["results"]
        assert abs(results["chsh_magnitude"] - 2 * SQRT2) <= 1e-9
        assert results["local_bound"] == 2.0
        assert abs(results["tsirelson_bound"] - 2 * SQRT2) <= 1e-12
        assert results["lp_local"] is False and results["facet_local"] is False
        assert results["facet_certificate"]["max_facet_value"] > 2.0

    def test_fixed_form_convention_angles(self, capsys):
        # at a,a2,b,b2 = 0,90,45,-45 degrees the documented combination itself
        # reaches magnitude 2*sqrt(2)
        code, report, _ = run_json(capsys, "chsh", "--angles", "0,90,45,-45")
        assert code == 0
        assert abs(report["results"]["chsh_value"] + 2 * SQRT2) <= 1e-9

    def test_product_state_local(self, capsys):
        code, report, _ = run_json(capsys, "chsh", "--state", "product00")
        assert code == 0
        assert report["results"]["facet_local"] is True
        assert report["results"]["chsh_magnitude"] <= 2.0 + 1e-9

    def test_explicit_amplitudes(self, capsys):
        inv = 1.0 / SQRT2
        code, report, _ = run_json(capsys, "chsh", "--state", f"0,{inv},-{inv},0")
        assert code == 0
        assert abs(report["results"]["chsh_magnitude"] - 2 * SQRT2) <= 1e-6

    def test_direction_triples(self, capsys):
        code, report, _ = run_json(
            capsys, "chsh", "--angles", "0:0:1,1:0:0,1:0:1,-1:0:1"
        )
        assert code == 0
        assert abs(report["results"]["chsh_value"] + 2 * SQRT2) <= 1e-9

    def test_bad_angle_count(self, capsys):
        code, _, err = run_cli(capsys, "chsh", "--angles", "0,90,45")
        assert code == 2
        assert "4 settings" in err

    def test_bad_state(self, capsys):
        code, _, err = run_cli(capsys, "chsh", "--state", "bogus")
        assert code == 2

    def test_missing_flag_value_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["chsh", "--angles"])
        assert exc.value.code == 2

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", BAD_TOLERANCES + ["1", "2", "4.99", "5", "100"])
    def test_bad_tolerance_rejected_before_any_oracle(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "chsh", "--tol", tol)
        assert code == 2
        if tol in BAD_TOLERANCES:
            assert "--tol must be nonnegative and finite" in err
        else:
            assert "chsh --tol must be below 1" in err

    def test_tolerance_just_below_1_works(self, capsys):
        # 2*sqrt(2) lies within 2 + 0.99, so both oracles call the singlet local
        code, report, _ = run_json(capsys, "chsh", "--tol", "0.99")
        assert code == 0
        assert report["results"]["lp_local"] is report["results"]["facet_local"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("--state", "0,0.9772869898252907,-0.2119201253260814,0", "--angles", "0,90,45,135"),
            ("--tol", "1e-6", "--state", "0,0.9772869487069313,-0.21192031494666996,0"),
        ],
    )
    def test_states_just_inside_the_tolerance_are_local(self, capsys, argv):
        # |S| - 2 is tol / 2 here, so the LP residual, 5/2 of |S| - 2, exceeds tol
        code, report, _ = run_json(capsys, "chsh", *argv)
        assert code == 0
        results = report["results"]
        assert results["lp_local"] is results["facet_local"] is results["local"] is True
        assert "boundary" not in results

    def test_disagreement_within_rounding_of_tol_takes_the_facet_verdict(
        self, capsys, monkeypatch
    ):
        _, plain, _ = run_json(capsys, "chsh")
        real_lp = localpolytope.local_membership_lp

        def contrary_lp(behavior, tol):
            verdict = localpolytope.chsh_facet_check(behavior, tol).local
            return dataclasses.replace(real_lp(behavior, tol), local=not verdict)

        monkeypatch.setattr(localpolytope, "local_membership_lp", contrary_lp)
        on_facet = repr(plain["results"]["chsh_magnitude"] - 2.0)  # |S| - 2 == tol
        code, report, _ = run_json(capsys, "chsh", "--tol", on_facet)
        assert code == 0
        results = report["results"]
        assert results["boundary"] is True
        assert results["local"] is results["facet_local"] is True
        assert results["lp_local"] is False
        code, _, err = run_cli(capsys, "chsh")
        assert code == 4 and "inconsistency" in err

    def test_zero_tolerance_accepted(self, capsys):
        code, report, _ = run_json(capsys, "chsh", "--tol", "0")
        assert code == 0
        assert report["config"]["tol"] == 0.0

    def test_zero_tolerance_on_a_local_state(self, capsys):
        # rounding alone used to make the LP read this product state as nonlocal
        argv = ("--tol", "0", "--state", "product00", "--angles", "10,20,30,40")
        code, report, _ = run_json(capsys, "chsh", *argv)
        assert code == 0
        assert report["results"]["lp_local"] is report["results"]["facet_local"] is True

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "chsh", "--out", str(out))
        assert code == 0
        assert out.read_text() == stdout


class TestCovariance:
    def test_singlet_report(self, capsys):
        code, report, _ = run_json(
            capsys, "covariance", "--trials", "2000", "--seed", "7"
        )
        assert code == 0
        cov = report["results"]["covariance"]
        assert cov["distribution"]["pass"] is True
        assert cov["distribution"]["max_diff"] <= 1e-12
        assert cov["realization"]["max_divergence"] > 0.0

    def test_product_state_zero_divergence(self, capsys):
        code, report, _ = run_json(
            capsys, "covariance", "--state", "product00", "--trials", "500", "--seed", "7"
        )
        assert code == 0
        assert report["results"]["covariance"]["realization"]["max_divergence"] == 0.0

    def test_replay_identical_bytes(self, capsys):
        argv = ("covariance", "--trials", "1000", "--seed", "11", "--angles", "0,90/45,135")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_lambda_file_and_seed_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "lam.bin"
        cb.generate_lambda_file(seed=1, count=64).save(path)
        code, _, err = run_cli(
            capsys, "covariance", "--seed", "1", "--lambda-file", str(path), "--trials", "10"
        )
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "covariance", "--trials", "10")
        assert code == 2

    def test_undersized_lambda_file_exhausts(self, capsys, tmp_path):
        path = tmp_path / "small.bin"
        cb.generate_lambda_file(seed=1, count=64).save(path)
        code, _, err = run_cli(
            capsys, "covariance", "--trials", "1000", "--lambda-file", str(path)
        )
        assert code == 3

    def test_csv_written_next_to_report(self, capsys, tmp_path):
        out = tmp_path / "cov.json"
        code, _, _ = run_cli(
            capsys, "covariance", "--trials", "200", "--seed", "3", "--out", str(out)
        )
        assert code == 0
        csv_text = (tmp_path / "cov.json.csv").read_text()
        header, row = csv_text.splitlines()[:2]
        assert header.startswith("a_index,b_index,p_pp")
        assert row.startswith("0,0,")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_rejected_before_any_trial(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "covariance", "--seed", "1", "--tol", tol)
        assert code == 2
        assert "--tol must be nonnegative and finite" in err

    def test_chronology_flag(self, capsys):
        code, report, _ = run_json(
            capsys, "covariance", "--trials", "500", "--seed", "5", "--chronology", "ba"
        )
        assert code == 0
        assert report["config"]["chronology"] == "ba"


class TestNogo:
    def test_singlet_target_unreachable(self, capsys):
        code, report, _ = run_json(capsys, "nogo", "--alphabet-size", "3")
        assert code == 0
        search = report["results"]["search"]
        assert search["found"] is False
        assert search["max_chsh"] == 2.0
        target = report["results"]["target"]
        assert target["lp_local"] is False and target["facet_local"] is False

    def test_local_target_found(self, capsys):
        code, report, _ = run_json(
            capsys, "nogo", "--state", "product00", "--angles", "0,0,0,0",
            "--alphabet-size", "1", "--tol", "1e-9",
        )
        assert code == 0
        assert report["results"]["search"]["found"] is True
        assert report["results"]["target"]["lp_local"] is True

    @pytest.fixture
    def no_oracles(self, monkeypatch):
        """Fail the test if the target behavior or a locality oracle is computed."""
        def oracle(*args, **kwargs):
            raise AssertionError("an oracle ran")

        for name in ("quantum_behavior", "chsh_facet_check", "local_membership_lp"):
            monkeypatch.setattr(localpolytope, name, oracle)

    def test_oversized_alphabet(self, capsys, no_oracles):
        code, _, err = run_cli(capsys, "nogo", "--alphabet-size", "9")
        assert code == 2

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_alphabet_size_below_one_rejected_before_any_oracle(self, capsys, no_oracles, size):
        code, _, err = run_cli(capsys, "nogo", "--alphabet-size", size)
        assert code == 2
        assert "--alphabet-size must be in 1..8" in err

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_rejected_before_any_oracle(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "nogo", "--alphabet-size", "1", "--tol", tol)
        assert code == 2
        assert "--tol must be nonnegative and finite" in err

    def test_verdict_disagreement_exits_4(self, capsys, monkeypatch):
        """A forced wrong facet verdict must trip the internal-inconsistency path."""
        real_check = localpolytope.chsh_facet_check

        def lying_check(behavior, tol=1e-9):
            result = real_check(behavior, tol)
            return type(result)(
                not result.local, result.max_facet_value, result.best_signs, result.tolerance
            )

        monkeypatch.setattr(localpolytope, "chsh_facet_check", lying_check)
        code, _, err = run_cli(capsys, "nogo", "--alphabet-size", "1")
        assert code == 4
        assert "inconsistency" in err


class TestFlash:
    def test_summary_and_history(self, capsys, tmp_path):
        out = tmp_path / "history.txt"
        code, report, _ = run_json(
            capsys, "flash", "--runs", "200", "--seed", "2", "--out", str(out)
        )
        assert code == 0
        results = report["results"]
        assert results["ordering_invariance"]["pass"] is True
        assert results["hits"]["expected"] == 8.0
        mean = results["hits"]["mean"]
        assert abs(mean - 8.0) <= 3 * math.sqrt(8.0 / 200)
        lines = out.read_text().splitlines()
        assert len(lines) == results["hits"]["total"]
        run_idx, time, particle, site = lines[0].split("\t")
        assert run_idx == "0" and particle in ("0", "1")
        assert 0.0 < float(time) <= 4.0
        assert 0 <= int(site) < 16

    def test_history_replay_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "h1.txt", tmp_path / "h2.txt"
        argv = ("flash", "--runs", "150", "--seed", "9")
        _, stdout1, _ = run_cli(capsys, *argv, "--out", str(out1))
        _, stdout2, _ = run_cli(capsys, *argv, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        # reports differ only in the history path they mention
        assert stdout1.replace(str(out1), "X") == stdout2.replace(str(out2), "X")

    def test_rate_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "flash", "--rate", "0", "--seed", "1")
        assert code == 2

    def test_runs_validation(self, capsys):
        code, _, _ = run_cli(capsys, "flash", "--runs", "0", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_rejected(self, capsys, value):
        code, _, _ = run_cli(capsys, "flash", "--rate", value, "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_rejected_before_any_run(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "2", "--tol", tol)
        assert code == 2
        assert "--tol must be nonnegative and finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_rejected_before_any_kernel(self, capsys, no_work, value):
        code, _, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "2", "--sigma", value)
        assert code == 2
        assert "--sigma must be positive and finite" in err

    def test_failed_ordering_check_exits_1(self, capsys):
        code, report, _ = run_json(capsys, "flash", "--seed", "1", "--runs", "2", "--tol", "0")
        assert code == 1
        assert report["results"]["ordering_invariance"]["pass"] is False

    def test_high_rate_gets_a_large_enough_block(self, capsys):
        code, report, _ = run_json(
            capsys, "flash", "--seed", "1", "--runs", "10", "--rate", "100"
        )
        assert code == 0
        hits = report["results"]["hits"]
        assert hits["expected"] == 800.0
        assert abs(hits["mean"] - 800.0) <= 5 * math.sqrt(800.0 / 10)

    @pytest.fixture
    def no_runs(self, monkeypatch):
        """Fail the test if any flash run is simulated."""
        def simulate(*args, **kwargs):
            raise AssertionError("a run was simulated")

        monkeypatch.setattr(flash, "run_flash_process", simulate)
        monkeypatch.setattr(flash, "run_flash_processes", simulate)
        monkeypatch.setattr(flash, "flash_batches", simulate)

    def test_oversized_grid_rejected_before_any_run(self, capsys, no_runs):
        code, _, err = run_cli(capsys, "flash", "--sites", "40", "--seed", "1", "--runs", "5")
        assert code == 2
        assert "--sites" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflowing_sigma_rejected_before_any_run(
        self, capsys, tmp_path, monkeypatch, no_runs
    ):
        def words(*args, **kwargs):
            raise AssertionError("lambda words were read")

        monkeypatch.setattr(cli, "_resolve_lambda", words)
        out = tmp_path / "h.txt"
        out.write_bytes(b"a user's file\n")
        argv = ("flash", "--seed", "1", "--runs", "3", "--sigma", "1e-300", "--out", str(out))
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and "sum of squares == 1" in err
        assert out.read_bytes() == b"a user's file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["h.txt"]

    def test_undersized_lambda_file_rejected_before_any_run(self, capsys, tmp_path, no_runs):
        path = tmp_path / "small.bin"
        cb.generate_lambda_file(seed=1, count=256 * 4).save(path)
        code, _, err = run_cli(capsys, "flash", "--runs", "5", "--lambda-file", str(path))
        assert code == 3
        assert "1024 words" in err


class TestGenLambda:
    def test_roundtrip_through_commands(self, capsys, tmp_path):
        path = tmp_path / "lam.bin"
        code, report, _ = run_json(
            capsys, "gen-lambda", "--seed", "21", "--count", str(64 * 2000), "--out", str(path)
        )
        assert code == 0
        loaded = cb.LambdaFile.load(path)
        assert loaded.count == 64 * 2000
        assert loaded.seed_note == 21

        code, from_file, _ = run_json(
            capsys, "covariance", "--trials", "2000", "--lambda-file", str(path)
        )
        assert code == 0
        code, from_seed, _ = run_json(
            capsys, "covariance", "--trials", "2000", "--seed", "21"
        )
        assert code == 0
        assert from_file["results"]["covariance"] == from_seed["results"]["covariance"]

    def test_count_required_positive(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "gen-lambda", "--seed", "1", "--count", "0",
            "--out", str(tmp_path / "x.bin"),
        )
        assert code == 2


# one cheap run of each subcommand, to which the tests add --out; gen-lambda writes 2 chunks
OUT_ARGVS = {
    "gen-lambda": ("gen-lambda", "--seed", "1", "--count", str(lambdafile.CHUNK_WORDS + 1000)),
    "chsh": ("chsh",),
    "nogo": ("nogo", "--alphabet-size", "2"),
    "covariance": ("covariance", "--seed", "1", "--trials", "10"),
    "flash": ("flash", "--seed", "3", "--runs", "40"),
}


def fail_after_one_chunk(monkeypatch):
    """The lambda chunk source raises after its first chunk, and the LP oracle raises."""
    word_blocks = lambdafile.word_blocks

    def failing_word_blocks(*args, **kwargs):
        words, chunks = word_blocks(*args, **kwargs)

        def first_chunk_then_fail():
            yield next(chunks)
            raise StreamExhaustedError("the chunk source failed")

        return words, first_chunk_then_fail()

    def failing_oracle(*args, **kwargs):
        raise OracleDisagreementError("the membership LP failed")

    monkeypatch.setattr(lambdafile, "word_blocks", failing_word_blocks)
    monkeypatch.setattr(localpolytope, "local_membership_lp", failing_oracle)


def overrun_mid_batch(monkeypatch):
    """31 words hold 10 hits: flash run 13 overruns, in the fourth chunk of 4 runs."""
    monkeypatch.setattr(flash, "flash_block", lambda mean_hits: 31)
    monkeypatch.setattr(lambdafile, "CHUNK_WORDS", 4 * 31)
    monkeypatch.setattr(lambdafile, "CHUNK_ROWS", 4)


# (subcommand, how its run fails part-way, exit code, stderr)
FAILING_RUNS = {
    "gen-lambda": ("gen-lambda", fail_after_one_chunk, 3, "the chunk source failed"),
    "chsh": ("chsh", fail_after_one_chunk, 4, "the membership LP failed"),
    "nogo": ("nogo", fail_after_one_chunk, 4, "the membership LP failed"),
    "covariance": ("covariance", fail_after_one_chunk, 3, "the chunk source failed"),
    "flash": ("flash", fail_after_one_chunk, 3, "the chunk source failed"),
    "flash-overrun": ("flash", overrun_mid_batch, 3, "stream 'root[13]' exhausted after 31 words"),
}


def tree(root: Path) -> dict:
    """Each entry under `root`: a file's mode and bytes, a link's target, or a directory."""
    def entry(path: Path):
        if path.is_symlink():
            return "->", os.readlink(path)
        if path.is_dir():
            return "dir", None
        return stat.S_IMODE(path.stat().st_mode), path.read_bytes()

    return {str(p.relative_to(root)): entry(p) for p in sorted(root.rglob("*"))}


class TestOut:
    """Every subcommand stages its --out (and the covariance .csv) before any work."""

    @pytest.mark.parametrize("case", FAILING_RUNS)
    def test_failed_run_leaves_no_file(self, capsys, tmp_path, monkeypatch, case):
        command, fail, exit_code, message = FAILING_RUNS[case]
        fail(monkeypatch)
        code, stdout, err = run_cli(capsys, *OUT_ARGVS[command], "--out", str(tmp_path / "out"))
        assert code == exit_code
        assert stdout == "" and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", FAILING_RUNS)
    def test_out_spares_other_files(self, capsys, tmp_path, monkeypatch, case):
        command, fail, exit_code, _ = FAILING_RUNS[case]
        out = tmp_path / "out"
        (tmp_path / "link").symlink_to("out")
        (tmp_path / "out.part").write_text("kept")
        (tmp_path / "plain").write_text("")  # the mode a plain open gives
        argv = (*OUT_ARGVS[command], "--out", str(tmp_path / "link"))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
        # a failed run keeps every file, and the link, as they were
        out.chmod(0o640)
        before = tree(tmp_path)
        with monkeypatch.context() as patch:
            fail(patch)
            code, stdout, _ = run_cli(capsys, *argv)
        assert code == exit_code and stdout == ""
        assert tree(tmp_path) == before
        # a run that succeeds replaces the link's target and keeps its mode
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "command, bad",
        [(command, bad) for command in OUT_ARGVS for bad in ("missing directory", "directory")]
        + [("covariance", "csv directory")],
    )
    def test_bad_out_rejected_before_any_work(self, capsys, tmp_path, no_work, command, bad):
        out = tmp_path / "out"
        if bad == "missing directory":
            out = tmp_path / "missing" / "out"
        elif bad == "directory":
            out.mkdir()
        else:
            out.write_text("a user's report")
            (tmp_path / "out.csv").mkdir()
        before = tree(tmp_path)
        code, stdout, _ = run_cli(capsys, *OUT_ARGVS[command], "--out", str(out))
        assert code == 2 and stdout == ""
        assert tree(tmp_path) == before

    def test_fifo_out_rejected_before_any_work(self, tmp_path):
        """A FIFO is refused, not replaced; a plain open of it would block for a reader."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        argvs = [[*argv, "--out", str(fifo)] for argv in OUT_ARGVS.values()]
        child = subprocess.run(
            [sys.executable, "-c", _REPLAY_CHILD], input=json.dumps(argvs), env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [[2, sha256(b"")]] * len(argvs)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)


# sha256 of reports and files written before lambda gathering became index
# arithmetic; a mismatch is a replay break, not a refactoring detail. The chsh,
# nogo and covariance digests were re-recorded once, when the exact Born
# probabilities moved from BLAS to fixed-order float arithmetic (every value
# moved by at most 1.2e-16)
GOLDEN_STDOUT = {
    ("covariance", "--seed", "3", "--trials", "200", "--angles", "0,90/45,135"):
        "eda27d2e5f8a78715b232bd778a7806819553f691f61a3a1b818a952bddac388",
    ("flash", "--seed", "1", "--runs", "20"):
        "22fee53589c02f7e67d203b9c136040e23af12ebacc44fcd33afab13684b5426",
    ("chsh",): "022c30ca56498800ef3d7c623bdbc1595098e6206eb02c35a87627cce99eae5c",
    ("nogo", "--alphabet-size", "2"):
        "92e6bda37d885e5ee07c4b148b0dda785d8b14f78b484e8b0a05ea142a065927",
    # recorded while the search still enumerated every (4**L)^2 table pair
    ("nogo", "--alphabet-size", "5"):
        "6236a0411c8df7138805ad990bcf4d360e4926c5de9722bce63aba50421d6b4d",
}
GOLDEN_FLASH_HISTORY = "4b1486defd6f5f27cd34e7d2e21c391fa8724a4ddcc8939a138c154fab976858"
# recorded while every flash run was still simulated one at a time
GOLDEN_STDOUT[("flash", "--seed", "1", "--runs", "2", "--rate", "100")] = (
    "27d75b65a983a8d142b28c116dd439766defb0c156c71888a9b518b5303f5f18"
)
GRID32_FLASH_ARGV = ("flash", "--seed", "1", "--sites", "32", "--rate", "2", "--runs", "50")
GOLDEN_GRID32_HISTORY = "81e83044ca6c68d139e70d329baf9f0711e8482f6300a70317d02a623cd045d4"
# stdout with the --out path replaced by "<out>"
GOLDEN_GRID32_STDOUT = "ea4b58334dc8bb169408157c717552e73c00b24ed4d3a44a495c9a7fc0fe615c"
GOLDEN_LAMBDA_FILE = "35f4e8bc53035751f2513e970b7c3c97701828482c518f45cbcd4323f2d7e1fc"
# recorded while covariance, flash and gen-lambda still held every word of the run
# in memory; the sizes are not multiples of any power-of-two chunk
GOLDEN_STDOUT[("covariance", "--seed", "17", "--trials", "777", "--angles", "0,90/45,135")] = (
    "5752fec730c91fa7294805408a1c0c751dffe89a2ed2d243a3d2a1c4e9e2e031"
)
# `covariance --trials 777 --angles 0,90/45,135 --chronology ba --lambda-file lam.bin`
# on a 199912-word file (seed 4), 1000 words more than the run reads
GOLDEN_OVERSIZED_FILE_STDOUT = "f5aadb9ef6a7ab871594088ef1762681a6877bfc36359ea0e543143082625b49"
GOLDEN_LONG_LAMBDA_FILE = "98c6043e884fd9f683389c9d6611bfcd9539990f1c382aefa416b1c3893c5ea0"
# recorded while flash still held every run's words and flashes in memory; 1300
# runs span three chunks of runs (stdout with the --out path replaced by "<out>")
GOLDEN_MULTI_CHUNK_FLASH_ARGV = ("flash", "--seed", "1", "--runs", "1300")
GOLDEN_MULTI_CHUNK_HISTORY = "92d6befc73c97f1e47e76273857289778c835afdc99eefce01c56f45ce11c090"
GOLDEN_MULTI_CHUNK_STDOUT = "53cba54951bb912efd26da1f6adaac598c5be1aba86902efaab66f31cfbb06cc"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
    def test_stdout(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert sha256(out.encode()) == GOLDEN_STDOUT[argv]

    def test_flash_history(self, capsys, tmp_path):
        out = tmp_path / "history.txt"
        code, report, _ = run_json(capsys, "flash", "--seed", "1", "--runs", "20", "--out", str(out))
        assert code == 0
        assert sha256(out.read_bytes()) == GOLDEN_FLASH_HISTORY
        assert report["results"]["history_sha256"] == GOLDEN_FLASH_HISTORY

    def test_grid32_flash_history_and_stdout(self, capsys, tmp_path):
        out = tmp_path / "history32.txt"
        code, stdout, _ = run_cli(capsys, *GRID32_FLASH_ARGV, "--out", str(out))
        assert code == 0
        assert sha256(out.read_bytes()) == GOLDEN_GRID32_HISTORY
        assert sha256(stdout.replace(str(out), "<out>").encode()) == GOLDEN_GRID32_STDOUT

    def test_multi_chunk_flash_history_and_stdout(self, capsys, tmp_path):
        out = tmp_path / "history.txt"
        code, stdout, _ = run_cli(capsys, *GOLDEN_MULTI_CHUNK_FLASH_ARGV, "--out", str(out))
        assert code == 0
        assert sha256(out.read_bytes()) == GOLDEN_MULTI_CHUNK_HISTORY
        assert sha256(stdout.replace(str(out), "<out>").encode()) == GOLDEN_MULTI_CHUNK_STDOUT

    def test_gen_lambda_writes_and_hashes_the_same_bytes(self, capsys, tmp_path):
        out = tmp_path / "lam.bin"
        code, report, _ = run_json(
            capsys, "gen-lambda", "--seed", "5", "--count", "1000", "--out", str(out)
        )
        assert code == 0
        assert sha256(out.read_bytes()) == GOLDEN_LAMBDA_FILE
        assert report["results"] == {"path": str(out), "sha256": GOLDEN_LAMBDA_FILE}

    def test_long_gen_lambda_file(self, capsys, tmp_path):
        out = tmp_path / "long.bin"
        code, report, _ = run_json(
            capsys, "gen-lambda", "--seed", "23", "--count", "100003", "--out", str(out)
        )
        assert code == 0
        assert sha256(out.read_bytes()) == GOLDEN_LONG_LAMBDA_FILE
        assert report["results"] == {"path": str(out), "sha256": GOLDEN_LONG_LAMBDA_FILE}

    def test_covariance_from_an_oversized_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the report names the file as given
        cb.generate_lambda_file(seed=4, count=4 * 777 * 64 + 1000).save("lam.bin")
        code, out, _ = run_cli(
            capsys, "covariance", "--trials", "777", "--angles", "0,90/45,135",
            "--chronology", "ba", "--lambda-file", "lam.bin",
        )
        assert code == 0
        assert sha256(out.encode()) == GOLDEN_OVERSIZED_FILE_STDOUT

    def test_covariance_from_file_matches_seed(self, capsys, tmp_path):
        path = tmp_path / "lam.bin"
        argv = ("covariance", "--trials", "200", "--angles", "0,90/45,135", "--chronology", "ba")
        cb.generate_lambda_file(seed=3, count=4 * 200 * 64).save(path)
        _, from_file, _ = run_json(capsys, *argv, "--lambda-file", str(path))
        _, from_seed, _ = run_json(capsys, *argv, "--seed", "3")
        assert from_file["results"] == from_seed["results"]


# Reports the goldens cannot stand for. Complex amplitudes and a y component: in a
# real-valued product a fused multiply-add changes nothing, since its terms with a
# zero part are exact. Width 5: numpy's AVX-512 exp rounds its kernel differently.
EXTRA_REPLAY_ARGVS = [
    ("chsh", "--state", "0.5,0.5j,-0.5,0.5j", "--angles", "0,0.3:0.4:0.866,45,135"),
    ("covariance", "--state", "0.6,0.1+0.3j,-0.3j,0.6+0.3j", "--seed", "5", "--trials", "300",
     "--angles", "0,90/45,1:2:3"),
    ("flash", "--seed", "1", "--runs", "20", "--sigma", "5"),
]

# runs each argv of the JSON list on stdin through cli.main; prints [exit code, sha256] pairs
_REPLAY_CHILD = """
import contextlib, hashlib, io, json, sys
from chronobell import cli
digests = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    digests.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps(digests))
"""

# the CPU features an OpenBLAS core type's kernels need
_CORE_TYPE_FEATURES = {
    "Prescott": ("SSE3",),
    "Haswell": ("AVX2", "FMA3"),
    "SkylakeX": ("AVX512_SKX",),
    "Zen": ("AVX2", "FMA3"),
}


def _replay_environments() -> dict:
    """Each OpenBLAS core type this CPU can run, and numpy with every SIMD dispatch target off."""
    envs = {
        f"OPENBLAS_CORETYPE={core}": {"OPENBLAS_CORETYPE": core}
        for core, needs in _CORE_TYPE_FEATURES.items()
        if all(__cpu_features__.get(feature) for feature in needs)
    }
    targets = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    if targets:
        envs[f"NPY_DISABLE_CPU_FEATURES={targets}"] = {"NPY_DISABLE_CPU_FEATURES": targets}
    return envs


class TestCrossCpuReplay:
    def test_reports_are_identical_under_every_kernel(self, capsys):
        """The same bytes under every BLAS kernel and SIMD level: BLAS sums in a
        kernel-specific order, and numpy's complex multiply fuses on AVX2 and up."""
        argvs = [*GOLDEN_STDOUT, *EXTRA_REPLAY_ARGVS]
        own = [[0, sha256(run_cli(capsys, *argv)[1].encode())] for argv in EXTRA_REPLAY_ARGVS]
        expected = [[0, GOLDEN_STDOUT[argv]] for argv in GOLDEN_STDOUT] + own
        forced = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
        base = {k: v for k, v in os.environ.items() if k not in forced}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
        environments = _replay_environments()
        if not environments:
            pytest.skip("this CPU has no OpenBLAS core type or numpy SIMD level to switch")
        children = {
            name: subprocess.Popen(
                [sys.executable, "-c", _REPLAY_CHILD], env={**base, **extra}, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for name, extra in environments.items()
        }
        for name, child in children.items():
            out, err = child.communicate(json.dumps(argvs), timeout=120)
            assert child.returncode == 0, f"{name}: {err}"
            assert json.loads(out) == expected, name

    @pytest.mark.skipif(not __cpu_features__.get("FMA3"), reason="this CPU's libm is the plain build")
    @pytest.mark.xfail(
        strict=True,
        reason="glibc's libm picks FMA or plain builds of log1p, exp, sin and cos by CPU, and "
        "flash._run_chunk's math.log1p moves the time on line 625 of this history by one ulp",
    )
    def test_flash_is_identical_with_the_plain_libm(self, capsys):
        """The libm a CPU without FMA gets: glibc selects its functions by these hwcaps."""
        argv = ["flash", "--seed", "1", "--runs", "1300"]
        expected = [[0, sha256(run_cli(capsys, *argv)[1].encode())]]
        hwcaps = "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX,-AVX512F,-AVX512VL"
        child = subprocess.run(
            [sys.executable, "-c", _REPLAY_CHILD], input=json.dumps([argv]),
            env=child_env(GLIBC_TUNABLES=hwcaps),
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == expected


class TestReportStability:
    @pytest.mark.parametrize(
        "argv",
        [
            ("chsh",),
            ("chsh", "--state", "product01", "--angles", "10,20,30,40"),
            ("nogo", "--alphabet-size", "2"),
            ("covariance", "--trials", "300", "--seed", "13"),
            ("flash", "--runs", "50", "--seed", "13"),
        ],
    )
    def test_rerun_byte_identical(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "chsh")
        parsed = json.loads(out)
        assert list(parsed) == sorted(parsed)
        assert list(parsed["results"]) == sorted(parsed["results"])


# A child's ru_maxrss also counts the resident set of the process it was forked
# from (the kernel keeps the larger of the peaks before and after exec), so a
# child forked from pytest reads pytest's own RSS, about 200 MB late in the suite.
# A bare launcher forks the measured child instead and prints its peak.
_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)  # Popen must not wait again
print(usage.ru_maxrss)
sys.exit(proc.returncode)
"""


def _peak_rss_mb(*argv) -> float:
    """Peak resident memory, in MB, of `python -m chronobell argv` in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launched = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "chronobell", *argv],
        env=env, capture_output=True, text=True,
    )
    assert launched.returncode == 0, launched.stderr
    return int(launched.stdout) / 1024  # kilobytes on Linux


class TestPeakMemory:
    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_covariance_seed_rss_flat_in_trials(self):
        argv = ("covariance", "--seed", "1", "--angles", "0,90/45,135", "--trials")
        small = _peak_rss_mb(*argv, "10000")
        large = _peak_rss_mb(*argv, "100000")
        # every word generated and kept would add 4 * 9e4 * 64 * 8 bytes = 184 MB
        assert large - small < 25.0

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_covariance_seed_rss_flat_at_a_million_trials(self):
        argv = ("covariance", "--seed", "1", "--angles", "0,90/45,135", "--trials")
        small = _peak_rss_mb(*argv, "10000")
        large = _peak_rss_mb(*argv, "1000000")
        assert large - small < 15.0

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_nogo_rss_flat_in_alphabet_size(self):
        argv = ("nogo", "--state", "singlet", "--angles", "0,90,45,135", "--alphabet-size")
        small = _peak_rss_mb(*argv, "1")
        large = _peak_rss_mb(*argv, "8")
        # the 490,314 multisets of L = 8 as whole arrays would add about 580 MB
        assert large - small < 5.0

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_flash_rss_flat_in_runs(self):
        argv = ("flash", "--seed", "1", "--runs")
        small = _peak_rss_mb(*argv, "10000")
        large = _peak_rss_mb(*argv, "100000")
        # the words, flashes and history of every run would add about 250 MB
        assert large - small < 15.0
