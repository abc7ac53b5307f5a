"""Command-line interface tests: reports, exit statuses, byte-level replay."""

import argparse
import ast
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import chronobell as cb
from chronobell import chronology, cli, cli_lambda, flash, lambdafile, localpolytope
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


def subparsers() -> dict:
    """Each subcommand's parser, as `cli.build_parser` builds it."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def usage_error(command: str, message: str) -> str:
    """argparse's stderr for a usage error of `command`: its usage, then the message."""
    sub = subparsers()[command]
    return f"{sub.format_usage()}{sub.prog}: error: {message}\n"


BAD_TOLERANCES = ["-1", "nan", "inf"]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any lambda word, oracle, trial or flash run is computed."""
    def work(*args, **kwargs):
        raise AssertionError("work was done")

    monkeypatch.setattr(cli_lambda, "_resolve_lambda", work)
    monkeypatch.setattr(lambdafile, "word_blocks", work)
    monkeypatch.setattr(lambdafile, "dense_words", work)
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
        assert run_cli(capsys, "chsh", "--angles")[0] == 2

    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("tol", BAD_TOLERANCES + ["1", "2", "4.99", "5", "100"])
    def test_bad_tolerance_rejected_before_any_oracle(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "chsh", "--tol", tol)
        assert code == 2
        assert f"argument --tol: must be in [0, 1), got {tol}\n" in err

    @pytest.mark.parametrize("command", ["chsh", "covariance"])
    @pytest.mark.parametrize(
        "token", ["inf", "-inf", "nan", "1e400", "inf:0:1", "0:-inf:1", "0:0:nan", "0:1e400:1"]
    )
    def test_non_finite_direction_rejected_before_any_work(self, capsys, no_work, command, token):
        if command == "chsh":
            argv = ("chsh", f"--angles={token},90,45,135")
        else:  # with the lambda source the parser requires
            argv = ("covariance", "--seed", "1", f"--angles=0/{token}")
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == f"error: direction {token!r} must be finite\n"

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
        ids=["argv0", "argv1"],
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
            real = real_lp(behavior, tol)
            weights = None if verdict else [1.0 / 16] * 16  # the LP says local iff it has weights
            return localpolytope.MembershipResult(weights, real.reconstruction_error)

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
        assert "argument --lambda-file: not allowed with argument --seed" in err
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
        assert f"argument --tol: must be in [0, inf), got {tol}\n" in err

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
        assert f"argument --alphabet-size: must be in [1, 8], got {size}\n" in err

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_rejected_before_any_oracle(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "nogo", "--alphabet-size", "1", "--tol", tol)
        assert code == 2
        assert f"argument --tol: must be in [0, inf), got {tol}\n" in err

    def test_verdict_disagreement_exits_4(self, capsys, monkeypatch):
        """A forced wrong facet verdict must trip the internal-inconsistency path."""
        real_check = localpolytope.chsh_facet_check

        def lying_check(behavior, tol=1e-9):
            result = real_check(behavior, tol)
            # the verdict is derived from the tolerance: flip it through the tolerance
            tolerance = -math.inf if result.local else math.inf
            return type(result)(result.max_facet_value, result.best_signs, tolerance)

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_rejected(self, capsys, value):
        code, _, _ = run_cli(capsys, "flash", "--rate", value, "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_rejected_before_any_run(self, capsys, no_work, tol):
        code, _, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "2", "--tol", tol)
        assert code == 2
        assert f"argument --tol: must be in [0, inf), got {tol}\n" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_rejected_before_any_kernel(self, capsys, no_work, value):
        code, _, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "2", "--sigma", value)
        assert code == 2
        assert f"argument --sigma: must be in (0, inf), got {value}\n" in err

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

    @pytest.fixture
    def sigma_rejected(self, capsys, tmp_path, monkeypatch, no_runs):
        """Run flash at one --sigma and check it exits 2 naming --sigma, before any word."""
        def words(*args, **kwargs):
            raise AssertionError("lambda words were read")

        monkeypatch.setattr(cli_lambda, "_resolve_lambda", words)

        def check(sigma: str) -> None:
            out = tmp_path / "h.txt"
            out.write_bytes(b"a user's file\n")
            argv = ("flash", "--seed", "1", "--runs", "3", "--sigma", sigma, "--out", str(out))
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 2
            assert stdout == "" and err.startswith("error: --sigma: ") and "float range" in err
            assert out.read_bytes() == b"a user's file\n"
            assert [p.name for p in tmp_path.iterdir()] == ["h.txt"]

        return check

    @pytest.mark.filterwarnings("error")  # numpy warned dividing by the zero square
    def test_underflowing_sigma_rejected_before_any_run(self, sigma_rejected):
        sigma_rejected("1e-300")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", ["1.5e-162", "1.3407807929942597e154", "1e155"])
    def test_sigma_whose_square_leaves_the_float_range_rejected(self, sigma_rejected, sigma):
        # the smallest square that rounds to 0.0, and the first two that raise OverflowError
        sigma_rejected(sigma)

    @pytest.mark.parametrize("sigma,digest", [
        ("1.6e-162", "774f64a54aaae61e555ac97af61eadce8ed9e54de1ff141dee7a2852e5a0abe6"),
        ("1.3407807929942596e154", "6a081dd734cf14701b231dc3ff4b490af397d4a7071050c72d31265312388a34"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the -inf quotient must not warn
    def test_sigma_next_to_the_float_range_still_runs(self, capsys, sigma, digest):
        # identity and uniform kernels: the stdout of the code before the range check
        code, out, _ = run_cli(capsys, "flash", "--seed", "1", "--runs", "2", "--sigma", sigma)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_too_few_sites_rejected_naming_sites(self, capsys, no_runs):
        code, _, err = run_cli(capsys, "flash", "--sites", "1", "--seed", "1", "--runs", "5")
        assert code == 2
        assert "argument --sites: must be in [2, 32], got 1\n" in err

    @pytest.fixture
    def no_words(self, monkeypatch, no_runs):
        """Fail the test if any lambda word is read or any flash run simulated."""
        def words(*args, **kwargs):
            raise AssertionError("lambda words were read")

        monkeypatch.setattr(cli_lambda, "_resolve_lambda", words)
        monkeypatch.setattr(lambdafile, "word_blocks", words)

    def test_rate_whose_chunk_exceeds_the_cap_rejected_before_any_word(self, capsys, no_words):
        # 1e9 hits per unit time need about 2.4e10 words per run, 179 GiB for a single run
        code, stdout, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "1", "--rate", "1e9")
        assert code == 2 and stdout == ""
        assert "--rate and --duration" in err and str(flash.MAX_CHUNK_WORDS) in err

    def test_chunk_cap_takes_the_chunk_shape_from_flash(self, capsys, monkeypatch, no_words):
        # chunks of 2**20 runs of the default 256-word block hold 2**28 words
        monkeypatch.setattr(flash, "CHUNK_RUNS", 2**20)
        code, stdout, err = run_cli(capsys, "flash", "--seed", "1", "--runs", "600000")
        assert code == 2 and stdout == ""
        assert f"make chunks of {600000 * 256} lambda words" in err

    @pytest.mark.parametrize("runs", [10**12, 2**62])
    def test_runs_too_many_to_count_rejected_before_any_word(self, capsys, monkeypatch, no_words,
                                                             runs):
        # 10**12 hit counts are 8 TB, which this test never asks for: the allocation fails
        # as on a host without that memory. For 2**62, numpy refuses the size itself.
        empty = np.empty

        def no_memory(shape, *args, **kwargs):
            if shape == 10**12:
                raise MemoryError("Unable to allocate 7.28 TiB")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_memory)
        code, stdout, err = run_cli(capsys, "flash", "--seed", "1", "--runs", str(runs))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: --runs: no room for the hit counts of {runs} runs: ")

    @pytest.mark.parametrize("value,mean", [("1e-300", "0.0"), ("1e300", "inf")])
    def test_hit_count_out_of_range_rejected_naming_the_flags(self, capsys, no_words, value, mean):
        # each flag is finite and positive, but the mean hit count underflows or overflows
        argv = ("flash", "--seed", "1", "--runs", "2", "--rate", value, "--duration", value)
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == ("error: --rate and --duration: mean hit count must be positive and "
                       f"finite, got {mean}\n")

    def test_rate_whose_chunk_working_set_exceeds_a_gib_rejected_before_any_word(self, capsys,
                                                                              no_words):
        # 256 runs of 75484 words: 147 MiB of words, about 1 GiB in use
        code, stdout, err = run_cli(capsys, "flash", "--seed", "1", "--rate", "3000",
                                    "--runs", "256")
        assert code == 2 and stdout == ""
        assert "--rate and --duration" in err and str(flash.MAX_CHUNK_WORDS) in err

    def test_chunk_cap_holds_a_gib(self, capsys):
        # a chunk's working set is 6 to 8 times its words' bytes: the per-hit gathers that end
        # flash._draw_hits peak there. 64 runs of the benchmark's --rate 100 op (3061 words
        # each) peak at about 6.5 times, traced
        words = 64 * flash.flash_block(800.0)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "flash", "--seed", "1", "--rate", "100", "--runs", "64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= 8 * (words * 8)
        assert flash.MAX_CHUNK_WORDS * 8 * 8 <= 2**30
        # the benchmark's --rate 100 op: 256 runs of 3061 words per chunk
        assert flash.CHUNK_RUNS * flash.flash_block(800.0) <= flash.MAX_CHUNK_WORDS

    def test_undersized_lambda_file_rejected_before_any_run(self, capsys, tmp_path, no_runs):
        path = tmp_path / "small.bin"
        cb.generate_lambda_file(seed=1, count=256 * 4).save(path)
        code, _, err = run_cli(capsys, "flash", "--runs", "5", "--lambda-file", str(path))
        assert code == 3
        assert "1024 words" in err


# (argv, message) of each case by name; a case's id is its name and its message, so a new
# case may go anywhere (the first twelve keep the names their places once gave them)
MALFORMED = {
    "argv0": (("chsh", "--state", "1,0,0,x"),
              "cannot parse amplitudes '1,0,0,x': complex() arg is a malformed string"),
    "argv1": (("chsh", "--state", "0,2,0,0"),
              "amplitudes must be normalized (within 1e-6), got norm 2.0"),
    "argv2": (("chsh", "--angles", "1:2,90,45,135"), "direction triple must be x:y:z, got '1:2'"),
    "argv3": (("nogo", "--angles", "0,90,0:0:0,135"), "direction '0:0:0' has zero length"),
    "argv4": (("covariance", "--seed", "1", "--angles", ",/0"), "empty setting list"),
    "argv5": (("covariance", "--seed", "1", "--angles", "0,90"),
              "settings must be 'a1,a2,.../b1,b2,...' (one '/')"),
    "argv6": (("covariance", "--seed", "1", "--trials", "0"),
              "argument --trials: must be in [1, inf), got 0"),
    # a NaN norm fails the normalization check; an unreadable direction is quoted whole
    "argv7": (("chsh", "--state", "nan,0,0,0"),
              "amplitudes must be normalized (within 1e-6), got norm nan"),
    "argv8": (("nogo", "--state", "1,0,0,nanj"),
              "amplitudes must be normalized (within 1e-6), got norm nan"),
    "argv9": (("covariance", "--seed", "1", "--state", "nan,0,0,0"),
              "amplitudes must be normalized (within 1e-6), got norm nan"),
    "argv10": (("chsh", "--angles", "::,90,45,135"), "cannot parse direction '::'"),
    "argv11": (("covariance", "--seed", "1", "--angles", "1:x:0/0"),
               "cannot parse direction '1:x:0'"),
}


@pytest.mark.parametrize("argv,message", list(MALFORMED.values()),
                         ids=[f"{name}-{message}" for name, (_, message) in MALFORMED.items()])
def test_malformed_parameter_rejected_before_any_work(capsys, no_work, argv, message):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    # argparse rejects a flag out of its range; the commands reject the rest
    assert err == (usage_error(argv[0], message) if message.startswith("argument ")
                   else f"error: {message}\n")


@pytest.mark.parametrize("command", ["covariance", "flash"])
@pytest.mark.parametrize("source,message", [
    (("--seed", "-1"), "argument --seed: must be in [0, 18446744073709551616), got -1"),
    (("--seed", str(2**64)),
     f"argument --seed: must be in [0, 18446744073709551616), got {2**64}"),
    (("--seed", "1", "--lambda-file", "lambda.bin"),
     "argument --lambda-file: not allowed with argument --seed"),
    ((), "one of the arguments --lambda-file --seed is required"),
], ids=["seed-negative", "seed-2**64", "both", "neither"])
def test_bad_lambda_source_rejected_before_any_work(capsys, no_work, command, source, message):
    code, stdout, err = run_cli(capsys, command, *source)
    assert code == 2 and stdout == ""
    assert err == usage_error(command, message)


# every finite float, subnormals included, and the float limits of either sign
EXTREME = st.sampled_from([sys.float_info.max, 1.7e308, 1e308, sys.float_info.min, 5e-324, 0.0])
COMPONENT = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EXTREME,
                      EXTREME.map(lambda x: -x))


@given(triple=st.tuples(COMPONENT, COMPONENT, COMPONENT))
@example(triple=(1.7e308, 1.7e308, 0.0))
@example(triple=(sys.float_info.max, -sys.float_info.max, sys.float_info.max))
@example(triple=(5e-324, 0.0, 0.0))
@example(triple=(1e-10, 0.0, 1e-10))
@example(triple=(-0.0, 0.0, -0.0))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_direction_triple_is_a_unit_setting_along_it_or_rejected_naming_it(
    capsys, no_work, triple
):
    token = ":".join(map(repr, triple))
    if not any(triple):  # zeros of either sign name no direction
        with pytest.raises(ValueError, match="has zero length"):
            cli.parse_setting(token, cb.Party.A)
        for argv in (("chsh", f"--angles={token},90,45,135"),
                     ("covariance", "--seed", "1", f"--angles={token}/0")):
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 2 and stdout == "" and token in err
        return
    setting = cli.parse_setting(token, cb.Party.A)  # every other finite triple is a direction
    scaled = np.array(triple) / max(map(abs, triple))  # in range, and along the triple
    assert abs(math.hypot(*setting.xyz) - 1.0) <= 1e-12
    np.testing.assert_allclose(setting.xyz, scaled / np.linalg.norm(scaled), rtol=0, atol=1e-12)


@pytest.mark.parametrize("argv", [
    ("chsh", "--angles", "{},90,45,135"),
    ("covariance", "--seed", "3", "--trials", "50", "--angles", "{},0/45"),
], ids=["argv0", "argv1"])
def test_overflowing_triple_means_the_direction_scaled_into_range(capsys, argv):
    reports = [run_json(capsys, *(a.format(token) for a in argv))
               for token in ("1.7e308:1.7e308:0", "1:1:0")]
    assert [code for code, _, _ in reports] == [0, 0]
    assert reports[0][1]["results"] == reports[1][1]["results"]


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


# one cheap run of each subcommand, to which the tests add --out; gen-lambda writes 2 chunks
OUT_ARGVS = {
    "gen-lambda": ("gen-lambda", "--seed", "1", "--count", str(lambdafile.CHUNK_WORDS + 1000)),
    "chsh": ("chsh",),
    "nogo": ("nogo", "--alphabet-size", "2"),
    "covariance": ("covariance", "--seed", "1", "--trials", "10"),
    "flash": ("flash", "--seed", "3", "--runs", "40"),
}


def flag_dests(command: str) -> set:
    """The dest of every flag the parser gives `command`."""
    return {action.dest for action in subparsers()[command]._actions if action.dest != "help"}


# (command, flag) of every flag the parser converts, which must be a `cli.Bounded` number
TYPED_FLAGS = [(command, action.option_strings[0]) for command, sub in subparsers().items()
               for action in sub._actions if action.type is not None]


def past_each_end(bound) -> list[str]:
    """The tokens just outside each finite end of `bound`; for a float also nan and +-inf."""
    tokens = []
    for end, value, away in ((bound.ends[0], bound.lo, -1), (bound.ends[1], bound.hi, 1)):
        if math.isinf(value):
            continue
        if end in "()":  # an open end is itself outside
            tokens.append(value)
        elif bound.kind is int:
            tokens.append(value + away)
        else:
            tokens.append(math.nextafter(value, away * math.inf))
    if bound.kind is int:
        return [str(token) for token in tokens]
    return [repr(float(token)) for token in tokens] + ["nan", "inf", "-inf"]


@pytest.mark.parametrize("command,flag", TYPED_FLAGS, ids=["".join(c) for c in TYPED_FLAGS])
def test_every_bound_rejects_values_past_it_before_any_work(capsys, tmp_path, no_work, command,
                                                            flag):
    action = next(a for a in subparsers()[command]._actions if flag in a.option_strings)
    bound = action.type
    assert isinstance(bound, cli.Bounded) and bound.kind in (int, float)
    interval = f"{bound.ends[0]}{bound.lo}, {bound.hi}{bound.ends[1]}"
    argv = (*OUT_ARGVS[command], "--out", str(tmp_path / "out"))
    # a bad --state is reported only after the flags are parsed
    states = [(), ("--state", "bogus")] if "state" in flag_dests(command) else [()]
    for token in past_each_end(bound):
        for state in states:
            code, stdout, err = run_cli(capsys, *argv, *state, f"{flag}={token}")
            assert code == 2 and stdout == ""
            message = f"argument {flag}: must be in {interval}, got {token}"
            assert err == usage_error(command, message)
    assert list(tmp_path.iterdir()) == []


class TestConfig:
    @pytest.mark.parametrize("command", sorted(OUT_ARGVS))
    def test_config_echoes_every_flag_but_out_and_the_lambda_flags(self, capsys, tmp_path, command):
        argv = [*OUT_ARGVS[command], "--out", str(tmp_path / "report")]
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        expected = flag_dests(command) - {"out", "seed", "lambda_file"}
        if command == "gen-lambda":  # the documented set: seed and path included
            expected = {"seed", "count", "out"}
        elif command in ("covariance", "flash"):
            expected |= {"lambda_source"}
        assert set(report["config"]) == expected
        args = cli.build_parser().parse_args(argv)
        assert all(report["config"][k] == getattr(args, k) for k in expected - {"lambda_source"})


def fail_after_one_chunk(monkeypatch):
    """The lambda chunk sources raise after their first chunk, and the LP oracle raises."""
    word_blocks, dense_words = lambdafile.word_blocks, lambdafile.dense_words

    def first_chunk_then_fail(chunks):
        yield next(iter(chunks))
        raise StreamExhaustedError("the chunk source failed")

    def failing_word_blocks(*args, **kwargs):
        words, chunks = word_blocks(*args, **kwargs)
        return words, first_chunk_then_fail(chunks)

    def failing_dense_words(*args, **kwargs):
        return first_chunk_then_fail(dense_words(*args, **kwargs))

    def failing_oracle(*args, **kwargs):
        raise OracleDisagreementError("the membership LP failed")

    monkeypatch.setattr(lambdafile, "word_blocks", failing_word_blocks)
    monkeypatch.setattr(lambdafile, "dense_words", failing_dense_words)
    monkeypatch.setattr(localpolytope, "local_membership_lp", failing_oracle)


def overrun_mid_batch(monkeypatch):
    """31 words hold 10 hits: flash run 13 overruns, in the fourth chunk of 4 runs."""
    monkeypatch.setattr(flash, "flash_block", lambda mean_hits: 31)
    monkeypatch.setattr(flash, "CHUNK_RUNS", 4)


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
        refused = "not a regular file this process may write"
        if bad == "missing directory":
            out = tmp_path / "missing" / "out"
            message = f"[Errno 2] No such file or directory: '{out}'"  # never the staged sibling
        elif bad == "directory":
            out.mkdir()
            message = f"cannot replace {out}: {refused}"
        else:
            out.write_text("a user's report")
            (tmp_path / "out.csv").mkdir()
            message = f"cannot replace {out}.csv: {refused}"
        before = tree(tmp_path)
        code, stdout, stderr = run_cli(capsys, *OUT_ARGVS[command], "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == f"error: {message}\n"
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
# test id -> (argv, sha256 of its stdout). The ids are written out, so a golden added
# anywhere renames none of the others; argv0..argv14 are the names the first fifteen
# once took from their place in the table
GOLDENS = {
    "argv0": (("covariance", "--seed", "3", "--trials", "200", "--angles", "0,90/45,135"),
              "eda27d2e5f8a78715b232bd778a7806819553f691f61a3a1b818a952bddac388"),
    "argv1": (("flash", "--seed", "1", "--runs", "20"),
              "22fee53589c02f7e67d203b9c136040e23af12ebacc44fcd33afab13684b5426"),
    "argv2": (("chsh",), "022c30ca56498800ef3d7c623bdbc1595098e6206eb02c35a87627cce99eae5c"),
    "argv3": (("nogo", "--alphabet-size", "2"),
              "92e6bda37d885e5ee07c4b148b0dda785d8b14f78b484e8b0a05ea142a065927"),
    # recorded while the search still enumerated every (4**L)^2 table pair
    "argv4": (("nogo", "--alphabet-size", "5"),
              "6236a0411c8df7138805ad990bcf4d360e4926c5de9722bce63aba50421d6b4d"),
}
GOLDEN_FLASH_HISTORY = "4b1486defd6f5f27cd34e7d2e21c391fa8724a4ddcc8939a138c154fab976858"
# recorded while every flash run was still simulated one at a time
GOLDENS["argv5"] = (("flash", "--seed", "1", "--runs", "2", "--rate", "100"),
                    "27d75b65a983a8d142b28c116dd439766defb0c156c71888a9b518b5303f5f18")
GRID32_FLASH_ARGV = ("flash", "--seed", "1", "--sites", "32", "--rate", "2", "--runs", "50")
GOLDEN_GRID32_HISTORY = "81e83044ca6c68d139e70d329baf9f0711e8482f6300a70317d02a623cd045d4"
# stdout with the --out path replaced by "<out>"
GOLDEN_GRID32_STDOUT = "ea4b58334dc8bb169408157c717552e73c00b24ed4d3a44a495c9a7fc0fe615c"
GOLDEN_LAMBDA_FILE = "35f4e8bc53035751f2513e970b7c3c97701828482c518f45cbcd4323f2d7e1fc"
# recorded while covariance, flash and gen-lambda still held every word of the run
# in memory; the sizes are not multiples of any power-of-two chunk
GOLDENS["argv6"] = (("covariance", "--seed", "17", "--trials", "777", "--angles", "0,90/45,135"),
                    "5752fec730c91fa7294805408a1c0c751dffe89a2ed2d243a3d2a1c4e9e2e031")
# `covariance --trials 777 --angles 0,90/45,135 --chronology ba --lambda-file lam.bin`
# on a 199912-word file (seed 4), 1000 words more than the run reads
GOLDEN_OVERSIZED_FILE_STDOUT = "f5aadb9ef6a7ab871594088ef1762681a6877bfc36359ea0e543143082625b49"
GOLDEN_LONG_LAMBDA_FILE = "98c6043e884fd9f683389c9d6611bfcd9539990f1c382aefa416b1c3893c5ea0"
# recorded while flash still held every run's words and flashes in memory; 1300
# runs span three chunks of runs (stdout with the --out path replaced by "<out>")
GOLDEN_MULTI_CHUNK_FLASH_ARGV = ("flash", "--seed", "1", "--runs", "1300")
GOLDEN_MULTI_CHUNK_HISTORY = "92d6befc73c97f1e47e76273857289778c835afdc99eefce01c56f45ce11c090"
GOLDEN_MULTI_CHUNK_STDOUT = "53cba54951bb912efd26da1f6adaac598c5be1aba86902efaab66f31cfbb06cc"
# recorded while the exact layer, the facet check and the simplex still ran on numpy
# arrays: the two states whose |S| - 2 lies within rounding of --tol (their LP verdict
# rests on the last bits of the phase-1 residual), a product state, complex amplitudes
# with an x:y:z direction, and three random complex states with random angles, made as
# `benchmark/workloads.py:_random_chsh_inputs(20261019, 3)` makes them
GOLDENS.update({
    "argv7": (("chsh", "--state", "0,0.9772869898252907,-0.2119201253260814,0"),
              "c3ce41fd72d34b6a7e51865f1100b38adc3cd0c0d944c244a2912dd4890f0d7b"),
    "argv8": (("chsh", "--state", "0,0.9772869487069313,-0.21192031494666996,0", "--tol", "1e-6"),
              "b86088095c274524bb3bfd1b4bc3f701e896cedc7b360262380c007af2a4e096"),
    "argv9": (("chsh", "--state", "product00"),
              "480a1b67251ccaa7eeb02d29baa2fdbd5a75e974f3f1094df86594ff6c47f748"),
    "argv10": (("chsh", "--state", "0.5,0.5j,-0.5,0.5j", "--angles", "0,0.3:0.4:0.866,45,135"),
               "10d60b2ba1befa3f2e92c35bf866101eea3d4e606e90752ea02b705332390fd9"),
    "argv11": (
        ("chsh", "--state",
         "(0.033625252022969565-0.24938395894936463j),(-0.5818008339280172-0.46597823887225404j),"
         "(0.22425988320465437-0.29497145001584607j),(0.3521601426222038+0.3460225952047105j)",
         "--angles", "141.75746117574664,71.49661254544762,88.51857463511783,25.845179840407457"),
        "943fb2ed93cf651627bbd48e81b9fdb413952bdc92735193e6fcf43ebffdc7ca",
    ),
    "argv12": (
        ("chsh", "--state",
         "(-0.0034801276235110518+0.5182502220896203j),(0.4695626787133331-0.29537018809167676j),"
         "(-0.16393500554888374+0.16618460078470268j),(0.4811170868279293-0.37108796792937476j)",
         "--angles", "43.200700286363215,82.19481113823348,101.36133182131292,3.516026542094415"),
        "dea24c18fe8ccfec15b0b7a422dd5dca3b28f8083bc0cd24a63a96946920521a",
    ),
    "argv13": (
        ("chsh", "--state",
         "(-0.1690291342176227+0.006308192160134411j),(-0.8000326593241721+0.4692951570470935j),"
         "(0.22005057000808684+0.06302917495813964j),(-0.1007356187879539-0.22035553756320478j)",
         "--angles", "68.28200723177017,52.46604633741214,10.814029949043586,56.937520794879326"),
        "815a05190fd2c20a3f99660fc3631b501042733aba85787901e3b1e8fbd4ce6b",
    ),
})
# recorded while covariance still gathered thresholds row by row; 6 setting pairs of
# 3000 trials are 18 000 rows in chunks of 2048, so pairs begin and end inside chunks
# and span chunk edges
CHUNK_EDGE_COVARIANCE_ARGV = (
    "covariance", "--trials", "3000", "--angles", "0,30,60/45,135", "--chronology", "ba",
)
GOLDENS["argv14"] = ((*CHUNK_EDGE_COVARIANCE_ARGV, "--seed", "5"),
                     "ebb4a6720b306f2381147a04920815072fe1b35b1c9118f3c95de3330ae5181a")
# recorded while flash still stepped one weight vector per particle and run: a grid of
# two sites under a kernel wide enough to leave both nearly equally likely, and a
# kernel of width 0.2 on 32 sites, whose squared weights are exact zeros 8 sites out
GOLDENS.update({
    "flash-two-sites-wide-kernel": (
        ("flash", "--seed", "1", "--sites", "2", "--sigma", "5", "--runs", "300"),
        "3e394d2731ecc0774303c73b3b2e7f0d851100800285509479e00b8bf199034f",
    ),
    "flash-grid32-kernel-zeros": (
        ("flash", "--seed", "3", "--sites", "32", "--sigma", "0.2", "--rate", "3", "--runs", "500"),
        "43e6de75bb8d04f5b0ffd583a4998f100c8e488822f63b21a972841b72366725",
    ),
})
# recorded alongside them: few hits per run, so most steps hit a handful of runs
# (stdout with the --out path replaced by "<out>")
SPARSE_HITS_FLASH_ARGV = ("flash", "--seed", "2", "--sites", "8", "--rate", "0.25", "--runs", "2000")
GOLDEN_SPARSE_HITS_HISTORY = "5abacf4db7951d35baa0c41f10c97b85862394aef3a1f7430076c38eeae035eb"
GOLDEN_SPARSE_HITS_STDOUT = "9c3301574988246e7573279a68ebdafae96c0030c6e562939a61c6cfa88c7aac"
GOLDEN_STDOUT = dict(GOLDENS.values())  # argv -> sha256 of its stdout
GOLDEN_PARAMS = [pytest.param(argv, id=name) for name, (argv, _) in GOLDENS.items()]

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("argv", GOLDEN_PARAMS)
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

    @staticmethod
    def check_flash_out(capsys, path, argv, history, stdout):
        """`argv --out path` writes the golden history and stdout, the path read as "<out>"."""
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert sha256(path.read_bytes()) == history
        assert sha256(out.replace(str(path), "<out>").encode()) == stdout

    def test_grid32_flash_history_and_stdout(self, capsys, tmp_path):
        self.check_flash_out(capsys, tmp_path / "history32.txt", GRID32_FLASH_ARGV,
                             GOLDEN_GRID32_HISTORY, GOLDEN_GRID32_STDOUT)

    def test_multi_chunk_flash_history_and_stdout(self, capsys, tmp_path):
        self.check_flash_out(capsys, tmp_path / "history.txt", GOLDEN_MULTI_CHUNK_FLASH_ARGV,
                             GOLDEN_MULTI_CHUNK_HISTORY, GOLDEN_MULTI_CHUNK_STDOUT)

    def test_sparse_hits_flash_history_and_stdout(self, capsys, tmp_path):
        self.check_flash_out(capsys, tmp_path / "history.txt", SPARSE_HITS_FLASH_ARGV,
                             GOLDEN_SPARSE_HITS_HISTORY, GOLDEN_SPARSE_HITS_STDOUT)

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

    def test_covariance_pairs_across_chunk_edges_from_file_match_seed(self, capsys, tmp_path):
        path = tmp_path / "lam.bin"
        cb.generate_lambda_file(seed=5, count=6 * 3000 * 64).save(path)
        _, from_file, _ = run_json(capsys, *CHUNK_EDGE_COVARIANCE_ARGV, "--lambda-file", str(path))
        _, from_seed, _ = run_json(capsys, *CHUNK_EDGE_COVARIANCE_ARGV, "--seed", "5")
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
        "the math.log1p of flash._draw_hits's waiting times moves the time on line 625 of "
        "this history by one ulp",
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
        ids=["argv0", "argv1", "argv2", "argv3", "argv4"],
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
        # the search keeps one path of at most 8 vertices, never the 490,314 multisets of L = 8
        assert large - small < 5.0

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_flash_rss_flat_in_runs(self):
        argv = ("flash", "--seed", "1", "--runs")
        small = _peak_rss_mb(*argv, "10000")
        large = _peak_rss_mb(*argv, "100000")
        # the words, flashes and history of every run would add about 250 MB
        assert large - small < 15.0

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_flash_working_set_is_one_chunk_of_words(self, tmp_path):
        one_run = _peak_rss_mb("flash", "--seed", "1", "--runs", "1")
        # 20 chunks of 256 runs; then 4 chunks of 32-site runs at twice the rate
        for argv in (("--runs", "5000", "--out", str(tmp_path / "history")),
                     ("--sites", "32", "--rate", "2", "--runs", "1000")):
            # two live chunks of 512 runs' words, as read before, added about 4 MB
            assert _peak_rss_mb("flash", "--seed", "1", *argv) - one_run < 2.0


def _run_module(cwd, *argv, **env) -> subprocess.CompletedProcess:
    """`python -m chronobell argv` in `cwd`, with `env` added; output in bytes."""
    return subprocess.run([sys.executable, "-m", "chronobell", *argv], cwd=cwd,
                          env=child_env(**env), capture_output=True, timeout=120)


class TestProcessExit:
    """`python -m chronobell` ends through `cli.run`, with `os._exit` after `cli.main`."""

    @pytest.mark.parametrize("argv", GOLDEN_PARAMS)
    def test_golden_stdout(self, tmp_path, argv):
        proc = _run_module(tmp_path, *argv)
        assert proc.returncode == 0, proc.stderr
        assert sha256(proc.stdout) == GOLDEN_STDOUT[argv]

    @pytest.mark.parametrize("code,argv", [
        (1, ("flash", "--seed", "1", "--runs", "2", "--tol", "0")),
        (2, ("chsh", "--state", "bogus")),
        (3, ("covariance", "--trials", "1000", "--lambda-file", "small.bin")),
    ], ids=["exit-1", "exit-2", "exit-3"])
    def test_failing_run_matches_main(self, capsys, tmp_path, monkeypatch, code, argv):
        monkeypatch.chdir(tmp_path)  # the exit-3 message names the file as given
        cb.generate_lambda_file(seed=1, count=64).save("small.bin")
        proc = _run_module(tmp_path, *argv)
        assert run_cli(capsys, *argv) == (code, proc.stdout.decode(), proc.stderr.decode())
        assert proc.returncode == code

    def test_flash_history_matches_main(self, capsys, tmp_path, monkeypatch):
        argv = ("flash", "--seed", "1", "--runs", "20", "--out", "history.txt")
        (tmp_path / "child").mkdir()
        (tmp_path / "main").mkdir()
        proc = _run_module(tmp_path / "child", *argv)
        monkeypatch.chdir(tmp_path / "main")
        code, out, _ = run_cli(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout.decode() == out
        history = (tmp_path / "child" / "history.txt").read_bytes()
        assert history == (tmp_path / "main" / "history.txt").read_bytes()
        assert sha256(history) == GOLDEN_FLASH_HISTORY

    @pytest.mark.parametrize("module", ["chronobell", "chronobell.cli"])
    def test_process_ends_without_teardown(self, tmp_path, module):
        child = ("import atexit, runpy, sys; atexit.register(print, 'teardown', file=sys.stderr); "
                 f"sys.argv[1:] = ['chsh']; runpy.run_module({module!r}, run_name='__main__')")
        proc = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=child_env(),
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert sha256(proc.stdout) == GOLDEN_STDOUT[("chsh",)]

    @pytest.mark.parametrize("unbuffered,code,stderr", [
        (False, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                     "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"),
        (True, 2, "error: [Errno 32] Broken pipe\n"),
    ], ids=["buffered", "unbuffered"])
    def test_stdout_on_a_closed_pipe(self, tmp_path, unbuffered, code, stderr):
        """A failed write or final flush is reported as the interpreter reports it: with
        buffered stdout by teardown's own flush, unbuffered by `main` at the write."""
        env = child_env(PYTHONIOENCODING="utf-8")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "chronobell", "chsh"], cwd=tmp_path,
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (code, stderr)

    def test_console_script_runs_what_python_m_runs(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        tree = ast.parse((SRC / "chronobell" / "__main__.py").read_text())
        imported = {alias.asname or alias.name: f"chronobell.{node.module}:{alias.name}"
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        called = [node.value.func.id for node in tree.body
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
        script = pyproject["project"]["scripts"]["chronobell"]
        assert [imported[name] for name in called] == [script] == ["chronobell.cli:run"]
