"""Self-tests of the benchmark at small sizes.

Run from the repository root with:  python -m pytest benchmark
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

run.import_checkout_package()

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"
SEED = 3


@pytest.fixture(params=wl.WORKLOADS)
def workload(request):
    return wl.build(request.param, SEED, wl.SMALL_SIZES)


@pytest.fixture
def prepared(workload, tmp_path):
    """The workload plus a work directory that holds its set-up output."""
    if workload.setup is not None:
        run.run_setup(workload, tmp_path, run.child_env())
    return workload, tmp_path


def test_every_op_list_runs_and_passes_its_checks(prepared):
    workload, workdir = prepared
    passes = [run.run_subprocess_pass(workload, workdir, run.child_env()) for _ in range(2)]
    attempted, failed, correct, problems = run.audit(workload, passes)
    assert correct, problems
    assert attempted == 2 * len(workload.ops)
    assert all(not op.problems for p in passes for op in p.ops if not op.probe)
    assert failed <= 2 * sum(op.probe for op in workload.ops)


def test_traced_ops_reproduce_the_subprocess_results(prepared):
    workload, workdir = prepared
    separate = run.run_subprocess_pass(workload, workdir, run.child_env())
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_inprocess_pass(workload, workdir, tracer)
    assert [(o.exit_code, o.digest) for o in traced.ops] == [(o.exit_code, o.digest) for o in separate.ops]


def test_self_times_are_nonnegative_and_within_the_op_wall_time(prepared):
    workload, workdir = prepared
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_inprocess_pass(workload, workdir, tracer)
    for trace in traced.traces:
        layer_self = trace.layer_self_ns()
        assert all(ns >= 0 for ns in layer_self.values()), layer_self
        assert all(self_ns >= 0 for _, _, self_ns in trace.tally.values()), trace.tally
        assert all(span["self_ns"] >= 0 for span in trace.spans)
        assert sum(layer_self.values()) <= trace.wall_ns
        # the only time not attributed to a layer is the tracer's own counting
        assert sum(layer_self.values()) + trace.hook_ns == trace.wall_ns


def test_counters_repeat_exactly(prepared):
    workload, workdir = prepared
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        with tracer.installed():
            traced = run.run_inprocess_pass(workload, workdir, tracer)
        metrics = tracing.layer_metrics(traced.traces)
        counts.append({k: v for k, v in metrics.items() if tracing.unit_of(k) != "s"})
    assert counts[0] == counts[1]


def test_known_counters_on_covariance_replay(tmp_path):
    workload = wl.build("covariance-replay", SEED, wl.SMALL_SIZES)
    run.run_setup(workload, tmp_path, run.child_env())
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_inprocess_pass(workload, tmp_path, tracer)
    metrics = tracing.layer_metrics(traced.traces)
    trials = wl.SMALL_SIZES["trials"]
    # 3 ops, each with two passes over 4 setting pairs
    assert metrics["chronology.trials"] == 3 * 2 * 4 * trials
    assert metrics["lambdafile.split_calls"] == 3 * 2 * 4 * trials
    assert metrics["lambdafile.words_materialized"] == 3 * 4 * trials * 64
    assert metrics["lambdafile.words_read"] == 3 * 4 * trials * 2
    assert metrics["lambdafile.words_read_ratio"] == 2 / 64


def test_uninstall_restores_the_package():
    from chronobell import chronology, cli, lambdafile

    originals = (cli.estimate_table, chronology.joint_distribution, lambdafile.LambdaStream.split)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.estimate_table is not originals[0]
        assert chronology.joint_distribution is not originals[1]
    assert (cli.estimate_table, chronology.joint_distribution, lambdafile.LambdaStream.split) == originals


def _op(name="op", probe=False):
    return wl.Op(name, ("chsh",), wl._check_chsh(None), probe=probe)


@pytest.mark.parametrize(
    "exit_code, stdout",
    [
        (2, ""),
        (4, '{"results": {"lp_local": true, "facet_local": true}}'),
        (0, '{"results": {"lp_local": true, "facet_local": tr'),
        (0, '{"results": {"lp_local": true, "facet_local": false}}'),
        (0, '{"results": {"lp_local": true}}'),
        (0, '["not", "a", "report"]'),
    ],
)
def test_wrong_exit_codes_and_bad_reports_fail(exit_code, stdout, tmp_path):
    problems, _ = wl.evaluate(_op(), exit_code, stdout, tmp_path)
    assert problems


def test_audit_counts_failures_and_flags_unexpected_ones(tmp_path):
    ok = '{"results": {"lp_local": true, "facet_local": true}}'
    workload = wl.Workload("w", (_op("good"), _op("probe", probe=True)))

    def one_pass(good_code, probe_code):
        p = run.Pass()
        for op, code in zip(workload.ops, (good_code, probe_code)):
            problems, digest = wl.evaluate(op, code, ok, tmp_path)
            p.ops.append(run.OpResult(op.name, op.probe, code, problems, digest, 0.1))
        return p

    assert run.audit(workload, [one_pass(0, 0)] * 2)[:3] == (4, 0, True)
    assert run.audit(workload, [one_pass(0, 4), one_pass(0, 4)])[:3] == (4, 2, True)
    assert run.audit(workload, [one_pass(2, 0), one_pass(2, 0)])[:3] == (4, 2, False)
    # an exit code that changes between passes of the same inputs is not noise
    assert run.audit(workload, [one_pass(0, 0), one_pass(0, 4)])[2] is False


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    workload = wl.build("locality-certify", SEED, wl.SMALL_SIZES)
    result, _ = run.measure_end_to_end(workload, 0.01, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"]
    assert all(value > 0 for value in result["metrics"].values())
    result, _, spans = run.measure_traced(workload, 0.01, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert spans
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "locality-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
