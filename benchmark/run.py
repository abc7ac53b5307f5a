"""chronobell benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload covariance-replay --seed 1 --seconds 40 --trace 0

The workloads and their checks are in `workloads.py`. With `--trace 0` each
op is a fresh `python -m chronobell ...` process, run one at a time; its wall
time is measured around the process and its peak RSS is read with
`os.wait4`. Set-up and the op list are repeated until `--seconds` is used
up, and each metric is the median over those passes. With `--trace 1` the same ops run in
this process through `chronobell.cli.main(argv)`, alternating untraced and
traced passes (see `tracing.py`), and the per-layer metrics are medians over
the traced passes.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. The line before it is the full record (environment, per-op
exit codes, result digests and timings), which is also written to
`.bench_results/` together with the trace spans.

Probe ops reproduce known defects: they count as failed while the defect
exists, but do not make the run incorrect. Any other failed op, or an exit
code, result digest or counter that differs between passes of the same
inputs, makes `correct` false.
"""

from __future__ import annotations

import os

# Ops run one at a time on a 2-core machine. With BLAS worker threads a
# child competes with whatever else runs on the other core, which made pass
# times swing by over 30%; with one thread the swing was about half that.
# Set before numpy is imported, so the traced in-process run uses them too;
# values set by the caller are kept.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
OP_TIMEOUT_S = 60


@dataclass
class OpResult:
    name: str
    probe: bool
    exit_code: int
    problems: list
    digest: str | None
    wall_s: float
    rss_kb: int = 0
    cpu_s: float = 0.0


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


# ------------------------------------------------------------ running ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(python_args, workdir: Path, env: dict) -> tuple[int, str, float, resource.struct_rusage]:
    """(exit code, stdout, wall seconds, resource usage) of one child python."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *python_args], cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            # set at once: Popen must not signal or wait for a reaped pid
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"), wall, usage


def run_subprocess_pass(workload: wl.Workload, workdir: Path, env: dict) -> Pass:
    result = Pass()
    for op in workload.ops:
        code, stdout, wall, usage = run_child(("-m", "chronobell", *op.argv), workdir, env)
        problems, digest = wl.evaluate(op, code, stdout, workdir)
        cpu = usage.ru_utime + usage.ru_stime
        result.ops.append(OpResult(op.name, op.probe, code, problems, digest, wall, usage.ru_maxrss, cpu))
    return result


def run_inprocess_pass(workload: wl.Workload, workdir: Path, tracer: tracing.Tracer | None) -> Pass:
    from chronobell import cli

    result = Pass()
    with contextlib.chdir(workdir):
        for op in workload.ops:
            out, err = io.StringIO(), io.StringIO()
            trace_ctx = tracer.op(op.name) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with trace_ctx as trace:
                    try:
                        code = cli.main(list(op.argv))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 2
                    except Exception:  # an op boundary: record the crash, keep measuring
                        traceback.print_exc()
                        code = -1
                wall = time.perf_counter() - start
            problems, digest = wl.evaluate(op, code, out.getvalue(), workdir)
            result.ops.append(OpResult(op.name, op.probe, code, problems, digest, wall))
            if trace is not None:
                trace.counters["oracle_disagreements"] = int(code == 4)
                result.traces.append(trace)
    return result


def run_setup(workload: wl.Workload, workdir: Path, env: dict) -> tuple[float, str]:
    """(wall seconds, output digest) of one set-up: the workload's command or a cold import."""
    if workload.setup is None:
        args = ("-c", "import chronobell")
    else:
        args = ("-m", "chronobell", *workload.setup)
    code, stdout, wall, _ = run_child(args, workdir, env)
    if code != 0:
        stderr = (workdir / ".stderr").read_text(errors="replace")
        raise RuntimeError(f"set-up {args} exited {code}: {stderr.strip()[-500:]}")
    return wall, hashlib.sha256(stdout.encode()).hexdigest()


# ------------------------------------------------------------- evaluating


def audit(workload: wl.Workload, passes: list[Pass]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, problems) over all passes of one run."""
    problems: list[str] = []
    for p in passes:
        by_name = {op.name: op for op in p.ops}
        for first, second in workload.same_results:
            if by_name[first].digest != by_name[second].digest:
                by_name[second].problems.append(f"results differ from {first}")
    nondeterministic = False
    for i, op in enumerate(passes[0].ops):
        seen = {(p.ops[i].exit_code, p.ops[i].digest) for p in passes}
        if len(seen) > 1:
            nondeterministic = True
            problems.append(f"{op.name}: exit code or results digest changed between passes: {sorted(map(str, seen))}")
    counters = {json.dumps([t.counters for t in p.traces], sort_keys=True) for p in passes if p.traces}
    if len(counters) > 1:
        nondeterministic = True
        problems.append("deterministic counters changed between traced passes")
    attempted = failed = 0
    unexpected = False
    for p in passes:
        for op in p.ops:
            attempted += 1
            if op.problems:
                failed += 1
                unexpected |= not op.probe
                problems.extend(f"{op.name}{' (probe)' if op.probe else ''}: {msg}" for msg in op.problems)
    problems = list(dict.fromkeys(problems))
    return attempted, failed, not (unexpected or nondeterministic), problems


def op_list_wall(passes: list[Pass]) -> float:
    """Wall time of the op list: each op's median over the passes, summed.

    A slow spell of the host that hits one op of a pass then moves only that
    op's samples, not the whole pass, so the total varies less from run to
    run than the median of the pass totals.
    """
    return sum(statistics.median(p.ops[i].wall_s for p in passes) for i in range(len(passes[0].ops)))


def op_summary(passes: list[Pass]) -> dict:
    summary = {}
    for i, op in enumerate(passes[0].ops):
        column = [p.ops[i] for p in passes]
        summary[op.name] = {
            "probe": op.probe,
            "exit_codes": sorted({o.exit_code for o in column}),
            "results_sha256": sorted({o.digest for o in column if o.digest}),
            "wall_s_median": statistics.median(o.wall_s for o in column),
            "cpu_s_median": statistics.median(o.cpu_s for o in column),
            "peak_rss_mb_max": max(o.rss_kb for o in column) / 1024,
        }
    return summary


# -------------------------------------------------------------- measuring


def keep_going(deadline: float, durations: list[float]) -> bool:
    """Start another round if a typical one ends no later than half a round past the deadline.

    Runs then last `seconds` on average, not `seconds` less half a round,
    which matters for workloads whose rounds take several seconds.
    """
    return time.perf_counter() + statistics.median(durations) / 2 <= deadline


def measure_end_to_end(workload: wl.Workload, seconds: float, workdir: Path) -> tuple[dict, dict]:
    env = child_env()
    setups: list[tuple[float, str]] = []
    passes: list[Pass] = []
    rounds: list[float] = []
    # `seconds` covers set-up and checks too, so a run lasts about
    # `seconds` whatever the workload, and its length can be planned.
    deadline = time.perf_counter() + seconds
    while True:
        # Set-up runs before every pass, not only before the first: its
        # samples then span the same minutes as the passes, so a slow spell
        # of the host at the start does not decide setup_s.
        start = time.perf_counter()
        setups.append(run_setup(workload, workdir, env))
        passes.append(run_subprocess_pass(workload, workdir, env))
        rounds.append(time.perf_counter() - start)
        if not keep_going(deadline, rounds):
            break
    setup_digests = {digest for _, digest in setups}
    attempted, failed, correct, problems = audit(workload, passes)
    if len(setup_digests) > 1:
        correct = False
        problems.append("set-up output changed between repetitions")
    metrics = {
        "wall_s": op_list_wall(passes),
        "peak_rss_mb": statistics.median(max(op.rss_kb for op in p.ops) / 1024 for p in passes),
        "setup_s": statistics.median(wall for wall, _ in setups),
        "ops_passed_frac": (attempted - failed) / attempted,
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_cpu_s": [sum(op.cpu_s for op in p.ops) for p in passes],
        "setup_s_samples": [wall for wall, _ in setups],
        "ops": op_summary(passes),
        "problems": problems,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail


def measure_traced(workload: wl.Workload, seconds: float, workdir: Path) -> tuple[dict, dict, list]:
    # `seconds` covers set-up, warm-up and checks too, as in measure_end_to_end
    deadline = time.perf_counter() + seconds
    if workload.setup is not None:
        run_setup(workload, workdir, child_env())
    tracer = tracing.Tracer()
    warmup = run_inprocess_pass(workload, workdir, None)  # fills lazy caches; checked, not timed
    untraced: list[Pass] = []
    traced: list[Pass] = []
    rounds: list[float] = []
    while True:
        start = time.perf_counter()
        traced_first = len(traced) % 2 == 1
        for want_trace in (traced_first, not traced_first):
            if want_trace:
                with tracer.installed():
                    traced.append(run_inprocess_pass(workload, workdir, tracer))
            else:
                untraced.append(run_inprocess_pass(workload, workdir, None))
        rounds.append(time.perf_counter() - start)
        if not keep_going(deadline, rounds):
            break
    attempted, failed, correct, problems = audit(workload, [warmup, *untraced, *traced])
    per_pass = [tracing.layer_metrics(p.traces) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        # counts repeat exactly (audit checks it); median_low keeps them whole
        pick = statistics.median if tracing.unit_of(name) == "s" else statistics.median_low
        metrics[name] = pick(m[name] for m in per_pass)
    traced_wall = op_list_wall(traced)
    untraced_wall = op_list_wall(untraced)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    detail = {
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops": op_summary([warmup, *untraced, *traced]),
        "problems": problems,
    }
    spans = [dict(span, pass_index=i) for i, p in enumerate(traced) for t in p.traces for span in t.spans]
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, detail, spans


# ------------------------------------------------------------ environment


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chronobell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def import_checkout_package() -> None:
    """Import chronobell from this checkout's src/, or exit 2."""
    if not (SRC / "chronobell" / "__init__.py").is_file():
        sys.exit(f"error: no chronobell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chronobell

    if Path(chronobell.__file__).resolve().parent != SRC / "chronobell":
        sys.exit(f"error: imported chronobell from {chronobell.__file__}, not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout_package()
    env = environment()
    workload = wl.build(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    spans: list = []
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        if args.trace:
            result, detail, spans = measure_traced(workload, args.seconds, Path(tmp))
        else:
            result, detail = measure_end_to_end(workload, args.seconds, Path(tmp))
    env["loadavg_end"] = list(os.getloadavg())
    units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ops_passed_frac": "ratio"}
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name) or tracing.unit_of(name)}
        for name, value in result["metrics"].items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.SIZES,
        "environment": env,
        **detail,
        "result": result,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.trace:
        with open(RESULTS_DIR / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span, sort_keys=True) + "\n" for span in spans)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
