"""The lambda-driven subcommands, `gen-lambda`, `covariance` and `flash`, which `cli`
imports only when one of them runs."""

from __future__ import annotations

import contextlib
import itertools
from pathlib import Path
from typing import TYPE_CHECKING

from .cli import _emit, _replacing, parse_setting, parse_state
from .reporting import correlation_table_csv, correlation_table_dict

if TYPE_CHECKING:
    from .quantum import BlochSetting, Party


def parse_direction_list(text: str, party: Party) -> list[BlochSetting]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty setting list")
    return [parse_setting(t, party) for t in tokens]


def parse_setting_grid(text: str) -> tuple[list[BlochSetting], list[BlochSetting]]:
    """Two comma-separated lists joined by '/': A-settings / B-settings."""
    from .quantum import Party

    if text.count("/") != 1:
        raise ValueError("settings must be 'a1,a2,.../b1,b2,...' (one '/')")
    part_a, part_b = text.split("/")
    return parse_direction_list(part_a, Party.A), parse_direction_list(part_b, Party.B)


def _resolve_lambda(args, n_blocks: int, block: int, rows: int):
    """(lambda_source report, `Blocks` of `n_blocks` blocks, `rows` a chunk) from
    --lambda-file or --seed (`lambdafile.word_blocks`)."""
    from .lambdafile import word_blocks

    source = {"lambda_file": args.lambda_file} if args.seed is None else {"seed": args.seed}
    source["words"], chunks = word_blocks(n_blocks, block, path=args.lambda_file, seed=args.seed,
                                          rows=rows)
    return source, chunks


def cmd_gen_lambda(args, out) -> int:
    import hashlib

    from .lambdafile import dense_words, file_header

    digest = hashlib.sha256()
    for buf in itertools.chain([file_header(args.count, args.seed)],
                               dense_words(args.seed, args.count)):
        out.write(buf)
        digest.update(buf)
    _emit(args, {"path": str(Path(args.out)), "sha256": digest.hexdigest()},
          seed=args.seed, out=str(args.out))
    return 0


def cmd_covariance(args, out) -> int:
    from .chronology import CHUNK_TRIALS, Chronology, CovarianceReport, covariance_pass
    from .chronology import distribution_covariance_check
    from .lambdafile import DEFAULT_BLOCK

    state = parse_state(args.state)
    settings_a, settings_b = parse_setting_grid(args.angles)
    chronology = Chronology(args.chronology.upper())

    n_pairs = len(settings_a) * len(settings_b)
    # the table goes next to the report: both are replaced, or neither
    with _replacing(Path(f"{args.out}.csv")) if args.out else contextlib.nullcontext() as csv:
        source, chunks = _resolve_lambda(args, n_pairs * args.trials, DEFAULT_BLOCK, CHUNK_TRIALS)
        exact = distribution_covariance_check(state, settings_a, settings_b, args.tol)
        tables, divergence = covariance_pass(state, settings_a, settings_b, args.trials, chunks)
        table = tables[chronology]
        combined = CovarianceReport(exact.settings_a, exact.settings_b, exact.distribution_max_diff,
                                    divergence, args.trials, exact.tolerance)
        results = {"covariance": combined.to_dict(),
                   "empirical_table": correlation_table_dict(table)}
        _emit(args, results, out, lambda_source=source)
        if csv:
            csv.write(correlation_table_csv(table).encode())
    return 0 if combined.distribution_pass else 1


def cmd_flash(args, out) -> int:
    import hashlib

    import numpy as np

    from . import flash as flash_mod

    try:
        kernel = flash_mod.make_hit_kernel(args.sites, args.sigma)
    except ValueError as exc:  # the sites are checked: only the width is left
        raise ValueError(f"--sigma: {exc}") from None
    psi0 = flash_mod.make_entangled_pair(args.sites, args.sites // 4, (3 * args.sites) // 4)
    expected_hits = args.rate * args.duration * psi0.n_particles
    try:
        block = flash_mod.flash_block(expected_hits)
    except ValueError as exc:  # each flag is finite, but their product may leave the range
        raise ValueError(f"--rate and --duration: {exc}") from None
    if (chunk := min(args.runs, flash_mod.CHUNK_RUNS) * block) > flash_mod.MAX_CHUNK_WORDS:
        raise ValueError(f"--rate and --duration make chunks of {chunk} lambda words, over "
                         f"the cap of {flash_mod.MAX_CHUNK_WORDS}")

    try:  # before any word is made; numpy's "array is too big" is a ValueError
        hit_counts = np.empty(args.runs, dtype=np.intp)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"--runs: no room for the hit counts of {args.runs} runs: {exc}") from None
    source, chunks = _resolve_lambda(args, args.runs, block, rows=flash_mod.CHUNK_RUNS)
    digest, done = hashlib.sha256(), 0
    first_flash_counts = np.zeros(args.sites, dtype=np.int64)
    for batch in flash_mod.flash_batches(psi0, kernel, args.rate, args.duration, chunks):
        history = batch.history_bytes()
        digest.update(history)
        out.write(history)
        hit_counts[done : done + batch.hit_counts.size] = batch.hit_counts
        done += batch.hit_counts.size
        first_flash_counts += np.bincount(batch.first_sites(), minlength=args.sites)

    ordering = flash_mod.ordering_invariance_exact(psi0, kernel, args.tol)
    mean_hits = float(hit_counts.mean())
    dispersion = float(hit_counts.var() / mean_hits) if mean_hits > 0 else 0.0

    results = {
        "runs": args.runs,
        "hits": {
            "total": int(hit_counts.sum()),
            "mean": mean_hits,
            "expected": expected_hits,
            "dispersion": dispersion,
        },
        "first_flash_counts": first_flash_counts.tolist(),
        "ordering_invariance": {
            "max_diff": ordering.max_diff,
            "tolerance": ordering.tolerance,
            "pass": ordering.passed,
        },
        "history_sha256": digest.hexdigest(),
    }
    if args.out:
        results["history_file"] = str(args.out)
    _emit(args, results, lambda_source=source)
    return 0 if ordering.passed else 1
