"""Command-line front end: each experiment as a replayable, lambda-driven run.

Every report is a pure function of the flags plus the lambda file bytes:
rerunning with identical inputs reproduces identical output bytes.

Exit codes: 0 success, 1 a requested check failed, 2 usage or parameter
error, 3 lambda stream exhausted or file too small, 4 the two independent
locality checks disagreed (internal inconsistency).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import flash as flash_mod
from .chronology import Chronology, covariance_pass, distribution_covariance_check
from .errors import (
    CapacityError,
    ChronobellError,
    OracleDisagreementError,
    StreamExhaustedError,
)
from .lambdafile import DEFAULT_BLOCK, file_header, word_blocks
from .localpolytope import (
    BOUNDARY_ROUNDING,
    MAX_SEARCH_ALPHABET,
    chsh_facet_check,
    exhaustive_nogo_search,
    local_membership_lp,
    quantum_behavior,
)
from .quantum import (
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    BlochSetting,
    Party,
    TwoQubitState,
    chsh_value,
    make_product_state,
    make_singlet,
)
from .reporting import canonical_json, correlation_table_csv, correlation_table_dict, write_text

_NAMED_STATES = {
    "singlet": make_singlet,
    "product00": lambda: make_product_state((1, 0), (1, 0)),
    "product01": lambda: make_product_state((1, 0), (0, 1)),
    "product10": lambda: make_product_state((0, 1), (1, 0)),
    "product11": lambda: make_product_state((0, 1), (0, 1)),
}


def parse_state(spec: str) -> TwoQubitState:
    """A named fixture or a comma-separated list of 4 complex amplitudes."""
    key = spec.strip().lower()
    if key in _NAMED_STATES:
        return _NAMED_STATES[key]()
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ValueError(
            f"state must be one of {sorted(_NAMED_STATES)} or 4 comma-separated amplitudes"
        )
    try:
        amps = np.array([complex(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse amplitudes {spec!r}: {exc}") from None
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"amplitudes must be normalized (within 1e-6), got norm {norm!r}")
    return TwoQubitState(amps / norm)


def parse_direction(token: str) -> np.ndarray:
    """An angle in degrees (x-z plane) or an explicit x:y:z triple."""
    token = token.strip()
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError(f"direction triple must be x:y:z, got {token!r}")
        v = np.array([float(p) for p in parts])
        norm = float(np.linalg.norm(v))
        if norm < 1e-9:
            raise ValueError(f"direction {token!r} has zero length")
        return v / norm
    theta = math.radians(float(token))
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def parse_direction_list(text: str, party: Party) -> list[BlochSetting]:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty setting list")
    return [BlochSetting(parse_direction(t), party) for t in tokens]


def parse_setting_grid(text: str) -> tuple[list[BlochSetting], list[BlochSetting]]:
    """Two comma-separated lists joined by '/': A-settings / B-settings."""
    if text.count("/") != 1:
        raise ValueError("settings must be 'a1,a2,.../b1,b2,...' (one '/')")
    part_a, part_b = text.split("/")
    return parse_direction_list(part_a, Party.A), parse_direction_list(part_b, Party.B)


def _resolve_lambda(args, n_blocks: int, block: int):
    """(lambda_source report, chunks of `n_blocks` blocks) from --lambda-file or --seed."""
    has_file = args.lambda_file is not None
    if has_file == (args.seed is not None):
        raise ValueError("provide exactly one of --lambda-file or --seed")
    source = {"lambda_file": args.lambda_file} if has_file else {"seed": args.seed}
    source["words"], chunks = word_blocks(n_blocks, block, path=args.lambda_file, seed=args.seed)
    return source, chunks


def _emit(args, report: dict) -> None:
    text = canonical_json(report)
    sys.stdout.write(text)
    if getattr(args, "out", None):
        write_text(args.out, text)


@contextlib.contextmanager
def _replacing(out: Path):
    """A new hidden sibling file of `out` that replaces it once the block succeeds."""
    fd, partial = tempfile.mkstemp(prefix=f".{out.name}.", suffix=".part", dir=out.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)  # read it, then restore it
        os.umask(umask)
        os.chmod(partial, 0o666 & ~umask)  # a plain open's mode, not mkstemp's 0600
        os.replace(partial, out)
    except BaseException:
        os.unlink(partial)
        raise


def cmd_gen_lambda(args) -> int:
    _, chunks = word_blocks(args.count, 1, seed=args.seed)
    path = Path(args.out)
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for buf in itertools.chain([file_header(args.count, args.seed)], chunks):
            fh.write(buf)
            digest.update(buf)
    report = {
        "command": "gen-lambda",
        "config": {"seed": args.seed, "count": args.count, "out": str(args.out)},
        "results": {"path": str(path), "sha256": digest.hexdigest()},
    }
    sys.stdout.write(canonical_json(report))
    return 0


def _certified_target(args, command: str, tol: float = 1e-9):
    """The --state behavior at the 4 --angles settings, checked by both locality oracles.

    `tol` goes to both oracles; its default is theirs. The returned verdict
    holds both oracles' report fields. They may disagree only when |S| - 2 is
    within rounding of `tol`; the verdict is then marked ``"boundary"``, and
    the facet check, exact in this scenario, decides.
    """
    state = parse_state(args.state)
    tokens = [t for t in args.angles.split(",") if t.strip()]
    if len(tokens) != 4:
        raise ValueError(f"{command} needs 4 settings: a,a2,b,b2")
    a, a2 = (BlochSetting(parse_direction(t), Party.A) for t in tokens[:2])
    b, b2 = (BlochSetting(parse_direction(t), Party.B) for t in tokens[2:])
    behavior = quantum_behavior(state, a, a2, b, b2)
    facet = chsh_facet_check(behavior, tol)
    membership = local_membership_lp(behavior, tol)
    verdict = {
        "chsh_magnitude": facet.max_facet_value,
        "lp_local": membership.local,
        "facet_local": facet.local,
        "facet_certificate": facet.to_dict(),
    }
    if membership.local != facet.local:
        if abs(facet.max_facet_value - LOCAL_BOUND - tol) > BOUNDARY_ROUNDING:
            raise OracleDisagreementError(
                f"membership LP says local={membership.local}, "
                f"facet check says local={facet.local}"
            )
        verdict["boundary"] = True
    return state, (a, a2, b, b2), behavior, verdict


def cmd_chsh(args) -> int:
    if args.tol >= 1.0:  # vacuous: |S| - 2 <= 2*sqrt(2) - 2 < 1 for every quantum behavior
        raise ValueError(f"chsh --tol must be below 1, got {args.tol}")
    state, (a, a2, b, b2), _, verdict = _certified_target(args, "chsh", args.tol)
    value = chsh_value(state, a, a2, b, b2)

    report = {
        "command": "chsh",
        "config": {"state": args.state, "angles": args.angles, "tol": args.tol},
        "results": {
            "settings": {
                "a": a.vector.tolist(),
                "a2": a2.vector.tolist(),
                "b": b.vector.tolist(),
                "b2": b2.vector.tolist(),
            },
            "chsh_value": value,
            "local_bound": LOCAL_BOUND,
            "tsirelson_bound": TSIRELSON_BOUND,
            "local": verdict["facet_local"],
            **verdict,
        },
    }
    _emit(args, report)
    return 0


def cmd_covariance(args) -> int:
    state = parse_state(args.state)
    settings_a, settings_b = parse_setting_grid(args.angles)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    chronology = Chronology(args.chronology.upper())

    n_pairs = len(settings_a) * len(settings_b)
    source, chunks = _resolve_lambda(args, n_pairs * args.trials, DEFAULT_BLOCK)

    exact_part = distribution_covariance_check(state, settings_a, settings_b, args.tol)
    tables, divergence = covariance_pass(state, settings_a, settings_b, args.trials, chunks)
    table = tables[chronology]
    combined = dataclasses.replace(exact_part, divergence_fraction=divergence, trials=args.trials)

    report = {
        "command": "covariance",
        "config": {
            "state": args.state,
            "angles": args.angles,
            "chronology": args.chronology,
            "trials": args.trials,
            "tol": args.tol,
            "lambda_source": source,
        },
        "results": {
            "covariance": combined.to_dict(),
            "empirical_table": correlation_table_dict(table),
        },
    }
    _emit(args, report)
    if args.out:
        write_text(str(args.out) + ".csv", correlation_table_csv(table))
    return 0 if combined.distribution_pass else 1


def cmd_nogo(args) -> int:
    if not 1 <= args.alphabet_size <= MAX_SEARCH_ALPHABET:
        raise ValueError(
            f"--alphabet-size must be in 1..{MAX_SEARCH_ALPHABET}, got {args.alphabet_size}"
        )
    # --tol is the search tolerance; the oracles keep their default
    _, _, target, verdict = _certified_target(args, "nogo")
    result = exhaustive_nogo_search(args.alphabet_size, target, args.tol)

    report = {
        "command": "nogo",
        "config": {
            "state": args.state,
            "angles": args.angles,
            "alphabet_size": args.alphabet_size,
            "tol": args.tol,
        },
        "results": {
            "search": result.to_dict(),
            "target": {"probabilities": target.probs.tolist(), **verdict},
        },
    }
    _emit(args, report)
    return 0


def cmd_flash(args) -> int:
    if not all(0 < value < math.inf for value in (args.rate, args.duration, args.sigma)):
        raise ValueError("--rate, --duration and --sigma must be positive and finite")
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    if args.sites > flash_mod.MAX_EXACT_SITES:
        raise ValueError(
            f"--sites must be at most {flash_mod.MAX_EXACT_SITES} "
            f"(the exact ordering check), got {args.sites}"
        )
    kernel = flash_mod.make_hit_kernel(args.sites, args.sigma)
    psi0 = flash_mod.make_entangled_pair(args.sites, args.sites // 4, (3 * args.sites) // 4)
    block = flash_mod.flash_block(args.rate * args.duration * psi0.n_particles)

    source, chunks = _resolve_lambda(args, args.runs, block)
    digest = hashlib.sha256()
    hit_counts = []
    first_flash_counts = np.zeros(args.sites, dtype=np.int64)
    # a run that fails leaves --out and every other file as they were
    with _replacing(Path(args.out)) if args.out else open(os.devnull, "wb") as fh:
        for batch in flash_mod.flash_batches(psi0, kernel, args.rate, args.duration, chunks):
            history = batch.history_bytes()
            digest.update(history)
            fh.write(history)
            hit_counts.append(batch.hit_counts)
            first_flash_counts += np.bincount(batch.first_sites(), minlength=args.sites)
    hit_counts = np.concatenate(hit_counts)

    ordering = flash_mod.ordering_invariance_exact(psi0, kernel, args.tol)
    mean_hits = float(hit_counts.mean())
    dispersion = float(hit_counts.var() / mean_hits) if mean_hits > 0 else 0.0

    results = {
        "runs": args.runs,
        "hits": {
            "total": int(hit_counts.sum()),
            "mean": mean_hits,
            "expected": args.rate * args.duration * psi0.n_particles,
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

    report = {
        "command": "flash",
        "config": {
            "sites": args.sites,
            "sigma": args.sigma,
            "rate": args.rate,
            "duration": args.duration,
            "runs": args.runs,
            "tol": args.tol,
            "lambda_source": source,
        },
        "results": results,
    }
    sys.stdout.write(canonical_json(report))
    return 0 if ordering.passed else 1


def _add_lambda_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda-file", help="path to a stored lambda file")
    parser.add_argument("--seed", type=int, help="generate the lambda words from this seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronobell",
        description="Replayable time-ordered measurement experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-lambda", help="write a lambda file to disk")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True, help="number of 64-bit words")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_gen_lambda)

    p = sub.add_parser("chsh", help="exact CHSH value and locality certificates")
    p.add_argument("--state", default="singlet")
    p.add_argument(
        "--angles",
        default="0,90,45,135",
        help="a,a2,b,b2 as x-z plane degrees or x:y:z triples",
    )
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("covariance", help="distribution covariance and realization divergence")
    p.add_argument("--state", default="singlet")
    p.add_argument("--angles", default="0/0", help="A-list/B-list, e.g. '0,90/45,135'")
    p.add_argument("--chronology", choices=("ab", "ba"), default="ab")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_lambda_flags(p)
    p.add_argument("--out", help="also write the report here (plus .csv for the table)")
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("nogo", help="exhaustive ordering-consistent strategy search")
    p.add_argument("--state", default="singlet")
    p.add_argument("--angles", default="0,90,45,135", help="target settings a,a2,b,b2")
    p.add_argument("--alphabet-size", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("flash", help="spontaneous-localization hit process")
    p.add_argument("--sites", type=int, default=flash_mod.DEFAULT_SITES)
    p.add_argument("--sigma", type=float, default=flash_mod.DEFAULT_WIDTH)
    p.add_argument("--rate", type=float, default=flash_mod.DEFAULT_RATE)
    p.add_argument("--duration", type=float, default=flash_mod.DEFAULT_DURATION)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_lambda_flags(p)
    p.add_argument("--out", help="write the flash history file here")
    p.set_defaults(func=cmd_flash)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= getattr(args, "tol", 0.0) < math.inf:  # before any work
            raise ValueError(f"--tol must be nonnegative and finite, got {args.tol}")
        return args.func(args)
    except (StreamExhaustedError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreementError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except (ChronobellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
