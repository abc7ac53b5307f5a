"""Command-line front end: each experiment as a replayable, lambda-driven run.

Every report is a pure function of the flags plus the lambda file bytes:
rerunning with identical inputs reproduces identical output bytes. Each file
a command writes is staged by `_replacing` before any work starts and replaced
only if the command returns, so a bad `--out` exits 2 before any work.

Exit codes: 0 success, 1 a requested check failed, 2 usage or parameter
error, 3 lambda stream exhausted or file too small, 4 the two independent
locality checks disagreed (internal inconsistency).

Each subcommand imports the modules it runs inside the function that runs
it, so `chsh` never loads `flash` or `lambdafile`, and `gen-lambda` never
loads `quantum`. Building the parser loads none of them, nor numpy, so
`--help` and usage errors stay cheap.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CapacityError,
    ChronobellError,
    OracleDisagreementError,
    StreamExhaustedError,
)
from .reporting import canonical_json, correlation_table_csv, correlation_table_dict

if TYPE_CHECKING:
    from .quantum import BlochSetting, Party, TwoQubitState

# defaults of the flash subcommand
DEFAULT_SITES = 16
DEFAULT_WIDTH = 2.0
DEFAULT_RATE = 1.0
DEFAULT_DURATION = 4.0

_NAMED_STATES = {
    "singlet": None,
    "product00": ((1, 0), (1, 0)),
    "product01": ((1, 0), (0, 1)),
    "product10": ((0, 1), (1, 0)),
    "product11": ((0, 1), (0, 1)),
}


def parse_state(spec: str) -> TwoQubitState:
    """A named fixture or a comma-separated list of 4 complex amplitudes."""
    from .quantum import TwoQubitState, make_product_state, make_singlet

    key = spec.strip().lower()
    if key in _NAMED_STATES:
        qubits = _NAMED_STATES[key]
        return make_singlet() if qubits is None else make_product_state(*qubits)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ValueError(
            f"state must be one of {sorted(_NAMED_STATES)} or 4 comma-separated amplitudes"
        )
    try:
        amps = [complex(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse amplitudes {spec!r}: {exc}") from None
    norm = math.hypot(*(x for z in amps for x in (z.real, z.imag)))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"amplitudes must be normalized (within 1e-6), got norm {norm!r}")
    return TwoQubitState([z / norm for z in amps])


def parse_direction(token: str) -> tuple[float, float, float]:
    """An angle in degrees (x-z plane) or an explicit x:y:z triple."""
    token = token.strip()
    if ":" in token:
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError(f"direction triple must be x:y:z, got {token!r}")
        v = [float(p) for p in parts]
        norm = math.hypot(*v)
        if norm < 1e-9:
            raise ValueError(f"direction {token!r} has zero length")
        return tuple(x / norm for x in v)
    theta = math.radians(float(token))
    return math.sin(theta), 0.0, math.cos(theta)


def parse_direction_list(text: str, party: Party) -> list[BlochSetting]:
    from .quantum import BlochSetting

    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty setting list")
    return [BlochSetting(parse_direction(t), party) for t in tokens]


def parse_setting_grid(text: str) -> tuple[list[BlochSetting], list[BlochSetting]]:
    """Two comma-separated lists joined by '/': A-settings / B-settings."""
    from .quantum import Party

    if text.count("/") != 1:
        raise ValueError("settings must be 'a1,a2,.../b1,b2,...' (one '/')")
    part_a, part_b = text.split("/")
    return parse_direction_list(part_a, Party.A), parse_direction_list(part_b, Party.B)


def _resolve_lambda(args, n_blocks: int, block: int):
    """(lambda_source report, chunks of `n_blocks` blocks) from --lambda-file or --seed."""
    from .lambdafile import word_blocks

    has_file = args.lambda_file is not None
    if has_file == (args.seed is not None):
        raise ValueError("provide exactly one of --lambda-file or --seed")
    source = {"lambda_file": args.lambda_file} if has_file else {"seed": args.seed}
    source["words"], chunks = word_blocks(n_blocks, block, path=args.lambda_file, seed=args.seed)
    return source, chunks


def _emit(out, report: dict) -> None:
    text = canonical_json(report)
    sys.stdout.write(text)
    out.write(text.encode())


@contextlib.contextmanager
def _replacing(out: Path):
    """A new hidden sibling file of `out` that replaces it once the block succeeds.

    As with a plain open, `out` must be absent or a regular file this process
    may write; a symlink is followed, and an existing file keeps its mode.
    """
    target = Path(os.path.realpath(out))
    umask = os.umask(0)  # read it, then restore it
    os.umask(umask)
    mode = 0o666 & ~umask  # a plain open's mode for a new file, not mkstemp's 0600
    if os.path.lexists(target):  # os.replace would put a file in place of a directory or device
        if not (target.is_file() and os.access(target, os.W_OK)):
            raise ValueError(f"cannot replace {out}: not a regular file this process may write")
        mode = target.stat().st_mode & 0o777
    fd, partial = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".part", dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.chmod(partial, mode)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def cmd_gen_lambda(args, out) -> int:
    import hashlib

    from .lambdafile import file_header, word_blocks

    _, chunks = word_blocks(args.count, 1, seed=args.seed)
    digest = hashlib.sha256()
    for buf in itertools.chain([file_header(args.count, args.seed)], chunks):
        out.write(buf)
        digest.update(buf)
    report = {
        "command": "gen-lambda",
        "config": {"seed": args.seed, "count": args.count, "out": str(args.out)},
        "results": {"path": str(Path(args.out)), "sha256": digest.hexdigest()},
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
    from .localpolytope import (
        BOUNDARY_ROUNDING,
        chsh_facet_check,
        local_membership_lp,
        quantum_behavior,
    )
    from .quantum import LOCAL_BOUND, BlochSetting, Party

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


def cmd_chsh(args, out) -> int:
    from .quantum import LOCAL_BOUND, TSIRELSON_BOUND, chsh_value

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
    _emit(out, report)
    return 0


def cmd_covariance(args, out) -> int:
    from .chronology import Chronology, covariance_pass, distribution_covariance_check
    from .lambdafile import DEFAULT_BLOCK

    state = parse_state(args.state)
    settings_a, settings_b = parse_setting_grid(args.angles)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    chronology = Chronology(args.chronology.upper())

    n_pairs = len(settings_a) * len(settings_b)
    # the table goes next to the report: both are replaced, or neither
    with _replacing(Path(f"{args.out}.csv")) if args.out else contextlib.nullcontext() as csv:
        source, chunks = _resolve_lambda(args, n_pairs * args.trials, DEFAULT_BLOCK)
        exact = distribution_covariance_check(state, settings_a, settings_b, args.tol)
        tables, divergence = covariance_pass(state, settings_a, settings_b, args.trials, chunks)
        table = tables[chronology]
        combined = dataclasses.replace(exact, divergence_fraction=divergence, trials=args.trials)
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
        _emit(out, report)
        if csv:
            csv.write(correlation_table_csv(table).encode())
    return 0 if combined.distribution_pass else 1


def cmd_nogo(args, out) -> int:
    from .localpolytope import MAX_SEARCH_ALPHABET, exhaustive_nogo_search

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
    _emit(out, report)
    return 0


def cmd_flash(args, out) -> int:
    import hashlib

    import numpy as np

    from . import flash as flash_mod

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
    for batch in flash_mod.flash_batches(psi0, kernel, args.rate, args.duration, chunks):
        history = batch.history_bytes()
        digest.update(history)
        out.write(history)
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
    p.add_argument("--sites", type=int, default=DEFAULT_SITES)
    p.add_argument("--sigma", type=float, default=DEFAULT_WIDTH)
    p.add_argument("--rate", type=float, default=DEFAULT_RATE)
    p.add_argument("--duration", type=float, default=DEFAULT_DURATION)
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
        with _replacing(Path(args.out)) if args.out else open(os.devnull, "wb") as out:
            return args.func(args, out)
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
