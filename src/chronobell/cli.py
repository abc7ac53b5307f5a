"""Command-line front end: each experiment as a replayable, lambda-driven run.

Every report is a pure function of the flags plus the lambda file bytes:
rerunning with identical inputs reproduces identical output bytes. Each file
a command writes is staged by `_replacing` before any work starts and replaced
only if the command returns, so a bad `--out` exits 2 before any work.

Each rule on one flag sits on its declaration, a `Bounded` range or the required
`--seed`/`--lambda-file` group, so argparse rejects a bad flag before any work: it
prints the usage, then `chronobell <cmd>: error: argument --flag: ...`. `main` returns
every exit code: 0 success, 1 a requested check failed, 2 usage or parameter error, 3
lambda stream exhausted or file too small, 4 the two locality checks disagreed.

Each subcommand imports the modules it runs inside the function that runs
it, so `chsh` never loads `flash` or `lambdafile`, and `gen-lambda` never
loads `quantum`. The three lambda-driven subcommands live in `cli_lambda`,
which `chsh` and `nogo` never load. Building the parser loads none of them,
nor numpy, so `--help` and usage errors stay cheap. The parser's maxima come from
`values`, which imports nothing.

Run as a program (`python -m chronobell`, `python -m chronobell.cli` or the
`chronobell` script), the process ends through `run`, without interpreter
teardown.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .reporting import canonical_json
from .values import MAX_EXACT_SITES, MAX_SEARCH_ALPHABET

if TYPE_CHECKING:
    from .quantum import BlochSetting, Party, TwoQubitState

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
    if not abs(norm - 1.0) <= 1e-6:  # refuses a NaN norm too
        raise ValueError(f"amplitudes must be normalized (within 1e-6), got norm {norm!r}")
    return TwoQubitState([z / norm for z in amps])


def parse_setting(token: str, party: Party) -> BlochSetting:
    """An angle in degrees (x-z plane) or an explicit x:y:z triple, all finite."""
    from .quantum import BlochSetting

    token = token.strip()
    parts = token.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"direction triple must be x:y:z, got {token!r}")
    try:
        v = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse direction {token!r}") from None
    if not all(map(math.isfinite, v)):
        raise ValueError(f"direction {token!r} must be finite")
    if len(v) == 1:
        return BlochSetting.from_angle(v[0], party)
    norm = math.hypot(*v)
    if norm == math.inf or (norm < 1e-9 and any(v)):  # the same direction, scaled into range
        top = max(map(abs, v))
        v = [x / top for x in v]
        norm = math.hypot(*v)
    if norm < 1e-9:
        raise ValueError(f"direction {token!r} has zero length")
    return BlochSetting(tuple(x / norm for x in v), party)


def _emit(args, results: dict, sink=None, **config_extra) -> None:
    """The one report writer: prints the report of `args.command`, and writes it to `sink`.

    Its config is every parsed flag but --out, --seed and --lambda-file (which
    commands give as `lambda_source`), plus `config_extra`.
    """
    skip = {"command", "func", "out", "seed", "lambda_file"}
    config = {k: v for k, v in vars(args).items() if k not in skip} | config_extra
    text = canonical_json({"command": args.command, "config": config, "results": results})
    sys.stdout.write(text)
    if sink is not None:
        sink.write(text.encode())


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
    try:
        fd, partial = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".part", dir=target.parent)
    except OSError as exc:  # name the user's path, not the random sibling's
        raise OSError(exc.errno, exc.strerror, str(out)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.chmod(partial, mode)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        raise


def _certified_target(args, command: str, tol: float = 1e-9):
    """The --state behavior at the 4 --angles settings, with the verdict of
    `localpolytope.certify_locality` at `tol`, whose default is the oracles'."""
    from .localpolytope import certify_locality, quantum_behavior
    from .quantum import Party

    state = parse_state(args.state)
    tokens = [t for t in args.angles.split(",") if t.strip()]
    if len(tokens) != 4:
        raise ValueError(f"{command} needs 4 settings: a,a2,b,b2")
    a, a2 = (parse_setting(t, Party.A) for t in tokens[:2])
    b, b2 = (parse_setting(t, Party.B) for t in tokens[2:])
    behavior = quantum_behavior(state, a, a2, b, b2)
    return state, (a, a2, b, b2), behavior, certify_locality(behavior, tol)


def cmd_chsh(args, out) -> int:
    from .quantum import LOCAL_BOUND, TSIRELSON_BOUND, chsh_value

    state, (a, a2, b, b2), _, verdict = _certified_target(args, "chsh", args.tol)
    value = chsh_value(state, a, a2, b, b2)

    results = {
        "settings": {"a": a.xyz, "a2": a2.xyz, "b": b.xyz, "b2": b2.xyz},
        "chsh_value": value,
        "local_bound": LOCAL_BOUND,
        "tsirelson_bound": TSIRELSON_BOUND,
        "local": verdict["facet_local"],
        **verdict,
    }
    _emit(args, results, out)
    return 0


def cmd_nogo(args, out) -> int:
    from .localpolytope import exhaustive_nogo_search

    # --tol is the search tolerance; the oracles keep their default
    _, _, target, verdict = _certified_target(args, "nogo")
    search = exhaustive_nogo_search(args.alphabet_size, target, args.tol).to_dict()
    _emit(args, {"search": search, "target": {"probabilities": target.values, **verdict}}, out)
    return 0


def _lambda_command(name: str):
    """`cli_lambda`'s command `name`, imported only when it runs."""
    def command(args, out) -> int:
        from . import cli_lambda

        return getattr(cli_lambda, name)(args, out)

    return command


class Bounded:
    """An argparse `type=`: an int or float `kind` from `lo` to `hi`, with `ends` "[)", "[]" or
    "()". `__name__` is `kind`'s, so a token that is no number keeps argparse's wording."""

    def __init__(self, kind: type, lo, hi=math.inf, ends: str = "[)"):
        self.__name__, self.kind, self.lo, self.hi, self.ends = kind.__name__, kind, lo, hi, ends

    def __call__(self, token: str):
        value, lo, hi, (left, right) = self.kind(token), self.lo, self.hi, self.ends
        if not lo <= value <= hi or value == lo and left == "(" or value == hi and right == ")":
            raise argparse.ArgumentTypeError(f"must be in {left}{lo}, {hi}{right}, got {token}")
        return value


def _add_lambda_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda-file", help="path to a stored lambda file")
    source.add_argument("--seed", type=Bounded(int, 0, 2**64),
                        help="generate the lambda words from this seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronobell",
        description="Replayable time-ordered measurement experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-lambda", help="write a lambda file to disk")
    p.add_argument("--seed", type=Bounded(int, 0, 2**64), required=True)
    p.add_argument("--count", type=Bounded(int, 1, 2**64), required=True,
                   help="number of 64-bit words")
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_lambda_command("cmd_gen_lambda"))

    p = sub.add_parser("chsh", help="exact CHSH value and locality certificates")
    p.add_argument("--state", default="singlet")
    p.add_argument(
        "--angles",
        default="0,90,45,135",
        help="a,a2,b,b2 as x-z plane degrees or x:y:z triples",
    )
    # below 1: |S| - 2 <= 2*sqrt(2) - 2 < 1 for every quantum behavior, so 1 is vacuous
    p.add_argument("--tol", type=Bounded(float, 0, 1), default=1e-9)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("covariance", help="distribution covariance and realization divergence")
    p.add_argument("--state", default="singlet")
    p.add_argument("--angles", default="0/0", help="A-list/B-list, e.g. '0,90/45,135'")
    p.add_argument("--chronology", choices=("ab", "ba"), default="ab")
    p.add_argument("--trials", type=Bounded(int, 1), default=10_000)
    p.add_argument("--tol", type=Bounded(float, 0), default=1e-12)
    _add_lambda_flags(p)
    p.add_argument("--out", help="also write the report here (plus .csv for the table)")
    p.set_defaults(func=_lambda_command("cmd_covariance"))

    p = sub.add_parser("nogo", help="exhaustive ordering-consistent strategy search")
    p.add_argument("--state", default="singlet")
    p.add_argument("--angles", default="0,90,45,135", help="target settings a,a2,b,b2")
    p.add_argument("--alphabet-size", type=Bounded(int, 1, MAX_SEARCH_ALPHABET, "[]"), default=4)
    p.add_argument("--tol", type=Bounded(float, 0), default=1e-6)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("flash", help="spontaneous-localization hit process")
    p.add_argument("--sites", type=Bounded(int, 2, MAX_EXACT_SITES, "[]"), default=16)
    p.add_argument("--sigma", type=Bounded(float, 0, ends="()"), default=2.0)
    p.add_argument("--rate", type=Bounded(float, 0, ends="()"), default=1.0)
    p.add_argument("--duration", type=Bounded(float, 0, ends="()"), default=4.0)
    p.add_argument("--runs", type=Bounded(int, 1), default=1000)
    p.add_argument("--tol", type=Bounded(float, 0), default=1e-12)
    _add_lambda_flags(p)
    p.add_argument("--out", help="write the flash history file here")
    p.set_defaults(func=_lambda_command("cmd_flash"))

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _replacing(Path(args.out)) if args.out else open(os.devnull, "wb") as out:
            return args.func(args, out)
    except SystemExit as exc:  # --help or a usage error, which argparse has printed
        return exc.code
    except (StreamExhaustedError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleDisagreementError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except (ChronobellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """`main` on this process's argv, then `os._exit` with its code, skipping teardown.

    `main` has closed and renamed every file it wrote, and the package starts no
    thread or child and registers no `atexit` handler: teardown would only flush the
    standard streams. If a flush fails, `sys.exit` leaves the report to teardown.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # e.g. a closed pipe, or a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    # `cli_lambda` imports `chronobell.cli`: let it find this module, not compile a second
    sys.modules.setdefault("chronobell.cli", sys.modules[__name__])
    run()
