"""A persistent file of pre-generated random words and replayable streams.

Every stochastic experiment in this package draws from one of these files, so
any run can be replayed bit-exactly under either measurement ordering. Streams
never wrap around: exhausting one raises, because silently reusing words would
correlate trials.

File layout (all integers little-endian):

    bytes 0-3      magic ``b"LMDA"``
    byte  4        format version (currently 1)
    bytes 5-12     word count, uint64
    bytes 13-20    seed provenance note, uint64 (informational only)
    bytes 21-...   payload: count x uint64 words

A stored word ``w`` maps to the real ``w / 2**64``, rounded down to the 53-bit
float grid (``(w >> 11) * 2**-53``) so every derived value lies strictly in
``[0, 1)``; the naive float division would round the top ~2**10 words up to
exactly 1.0.

Splitting is fixed-block: substream ``i`` of a stream owns words
``[i*block, (i+1)*block)`` of that stream's range, making per-substream values
independent of the order in which substreams are consumed. Because the layout
fixes where every word is, the vectorized consumers read consecutive
substreams only as chunks, (rows, block) arrays of `CHUNK_WORDS` words or
`CHUNK_ROWS` rows, whichever is more, from a file or a seed (`word_blocks`)
or from memory (`LambdaStream.blocks`).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    EmptyFileError,
    LambdaFormatError,
    StreamExhaustedError,
)

MAGIC = b"LMDA"
FORMAT_VERSION = 1
DEFAULT_BLOCK = 64
CHUNK_WORDS = 1 << 17  # words per chunk (1 MiB) for blocks of up to 256 words
CHUNK_ROWS = 512  # blocks per chunk at least: a chunk's flash runs take one step per hit

_HEADER = struct.Struct("<4sBQQ")


def words_to_reals(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to floats in [0, 1) on the 53-bit grid."""
    words = np.asarray(words, dtype=np.uint64)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclass(frozen=True, eq=False)
class LambdaFile:
    """Immutable array of stored uint64 words plus a seed provenance note."""

    words: np.ndarray
    seed_note: int = 0

    def __post_init__(self) -> None:
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.ndim != 1:
            raise LambdaFormatError("payload must be a flat word sequence")
        if words.size == 0:
            raise EmptyFileError("a lambda file must contain at least one word")
        words = words.copy()
        words.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "seed_note", int(self.seed_note) & (2**64 - 1))

    @property
    def count(self) -> int:
        return int(self.words.size)

    @classmethod
    def from_reals(cls, values, seed_note: int = 0) -> "LambdaFile":
        """Build a file whose derived reals approximate `values` to ~2**-53.

        Test convenience: lets a scenario pin specific lambda draws.
        """
        values = np.asarray(values, dtype=float)
        if np.any(values < 0.0) or np.any(values >= 1.0):
            raise ValueError("values must lie in [0, 1)")
        words = np.floor(values * 2.0**64).astype(np.uint64)
        return cls(words, seed_note)

    def to_bytes(self) -> bytes:
        payload = self.words.astype("<u8", copy=False).tobytes()
        return file_header(self.count, self.seed_note) + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LambdaFile":
        count, seed_note = _parse_header(blob)
        _check_payload(len(blob) - _HEADER.size, count)
        return cls(np.frombuffer(blob, dtype="<u8", offset=_HEADER.size), seed_note)

    def save(self, path) -> Path:
        path = Path(path)
        with path.open("wb") as fh:
            fh.write(file_header(self.count, self.seed_note))
            fh.write(memoryview(self.words.astype("<u8", copy=False)))
        return path

    @classmethod
    def load(cls, path) -> "LambdaFile":
        """Read a stored file: one read of the payload, then the copy every LambdaFile makes."""
        with Path(path).open("rb") as fh:
            count, seed_note = _parse_header(fh.read(_HEADER.size))
        _, (words,) = word_blocks(1, count, path=path)  # one block is one chunk
        return cls(words.reshape(-1), seed_note)

    def stream(self, label: str = "root") -> "LambdaStream":
        """A cursor over the whole file."""
        return LambdaStream(self, 0, self.count, label)


def file_header(count: int, seed_note: int) -> bytes:
    """The 21 header bytes of a stored file of `count` words."""
    return _HEADER.pack(MAGIC, FORMAT_VERSION, count, seed_note)


def _parse_header(blob: bytes) -> tuple[int, int]:
    """(word count, seed note) from the first bytes of a stored file."""
    if len(blob) < _HEADER.size:
        raise LambdaFormatError("file too short for a lambda header")
    magic, version, count, seed_note = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise LambdaFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise LambdaFormatError(f"unsupported format version {version}")
    return count, seed_note


def _check_payload(n_bytes: int, count: int) -> None:
    if n_bytes != 8 * count:
        raise LambdaFormatError(f"payload holds {n_bytes} bytes, header promises {8 * count}")


def generate_lambda_file(seed: int, count: int) -> LambdaFile:
    """Deterministically expand a 64-bit seed into `count` stored words.

    Same (seed, count) always yields byte-identical files; the generator's
    statistical quality is enforced by the uniformity tests, not by decree.
    """
    _, (words,) = word_blocks(1, int(count), seed=seed)  # one block is one chunk
    return LambdaFile(words.reshape(-1), seed_note=int(seed))


def word_blocks(n_blocks: int, block: int, *, path=None, seed=None):
    """(words available, chunks of the first `n_blocks` blocks of `block` words).

    The words come from the stored file at `path` if it is given, else from
    `seed`. Each chunk is a (rows, block) array of `CHUNK_WORDS` words or
    `CHUNK_ROWS` rows, whichever is more; the last may be shorter. Bad input
    raises before this returns; a file that shrinks raises when the missing
    chunk is read.
    """
    needed = n_blocks * block
    if path is None:
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if needed < 1:
            raise EmptyFileError("count must be at least 1")
        bits = np.random.PCG64(seed)  # random_raw is sequential: chunks equal one call
        return needed, _chunks(lambda lo, n: bits.random_raw(n), needed, block)
    with Path(path).open("rb") as fh:
        available, _ = _parse_header(fh.read(_HEADER.size))
        _check_payload(os.fstat(fh.fileno()).st_size - _HEADER.size, available)
    if available == 0:
        raise EmptyFileError("a lambda file must contain at least one word")
    if available < needed:
        raise CapacityError(f"lambda file {path} holds {available} words, this run needs {needed}")

    def read(lo: int, n: int) -> np.ndarray:
        return np.fromfile(path, dtype="<u8", count=n, offset=_HEADER.size + 8 * lo)

    return available, _chunks(read, needed, block)


def _chunks(read, needed: int, block: int):
    """Words [0, needed) as (rows, block) chunks, words [lo, lo + n) from `read(lo, n)`."""
    step = max(CHUNK_ROWS, CHUNK_WORDS // block) * block
    for lo in range(0, needed, step):
        n = min(step, needed - lo)
        words = read(lo, n)
        if words.size != n:
            raise LambdaFormatError(f"lambda words ran out after {lo + words.size} of {needed}")
        yield words.astype("<u8", copy=False).reshape(-1, block)


@dataclass(eq=False)
class LambdaStream:
    """Single-owner cursor over a contiguous word range of a LambdaFile.

    Reading advances the cursor; `rewind()` restores it, and re-reading yields
    the identical sequence. Not safe for concurrent mutation; parallel trials
    must take one substream each via `split`.
    """

    file: LambdaFile
    start: int = 0
    length: int | None = None
    label: str = "root"
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.length is None:
            self.length = self.file.count - self.start
        if self.start < 0 or self.length < 0 or self.start + self.length > self.file.count:
            raise CapacityError(
                f"range [{self.start}, {self.start + self.length}) exceeds "
                f"file capacity {self.file.count}"
            )

    @property
    def position(self) -> int:
        return self._cursor

    def rewind(self) -> None:
        self._cursor = 0

    def next_real(self) -> float:
        """The next stored value as a float in [0, 1)."""
        if self._cursor >= self.length:
            raise StreamExhaustedError(
                f"stream {self.label!r} exhausted after {self.length} words"
            )
        word = self.file.words[self.start + self._cursor]
        self._cursor += 1
        return float(words_to_reals(np.asarray([word]))[0])

    def take(self, n: int) -> np.ndarray:
        """Consume and return the next `n` values as an array."""
        if n < 0:
            raise ValueError("cannot take a negative number of values")
        if self._cursor + n > self.length:
            raise StreamExhaustedError(
                f"stream {self.label!r} holds {self.length - self._cursor} words, requested {n}"
            )
        lo = self.start + self._cursor
        self._cursor += n
        return words_to_reals(self.file.words[lo:lo + n])

    def blocks(self, n_blocks: int, block: int):
        """Substreams 0..n_blocks-1 of `split(i, block)` as (rows, block) read-only views.

        Like `split`, ignores the cursor; raises for the first block past the end up front.
        """
        if block < 1:
            raise ValueError("block size must be positive")
        if n_blocks * block > self.length:
            self.split(self.length // block, block)  # raises CapacityError
        words = self.file.words[self.start :]
        return _chunks(lambda lo, n: words[lo : lo + n], n_blocks * block, block)

    def split(self, trial_index: int, block: int = DEFAULT_BLOCK) -> "LambdaStream":
        """Substream owning words [i*block, (i+1)*block) of this stream's range.

        Values depend only on (file, index path), never on consumption order.
        """
        if trial_index < 0:
            raise ValueError("trial index must be nonnegative")
        if block < 1:
            raise ValueError("block size must be positive")
        end = (trial_index + 1) * block
        if end > self.length:
            raise CapacityError(
                f"substream {trial_index} needs words up to {end}, "
                f"stream {self.label!r} holds {self.length}"
            )
        return LambdaStream(
            self.file,
            self.start + trial_index * block,
            block,
            f"{self.label}[{trial_index}]",
        )

