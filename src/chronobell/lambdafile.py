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
substreams only as chunks of the `rows` blocks they ask for, from a file or a
seed (`word_blocks`) or from memory (`LambdaStream.blocks`). Each source is a
`Blocks`, which finds chunk k by index arithmetic and keeps no chunk once it is
read, so a consumer that drops chunk k before asking for chunk k+1 never holds two.

A consumer indexes each chunk for the words it reads: a covariance trial reads
2 of its 64 (``words[:, :2]``), a flash run a part of its block that depends on
the run. From a file each chunk is read whole. From a seed it is a
`pcg64.Chunk`, indexed the same way, which makes only the words indexed: `pcg64`
jumps ahead to each, without ``numpy.random``. Readers of every word
(`generate_lambda_file`, ``gen-lambda``) take `dense_words`, whose
``PCG64.random_raw`` makes consecutive words faster than jumps do.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    EmptyFileError,
    LambdaFormatError,
    StreamExhaustedError,
)
from .values import Frozen

MAGIC = b"LMDA"
FORMAT_VERSION = 1
DEFAULT_BLOCK = 64
CHUNK_WORDS = 1 << 17  # words (1 MiB) per array of `dense_words`

_HEADER = struct.Struct("<4sBQQ")


def words_to_reals(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to floats in [0, 1) on the 53-bit grid."""
    words = np.asarray(words, dtype=np.uint64)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class LambdaFile(Frozen):
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
        vars(self).update(words=words, seed_note=int(self.seed_note) & (2**64 - 1))

    @property
    def count(self) -> int:
        return int(self.words.size)

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
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path) -> "LambdaFile":
        """Read a stored file: one read of the file, then the copy every LambdaFile makes."""
        return cls.from_bytes(Path(path).read_bytes())

    def stream(self, label: str = "root") -> "LambdaStream":
        """A cursor over the whole file."""
        return LambdaStream(self, 0, self.count, label)


def check_real(lam: float) -> None:
    """Refuse a lambda value outside [0, 1), where every stored word maps."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda value must lie in [0, 1), got {lam!r}")


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
    (words,) = dense_words(seed, int(count), int(count))  # one chunk
    return LambdaFile(words, seed_note=int(seed))


def dense_words(seed: int, count: int, step: int = CHUNK_WORDS):
    """Words [0, count) of ``PCG64(seed)`` as little-endian arrays of `step` words, the
    last maybe fewer, made in order by ``random_raw``. Bad input raises before this returns."""
    bits = np.random.PCG64(_checked_seed(seed))
    if count < 1:
        raise EmptyFileError("count must be at least 1")
    return (bits.random_raw(min(step, count - lo)).astype("<u8", copy=False)
            for lo in range(0, count, step))


def _checked_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return seed


def word_blocks(n_blocks: int, block: int, *, path=None, seed=None, rows: int):
    """(words available, `Blocks` of the first `n_blocks` blocks of `block` words, `rows` a chunk).

    The words come from the stored file at `path` if it is given, else from
    `seed`. From a file a chunk is a (rows, block) array, read at its offset; from
    a seed, a `pcg64.Chunk` that makes the words it is indexed by. Bad input raises
    before this returns; a file that shrinks raises when the missing chunk is read.
    """
    needed = n_blocks * block
    if path is None:
        from . import pcg64

        read = pcg64.reader(_checked_seed(seed), block, min(rows, n_blocks))
        return needed, Blocks(read, n_blocks, rows)
    with Path(path).open("rb") as fh:
        available, _ = _parse_header(fh.read(_HEADER.size))
        _check_payload(os.fstat(fh.fileno()).st_size - _HEADER.size, available)
    if available == 0:
        raise EmptyFileError("a lambda file must contain at least one word")
    if available < needed:
        raise CapacityError(f"lambda file {path} holds {available} words, this run needs {needed}")

    def read(first: int, n: int) -> np.ndarray:
        words = np.fromfile(path, "<u8", n * block, offset=_HEADER.size + 8 * first * block)
        if words.size != n * block:
            raise LambdaFormatError(f"lambda words ran out after {first * block + words.size} "
                                    f"of {needed}")
        return words.reshape(n, block)

    return available, Blocks(read, n_blocks, rows)


class Blocks:
    """Blocks 0..n_blocks-1 of a word source in chunks: chunk k is ``read(k * rows, n)``, its
    n <= rows blocks from block k * rows on. Iteration goes through ``[k]``; no chunk is kept."""

    def __init__(self, read, n_blocks: int, rows: int) -> None:
        if rows < 1 or n_blocks < 0:
            raise ValueError(f"chunks need rows >= 1 and n_blocks >= 0, got {rows} and {n_blocks}")
        self._read, self._n_blocks, self._rows = read, n_blocks, rows

    def __len__(self) -> int:
        return -(-self._n_blocks // self._rows)

    def __getitem__(self, k: int):
        if not 0 <= k < len(self):
            raise IndexError(f"chunk {k} is not in [0, {len(self)})")
        return self._read(k * self._rows, min(self._rows, self._n_blocks - k * self._rows))


class LambdaStream:
    """Single-owner cursor over a contiguous word range of a LambdaFile.

    Reading advances the cursor; `rewind()` restores it, and re-reading yields
    the identical sequence. Not safe for concurrent mutation; parallel trials
    must take one substream each via `split`.
    """

    def __init__(self, file: LambdaFile, start: int = 0, length: int | None = None,
                 label: str = "root") -> None:
        length = file.count - start if length is None else length
        if start < 0 or length < 0 or start + length > file.count:
            raise CapacityError(f"range [{start}, {start + length}) exceeds "
                                f"file capacity {file.count}")
        self.file, self.start, self.length, self.label = file, start, length, label
        self._cursor = 0

    @property
    def position(self) -> int:
        return self._cursor

    def rewind(self) -> None:
        self._cursor = 0

    def next_real(self) -> float:
        """The next stored value as a float in [0, 1)."""
        return float(self.take(1)[0])

    def take(self, n: int) -> np.ndarray:
        """Consume and return the next `n` values as an array."""
        if n < 0:
            raise ValueError("cannot take a negative number of values")
        if self._cursor + n > self.length:
            raise StreamExhaustedError(f"stream {self.label!r} exhausted after {self.length} words")
        lo = self.start + self._cursor
        self._cursor += n
        return words_to_reals(self.file.words[lo:lo + n])

    def blocks(self, n_blocks: int, block: int, rows: int) -> Blocks:
        """Substreams 0..n_blocks-1 of `split(i, block)` as `Blocks` of `rows`-high read-only views.

        Like `split`, ignores the cursor; raises for the first block past the end up front.
        """
        if block < 1:
            raise ValueError("block size must be positive")
        if n_blocks * block > self.length:
            self.split(self.length // block, block)  # raises CapacityError
        words = self.file.words[self.start :]
        return Blocks(lambda first, n: words[first * block : (first + n) * block].reshape(n, block),
                      n_blocks, rows)

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
            raise CapacityError(f"substream {trial_index} needs words up to {end}, "
                                f"stream {self.label!r} holds {self.length}")
        return LambdaStream(self.file, self.start + trial_index * block, block,
                            f"{self.label}[{trial_index}]")

