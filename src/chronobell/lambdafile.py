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
fixes where every word is, a batch of substreams can be read as one strided
slice of `LambdaFile.words` instead of one `split` per substream.
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
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, words: np.ndarray, seed_note: int = 0) -> "LambdaFile":
        """Take ownership of a fresh array that nothing else references, uncopied."""
        lf = object.__new__(cls)
        object.__setattr__(lf, "words", words)
        object.__setattr__(lf, "seed_note", seed_note)
        lf._freeze(copy=False)
        return lf

    def _freeze(self, copy: bool) -> None:
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.ndim != 1:
            raise LambdaFormatError("payload must be a flat word sequence")
        if words.size == 0:
            raise EmptyFileError("a lambda file must contain at least one word")
        if copy:
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

    def buffers(self) -> tuple[bytes, memoryview]:
        """The stored file as its header and its little-endian payload, uncopied."""
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, self.count, self.seed_note)
        return header, memoryview(self.words.astype("<u8", copy=False))

    def to_bytes(self) -> bytes:
        return b"".join(self.buffers())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LambdaFile":
        count, seed_note = _parse_header(blob)
        _check_payload(len(blob) - _HEADER.size, count)
        return cls(np.frombuffer(blob, dtype="<u8", offset=_HEADER.size), seed_note)

    def save(self, path) -> Path:
        path = Path(path)
        with path.open("wb") as fh:
            for buf in self.buffers():
                fh.write(buf)
        return path

    @classmethod
    def load(cls, path) -> "LambdaFile":
        """Read a stored file, holding its payload in memory once."""
        path = Path(path)
        with path.open("rb") as fh:
            count, seed_note = _parse_header(fh.read(_HEADER.size))
            _check_payload(os.fstat(fh.fileno()).st_size - _HEADER.size, count)
            words = np.fromfile(fh, dtype="<u8", count=count)
        _check_payload(8 * words.size, count)  # the file shrank after the size check
        return cls._adopt(words, seed_note)

    def stream(self, label: str = "root") -> "LambdaStream":
        """A cursor over the whole file."""
        return LambdaStream(self, 0, self.count, label)


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
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    count = int(count)
    if count < 1:
        raise EmptyFileError("count must be at least 1")
    return LambdaFile._adopt(np.random.PCG64(seed).random_raw(count), seed_note=seed)


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

    @property
    def remaining(self) -> int:
        return self.length - self._cursor

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
                f"stream {self.label!r} holds {self.remaining} words, requested {n}"
            )
        lo = self.start + self._cursor
        self._cursor += n
        return words_to_reals(self.file.words[lo:lo + n])

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

