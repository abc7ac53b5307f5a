"""Lambda file and stream tests: determinism, format, splitting, uniformity."""

import argparse
import re
import struct
import time
import weakref

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronobell as cb
from chronobell import cli_lambda, lambdafile, pcg64
from chronobell.chronology import CHUNK_TRIALS
from chronobell.lambdafile import FORMAT_VERSION, MAGIC, Blocks, word_blocks, words_to_reals
from support import lambda_file_from_reals

# first words of the stored generator at seed 1, frozen so that any change to
# the expansion algorithm is caught as a replay break
GOLDEN_SEED1_WORDS = [
    9441442522235856127,
    17532960557476522086,
    2659275481604167885,
    17499493567006797778,
]


class TestGeneration:
    def test_deterministic(self):
        one = cb.generate_lambda_file(seed=1, count=10)
        two = cb.generate_lambda_file(seed=1, count=10)
        assert one.to_bytes() == two.to_bytes()

    def test_golden_words(self):
        lf = cb.generate_lambda_file(seed=1, count=4)
        assert lf.words.tolist() == GOLDEN_SEED1_WORDS

    def test_seed_sensitivity(self):
        one = cb.generate_lambda_file(seed=1, count=10)
        two = cb.generate_lambda_file(seed=2, count=10)
        assert not np.array_equal(one.words, two.words)

    def test_count_zero_rejected(self):
        with pytest.raises(cb.EmptyFileError):
            cb.generate_lambda_file(seed=1, count=0)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            cb.generate_lambda_file(seed=-1, count=4)

    def test_uniformity_mean_and_chisquare(self):
        values = cb.generate_lambda_file(seed=7, count=100_000).stream().take(100_000)
        assert np.all((values >= 0.0) & (values < 1.0))
        assert abs(values.mean() - 0.5) < 0.01
        counts, _ = np.histogram(values, bins=16, range=(0.0, 1.0))
        result = scipy.stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_uniformity_kolmogorov_smirnov(self):
        n = 100_000
        values = cb.generate_lambda_file(seed=7, count=n).stream().take(n)
        statistic = scipy.stats.kstest(values, "uniform").statistic
        # 0.1% critical value of the one-sample KS statistic, asymptotic form
        critical = 1.9495 / np.sqrt(n)
        assert statistic < critical


class TestWordMapping:
    def test_zero_word(self):
        stream = cb.LambdaFile(np.array([0], dtype=np.uint64)).stream()
        assert stream.next_real() == 0.0

    def test_midpoint_word(self):
        stream = cb.LambdaFile(np.array([2**63], dtype=np.uint64)).stream()
        assert stream.next_real() == 0.5

    def test_top_word_stays_below_one(self):
        stream = cb.LambdaFile(np.array([2**64 - 1], dtype=np.uint64)).stream()
        assert stream.next_real() < 1.0

    def test_matches_division_on_53_bit_grid(self):
        words = np.array([0, 1 << 11, 3 << 40, 2**63, 2**64 - 2**11], dtype=np.uint64)
        assert_equal = np.testing.assert_array_equal
        assert_equal(words_to_reals(words), np.array([int(w) >> 11 for w in words]) * 2.0**-53)

    def test_from_reals_roundtrip(self):
        values = [0.0, 0.25, 0.3, 0.9999]
        lf = lambda_file_from_reals(values)
        np.testing.assert_allclose(lf.stream().take(4), values, atol=2**-52)

    def test_from_reals_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_file_from_reals([1.0])


class TestStream:
    def test_two_streams_identical(self):
        lf = cb.generate_lambda_file(seed=3, count=32)
        s1, s2 = lf.stream(), lf.stream()
        assert [s1.next_real() for _ in range(32)] == [s2.next_real() for _ in range(32)]

    def test_rewind_replays(self):
        stream = cb.generate_lambda_file(seed=3, count=16).stream()
        first = [stream.next_real() for _ in range(10)]
        stream.rewind()
        assert [stream.next_real() for _ in range(10)] == first

    def test_exhaustion_raises(self):
        stream = cb.generate_lambda_file(seed=3, count=2).stream()
        stream.take(2)
        with pytest.raises(cb.StreamExhaustedError, match=r"^stream 'root' exhausted after 2 words$"):
            stream.next_real()

    def test_take_exhaustion(self):
        stream = cb.generate_lambda_file(seed=3, count=2).stream()
        with pytest.raises(cb.StreamExhaustedError, match=r"^stream 'root' exhausted after 2 words$"):
            stream.take(3)


class TestSplitting:
    def test_order_independence(self):
        lf = cb.generate_lambda_file(seed=5, count=64 * 8)
        root = lf.stream()
        late_first = root.split(5).take(4)
        early_second = root.split(3).take(4)

        other = lf.stream()
        early_first = other.split(3).take(4)
        late_second = other.split(5).take(4)
        np.testing.assert_array_equal(late_first, late_second)
        np.testing.assert_array_equal(early_second, early_first)

    def test_disjoint_ranges(self):
        root = cb.generate_lambda_file(seed=5, count=64 * 4).stream()
        s0, s1 = root.split(0), root.split(1)
        assert s0.start + s0.length <= s1.start

    def test_block_size_configurable(self):
        lf = cb.generate_lambda_file(seed=5, count=10)
        sub = lf.stream().split(4, block=2)
        np.testing.assert_array_equal(sub.take(2), words_to_reals(lf.words[8:10]))

    def test_capacity_error(self):
        root = cb.generate_lambda_file(seed=5, count=64).stream()
        with pytest.raises(cb.CapacityError):
            root.split(1)

    def test_negative_index_rejected(self):
        root = cb.generate_lambda_file(seed=5, count=64).stream()
        with pytest.raises(ValueError):
            root.split(-1)

    def test_replay_after_reload(self, tmp_path):
        """Splitting survives a save/load cycle bit-exactly (process restart)."""
        lf = cb.generate_lambda_file(seed=9, count=64 * 6)
        before = lf.stream().split(5).take(8)
        path = lf.save(tmp_path / "lam.bin")
        after = cb.LambdaFile.load(path).stream().split(5).take(8)
        np.testing.assert_array_equal(before, after)


def _blob(magic, version, count, seed_note, payload):
    """A header over `payload`; a count of None is the payload's whole words."""
    count = len(payload) // 8 if count is None else count
    return struct.pack("<4sBQQ", magic, version, count, seed_note) + payload


BLOBS = st.binary(max_size=64) | st.builds(
    _blob,
    st.sampled_from([MAGIC, b"LMDB"]),
    st.sampled_from([FORMAT_VERSION, 0, 2]),
    st.none() | st.integers(0, 9) | st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.binary(max_size=80),
)


class TestFileFormat:
    @settings(max_examples=300, deadline=None)
    @given(blob=BLOBS)
    def test_arbitrary_bytes_round_trip_or_raise_format_errors(self, blob):
        try:
            lf = cb.LambdaFile.from_bytes(blob)
        except (cb.LambdaFormatError, cb.EmptyFileError):
            return
        assert lf.to_bytes() == blob

    def test_header_layout(self):
        lf = cb.generate_lambda_file(seed=11, count=3)
        blob = lf.to_bytes()
        magic, version, count, seed = struct.unpack_from("<4sBQQ", blob)
        assert magic == MAGIC == b"LMDA"
        assert version == FORMAT_VERSION == 1
        assert count == 3
        assert seed == 11
        payload = np.frombuffer(blob[21:], dtype="<u8")
        np.testing.assert_array_equal(payload, lf.words)

    def test_roundtrip(self, tmp_path):
        lf = cb.generate_lambda_file(seed=11, count=100)
        path = lf.save(tmp_path / "file.bin")
        loaded = cb.LambdaFile.load(path)
        np.testing.assert_array_equal(loaded.words, lf.words)
        assert loaded.seed_note == 11

    def test_bad_magic_rejected(self):
        blob = b"NOPE" + bytes(17)
        with pytest.raises(cb.LambdaFormatError):
            cb.LambdaFile.from_bytes(blob)

    def test_truncated_payload_rejected(self):
        blob = cb.generate_lambda_file(seed=1, count=4).to_bytes()[:-3]
        with pytest.raises(cb.LambdaFormatError):
            cb.LambdaFile.from_bytes(blob)

    def test_unknown_version_rejected(self):
        blob = bytearray(cb.generate_lambda_file(seed=1, count=1).to_bytes())
        blob[4] = 9
        with pytest.raises(cb.LambdaFormatError):
            cb.LambdaFile.from_bytes(bytes(blob))


def _corrupt(blob: bytes, how: str) -> bytes:
    if how == "truncated":
        return blob[:-3]
    if how == "header-only-part":
        return blob[:10]
    if how == "bad-magic":
        return b"NOPE" + blob[4:]
    if how == "bad-version":
        return blob[:4] + bytes([9]) + blob[5:]
    if how == "over-long":
        return blob + bytes(8)
    raise ValueError(how)


class TestLoad:
    @pytest.mark.parametrize(
        "how", ["truncated", "header-only-part", "bad-magic", "bad-version", "over-long"]
    )
    def test_corrupt_file_rejected_like_from_bytes(self, tmp_path, how):
        blob = _corrupt(cb.generate_lambda_file(seed=1, count=4).to_bytes(), how)
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(cb.LambdaFormatError) as from_file:
            cb.LambdaFile.load(path)
        with pytest.raises(cb.LambdaFormatError) as from_blob:
            cb.LambdaFile.from_bytes(blob)
        assert str(from_file.value) == str(from_blob.value)

    def test_empty_payload_rejected(self, tmp_path):
        blob = struct.pack("<4sBQQ", MAGIC, FORMAT_VERSION, 0, 5)
        path = tmp_path / "empty.bin"
        path.write_bytes(blob)
        with pytest.raises(cb.EmptyFileError):
            cb.LambdaFile.load(path)
        with pytest.raises(cb.EmptyFileError):
            cb.LambdaFile.from_bytes(blob)

    def test_loaded_words_are_read_only(self, tmp_path):
        path = cb.generate_lambda_file(seed=2, count=8).save(tmp_path / "lam.bin")
        loaded = cb.LambdaFile.load(path)
        assert loaded.words.dtype == np.uint64
        with pytest.raises(ValueError):
            loaded.words[0] = 1

    def test_save_load_bytes_identical(self, tmp_path):
        lf = cb.generate_lambda_file(seed=2, count=1000)
        path = lf.save(tmp_path / "lam.bin")
        assert path.read_bytes() == lf.to_bytes()
        assert cb.LambdaFile.load(path).to_bytes() == lf.to_bytes()

    def test_user_arrays_are_still_copied(self):
        words = np.arange(4, dtype=np.uint64)
        lf = cb.LambdaFile(words)
        words[0] = 99
        assert lf.words[0] == 0
        assert words.flags.writeable


def _lambda_args(path=None, seed=None) -> argparse.Namespace:
    return argparse.Namespace(lambda_file=None if path is None else str(path), seed=seed)


class TestWordBlocks:
    @settings(max_examples=80, deadline=None)
    @given(
        n_blocks=st.integers(1, 40),
        block=st.integers(1, 24),
        rows=st.integers(1, 8),
        spare=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_chunks_replay_the_stored_and_generated_words(
        self, tmp_path_factory, n_blocks, block, rows, spare, seed
    ):
        needed = n_blocks * block
        path = cb.generate_lambda_file(seed, needed + spare).save(
            tmp_path_factory.mktemp("blocks") / "lam.bin"
        )
        loaded = cb.LambdaFile.load(path)
        expected = loaded.words[:needed].reshape(n_blocks, block)
        np.testing.assert_array_equal(
            cb.generate_lambda_file(seed, needed).words.reshape(n_blocks, block), expected
        )
        # several chunks per run
        resolve = cli_lambda._resolve_lambda
        stored, from_file = resolve(_lambda_args(path=path), n_blocks, block, rows)
        generated, from_seed = resolve(_lambda_args(seed=seed), n_blocks, block, rows)
        assert (stored["words"], generated["words"]) == (needed + spare, needed)
        for chunks in (loaded.stream().blocks(n_blocks, block, rows), from_file, from_seed):
            chunks = [c[:, :] for c in chunks]  # a seeded chunk's words, made by indexing it
            for c in chunks:
                assert c.dtype == np.uint64 and c.shape[1] == block
            assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
            assert 0 < len(chunks[-1]) <= rows
            np.testing.assert_array_equal(np.concatenate(chunks), expected)

    @pytest.mark.parametrize(
        "how", ["truncated", "header-only-part", "bad-magic", "bad-version", "over-long"]
    )
    def test_corrupt_file_rejected_like_load(self, tmp_path, how):
        path = tmp_path / "bad.bin"
        path.write_bytes(_corrupt(cb.generate_lambda_file(seed=1, count=4).to_bytes(), how))
        with pytest.raises(cb.LambdaFormatError) as from_load:
            cb.LambdaFile.load(path)
        with pytest.raises(cb.LambdaFormatError) as from_blocks:
            word_blocks(2, 2, path=path, rows=1)
        assert str(from_blocks.value) == str(from_load.value)

    def test_empty_payload_rejected_like_load(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack("<4sBQQ", MAGIC, FORMAT_VERSION, 0, 5))
        with pytest.raises(cb.EmptyFileError, match="at least one word"):
            word_blocks(1, 1, path=path, rows=1)

    def test_undersized_file_names_both_counts(self, tmp_path):
        path = cb.generate_lambda_file(seed=1, count=10).save(tmp_path / "small.bin")
        with pytest.raises(cb.CapacityError) as exc:
            word_blocks(3, 4, path=path, rows=1)
        assert str(exc.value) == f"lambda file {path} holds 10 words, this run needs 12"

    def test_file_that_shrinks_while_read(self, tmp_path):
        path = cb.generate_lambda_file(seed=1, count=100).save(tmp_path / "lam.bin")
        _, chunks = word_blocks(10, 10, path=path, rows=1)
        chunks[0]
        with path.open("r+b") as fh:
            fh.truncate(21 + 8 * 15)
        with pytest.raises(cb.LambdaFormatError, match="ran out after 15 of 100"):
            list(chunks)

    # a count of 0 is refused by generate, but no blocks from a seed is an empty `Blocks`,
    # as from a file or a stream (TestBlocks::test_bad_chunk_arguments_rejected_up_front)
    @pytest.mark.parametrize("seed, count", [(-1, 4), (2**64, 4)])
    def test_bad_seed_or_count_rejected_like_generate(self, seed, count):
        with pytest.raises((ValueError, cb.EmptyFileError)) as from_generate:
            cb.generate_lambda_file(seed, count)
        with pytest.raises(type(from_generate.value), match=str(from_generate.value)):
            word_blocks(count, 1, seed=seed, rows=1)


EDGE_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]


class TestPrefixReads:
    """Covariance's key ``words[:, :p]``, the first p words of each block, read from the
    chunks of a file or of a seed (`pcg64.Chunk`s) as from the stored words."""

    @pytest.mark.filterwarnings("error")  # numpy warns when uint64 scalars overflow
    @settings(max_examples=80, deadline=None)
    @given(
        n_blocks=st.integers(1, 40),
        block=st.integers(1, 24),
        data=st.data(),
        rows=st.integers(1, 8),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_prefix_chunks_replay_the_leading_words(
        self, tmp_path_factory, n_blocks, block, data, rows, seed
    ):
        prefix = data.draw(st.integers(1, block), label="prefix")
        dense = cb.generate_lambda_file(seed, n_blocks * block)
        expected = dense.words.reshape(n_blocks, block)[:, :prefix]
        path = dense.save(tmp_path_factory.mktemp("prefix") / "lam.bin")
        for source in ({"path": path}, {"seed": seed}):  # several chunks per run
            available, chunks = word_blocks(n_blocks, block, rows=rows, **source)
            assert available == n_blocks * block
            chunks = [c[:, :prefix] for c in chunks]
            for c in chunks:
                assert c.dtype == np.uint64 and c.shape[1] == prefix
            assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
            assert 0 < len(chunks[-1]) <= rows
            np.testing.assert_array_equal(np.concatenate(chunks), expected)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0).via("edge")
    @example(seed=2**32 - 1).via("edge")
    @example(seed=2**32).via("edge")
    @example(seed=2**64 - 1).via("edge")
    def test_seeding_equals_numpys(self, seed):
        state = np.random.PCG64(seed).state["state"]
        assert pcg64.seed_state(seed) == (state["state"], state["inc"])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("n_blocks, block, prefix", [(5000, 64, 2), (600, 3061, 5), (3, 2, 1)])
    def test_default_chunks_equal_random_raw(self, seed, n_blocks, block, prefix):
        # the chunk heights the consumers pass: covariance's for its 64-word blocks, else
        # flash's; 5000 and 600 blocks cross their chunk edges at 2048 and 256 rows
        rows = CHUNK_TRIALS if block == lambdafile.DEFAULT_BLOCK else cb.flash.CHUNK_RUNS
        expected = np.random.PCG64(seed).random_raw(n_blocks * block).reshape(n_blocks, block)
        _, chunks = word_blocks(n_blocks, block, seed=seed, rows=rows)
        got = [chunk[:, :prefix] for chunk in chunks]
        np.testing.assert_array_equal(np.concatenate(got), expected[:, :prefix])


def _sources(lf, path, rows, n_blocks=10, block=8):
    """Chunks of lf's first `n_blocks` blocks of `block` words, from every source, by name."""
    return {
        "file": word_blocks(n_blocks, block, path=path, rows=rows)[1],
        "seed": word_blocks(n_blocks, block, seed=lf.seed_note, rows=rows)[1],
        "stream": lf.stream().blocks(n_blocks, block, rows),
    }


class TestChunkShapeAndLifetime:
    """`rows` sets a chunk's height; no chunk source keeps a chunk it has yielded."""

    @pytest.mark.parametrize("rows", [1, 3, 10, 11])
    def test_rows_set_the_chunk_height(self, tmp_path, rows):
        lf = cb.generate_lambda_file(seed=6, count=10 * 8)
        heights = [min(rows, 10 - lo) for lo in range(0, 10, rows)]
        for name, chunks in _sources(lf, lf.save(tmp_path / "lam.bin"), rows).items():
            chunks = list(chunks)
            assert [c.shape[0] for c in chunks] == heights, name
            np.testing.assert_array_equal(np.concatenate([c[:, :] for c in chunks]),
                                          lf.words.reshape(10, 8))

    @pytest.mark.parametrize("name", ["file", "seed", "stream"])
    def test_a_dropped_chunk_is_freed_before_the_next_is_read(self, tmp_path, name):
        lf = cb.generate_lambda_file(seed=6, count=10 * 8)
        chunks = iter(_sources(lf, lf.save(tmp_path / "lam.bin"), 2)[name])
        chunk = next(chunks)
        for _ in range(4):
            # the buffer a chunk views, unless that is the stream's file, which stays
            base = getattr(chunk, "base", None)
            ref = weakref.ref(chunk if base is None or base is lf.words else base)
            del chunk, base
            assert ref() is None
            chunk = next(chunks)


class TestBlocks:
    """Every source is one `Blocks`, which finds chunk k by index arithmetic."""

    @pytest.mark.filterwarnings("error")  # numpy warns when uint64 scalars overflow
    @settings(max_examples=60, deadline=None)
    @given(
        n_blocks=st.integers(1, 40),
        block=st.integers(1, 24),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
        data=st.data(),
    )
    def test_chunk_k_is_the_kth_chunk_read_in_order(
        self, tmp_path_factory, n_blocks, block, rows, seed, data
    ):
        lf = cb.generate_lambda_file(seed, n_blocks * block)
        path = lf.save(tmp_path_factory.mktemp("blocks") / "lam.bin")
        stored = lf.words.reshape(n_blocks, block)
        generated = np.random.PCG64(seed).random_raw(n_blocks * block).reshape(n_blocks, block)
        for name, blocks in _sources(lf, path, rows, n_blocks, block).items():
            assert len(blocks) == -(-n_blocks // rows), name
            in_order = [chunk[:, :] for chunk in blocks]
            assert len(in_order) == len(blocks), name
            k = data.draw(st.integers(0, len(blocks) - 1), label=f"k of {name}")
            expected = (generated if name == "seed" else stored)[k * rows : (k + 1) * rows]
            np.testing.assert_array_equal(blocks[k][:, :], in_order[k])
            np.testing.assert_array_equal(blocks[k][:, :], expected)
            for past in (len(blocks), -1):
                with pytest.raises(IndexError, match=rf"chunk {past} is not in \[0, "):
                    blocks[past]

    def test_the_last_seeded_chunk_past_word_2_to_the_60_is_found_at_once(self):
        rows, block = 256, 64
        blocks = word_blocks(2**55, block, seed=7, rows=rows)[1]  # 2**61 words
        k = len(blocks) - 1
        start = time.perf_counter()
        chunk = blocks[k]
        elapsed = time.perf_counter() - start
        offset = k * rows * block
        assert offset >= 2**60 and chunk.shape == (rows, block)
        bits = np.random.PCG64(7)
        bits.advance(offset)
        expected = bits.random_raw(rows * block).reshape(rows, block)
        np.testing.assert_array_equal(chunk[:, :3], expected[:, :3])
        assert elapsed < 0.05

    def test_every_source_is_one_blocks_without_an_iterator_of_its_own(self, tmp_path):
        lf = cb.generate_lambda_file(seed=6, count=10 * 8)
        for name, blocks in _sources(lf, lf.save(tmp_path / "lam.bin"), 3).items():
            assert type(blocks) is Blocks, name
        assert "__iter__" not in vars(Blocks)  # iteration goes through [k]

    @pytest.mark.parametrize("n_blocks, rows", [(4, -1), (4, 0), (-1, 4)])
    def test_bad_chunk_arguments_rejected_up_front(self, tmp_path, n_blocks, rows):
        lf = cb.generate_lambda_file(seed=1, count=64)
        path = lf.save(tmp_path / "lam.bin")
        with pytest.raises(ValueError, match="chunks need rows >= 1 and n_blocks >= 0"):
            lf.stream().blocks(n_blocks, 8, rows)
        with pytest.raises(ValueError, match="chunks need rows >= 1 and n_blocks >= 0"):
            word_blocks(n_blocks, 8, path=path, rows=rows)
        with pytest.raises(ValueError, match="chunks need rows >= 1 and n_blocks >= 0"):
            word_blocks(n_blocks, 8, seed=1, rows=rows)
        # no blocks at all is no bad argument: every source gives the same empty sequence
        for name, blocks in _sources(lf, path, 4, n_blocks=0).items():
            assert type(blocks) is Blocks and len(blocks) == 0 and list(blocks) == [], name


class _Checked:
    """A chunk each of whose reads is compared with the same read of the array `dense`."""

    def __init__(self, chunk, dense):
        self.chunk, self.dense, self.shape, self.reads = chunk, dense, chunk.shape, []

    def __getitem__(self, key):
        got = self.chunk[key]
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, self.dense[key])
        self.reads.append(key)
        return got


def _flash_reads(words, rate, label="root", first_run=0):
    """`flash._draw_hits` on `words`, 2 particles for a duration of 1, or the error it raises."""
    try:
        return cb.flash._draw_hits(2, rate, 1.0, words, label, first_run)
    except cb.StreamExhaustedError as exc:
        return exc


class TestSeededFlashChunks:
    """The chunk contract: a seeded `pcg64.Chunk` reads as ``PCG64(seed).random_raw``
    reshaped to (rows, block) does, under every key `flash._draw_hits` uses and under
    any broadcast integer-array or two-slice key, and makes its words only when read."""

    @pytest.mark.filterwarnings("error")  # numpy warns when uint64 scalars overflow
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        block=st.integers(4, 60),
        runs=st.integers(1, 64),
        rows=st.integers(1, 32),
        rate=st.sampled_from([0.15, 0.5, 1.0, 6.0]),
    )
    @example(seed=0, block=256, runs=300, rows=256, rate=2.0).via("edge")
    @example(seed=2**64 - 1, block=31, runs=30, rows=4, rate=2.0).via("edge")
    @example(seed=3, block=256, runs=64, rows=64, rate=0.15).via("refill")
    @example(seed=7, block=4, runs=9, rows=4, rate=6.0).via("overrun")
    def test_every_word_read_equals_random_raw(self, seed, block, runs, rows, rate):
        dense = np.random.PCG64(seed).random_raw(runs * block).reshape(runs, block)
        available, chunks = word_blocks(runs, block, seed=seed, rows=rows)
        assert available == runs * block
        lo = 0
        for chunk in chunks:
            expected = dense[lo : lo + rows]
            assert chunk.shape == expected.shape
            got = _flash_reads(_Checked(chunk, expected), rate, first_run=lo)
            want = _flash_reads(expected, rate, first_run=lo)
            if isinstance(want, cb.StreamExhaustedError):  # a run needs word `block`
                assert type(got) is type(want) and str(got) == str(want)
                return
            for g, w in zip(got[:4], want[:4]):
                np.testing.assert_array_equal(g, w)
            lo += chunk.shape[0]
        assert lo == runs

    def test_windows_refill_for_the_runs_still_active(self):
        (chunk,) = word_blocks(64, 256, seed=3, rows=64)[1]
        words = _Checked(chunk, np.random.PCG64(3).random_raw(64 * 256).reshape(64, 256))
        _flash_reads(words, 0.15)
        windows = [(rows.size, len(columns)) for rows, columns in words.reads
                   if np.ndim(columns) == 2]
        # 64 runs, then the few still active; 3 waiting times each, then twice as many
        assert len(windows) == 2 and windows[1][0] < windows[0][0] == 64
        assert windows[1][1] == 2 * windows[0][1] == 6

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 40), data=st.data())
    def test_any_reads_equal_random_raw(self, seed, block, data):
        dense = np.random.PCG64(seed).random_raw(5 * block).reshape(5, block)
        (chunk,) = word_blocks(5, block, seed=seed, rows=8)[1]
        index = st.lists(st.integers(0, 4), min_size=1, max_size=4)
        for _ in range(6):
            if data.draw(st.booleans()):  # arrays that broadcast, a row or a column each
                rows = np.array(data.draw(index))[:, None]
                columns = np.array(data.draw(st.lists(st.integers(0, block - 1), min_size=1)))
                key = (rows, columns) if data.draw(st.booleans()) else (rows[:, 0], columns[:1])
            else:
                ends = st.none() | st.integers(-6, 42)
                key = tuple(slice(data.draw(ends), data.draw(ends)) for _ in range(2))
            np.testing.assert_array_equal(chunk[key], dense[key])
        for key in ((np.arange(5), np.full(5, block)), (np.array([5]), np.array([0]))):
            with pytest.raises(IndexError):
                dense[key]
            with pytest.raises(IndexError):
                chunk[key]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(4, 40), runs=st.integers(1, 200),
           rate=st.sampled_from([0.05, 0.15, 0.3, 3.0]))
    @example(seed=3, block=256, runs=64, rate=0.15).via("refill")
    def test_draw_hits_is_the_same_on_a_chunk_and_on_its_words(self, seed, block, runs, rate):
        (chunk,) = word_blocks(runs, block, seed=seed, rows=runs)[1]
        got, want = _flash_reads(chunk, rate, "r", 5), _flash_reads(chunk[:, :], rate, "r", 5)
        if isinstance(want, cb.StreamExhaustedError):
            assert type(got) is type(want) and str(got) == str(want)
            return
        time, particle, u_center, hit_counts, steps = got
        for g, w in zip((time, particle, u_center, hit_counts), want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert len(steps) == len(want[4])
        for (live, hit), (live_w, hit_w) in zip(steps, want[4]):
            np.testing.assert_array_equal(live, live_w)
            np.testing.assert_array_equal(hit, hit_w)

    def test_a_dropped_chunk_is_freed_before_the_next_is_made(self):
        chunks = iter(word_blocks(10, 8, seed=6, rows=2)[1])
        chunk = next(chunks)
        for _ in range(4):
            chunk[np.arange(2), np.arange(3)[:, None]]  # makes words
            ref = weakref.ref(chunk)
            del chunk
            assert ref() is None
            chunk = next(chunks)


class TestStreamBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(1, 600),
        start=st.integers(0, 100),
        cursor=st.integers(0, 20),
        n_blocks=st.integers(0, 60),
        block=st.integers(1, 16),
        rows=st.integers(1, 8),
    )
    def test_matches_split_take_oracle(self, seed, count, start, cursor, n_blocks, block, rows):
        lf = cb.generate_lambda_file(seed, count + start)
        stream = cb.LambdaStream(lf, start, count)
        stream.take(min(cursor, count))  # the cursor is ignored, as by split
        try:
            expected = [stream.split(i, block).take(block) for i in range(n_blocks)]
        except cb.CapacityError as exc:
            with pytest.raises(cb.CapacityError, match=re.escape(str(exc))):
                stream.blocks(n_blocks, block, rows)
            return
        chunks = list(stream.blocks(n_blocks, block, rows))
        for c in chunks:
            assert c.shape[1] == block and len(c) <= rows
            assert np.shares_memory(c, lf.words) and not c.flags.writeable
        got = words_to_reals(np.concatenate(chunks)) if chunks else np.zeros((0, block))
        np.testing.assert_array_equal(got, np.reshape(expected, (n_blocks, block)))

    def test_capacity_error_names_the_first_block_past_the_end(self):
        stream = cb.generate_lambda_file(seed=1, count=64 * 7).stream()
        with pytest.raises(cb.CapacityError, match="substream 7 needs words up to 512"):
            stream.blocks(8, 64, 1)

    def test_bad_block_sizes_rejected(self):
        stream = cb.generate_lambda_file(seed=1, count=64).stream()
        for block in (0, -3):
            with pytest.raises(ValueError, match="block size must be positive"):
                stream.blocks(4, block, 1)
        with pytest.raises(cb.CapacityError):
            stream.blocks(100, 1, 1)
