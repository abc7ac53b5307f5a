"""Lambda file and stream tests: determinism, format, splitting, uniformity."""

import argparse
import re
import struct
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import chronobell as cb
from chronobell import cli, lambdafile
from chronobell.lambdafile import FORMAT_VERSION, MAGIC, word_blocks, words_to_reals

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
        lf = cb.LambdaFile.from_reals(values)
        np.testing.assert_allclose(lf.stream().take(4), values, atol=2**-52)

    def test_from_reals_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cb.LambdaFile.from_reals([1.0])


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
        with pytest.raises(cb.StreamExhaustedError):
            stream.next_real()

    def test_take_exhaustion(self):
        stream = cb.generate_lambda_file(seed=3, count=2).stream()
        with pytest.raises(cb.StreamExhaustedError):
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
        chunk=st.integers(1, 64),
        rows=st.integers(1, 8),
        spare=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_chunks_replay_the_stored_and_generated_words(
        self, tmp_path_factory, n_blocks, block, chunk, rows, spare, seed
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
        # several chunks per run, sized by words or by rows
        with mock.patch.multiple(lambdafile, CHUNK_WORDS=chunk, CHUNK_ROWS=rows):
            stored, from_file = cli._resolve_lambda(_lambda_args(path=path), n_blocks, block)
            generated, from_seed = cli._resolve_lambda(_lambda_args(seed=seed), n_blocks, block)
            assert (stored["words"], generated["words"]) == (needed + spare, needed)
            step = max(rows, chunk // block)
            for chunks in (loaded.stream().blocks(n_blocks, block), from_file, from_seed):
                chunks = list(chunks)
                for c in chunks:
                    assert c.dtype == np.uint64 and c.shape[1] == block
                assert [len(c) for c in chunks[:-1]] == [step] * (len(chunks) - 1)
                assert 0 < len(chunks[-1]) <= step
                np.testing.assert_array_equal(np.concatenate(chunks), expected)

    @pytest.mark.parametrize(
        "n_blocks, block, rows", [(70000, 2, [65536, 4464]), (1000, 1024, [512, 488])]
    )
    def test_chunks_hold_chunk_words_or_chunk_rows(self, n_blocks, block, rows):
        _, chunks = word_blocks(n_blocks, block, seed=1)
        assert [len(c) for c in chunks] == rows

    @pytest.mark.parametrize(
        "how", ["truncated", "header-only-part", "bad-magic", "bad-version", "over-long"]
    )
    def test_corrupt_file_rejected_like_load(self, tmp_path, how):
        path = tmp_path / "bad.bin"
        path.write_bytes(_corrupt(cb.generate_lambda_file(seed=1, count=4).to_bytes(), how))
        with pytest.raises(cb.LambdaFormatError) as from_load:
            cb.LambdaFile.load(path)
        with pytest.raises(cb.LambdaFormatError) as from_blocks:
            word_blocks(2, 2, path=path)
        assert str(from_blocks.value) == str(from_load.value)

    def test_empty_payload_rejected_like_load(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(struct.pack("<4sBQQ", MAGIC, FORMAT_VERSION, 0, 5))
        with pytest.raises(cb.EmptyFileError, match="at least one word"):
            word_blocks(1, 1, path=path)

    def test_undersized_file_names_both_counts(self, tmp_path):
        path = cb.generate_lambda_file(seed=1, count=10).save(tmp_path / "small.bin")
        with pytest.raises(cb.CapacityError) as exc:
            word_blocks(3, 4, path=path)
        assert str(exc.value) == f"lambda file {path} holds 10 words, this run needs 12"

    def test_file_that_shrinks_while_read(self, tmp_path):
        path = cb.generate_lambda_file(seed=1, count=100).save(tmp_path / "lam.bin")
        with mock.patch.multiple(lambdafile, CHUNK_WORDS=10, CHUNK_ROWS=1):
            _, chunks = word_blocks(10, 10, path=path)
            next(chunks)
            with path.open("r+b") as fh:
                fh.truncate(21 + 8 * 15)
            with pytest.raises(cb.LambdaFormatError, match="ran out after 15 of 100"):
                list(chunks)

    @pytest.mark.parametrize("seed, count", [(-1, 4), (2**64, 4), (1, 0)])
    def test_bad_seed_or_count_rejected_like_generate(self, seed, count):
        with pytest.raises((ValueError, cb.EmptyFileError)) as from_generate:
            cb.generate_lambda_file(seed, count)
        with pytest.raises(type(from_generate.value), match=str(from_generate.value)):
            word_blocks(count, 1, seed=seed)


class TestStreamBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(1, 600),
        start=st.integers(0, 100),
        cursor=st.integers(0, 20),
        n_blocks=st.integers(0, 60),
        block=st.integers(1, 16),
        chunk=st.integers(1, 64),
        rows=st.integers(1, 8),
    )
    def test_matches_split_take_oracle(
        self, seed, count, start, cursor, n_blocks, block, chunk, rows
    ):
        lf = cb.generate_lambda_file(seed, count + start)
        stream = cb.LambdaStream(lf, start, count)
        stream.take(min(cursor, count))  # the cursor is ignored, as by split
        try:
            expected = [stream.split(i, block).take(block) for i in range(n_blocks)]
        except cb.CapacityError as exc:
            with pytest.raises(cb.CapacityError, match=re.escape(str(exc))):
                stream.blocks(n_blocks, block)
            return
        with mock.patch.multiple(lambdafile, CHUNK_WORDS=chunk, CHUNK_ROWS=rows):
            chunks = list(stream.blocks(n_blocks, block))
        for c in chunks:
            assert c.shape[1] == block and len(c) <= max(rows, chunk // block)
            assert np.shares_memory(c, lf.words) and not c.flags.writeable
        got = words_to_reals(np.concatenate(chunks)) if chunks else np.zeros((0, block))
        np.testing.assert_array_equal(got, np.reshape(expected, (n_blocks, block)))

    def test_capacity_error_names_the_first_block_past_the_end(self):
        stream = cb.generate_lambda_file(seed=1, count=64 * 7).stream()
        with pytest.raises(cb.CapacityError, match="substream 7 needs words up to 512"):
            stream.blocks(8, 64)

    def test_bad_block_sizes_rejected(self):
        stream = cb.generate_lambda_file(seed=1, count=64).stream()
        for block in (0, -3):
            with pytest.raises(ValueError, match="block size must be positive"):
                stream.blocks(4, block)
        with pytest.raises(cb.CapacityError):
            stream.blocks(100, 1)
