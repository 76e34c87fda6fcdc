"""The five-step setup pipeline and extraction (retrievability)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import _CTR_CHUNK_BLOCKS
from repro.crypto.mac import mac_verify
from repro.errors import ConfigurationError
from repro.gf import HAS_NUMPY, gf256_vec
from repro.por.file_format import Segment
from repro.por.parameters import PORParams, TEST_PARAMS
from repro.por.setup import PORKeys, extract_file, setup_file


# Every test here pays a full POR setup in its fixtures: slow lane.
pytestmark = pytest.mark.slow

class TestKeys:
    def test_derivation_deterministic(self):
        a = PORKeys.derive(b"master-key-16byte")
        b = PORKeys.derive(b"master-key-16byte")
        assert a == b

    def test_subkeys_distinct(self):
        keys = PORKeys.derive(b"master-key-16byte")
        assert len({keys.encryption_key, keys.permutation_key, keys.mac_key}) == 3

    def test_rejects_short_master(self):
        with pytest.raises(ConfigurationError):
            PORKeys.derive(b"short")


class TestSetup:
    def test_every_segment_tagged_correctly(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        for segment in encoded.segments:
            assert mac_verify(
                keys.mac_key,
                segment.payload,
                segment.index,
                b"fid",
                segment.tag,
                tag_bits=TEST_PARAMS.tag_bits,
            )

    def test_output_encrypted(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        flat = b"".join(s.payload for s in encoded.segments)
        # The plaintext must not appear anywhere in the stored bytes.
        assert sample_data[:64] not in flat

    def test_expansion_close_to_nominal(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        ratio = encoded.stored_bytes / len(sample_data)
        assert 1.0 < ratio < 1.0 + TEST_PARAMS.total_expansion + 0.25

    def test_empty_file(self, keys):
        encoded = setup_file(b"", keys, b"fid", TEST_PARAMS)
        assert encoded.n_segments >= 1
        assert extract_file(encoded, keys) == b""

    def test_different_fids_different_ciphertexts(self, keys):
        data = b"same-data" * 100
        a = setup_file(data, keys, b"fid-a", TEST_PARAMS)
        b = setup_file(data, keys, b"fid-b", TEST_PARAMS)
        assert a.segments[0].payload != b.segments[0].payload


class TestExtraction:
    @given(st.binary(min_size=0, max_size=3000))
    @settings(max_examples=15, deadline=None)
    def test_lossless_roundtrip(self, data):
        keys = PORKeys.derive(b"prop-master-key-0")
        encoded = setup_file(data, keys, b"prop", TEST_PARAMS)
        assert extract_file(encoded, keys) == data

    def test_survives_single_corrupted_segment(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        segment = encoded.segments[3]
        encoded.segments[3] = Segment(
            index=3, payload=bytes(len(segment.payload)), tag=segment.tag
        )
        assert extract_file(encoded, keys) == sample_data

    def test_survives_scattered_corruption(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        # Corrupt every 40th segment: the PRP scatters each segment's
        # blocks across chunks, and erasure decoding heals them.
        for index in range(0, encoded.n_segments, 40):
            old = encoded.segments[index]
            encoded.segments[index] = Segment(
                index=index, payload=b"\xde" * len(old.payload), tag=old.tag
            )
        assert extract_file(encoded, keys) == sample_data

    def test_wrong_keys_fail(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        other = PORKeys.derive(b"completely-different-master")
        # With wrong keys every tag fails -> all segments erased -> the
        # decoder cannot recover.
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            extract_file(encoded, other)

    def test_skip_tag_verification(self, keys, sample_data):
        encoded = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        assert extract_file(encoded, keys, verify_tags=False) == sample_data


class TestPaperParams:
    def test_roundtrip_with_paper_parameters(self, keys):
        # One full chunk of 223 16-byte blocks plus change.
        data = bytes(i % 256 for i in range(4000))
        encoded = setup_file(data, keys, b"paper", PORParams())
        assert extract_file(encoded, keys) == data
        assert encoded.params.segment_bits == 660


class TestSetupWorkers:
    """Process-sharded setup is byte-identical to the serial pipeline."""

    def test_sharded_setup_byte_identical(self, keys):
        data = bytes((7 * i) % 256 for i in range(3000))  # multiple chunks
        serial = setup_file(data, keys, b"fid", TEST_PARAMS)
        sharded = setup_file(data, keys, b"fid", TEST_PARAMS, workers=2)
        assert serial.n_data_blocks == sharded.n_data_blocks
        assert [
            (s.index, s.payload, s.tag) for s in serial.segments
        ] == [(s.index, s.payload, s.tag) for s in sharded.segments]

    def test_sharded_setup_roundtrips(self, keys):
        data = b"sharded-roundtrip" * 200
        encoded = setup_file(data, keys, b"fid", TEST_PARAMS, workers=2)
        assert extract_file(encoded, keys) == data

    def test_workers_validated(self, keys):
        with pytest.raises(ConfigurationError):
            setup_file(b"x", keys, b"fid", TEST_PARAMS, workers=0)


def _snapshot(encoded):
    """Everything an EncodedFile carries, as comparable plain values."""
    return (
        encoded.file_id,
        encoded.params,
        encoded.original_length,
        encoded.n_data_blocks,
        [(s.index, s.payload, s.tag) for s in encoded.segments],
    )


def _scalar(fn, *args, **kwargs):
    """Call ``fn`` with the numpy kernels switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf256_vec, "HAS_NUMPY", False)
        return fn(*args, **kwargs)


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy kernels need numpy")
class TestNumpyScalarEquivalence:
    """setup/extract give the same bytes with numpy present and absent."""

    def test_small_file(self, keys, sample_data):
        vectorized = setup_file(sample_data, keys, b"fid", TEST_PARAMS)
        scalar = _scalar(setup_file, sample_data, keys, b"fid", TEST_PARAMS)
        assert _snapshot(vectorized) == _snapshot(scalar)
        assert _scalar(extract_file, vectorized, keys) == sample_data

    def test_multi_chunk_file(self, keys):
        # 230 kB under the paper's parameters RS-encodes to more than one
        # chunk of the AES-CTR kernel, so its chunk boundary is inside.
        params = PORParams()
        data = random.Random("multi-chunk").randbytes(230_000)
        vectorized = setup_file(data, keys, b"big", params)
        encoded_blocks = sum(len(s.payload) for s in vectorized.segments) // 16
        assert encoded_blocks > _CTR_CHUNK_BLOCKS
        scalar = _scalar(setup_file, data, keys, b"big", params)
        assert _snapshot(vectorized) == _snapshot(scalar)
        assert extract_file(vectorized, keys) == data
        assert _scalar(extract_file, vectorized, keys) == data

    def test_extract_with_corrupted_segments(self, keys):
        # Bad tags turn whole segments into erasures, whose positions
        # are mapped back through inverse_many before the RS decode.
        params = PORParams()
        data = random.Random("erasures").randbytes(60_000)
        encoded = setup_file(data, keys, b"erased", params)
        for index in range(1, encoded.n_segments, 23):
            old = encoded.segments[index]
            encoded.segments[index] = Segment(
                index=index, payload=b"\x5a" * len(old.payload), tag=old.tag
            )
        assert extract_file(encoded, keys) == data
        assert _scalar(extract_file, encoded, keys) == data
