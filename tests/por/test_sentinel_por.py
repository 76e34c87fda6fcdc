"""Sentinel-based POR (the Juels-Kaliski original)."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.gf import HAS_NUMPY, gf256_vec
from repro.por.parameters import TEST_PARAMS
from repro.por.sentinel_por import (
    SentinelChallenge,
    SentinelPORClient,
    SentinelPORServer,
)

MASTER = b"sentinel-master-key-0123456789"


@pytest.fixture
def sentinel_pair(sample_data):
    client = SentinelPORClient(MASTER, b"sent-file", 60, TEST_PARAMS)
    blocks = client.encode(sample_data[:4000])
    return client, SentinelPORServer(blocks), blocks


class TestEncode:
    def test_includes_sentinels(self, sentinel_pair, sample_data):
        client, _, blocks = sentinel_pair
        layout = TEST_PARAMS.stripe_layout
        from repro.util.bitops import ceil_div

        data_blocks = ceil_div(4000, TEST_PARAMS.block_bytes)
        chunks = ceil_div(data_blocks, layout.data_blocks)
        assert len(blocks) == chunks * layout.total_blocks + 60

    def test_uniform_block_size(self, sentinel_pair):
        _, _, blocks = sentinel_pair
        assert all(len(b) == TEST_PARAMS.block_bytes for b in blocks)

    def test_rejects_zero_sentinels(self):
        with pytest.raises(ConfigurationError):
            SentinelPORClient(MASTER, b"f", 0, TEST_PARAMS)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy kernels need numpy")
    def test_numpy_and_scalar_encode_identically(self, sample_data, monkeypatch):
        data = sample_data[:4000]
        vectorized = SentinelPORClient(MASTER, b"sent-file", 60, TEST_PARAMS)
        expected = vectorized.encode(data)
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        scalar = SentinelPORClient(MASTER, b"sent-file", 60, TEST_PARAMS)
        assert scalar.encode(data) == expected


class TestChallenge:
    def test_consumes_sentinels(self, sentinel_pair):
        client, _, _ = sentinel_pair
        assert client.sentinels_remaining == 60
        client.make_challenge(10)
        assert client.sentinels_remaining == 50

    def test_exhaustion(self, sentinel_pair):
        client, _, _ = sentinel_pair
        client.make_challenge(60)
        with pytest.raises(ConfigurationError):
            client.make_challenge(1)

    def test_requires_encode_first(self):
        client = SentinelPORClient(MASTER, b"f", 10, TEST_PARAMS)
        with pytest.raises(ProtocolError):
            client.make_challenge(1)

    def test_positions_distinct(self, sentinel_pair):
        client, _, blocks = sentinel_pair
        challenge = client.make_challenge(20)
        assert len(set(challenge.positions)) == 20
        assert all(0 <= p < len(blocks) for p in challenge.positions)


class TestVerification:
    def test_honest_server_passes(self, sentinel_pair):
        client, server, _ = sentinel_pair
        challenge = client.make_challenge(15)
        assert client.verify_response(challenge, server.respond(challenge))

    def test_total_corruption_detected(self, sentinel_pair):
        client, _, blocks = sentinel_pair
        hostile = SentinelPORServer([bytes(TEST_PARAMS.block_bytes)] * len(blocks))
        challenge = client.make_challenge(10)
        assert not client.verify_response(challenge, hostile.respond(challenge))

    def test_partial_corruption_detection_rate(self, sample_data):
        # Corrupt 20 % of storage; a 10-sentinel challenge should
        # usually catch it (p = 1 - 0.8^10 ~ 0.89).
        client = SentinelPORClient(MASTER, b"stat-file", 50, TEST_PARAMS)
        blocks = client.encode(sample_data[:4000])
        corrupted = list(blocks)
        for i in range(0, len(corrupted), 5):
            corrupted[i] = bytes(TEST_PARAMS.block_bytes)
        server = SentinelPORServer(corrupted)
        detections = 0
        for _ in range(5):
            challenge = client.make_challenge(10)
            if not client.verify_response(challenge, server.respond(challenge)):
                detections += 1
        assert detections >= 3

    def test_short_response_rejected(self, sentinel_pair):
        from repro.por.sentinel_por import SentinelResponse

        client, server, _ = sentinel_pair
        challenge = client.make_challenge(5)
        response = server.respond(challenge)
        assert not client.verify_response(
            challenge, SentinelResponse(blocks=response.blocks[:-1])
        )
