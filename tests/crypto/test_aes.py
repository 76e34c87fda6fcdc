"""AES against the FIPS-197 / SP 800-38A vectors plus properties.

CTR mode has a scalar kernel (one ``encrypt_block`` per counter) and a
numpy kernel (all counter blocks of a chunk at once).  Counter tests
run the scalar one by switching the ``HAS_NUMPY`` capability flag off;
the equivalence class pins the numpy keystream to the scalar one across
key sizes, counter carries and the kernel's internal chunk boundary.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import (
    _CTR_CHUNK_BLOCKS,
    AES,
    _ctr_keystream,
    aes_ctr_decrypt,
    aes_ctr_encrypt,
)
from repro.errors import InvalidKeyError
from repro.gf import HAS_NUMPY, gf256_vec

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy kernel needs numpy")

#: One key per AES variant (128/192/256-bit).
KEYS = {bits: bytes(range(bits // 8)) for bits in (128, 192, 256)}

#: Initial counters: an ordinary one, one whose low 64-bit lane carries
#: into the high lane after 16 blocks, and the full 2^128 wrap.
NONCES = {
    "plain": bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
    "carry": bytes(8) + bytes.fromhex("fffffffffffffff0"),
    "wrap": b"\xff" * 16,
}


class TestFIPSVectors:
    """Appendix C of FIPS-197: the canonical known-answer tests."""

    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128_encrypt(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_aes192_encrypt(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"))
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "dda97ca4864cdfe06eaf70a0ec0d7191"
        )

    def test_aes256_encrypt(self):
        cipher = AES(
            bytes.fromhex(
                "000102030405060708090a0b0c0d0e0f"
                "101112131415161718191a1b1c1d1e1f"
            )
        )
        assert cipher.encrypt_block(self.PLAINTEXT) == bytes.fromhex(
            "8ea2b7ca516745bfeafc49904b496089"
        )

    def test_aes128_decrypt(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        assert cipher.decrypt_block(
            bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        ) == self.PLAINTEXT


class TestSP80038ACTR:
    """SP 800-38A F.5.1: AES-128 CTR known-answer test."""

    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAINTEXT = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
    )
    CIPHERTEXT = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
    )

    def test_ctr_encrypt_vector(self):
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, self.PLAINTEXT)
            == self.CIPHERTEXT
        )

    def test_ctr_decrypt_vector(self):
        assert (
            aes_ctr_decrypt(self.KEY, self.COUNTER, self.CIPHERTEXT)
            == self.PLAINTEXT
        )

    def test_ctr_partial_block(self):
        short = self.PLAINTEXT[:10]
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, short)
            == self.CIPHERTEXT[:10]
        )

    def test_ctr_vector_on_scalar_kernel(self, monkeypatch):
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        assert (
            aes_ctr_encrypt(self.KEY, self.COUNTER, self.PLAINTEXT)
            == self.CIPHERTEXT
        )


class TestValidation:
    def test_rejects_bad_key_length(self):
        with pytest.raises(InvalidKeyError):
            AES(b"short")

    def test_rejects_bad_block_length(self):
        with pytest.raises(InvalidKeyError):
            AES(b"0" * 16).encrypt_block(b"tiny")

    def test_rejects_bad_nonce_length(self):
        with pytest.raises(InvalidKeyError):
            aes_ctr_encrypt(b"0" * 16, b"short", b"data")


class TestProperties:
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_block_roundtrip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_ctr_roundtrip(self, data):
        key, nonce = b"k" * 16, b"n" * 16
        assert aes_ctr_decrypt(key, nonce, aes_ctr_encrypt(key, nonce, data)) == data

    def test_ctr_counter_wraps(self, monkeypatch):
        # ff..ff, then 00..00, then 00..01: wrap modulo 2^128, no raise.
        key = b"k" * 16
        cipher = AES(key)
        expected = b"".join(
            cipher.encrypt_block(block)
            for block in (b"\xff" * 16, bytes(16), bytes(15) + b"\x01")
        )
        assert aes_ctr_encrypt(key, b"\xff" * 16, bytes(48)) == expected
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        assert aes_ctr_encrypt(key, b"\xff" * 16, bytes(48)) == expected

    def test_different_keys_differ(self):
        block = b"\x00" * 16
        assert AES(b"a" * 16).encrypt_block(block) != AES(b"b" * 16).encrypt_block(block)


class TestCounterArithmetic:
    """The counter sequence itself, checked block by block on both kernels."""

    @pytest.mark.parametrize("name", ["plain", "carry"])
    def test_keystream_is_encrypted_counters(self, name, monkeypatch):
        # 20 blocks cross the "carry" nonce's low-lane carry (block 16);
        # test_ctr_counter_wraps covers the 2^128 wrap.
        key, nonce = KEYS[128], NONCES[name]
        cipher = AES(key)
        counter = int.from_bytes(nonce, "big")
        expected = b"".join(
            cipher.encrypt_block(((counter + i) % (1 << 128)).to_bytes(16, "big"))
            for i in range(20)
        )
        assert aes_ctr_encrypt(key, nonce, bytes(20 * 16)) == expected
        monkeypatch.setattr(gf256_vec, "HAS_NUMPY", False)
        assert aes_ctr_encrypt(key, nonce, bytes(20 * 16)) == expected


@needs_numpy
class TestNumpyKeystreamEquivalence:
    """The numpy kernel is byte-identical to the scalar keystream."""

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 20 * 16 + 3])
    @pytest.mark.parametrize("name", sorted(NONCES))
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_short_lengths(self, bits, name, length):
        key, nonce = KEYS[bits], NONCES[name]
        data = random.Random(f"{bits}-{name}-{length}").randbytes(length)
        scalar = _ctr_keystream(AES(key), nonce, length)
        expected = bytes(x ^ y for x, y in zip(data, scalar))
        assert aes_ctr_encrypt(key, nonce, data) == expected

    @pytest.mark.parametrize("name", sorted(NONCES))
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_chunk_boundary_blocks(self, bits, name):
        # Full-length comparison is the slow test below; here every key
        # size and nonce checks the blocks either side of each internal
        # chunk boundary against explicitly encrypted counters.
        key, nonce = KEYS[bits], NONCES[name]
        chunk = _CTR_CHUNK_BLOCKS
        n_blocks = 2 * chunk + 3
        keystream = aes_ctr_encrypt(key, nonce, bytes(n_blocks * 16 - 5))
        assert len(keystream) == n_blocks * 16 - 5
        cipher = AES(key)
        counter = int.from_bytes(nonce, "big")
        for i in (0, 15, 16, chunk - 1, chunk, chunk + 1, 2 * chunk, n_blocks - 1):
            block = ((counter + i) % (1 << 128)).to_bytes(16, "big")
            got = keystream[16 * i : 16 * i + 16]
            assert got == cipher.encrypt_block(block)[: len(got)]

    @pytest.mark.slow
    def test_multi_chunk_lengths_match_scalar(self):
        # One scalar keystream over three chunks; every length is a
        # prefix of it: one chunk +- 1 block, and a multi-chunk tail.
        key, nonce = KEYS[128], NONCES["carry"]
        chunk = _CTR_CHUNK_BLOCKS
        longest = (2 * chunk + 3) * 16 + 5
        scalar = _ctr_keystream(AES(key), nonce, longest)
        for length in ((chunk - 1) * 16, chunk * 16, (chunk + 1) * 16, longest):
            assert aes_ctr_encrypt(key, nonce, bytes(length)) == scalar[:length]

    @pytest.mark.parametrize("name", sorted(NONCES))
    @pytest.mark.parametrize("bits", sorted(KEYS))
    def test_matches_independent_implementation(self, bits, name):
        ciphers = pytest.importorskip("cryptography.hazmat.primitives.ciphers")
        key, nonce = KEYS[bits], NONCES[name]
        data = random.Random(f"oracle-{bits}").randbytes(
            (_CTR_CHUNK_BLOCKS + 1) * 16 + 7
        )
        encryptor = ciphers.Cipher(
            ciphers.algorithms.AES(key), ciphers.modes.CTR(nonce)
        ).encryptor()
        expected = encryptor.update(data) + encryptor.finalize()
        assert aes_ctr_encrypt(key, nonce, data) == expected
