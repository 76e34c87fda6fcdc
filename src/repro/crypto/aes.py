"""Pure-Python AES (FIPS-197) with CTR mode.

The POR setup phase encrypts the error-corrected file with a symmetric
cipher; the paper fixes the block size to 128 bits "as it is the size of
an AES block".  This is a from-scratch implementation of the AES block
cipher for 128/192/256-bit keys plus counter mode, which is what a real
deployment would use for bulk file encryption (no padding, seekable).

Performance note: this is a table-driven byte-oriented implementation.
It is *not* constant time and is not meant to resist side channels --
the reproduction needs functional correctness (verified against FIPS-197
and SP 800-38A test vectors in the test suite), not production speed.
CTR mode has two kernels behind one API:

* **scalar** -- :meth:`AES.encrypt_block` once per 16-byte counter
  block.  It is the fallback when numpy is absent and the
  byte-identical reference the vectorized kernel is pinned against.
* **vectorized** -- when numpy is available (the capability flag
  :data:`repro.gf.HAS_NUMPY`), every counter block of a chunk of the
  file goes through the rounds at once: SubBytes is one gather through
  the S-box, ShiftRows a fixed column index, MixColumns the
  ``a_i ^ t ^ xtime(a_i ^ a_{i+1})`` form on the ``xtime`` table.  The
  kernel walks the input in fixed chunks of
  :data:`_CTR_CHUNK_BLOCKS` blocks so its working set stays bounded
  on large files.  This is what makes the POR setup's step 3 (encrypt
  the whole error-corrected file) cost about as much as RS encode
  rather than dominating outsourcing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any

from repro.errors import InvalidKeyError
from repro.gf import gf256_vec
from repro.util.bitops import ceil_div, xor_bytes

try:  # pragma: no cover - exercised via the no-numpy CI lane
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

# ---------------------------------------------------------------------------
# S-box generation.  Rather than hard-coding the 256-entry table we derive
# it from the definition (multiplicative inverse in GF(2^8) followed by the
# affine transform), which both documents the construction and guards
# against transcription errors.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    # Multiplicative inverses via exponentiation: a^254 = a^(-1) in GF(2^8).
    def inv(a: int) -> int:
        if a == 0:
            return 0
        result, base, exp = 1, a, 254
        while exp:
            if exp & 1:
                result = _gf_mul(result, base)
            base = _gf_mul(base, base)
            exp >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        x = inv(value)
        y = x
        for _ in range(4):
            x = ((x << 1) | (x >> 7)) & 0xFF
            y ^= x
        sbox[value] = y ^ 0x63
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]

# Precomputed multiplication tables for MixColumns / InvMixColumns.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))

#: Counter blocks the vectorized CTR kernel encrypts per pass (256 KB of
#: keystream): bounds the kernel's temporaries independent of file size.
_CTR_CHUNK_BLOCKS = 16_384

if _np is not None:
    _SBOX_NP = _np.frombuffer(_SBOX, dtype=_np.uint8)
    _MUL2_NP = _np.frombuffer(_MUL2, dtype=_np.uint8)
    # The state is column-major (byte 4*c + r is row r, column c).
    # ShiftRows moves row r left by r: out[4c + r] = in[4((c + r) % 4) + r].
    _SHIFT_ROWS_IDX = _np.array(
        [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
    )
    # a_{i+1} for every byte a_i of a column (row index mod 4).
    _NEXT_ROW_IDX = _np.array(
        [4 * c + (r + 1) % 4 for c in range(4) for r in range(4)]
    )


class AES:
    """The AES block cipher.

    Parameters
    ----------
    key:
        16, 24 or 32 bytes (AES-128/192/256).

    The instance exposes :meth:`encrypt_block` / :meth:`decrypt_block`
    on exactly 16 bytes.  Use :func:`aes_ctr_encrypt` for bulk data.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise InvalidKeyError(
                f"AES key must be 16/24/32 bytes, got {len(key)}"
            )
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    # -- key schedule -------------------------------------------------

    def _expand_key(self, key: bytes) -> list[list[int]]:
        nk = len(key) // 4
        words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([w ^ t for w, t in zip(words[i - nk], temp)])
        # Group into round keys of 16 bytes, column-major state layout.
        round_keys = []
        for r in range(self._rounds + 1):
            rk: list[int] = []
            for c in range(4):
                rk.extend(words[4 * r + c])
            round_keys.append(rk)
        return round_keys

    @cached_property
    def _round_key_array(self) -> Any:
        """The round keys as an ``(rounds + 1, 16)`` uint8 numpy array."""
        return _np.array(self._round_keys, dtype=_np.uint8)

    # -- round functions ----------------------------------------------

    @staticmethod
    def _add_round_key(state: list[int], rk: list[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _SBOX[state[i]]

    @staticmethod
    def _inv_sub_bytes(state: list[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _shift_rows(state: list[int]) -> None:
        # state is column-major: state[4*c + r] is row r, column c.
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _inv_shift_rows(state: list[int]) -> None:
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[-r:] + row[:-r]
            for c in range(4):
                state[4 * c + r] = row[c]

    @staticmethod
    def _mix_columns(state: list[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: list[int]) -> None:
        for c in range(4):
            a0, a1, a2, a3 = state[4 * c : 4 * c + 4]
            state[4 * c + 0] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[4 * c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[4 * c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[4 * c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public block API ----------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise InvalidKeyError(
                f"AES block must be 16 bytes, got {len(plaintext)}"
            )
        state = list(plaintext)
        self._add_round_key(state, self._round_keys[0])
        for r in range(1, self._rounds):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[r])
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != 16:
            raise InvalidKeyError(
                f"AES block must be 16 bytes, got {len(ciphertext)}"
            )
        state = list(ciphertext)
        self._add_round_key(state, self._round_keys[self._rounds])
        for r in range(self._rounds - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, self._round_keys[r])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)


def _ctr_keystream(aes: AES, nonce: bytes, n_bytes: int) -> bytes:
    """Generate ``n_bytes`` of CTR keystream for a 16-byte initial counter."""
    out = bytearray()
    counter = int.from_bytes(nonce, "big")
    while len(out) < n_bytes:
        out.extend(aes.encrypt_block(counter.to_bytes(16, "big")))
        counter = (counter + 1) % (1 << 128)
    return bytes(out[:n_bytes])


def _counter_blocks(counter: int, n_blocks: int) -> Any:
    """``n_blocks`` consecutive counter blocks from ``counter``, as (n, 16) uint8.

    The 128-bit counter is two big-endian uint64 lanes; the low lane
    wraps mod 2^64 and carries into the high lane, which itself wraps,
    so the whole counter wraps mod 2^128 exactly like the scalar path.
    """
    counter %= 1 << 128
    high = _np.uint64(counter >> 64)
    low = _np.uint64(counter & 0xFFFFFFFFFFFFFFFF)
    lanes = _np.empty((n_blocks, 2), dtype=">u8")
    lanes[:, 1] = low + _np.arange(n_blocks, dtype=_np.uint64)
    lanes[:, 0] = high + (lanes[:, 1] < low)
    return lanes.view(_np.uint8)


def _encrypt_blocks_vec(round_keys: Any, state: Any) -> Any:
    """AES-encrypt every row of an (n, 16) uint8 array of blocks."""
    rounds = len(round_keys) - 1
    state = state ^ round_keys[0]
    for r in range(1, rounds):
        state = _SBOX_NP[state[:, _SHIFT_ROWS_IDX]]
        # MixColumns: b_i = a_i ^ t ^ xtime(a_i ^ a_{i+1}), t = XOR of the column.
        columns = state.reshape(-1, 4, 4)
        t = _np.bitwise_xor.reduce(columns, axis=2, keepdims=True)
        mixed = _MUL2_NP[state ^ state[:, _NEXT_ROW_IDX]].reshape(-1, 4, 4)
        mixed ^= columns
        mixed ^= t
        state = mixed.reshape(-1, 16)
        state ^= round_keys[r]
    state = _SBOX_NP[state[:, _SHIFT_ROWS_IDX]]
    state ^= round_keys[rounds]
    return state


def _ctr_xor_vec(aes: AES, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the CTR keystream, one chunk of blocks at a time."""
    out = _np.frombuffer(data, dtype=_np.uint8).copy()
    counter = int.from_bytes(nonce, "big")
    chunk_bytes = _CTR_CHUNK_BLOCKS * AES.BLOCK_SIZE
    for start in range(0, len(out), chunk_bytes):
        view = out[start : start + chunk_bytes]
        blocks = _counter_blocks(
            counter + start // AES.BLOCK_SIZE, ceil_div(len(view), AES.BLOCK_SIZE)
        )
        keystream = _encrypt_blocks_vec(aes._round_key_array, blocks)
        view ^= keystream.reshape(-1)[: len(view)]
    return out.tobytes()


def aes_ctr_encrypt(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` with AES-CTR.

    ``nonce`` is the 16-byte initial counter block (SP 800-38A style).
    CTR mode needs no padding and is length-preserving, which keeps the
    POR block accounting exact.  Runs the vectorized kernel when numpy
    is available and the per-block scalar path otherwise; both produce
    the same bytes.
    """
    if len(nonce) != 16:
        raise InvalidKeyError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
    aes = AES(key)
    if gf256_vec.HAS_NUMPY:
        return _ctr_xor_vec(aes, nonce, plaintext)
    return xor_bytes(plaintext, _ctr_keystream(aes, nonce, len(plaintext)))


def aes_ctr_decrypt(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """Decrypt AES-CTR ciphertext (CTR is an involution)."""
    return aes_ctr_encrypt(key, nonce, ciphertext)
