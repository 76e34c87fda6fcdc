"""Bit-manipulation helpers.

Distance-bounding protocols operate on individual bits (the timed phase
exchanges one challenge bit and one response bit per round), while the
POR file format operates on fixed-width blocks.  These helpers provide
the conversions between the two views, with explicit validation so that
protocol code never silently truncates.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division ``ceil(a / b)`` for non-negative ``a``.

    >>> ceil_div(10, 4)
    3
    >>> ceil_div(8, 4)
    2
    """
    if b <= 0:
        raise ConfigurationError(f"ceil_div divisor must be positive, got {b}")
    if a < 0:
        raise ConfigurationError(f"ceil_div dividend must be >= 0, got {a}")
    return -(-a // b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    >>> xor_bytes(b"\\x0f", b"\\xf0")
    b'\\xff'
    """
    if len(a) != len(b):
        raise ConfigurationError(
            f"xor_bytes requires equal lengths, got {len(a)} and {len(b)}"
        )
    # One big-integer XOR instead of a per-byte generator; the fixed
    # output width keeps leading zero bytes.
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def rotl32(value: int, amount: int) -> int:
    """Rotate a 32-bit word left by ``amount`` bits."""
    amount %= 32
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def bytes_to_bits(data: bytes, n_bits: int | None = None) -> list[int]:
    """Expand a byte string into a list of bits, most-significant first.

    ``n_bits`` optionally truncates the output to the first ``n_bits``
    bits (it must not exceed ``8 * len(data)``).

    >>> bytes_to_bits(b"\\xa0", 4)
    [1, 0, 1, 0]
    """
    total = 8 * len(data)
    if n_bits is None:
        n_bits = total
    if not 0 <= n_bits <= total:
        raise ConfigurationError(
            f"n_bits={n_bits} out of range for {len(data)} bytes"
        )
    bits: list[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
            if len(bits) == n_bits:
                return bits
    return bits


def bits_to_bytes(bits: list[int]) -> bytes:
    """Pack a list of bits (MSB first) into bytes, zero-padding the tail.

    >>> bits_to_bytes([1, 0, 1, 0])
    b'\\xa0'
    """
    out = bytearray(ceil_div(len(bits), 8))
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ConfigurationError(f"bit at index {i} is {bit!r}, not 0/1")
        if bit:
            out[i // 8] |= 1 << (7 - (i % 8))
    return bytes(out)


def bit_at(data: bytes, index: int) -> int:
    """Return bit ``index`` of ``data`` (MSB-first across the string).

    Used by Hancke-Kuhn style registers: the prover answers round *i*
    with the *i*-th bit of one of its two registers.
    """
    if not 0 <= index < 8 * len(data):
        raise ConfigurationError(
            f"bit index {index} out of range for {len(data)} bytes"
        )
    byte = data[index // 8]
    return (byte >> (7 - (index % 8))) & 1


def split_in_half(data: bytes) -> tuple[bytes, bytes]:
    """Split a byte string into two equal halves.

    Hancke-Kuhn derives a 2n-bit string from the nonces and splits it
    into the two n-bit registers ``l`` and ``r``.
    """
    if len(data) % 2 != 0:
        raise ConfigurationError(
            f"split_in_half requires even length, got {len(data)}"
        )
    mid = len(data) // 2
    return data[:mid], data[mid:]
