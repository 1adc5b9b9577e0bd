"""The Internet checksum (RFC 1071).

Used by the IPv4 header codec.  The UDP and TCP codecs write a zero
checksum, which for UDP means "no checksum".
"""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is padded with a zero byte, per RFC 1071.

    >>> header = bytes.fromhex("45000073000040004011" "0000" "c0a80001c0a800c7")
    >>> hex(internet_checksum(header))  # classic example header
    '0xb861'
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for index in range(0, len(data), 2):
        total += (data[index] << 8) | data[index + 1]
    # Fold carries until the sum fits in 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
