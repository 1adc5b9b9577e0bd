"""IPv4 and MAC address types.

The simulator manipulates addresses constantly — every flow, FIB entry,
BGP route and OpenFlow match carries them — so these types are small
immutable wrappers around integers.  They hash and compare as fast as
ints while printing like the familiar dotted-quad / colon-hex notation.
"""

from __future__ import annotations

import re
from functools import total_ordering


class AddressError(ValueError):
    """Raised when an address or prefix cannot be parsed or is invalid."""


_DOTTED_QUAD_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")

MAX_IPV4 = 0xFFFFFFFF
MAX_MAC = 0xFFFFFFFFFFFF

# Netmask for each prefix length 0-32.
_MASKS = tuple((MAX_IPV4 << (32 - length)) & MAX_IPV4 for length in range(33))


@total_ordering
class IPv4Address:
    """An immutable IPv4 address backed by a 32-bit integer.

    Accepts either a dotted-quad string or an integer::

        >>> IPv4Address("10.0.0.1")
        IPv4Address('10.0.0.1')
        >>> int(IPv4Address("10.0.0.1"))
        167772161
    """

    __slots__ = ("_value",)

    def __init__(self, value: "str | int | IPv4Address"):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= MAX_IPV4:
                raise AddressError(f"IPv4 integer out of range: {value!r}")
            self._value = value
        elif isinstance(value, str):
            self._value = _parse_dotted_quad(value)
        else:
            raise AddressError(f"cannot build IPv4Address from {value!r}")

    @property
    def value(self) -> int:
        """The raw 32-bit integer value."""
        return self._value

    def packed(self) -> bytes:
        """The 4-byte big-endian wire representation."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Address":
        """Build an address from its 4-byte wire representation."""
        if len(data) != 4:
            raise AddressError(f"IPv4 address needs 4 bytes, got {len(data)}")
        self = cls.__new__(cls)
        self._value = int.from_bytes(data, "big")  # 4 bytes: always in range
        return self

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{v >> 24 & 0xFF}.{v >> 16 & 0xFF}.{v >> 8 & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        if isinstance(other, str):
            try:
                return self._value == _parse_dotted_quad(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)


def _parse_dotted_quad(text: str) -> int:
    match = _DOTTED_QUAD_RE.match(text.strip())
    if match is None:
        raise AddressError(f"not a dotted-quad IPv4 address: {text!r}")
    value = 0
    for group in match.groups():
        octet = int(group)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


@total_ordering
class IPv4Prefix:
    """An IPv4 network prefix, e.g. ``10.1.0.0/16``.

    The host bits of the supplied address are masked off, so
    ``IPv4Prefix("10.1.2.3/16")`` normalises to ``10.1.0.0/16``.
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, prefix: "str | IPv4Prefix", length: "int | None" = None):
        if isinstance(prefix, IPv4Prefix):
            self._network = prefix._network
            self._length = prefix._length
            self._hash = prefix._hash
            return
        if isinstance(prefix, str) and length is None:
            if "/" not in prefix:
                raise AddressError(f"prefix needs a /length: {prefix!r}")
            addr_text, __, len_text = prefix.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError(f"bad prefix length in {prefix!r}") from None
            address = IPv4Address(addr_text)
        else:
            address = IPv4Address(prefix)  # type: ignore[arg-type]
        if length is None or not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length!r}")
        self._set(int(address), length)

    def _set(self, value: int, length: int) -> None:
        """Store the masked network, the length and their hash."""
        self._length = length
        self._network = value & _MASKS[length]
        # Prefixes key every RIB, FIB and pending-set dict, so the hash
        # is computed once here; its value stays that of the tuple.
        self._hash = hash((self._network, length))

    @classmethod
    def from_network(cls, network: "IPv4Address | int", length: int) -> "IPv4Prefix":
        """Build a prefix from a network address and a length.

        Host bits of ``network`` are masked off; integers are used as
        they are (this is the codecs' constructor, no text involved).
        """
        value = network if type(network) is int else int(IPv4Address(network))
        if not 0 <= value <= MAX_IPV4:
            raise AddressError(f"IPv4 integer out of range: {value!r}")
        if not isinstance(length, int) or not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length!r}")
        self = cls.__new__(cls)
        self._set(value, length)
        return self

    @property
    def network(self) -> IPv4Address:
        """The (masked) network address."""
        return IPv4Address(self._network)

    @property
    def length(self) -> int:
        """The prefix length in bits (0-32)."""
        return self._length

    def mask_int(self) -> int:
        """The netmask as a 32-bit integer."""
        return _MASKS[self._length]

    @property
    def netmask(self) -> IPv4Address:
        """The netmask as an address, e.g. ``255.255.0.0``."""
        return IPv4Address(self.mask_int())

    def contains(self, address: "IPv4Address | str | int") -> bool:
        """Whether ``address`` falls inside this prefix."""
        return (int(IPv4Address(address)) & self.mask_int()) == self._network

    def overlaps(self, other: "IPv4Prefix") -> bool:
        """Whether the two prefixes share any address."""
        shorter, longer = sorted((self, other), key=lambda p: p.length)
        mask = shorter.mask_int()
        return (longer._network & mask) == shorter._network

    def subnets(self, new_length: int):
        """Iterate over the subnets of this prefix at ``new_length``.

        >>> [str(p) for p in IPv4Prefix("10.0.0.0/30").subnets(31)]
        ['10.0.0.0/31', '10.0.0.2/31']
        """
        if not self._length <= new_length <= 32:
            raise AddressError(
                f"cannot split /{self._length} into /{new_length} subnets"
            )
        step = 1 << (32 - new_length)
        count = 1 << (new_length - self._length)
        for index in range(count):
            yield IPv4Prefix.from_network(self._network + index * step, new_length)

    def hosts(self):
        """Iterate over usable host addresses (excludes network/broadcast
        for prefixes shorter than /31)."""
        size = 1 << (32 - self._length)
        if self._length >= 31:
            start, stop = self._network, self._network + size
        else:
            start, stop = self._network + 1, self._network + size - 1
        for value in range(start, stop):
            yield IPv4Address(value)

    def key(self) -> tuple:
        """A sortable (network, length) tuple, handy for deterministic RIB walks."""
        return (self._network, self._length)

    def __str__(self) -> str:
        return f"{self.network}/{self._length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Prefix):
            return (self._network == other._network
                    and self._length == other._length)
        if isinstance(other, str):
            try:
                return self == IPv4Prefix(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPv4Prefix") -> bool:
        if not isinstance(other, IPv4Prefix):
            return NotImplemented
        return self.key() < other.key()

    def __hash__(self) -> int:
        return self._hash


@total_ordering
class MACAddress:
    """An immutable 48-bit Ethernet MAC address."""

    __slots__ = ("_value",)

    def __init__(self, value: "str | int | MACAddress"):
        if isinstance(value, MACAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= MAX_MAC:
                raise AddressError(f"MAC integer out of range: {value!r}")
            self._value = value
        elif isinstance(value, str):
            text = value.strip()
            if not _MAC_RE.match(text):
                raise AddressError(f"not a MAC address: {value!r}")
            self._value = int(text.replace(":", "").replace("-", ""), 16)
        else:
            raise AddressError(f"cannot build MACAddress from {value!r}")

    BROADCAST_VALUE = MAX_MAC

    @classmethod
    def broadcast(cls) -> "MACAddress":
        """The all-ones broadcast address ``ff:ff:ff:ff:ff:ff``."""
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MACAddress":
        """Build an address from its 6-byte wire representation."""
        if len(data) != 6:
            raise AddressError(f"MAC address needs 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def packed(self) -> bytes:
        """The 6-byte big-endian wire representation."""
        return self._value.to_bytes(6, "big")

    def is_broadcast(self) -> bool:
        """Whether this is the broadcast address."""
        return self._value == self.BROADCAST_VALUE

    def is_multicast(self) -> bool:
        """Whether the group bit (LSB of the first octet) is set."""
        return bool((self._value >> 40) & 0x01)

    @property
    def value(self) -> int:
        """The raw 48-bit integer value."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MACAddress):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        if isinstance(other, str):
            try:
                return self == MACAddress(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        if not isinstance(other, MACAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)
