"""Wire-level networking substrate.

This package provides the low-level building blocks the rest of the
library depends on: IPv4 and MAC addressing, prefixes, a longest-prefix
match table, packet header codecs (Ethernet, IPv4, UDP, TCP) and the
hashing primitives used for ECMP path selection.

Everything here is implemented from scratch (no dependency on the
standard :mod:`ipaddress` module) so that the data structures match the
needs of the simulator: integer-backed addresses that are cheap to hash
and compare, and a prefix table (one dict per prefix length) tuned for
the forwarding lookups the data plane performs on every flow path
computation.
"""

from repro.netproto.addr import (
    MACAddress,
    IPv4Address,
    IPv4Prefix,
    AddressError,
)
from repro.netproto.prefix_table import PrefixTable
from repro.netproto.checksum import internet_checksum
from repro.netproto.packet import (
    EthernetHeader,
    IPv4Header,
    UDPHeader,
    TCPHeader,
    Packet,
    FiveTuple,
    ETHERTYPE_IPV4,
    ETHERTYPE_ARP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPPROTO_ICMP,
)
from repro.netproto.hashing import ecmp_hash, five_tuple_hash, two_tuple_hash

__all__ = [
    "MACAddress",
    "IPv4Address",
    "IPv4Prefix",
    "AddressError",
    "PrefixTable",
    "internet_checksum",
    "EthernetHeader",
    "IPv4Header",
    "UDPHeader",
    "TCPHeader",
    "Packet",
    "FiveTuple",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_ARP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "IPPROTO_ICMP",
    "ecmp_hash",
    "five_tuple_hash",
    "two_tuple_hash",
]
