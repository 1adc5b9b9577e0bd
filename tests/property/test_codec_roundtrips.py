"""Property tests: every wire codec round-trips arbitrary valid values."""

import struct

from hypothesis import example, given, settings, strategies as st

from repro.bgp.messages import (
    BGPKeepalive,
    BGPNotification,
    BGPOpen,
    BGPUpdate,
    Origin,
    PathAttributes,
    decode_bgp_message,
    encode_update,
)
from repro.netproto.addr import IPv4Address, IPv4Prefix, MACAddress
from repro.netproto.packet import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    FiveTuple,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    make_udp_packet,
    Packet,
    TCPHeader,
)
from repro.openflow.actions import ActionOutput, decode_actions, encode_actions
from repro.openflow.constants import FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, PacketIn, decode_message
import ospf_reference as ospf_ref
from repro.ospf.packets import (
    LSALink,
    LSAPrefix,
    OSPFHello,
    OSPFLinkStateUpdate,
    RouterLSA,
    decode_ospf_message,
)

ipv4 = st.builds(IPv4Address, st.integers(min_value=0, max_value=0xFFFFFFFF))
macs = st.builds(MACAddress, st.integers(min_value=0, max_value=2**48 - 1))
prefix_st = st.builds(
    IPv4Prefix.from_network,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)
ports = st.integers(min_value=0, max_value=65535)
asns = st.integers(min_value=1, max_value=65535)


# --- BGP ----------------------------------------------------------------

path_attrs = st.builds(
    PathAttributes,
    origin=st.sampled_from(list(Origin)),
    as_path=st.lists(asns, max_size=20).map(tuple),
    next_hop=st.one_of(st.none(), ipv4),
    med=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    local_pref=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
)


@given(path_attrs)
@settings(max_examples=200, deadline=None)
def test_path_attributes_roundtrip(attrs):
    update = decode_bgp_message(encode_update(b"", attrs.encode(), b""))
    assert update.attributes == attrs


@given(asns, st.integers(min_value=0, max_value=65535), ipv4)
@settings(max_examples=100, deadline=None)
def test_bgp_open_roundtrip(asn, hold, bgp_id):
    message = BGPOpen(asn=asn, hold_time=hold, bgp_id=bgp_id)
    decoded = decode_bgp_message(message.encode())
    assert (decoded.asn, decoded.hold_time, decoded.bgp_id) == (asn, hold, bgp_id)


@given(
    st.lists(prefix_st, max_size=15),
    path_attrs,
    st.lists(prefix_st, min_size=1, max_size=15),
)
@settings(max_examples=200, deadline=None)
def test_bgp_update_roundtrip(withdrawn, attrs, nlri):
    message = BGPUpdate(withdrawn=withdrawn, attributes=attrs, nlri=nlri)
    decoded = decode_bgp_message(message.encode())
    assert decoded.withdrawn == withdrawn
    assert decoded.nlri == nlri
    assert decoded.attributes == attrs


# AS paths up to the 255 hops one segment can count.  From 127 hops on
# the AS_PATH body passes 255 bytes and takes the extended-length form.
long_path_attrs = st.builds(
    PathAttributes,
    origin=st.sampled_from(list(Origin)),
    as_path=st.lists(asns, max_size=255).map(tuple),
    next_hop=st.one_of(st.none(), ipv4),
    med=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    local_pref=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
)


def seed_encode_attributes(attrs):
    """``PathAttributes.encode`` as it stood before the int-native codec
    (one ``struct.pack`` per AS hop, address via ``packed()``): the
    reference the rewritten encoder must match byte for byte."""
    def attr(flags, code, body):
        if len(body) > 255:
            return struct.pack("!BBH", flags | 0x10, code, len(body)) + body
        return struct.pack("!BBB", flags, code, len(body)) + body

    chunks = [attr(0x40, 1, struct.pack("!B", int(attrs.origin)))]
    segment = b""
    if attrs.as_path:
        segment = struct.pack("!BB", 2, len(attrs.as_path))
        segment += b"".join(struct.pack("!H", asn) for asn in attrs.as_path)
    chunks.append(attr(0x40, 2, segment))
    if attrs.next_hop is not None:
        chunks.append(attr(0x40, 3, attrs.next_hop.packed()))
    if attrs.med is not None:
        chunks.append(attr(0x80, 4, struct.pack("!I", attrs.med)))
    if attrs.local_pref is not None:
        chunks.append(attr(0x40, 5, struct.pack("!I", attrs.local_pref)))
    return b"".join(chunks)


def seed_encode_prefix(prefix):
    """``encode_prefix`` before the int-native codec."""
    octets = (prefix.length + 7) // 8
    return bytes([prefix.length]) + prefix.network.packed()[:octets]


@given(
    st.lists(prefix_st, max_size=30),
    st.one_of(st.none(), long_path_attrs),
    st.lists(prefix_st, max_size=30),
)
@example([], PathAttributes(as_path=tuple(range(1, 127))), [])   # 254-byte body
@example([], PathAttributes(as_path=tuple(range(1, 128))), [])   # 256: extended
@example([], PathAttributes(as_path=tuple(range(1, 256))), [])   # 255 hops
@settings(max_examples=200, deadline=None)
def test_bgp_update_wire_is_unchanged_and_roundtrips(withdrawn, attrs, nlri):
    if attrs is None:
        nlri = []  # NLRI needs attributes; a withdraw-only UPDATE has neither
    message = BGPUpdate(withdrawn=withdrawn, attributes=attrs, nlri=nlri)
    wire = message.encode()

    attr_bytes = seed_encode_attributes(attrs) if attrs is not None else b""
    withdrawn_bytes = b"".join(seed_encode_prefix(p) for p in withdrawn)
    body = (struct.pack("!H", len(withdrawn_bytes)) + withdrawn_bytes
            + struct.pack("!H", len(attr_bytes)) + attr_bytes
            + b"".join(seed_encode_prefix(p) for p in nlri))
    assert wire == b"\xff" * 16 + struct.pack("!HB", 19 + len(body), 2) + body

    decoded = decode_bgp_message(wire)
    assert decoded == message


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.binary(max_size=64))
@settings(max_examples=100, deadline=None)
def test_bgp_notification_roundtrip(code, subcode, data):
    decoded = decode_bgp_message(
        BGPNotification(code=code, subcode=subcode, data=data).encode())
    assert (decoded.code, decoded.subcode, decoded.data) == (code, subcode, data)


# --- OpenFlow -------------------------------------------------------------

matches = st.builds(
    Match,
    in_port=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
    dl_src=st.one_of(st.none(), macs),
    dl_dst=st.one_of(st.none(), macs),
    dl_type=st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFF)),
    nw_src=st.one_of(st.none(), prefix_st),
    nw_dst=st.one_of(st.none(), prefix_st),
    nw_proto=st.one_of(st.none(), st.integers(min_value=0, max_value=255)),
    tp_src=st.one_of(st.none(), ports),
    tp_dst=st.one_of(st.none(), ports),
)


@given(matches)
@settings(max_examples=300, deadline=None)
def test_match_roundtrip(match):
    decoded, rest = Match.decode(match.encode())
    assert rest == b""
    assert decoded == match


@given(st.lists(st.integers(min_value=1, max_value=2**32 - 1), max_size=8))
@settings(max_examples=100, deadline=None)
def test_action_list_roundtrip(port_list):
    actions = [ActionOutput(p) for p in port_list]
    assert decode_actions(encode_actions(actions)) == actions


@given(
    matches,
    st.sampled_from(list(FlowModCommand)),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=1, max_value=1000), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_flow_mod_roundtrip(match, command, priority, cookie, out_ports):
    message = FlowMod(
        xid=7, match=match, command=command, priority=priority,
        cookie=cookie, actions=[ActionOutput(p) for p in out_ports],
    )
    decoded = decode_message(message.encode())
    assert decoded.match == match
    assert decoded.command is command
    assert decoded.priority == priority
    assert decoded.cookie == cookie
    assert decoded.actions == message.actions


@given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=100, deadline=None)
def test_packet_in_roundtrip(data, in_port):
    decoded = decode_message(PacketIn(in_port=in_port, data=data).encode())
    assert decoded.data == data
    assert decoded.in_port == in_port


# --- Packets ----------------------------------------------------------------

@given(macs, macs, ipv4, ipv4, ports, ports, st.binary(max_size=100))
@settings(max_examples=200, deadline=None)
def test_udp_packet_roundtrip(src_mac, dst_mac, src_ip, dst_ip,
                              sport, dport, payload):
    packet = make_udp_packet(src_mac, dst_mac, src_ip, dst_ip,
                             sport, dport, payload=payload)
    decoded = Packet.decode(packet.encode())
    assert decoded.eth.src == src_mac
    assert decoded.ip.src == src_ip
    assert decoded.l4.src_port == sport
    assert decoded.payload == payload
    assert decoded.five_tuple() == FiveTuple(src_ip, dst_ip, IPPROTO_UDP,
                                             sport, dport)


@given(macs, macs, ipv4, ipv4, ports, ports)
@settings(max_examples=100, deadline=None)
def test_tcp_packet_roundtrip(src_mac, dst_mac, src_ip, dst_ip, sport, dport):
    packet = Packet(
        eth=EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=IPPROTO_TCP),
        l4=TCPHeader(src_port=sport, dst_port=dport),
    )
    decoded = Packet.decode(packet.encode())
    assert decoded.five_tuple() == FiveTuple(src_ip, dst_ip, IPPROTO_TCP,
                                             sport, dport)


# --- OSPF -----------------------------------------------------------------

lsa_links = st.builds(
    LSALink, neighbor_id=ipv4,
    cost=st.integers(min_value=0, max_value=0xFFFF),
)
lsa_prefixes = st.builds(
    LSAPrefix, prefix=prefix_st,
    cost=st.integers(min_value=0, max_value=0xFFFF),
)
router_lsas = st.builds(
    RouterLSA,
    advertising_router=ipv4,
    sequence=st.integers(min_value=0, max_value=2**32 - 1),
    links=st.lists(lsa_links, max_size=12).map(tuple),
    prefixes=st.lists(lsa_prefixes, max_size=12).map(tuple),
)


def reference_lsa(lsa):
    """``lsa`` rebuilt from the pre-PR-14 eager classes."""
    return ospf_ref.RouterLSA(
        advertising_router=lsa.advertising_router,
        sequence=lsa.sequence,
        links=tuple(ospf_ref.LSALink(link.neighbor_id, link.cost)
                    for link in lsa.links),
        prefixes=tuple(ospf_ref.LSAPrefix(stub.prefix, stub.cost)
                       for stub in lsa.prefixes),
    )


def lsa_fields(lsa):
    """What an LSA says, whichever class holds it."""
    return (lsa.advertising_router, lsa.sequence,
            [(link.neighbor_id, link.cost) for link in lsa.links],
            [(stub.prefix, stub.cost) for stub in lsa.prefixes])


@given(ipv4, st.lists(ipv4, max_size=10))
@settings(max_examples=100, deadline=None)
def test_ospf_hello_roundtrip(router_id, neighbors):
    hello = OSPFHello(router_id=router_id, neighbors=neighbors)
    decoded = decode_ospf_message(hello.encode())
    assert decoded.router_id == router_id
    assert decoded.neighbors == neighbors


@given(ipv4, st.lists(router_lsas, max_size=5))
@settings(max_examples=150, deadline=None)
def test_ospf_lsu_roundtrip(router_id, lsas):
    update = OSPFLinkStateUpdate(router_id=router_id, lsas=lsas)
    decoded = decode_ospf_message(update.encode())
    assert decoded.lsas == lsas


@given(ipv4, st.floats(min_value=0.1, max_value=6000.0),
       st.floats(min_value=0.1, max_value=6000.0), st.lists(ipv4, max_size=40))
@settings(max_examples=100, deadline=None)
def test_ospf_hello_wire_is_unchanged(router_id, hello_interval,
                                      dead_interval, neighbors):
    """The int-native hello codec against the pre-PR-14 one."""
    wire = OSPFHello(router_id, hello_interval, dead_interval,
                     neighbors).encode()
    assert wire == ospf_ref.OSPFHello(router_id, hello_interval,
                                      dead_interval, neighbors).encode()
    new, old = decode_ospf_message(wire), ospf_ref.decode_ospf_message(wire)
    assert (new.router_id, new.hello_interval, new.dead_interval,
            new.neighbors) == (old.router_id, old.hello_interval,
                               old.dead_interval, old.neighbors)
    assert all(type(n) is IPv4Address for n in new.neighbors)


@given(ipv4, st.lists(router_lsas, max_size=40))
@settings(max_examples=150, deadline=None)
def test_ospf_lsu_wire_is_unchanged_and_forwarded_as_it_arrived(router_id,
                                                                lsas):
    """Encoder bytes equal the old encoder's (prefixes are generated
    from unmasked integers, so dirty host bits are covered), the lazy
    decoder agrees with the eager one field by field, and what was
    decoded is re-encoded as exactly the bytes it came from — without
    parsing a body."""
    wire = OSPFLinkStateUpdate(router_id=router_id, lsas=lsas).encode()
    assert wire == ospf_ref.OSPFLinkStateUpdate(
        router_id=router_id, lsas=[reference_lsa(lsa) for lsa in lsas]).encode()

    decoded = decode_ospf_message(wire)
    assert OSPFLinkStateUpdate(decoded.router_id, decoded.lsas).encode() == wire
    assert not any(lsa.body_parsed for lsa in decoded.lsas)

    eager = ospf_ref.decode_ospf_message(wire)
    assert decoded.router_id == eager.router_id
    assert ([lsa_fields(lsa) for lsa in decoded.lsas]
            == [lsa_fields(lsa) for lsa in eager.lsas])
    assert decoded.lsas == lsas


u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
raw_lsas = st.tuples(
    u32, u32, st.lists(st.tuples(u32, u16), max_size=12),
    st.lists(st.tuples(u32, st.integers(min_value=0, max_value=32), u16),
             max_size=12))


@given(u32, st.lists(raw_lsas, max_size=40))
@settings(max_examples=150, deadline=None)
def test_ospf_lsu_from_foreign_bytes(router_id, raw):
    """An LSU packed by hand, host bits of its prefixes left dirty as a
    foreign speaker might: both decoders read the same fields (masked),
    and the new one forwards the bytes untouched."""
    body = b"".join(
        struct.pack("!IIHH", originator, sequence, len(links), len(stubs))
        + b"".join(struct.pack("!IH", *link) for link in links)
        + b"".join(struct.pack("!IBH", *stub) for stub in stubs)
        for originator, sequence, links, stubs in raw)
    wire = struct.pack("!BBHIH", 2, 4, 10 + len(body), router_id,
                       len(raw)) + body
    decoded = decode_ospf_message(wire)
    assert OSPFLinkStateUpdate(decoded.router_id, decoded.lsas).encode() == wire
    eager = ospf_ref.decode_ospf_message(wire)
    assert ([lsa_fields(lsa) for lsa in decoded.lsas]
            == [lsa_fields(lsa) for lsa in eager.lsas])
