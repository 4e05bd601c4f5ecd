//! Frame emission shared by every host implementation (devices, phones,
//! the port scanner, the router, the internet model, tests).
//!
//! Every frame is one buffer sized once: `alloc` copies the payload
//! into place, then each header is emitted into the front of the
//! buffer, innermost first, so the transport checksum is summed once, in
//! place, over bytes that are never moved again. An ICMPv6 message is
//! appended behind its headers' room by [`icmpv6::Repr::emit`], and a
//! 6in4 packet ([`sixin4_packet`], the internet model's replies and the
//! WAN scanner's probes) has its payload appended behind the IPv4 and
//! IPv6 headers' room the same way. Bulk payloads (one repeated byte, or
//! TLS padding) are not written at all: they travel as a [`Run`] behind
//! the headers, and the engine spells them out where they are read.
//!
//! The buffer is recycled rather than allocated when it can be: while a
//! simulation runs, it lends its spare buffers to this thread (`lend`),
//! `alloc` takes one, and the engine hands each small frame's buffer back
//! (`recycle`) once every reader has returned. So, once a simulation has
//! warmed up, its frames' buffers cost no allocation.

use crate::addrs;
use std::cell::RefCell;
use std::net::{Ipv4Addr, Ipv6Addr};
use v6brick_net::ethernet::{self, EtherType, Frame};
use v6brick_net::ipv4::Protocol;
use v6brick_net::udp::PseudoHeader;
use v6brick_net::{icmpv6, ipv4, ipv6, tcp, udp, Mac, Run};

/// Ethernet header length: where the IP header of a frame starts.
pub(crate) const ETH: usize = ethernet::HEADER_LEN;
/// Ethernet + IPv4 header length: where an IPv4 frame's L4 starts.
const ETH_V4: usize = ETH + ipv4::HEADER_LEN;
/// Ethernet + IPv6 header length: where an IPv6 frame's L4 starts.
const ETH_V6: usize = ETH + ipv6::HEADER_LEN;
/// IPv4 + IPv6 header length: where a 6in4 packet's L4 starts.
const SIXIN4: usize = ipv4::HEADER_LEN + ipv6::HEADER_LEN;

/// A packet or frame as the event queue holds it: its bytes up to the
/// run, and the run (empty for most packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued<'a> {
    /// The bytes before the run: every header, and any payload bytes
    /// that are not part of the run.
    pub head: &'a [u8],
    /// The run ending the packet.
    pub run: Run,
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for Queued<'a> {
    /// Plain bytes: a packet with no run.
    fn from(bytes: &'a T) -> Queued<'a> {
        Queued {
            head: bytes.as_ref(),
            run: Run::default(),
        }
    }
}

/// The largest buffer kept as a spare, in bytes of capacity: one large
/// frame head must not pin a large buffer.
const SPARE_MAX: usize = 512;

thread_local! {
    /// The spare buffers of the simulation running on this thread, if
    /// any, each of at most [`SPARE_MAX`] bytes.
    static SPARES: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A simulation's spare buffers, lent to this thread's [`alloc`] and
/// [`recycle`] until [`Lease::end`] takes them back. A lease dropped
/// unended (a run that unwinds) drops the spares, so they never outlive
/// their simulation.
pub(crate) struct Lease;

/// Lend `spares` to this thread until the returned lease ends.
pub(crate) fn lend(spares: Vec<Vec<u8>>) -> Lease {
    SPARES.set(spares);
    Lease
}

impl Lease {
    /// Take the spares back, with every buffer recycled since.
    pub(crate) fn end(self) -> Vec<Vec<u8>> {
        SPARES.take()
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        SPARES.take();
    }
}

/// Keep `buf`, a packet no one reads any more, as a spare for a later
/// [`alloc`] on this thread, unless it is large. Only a running
/// simulation calls this, while its spares are lent here.
pub(crate) fn recycle(buf: Vec<u8>) {
    if buf.capacity() <= SPARE_MAX {
        SPARES.with_borrow_mut(|spares| spares.push(buf));
    }
}

/// A buffer of `headers` zero bytes with room for `body` more bytes
/// behind them: a spare when one was lent, else a packet's single
/// allocation. The caller writes the body, then emits the headers into
/// the front.
fn room(headers: usize, body: usize) -> Vec<u8> {
    let mut buf = SPARES.with_borrow_mut(Vec::pop).unwrap_or_default();
    // A spare still holds its last packet's bytes.
    buf.clear();
    buf.reserve_exact(headers + body);
    buf.resize(headers, 0);
    buf
}

/// One buffer of `headers` zero bytes followed by `body`: a spare when
/// one was lent, else a packet's single allocation, and the payload's
/// single copy. The caller emits the headers into the front.
pub(crate) fn alloc(headers: usize, body: &[u8]) -> Vec<u8> {
    let mut buf = room(headers, body.len());
    buf.extend_from_slice(body);
    buf
}

/// Append a transport segment to `buf`: `header` zero bytes, then
/// `body`. Returns the segment, for its header to be emitted into its
/// front in place (`tcp::Repr::emit`, `udp::Repr::emit`).
pub fn push_segment<'a>(buf: &'a mut Vec<u8>, header: usize, body: &[u8]) -> &'a mut [u8] {
    let at = buf.len();
    buf.resize(at + header, 0);
    buf.extend_from_slice(body);
    &mut buf[at..]
}

/// Emit an Ethernet header into the front of `frame`.
pub(crate) fn emit_eth(frame: &mut [u8], src: Mac, dst: Mac, ethertype: EtherType) {
    ethernet::Repr {
        src,
        dst,
        ethertype,
    }
    .emit(&mut Frame::new_unchecked(frame));
}

/// Emit the Ethernet and IPv4 headers (TTL 64) in front of the
/// `protocol` payload already at `frame[ETH + 20..]`, which `run` ends.
fn emit_eth_ipv4(
    frame: &mut [u8],
    run: Run,
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: Protocol,
) {
    ipv4::Repr {
        src,
        dst,
        protocol,
        ttl: 64,
        payload_len: frame.len() - ETH_V4 + run.len(),
    }
    .emit(&mut frame[ETH..]);
    emit_eth(frame, src_mac, dst_mac, EtherType::Ipv4);
}

/// Emit the Ethernet and IPv6 headers in front of the `next_header`
/// payload already at `frame[ETH + 40..]`, which `run` ends.
#[allow(clippy::too_many_arguments)]
fn emit_eth_ipv6(
    frame: &mut [u8],
    run: Run,
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: Protocol,
    hop_limit: u8,
) {
    ipv6::Repr {
        src,
        dst,
        next_header,
        hop_limit,
        payload_len: frame.len() - ETH_V6 + run.len(),
    }
    .emit(&mut frame[ETH..]);
    emit_eth(frame, src_mac, dst_mac, EtherType::Ipv6);
}

/// An Ethernet frame carrying `payload`.
pub fn eth_frame(src: Mac, dst: Mac, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut f = alloc(ETH, payload);
    emit_eth(&mut f, src, dst, ethertype);
    f
}

/// A UDP-in-IPv4-in-Ethernet frame.
pub fn udp4_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: Vec<u8>,
) -> Vec<u8> {
    let dgram = udp::Repr {
        src_port,
        dst_port,
        payload,
    };
    let mut f = alloc(ETH_V4 + udp::HEADER_LEN, &dgram.payload);
    dgram.emit(
        &mut f[ETH_V4..],
        Run::default(),
        PseudoHeader::V4 { src, dst },
    );
    emit_eth_ipv4(
        &mut f,
        Run::default(),
        src_mac,
        dst_mac,
        src,
        dst,
        Protocol::Udp,
    );
    f
}

/// A UDP-in-IPv6-in-Ethernet frame.
pub fn udp6_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    payload: Vec<u8>,
) -> Vec<u8> {
    let dgram = udp::Repr {
        src_port,
        dst_port,
        payload,
    };
    let mut f = alloc(ETH_V6 + udp::HEADER_LEN, &dgram.payload);
    dgram.emit(
        &mut f[ETH_V6..],
        Run::default(),
        PseudoHeader::V6 { src, dst },
    );
    emit_eth_ipv6(
        &mut f,
        Run::default(),
        src_mac,
        dst_mac,
        src,
        dst,
        Protocol::Udp,
        64,
    );
    f
}

/// A TCP-in-IPv4-in-Ethernet frame.
pub fn tcp4_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    seg: &tcp::Repr,
) -> Vec<u8> {
    tcp4_frame_with_run(src_mac, dst_mac, src, dst, seg, Run::default())
}

/// A TCP-in-IPv4-in-Ethernet frame whose payload is `seg.payload`
/// followed by `run`: send it with
/// [`Effects::send_frame_with_run`](crate::host::Effects::send_frame_with_run).
pub fn tcp4_frame_with_run(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    seg: &tcp::Repr,
    run: Run,
) -> Vec<u8> {
    let mut f = alloc(ETH_V4 + tcp::HEADER_LEN, &seg.payload);
    seg.emit(&mut f[ETH_V4..], run, PseudoHeader::V4 { src, dst });
    emit_eth_ipv4(&mut f, run, src_mac, dst_mac, src, dst, Protocol::Tcp);
    f
}

/// A TCP-in-IPv6-in-Ethernet frame.
pub fn tcp6_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    seg: &tcp::Repr,
) -> Vec<u8> {
    tcp6_frame_with_run(src_mac, dst_mac, src, dst, seg, Run::default())
}

/// A TCP-in-IPv6-in-Ethernet frame whose payload is `seg.payload`
/// followed by `run`, as [`tcp4_frame_with_run`] builds.
pub fn tcp6_frame_with_run(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    seg: &tcp::Repr,
    run: Run,
) -> Vec<u8> {
    let mut f = alloc(ETH_V6 + tcp::HEADER_LEN, &seg.payload);
    seg.emit(&mut f[ETH_V6..], run, PseudoHeader::V6 { src, dst });
    emit_eth_ipv6(&mut f, run, src_mac, dst_mac, src, dst, Protocol::Tcp, 64);
    f
}

/// An ICMPv6-in-IPv6-in-Ethernet frame (NDP hop limit 255 applied when the
/// message is NDP).
pub fn icmpv6_frame(
    src_mac: Mac,
    dst_mac: Mac,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    msg: &icmpv6::Repr,
) -> Vec<u8> {
    let hop_limit = if msg.as_ndp().is_some() { 255 } else { 64 };
    let mut f = room(ETH_V6, msg.buffer_len());
    msg.emit(&mut f, src, dst);
    emit_eth_ipv6(
        &mut f,
        Run::default(),
        src_mac,
        dst_mac,
        src,
        dst,
        Protocol::Icmpv6,
        hop_limit,
    );
    f
}

/// A 6in4 packet as the tunnel broker sends it to the router's WAN
/// address `router`: IPv4 from [`addrs::TUNNEL_REMOTE_IPV4`], then IPv6
/// from `src` to `dst` (hop limit 64), then the `next_header` payload,
/// `l4_len` bytes that `write_l4` appends behind the headers' room (a
/// transport segment through [`push_segment`], an ICMPv6 message through
/// [`icmpv6::Repr::emit`]), the whole ending in `run`. The buffer is
/// sized once, and both IP headers are emitted into its front last.
pub fn sixin4_packet(
    router: Ipv4Addr,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: Protocol,
    l4_len: usize,
    run: Run,
    write_l4: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut pkt = room(SIXIN4, l4_len);
    write_l4(&mut pkt);
    debug_assert_eq!(pkt.len(), SIXIN4 + l4_len, "write_l4 appends l4_len bytes");
    ipv6::Repr {
        src,
        dst,
        next_header,
        hop_limit: 64,
        payload_len: pkt.len() - SIXIN4 + run.len(),
    }
    .emit(&mut pkt[ipv4::HEADER_LEN..]);
    ipv4::Repr {
        src: addrs::TUNNEL_REMOTE_IPV4,
        dst: router,
        protocol: Protocol::Ipv6,
        ttl: 64,
        payload_len: pkt.len() - ipv4::HEADER_LEN + run.len(),
    }
    .emit(&mut pkt);
    pkt
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6brick_net::parse::{ParsedPacket, L4};

    #[test]
    fn only_small_buffers_are_kept_as_spares() {
        let lease = lend(Vec::new());
        recycle(Vec::with_capacity(SPARE_MAX));
        recycle(Vec::with_capacity(SPARE_MAX + 1));
        let spares = lease.end();
        assert_eq!(spares.len(), 1);
        assert_eq!(spares[0].capacity(), SPARE_MAX);
        // With no lease, a frame gets a fresh buffer sized to it.
        assert_eq!(alloc(14, b"body").capacity(), 18);
    }

    #[test]
    fn builders_produce_parseable_frames() {
        let m1 = Mac::new(2, 0, 0, 0, 0, 1);
        let m2 = Mac::new(2, 0, 0, 0, 0, 2);
        let f = udp4_frame(
            m1,
            m2,
            Ipv4Addr::new(192, 168, 1, 5),
            Ipv4Addr::new(8, 8, 8, 8),
            1234,
            53,
            vec![0; 8],
        );
        assert!(matches!(
            ParsedPacket::parse(&f).unwrap().l4,
            L4::Udp { dst_port: 53, .. }
        ));

        let f = tcp6_frame(
            m1,
            m2,
            "2001:db8:10:1::5".parse().unwrap(),
            "2001:db8:ffff::1".parse().unwrap(),
            &tcp::Repr::syn(40000, 443, 1),
        );
        assert!(matches!(
            ParsedPacket::parse(&f).unwrap().l4,
            L4::Tcp { dst_port: 443, .. }
        ));

        let f = icmpv6_frame(
            m1,
            m2,
            "fe80::1".parse().unwrap(),
            "ff02::1".parse().unwrap(),
            &icmpv6::Repr::EchoRequest {
                ident: 1,
                seq: 1,
                payload: vec![],
            },
        );
        assert!(matches!(ParsedPacket::parse(&f).unwrap().l4, L4::Icmpv6(_)));
    }
}
