//! The UDP envelope's reliability as a sans-IO machine: one connection's
//! datagram numbering, cumulative acks, retransmission, reorder buffer,
//! duplicate suppression, `FIN` and dead-peer rule. No socket, no clock, no
//! lock: every entry point takes `now` and writes what it sends into the
//! caller's [`Sink`]. `transport.rs`'s UDP connection feeds it from its
//! socket paths and its pacer thread ticks it; tests drive two machines on
//! built instants. Byte layouts: `docs/WIRE.md`, "UDP datagram envelope".
//!
//! A sender retains each `DATA`/`FIN` until a cumulative ack covers it and
//! resends it after 20 ms, doubling to 500 ms. Acks are bookkeeping
//! (§6.4): every `DATA`/`FIN` carries one, and a stand-alone `ACK` leaves
//! only at once on a gap, a duplicate or a `FIN`, after [`UDP_ACK_EVERY`]
//! unacknowledged in-order datagrams, or on the second tick that finds it
//! owed: with the pacer's ≤ 5 ms passes, inside the first RTO.

use crate::link::{Accept, RecvHalf, SendHalf};
use crate::wire::MAX_DATAGRAM_BYTES;
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

/// One sequence-numbered chunk of the byte stream.
pub const DG_DATA: u8 = 3;
/// Stand-alone cumulative ack.
pub const DG_ACK: u8 = 4;
/// Sequence-numbered end of stream.
pub const DG_FIN: u8 = 5;

/// Size of a `SYN`/`SYN-ACK`/`ACK`: type byte + u64 (nonce or cum).
pub const DG_CTRL_LEN: usize = 1 + 8;
/// `DATA`/`FIN` header: type byte + u64 seq + u64 cum of the reverse way.
pub const DG_DATA_HDR: usize = 1 + 8 + 8;

/// Initial retransmission timeout (doubles per retry, capped).
const UDP_RTO_MIN: Duration = Duration::from_millis(20);
/// Retransmission timeout cap.
const UDP_RTO_MAX: Duration = Duration::from_millis(500);
/// In-order datagrams a receiver lets pile up unacknowledged before it
/// sends a stand-alone `ACK` (reverse `DATA` or a tick may get there first).
pub const UDP_ACK_EVERY: u32 = 16;
/// A connection with retained traffic and no cumulative-ack progress for
/// this long is broken: the peer is gone, as a TCP RST would say.
pub const UDP_DEAD_AFTER: Duration = Duration::from_secs(10);
/// Retransmissions per tick (burst cap).
const UDP_RETX_BURST: usize = 64;

/// What a datagram handed to the sink is, for the census: a `DATA`/`FIN`
/// sent for the first time (`true` when an owed ack rides its header), a
/// stand-alone `ACK`, or a `DATA`/`FIN` sent again after its RTO expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    Data(bool),
    Ack,
    Retransmit,
}

/// Where the machine writes each datagram it sends.
pub type Sink<'a> = dyn FnMut(Sent, &[u8]) + 'a;

/// The little-endian u64 at the front of `bytes`.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("caller checked the length"))
}

/// Retransmission timeout for the `tries`-th retry.
fn rto(tries: u32) -> Duration {
    UDP_RTO_MIN
        .saturating_mul(1u32 << tries.min(8))
        .min(UDP_RTO_MAX)
}

/// One retained (unacknowledged) outbound datagram's retransmit state.
struct Retained {
    bytes: Vec<u8>,
    sent_at: Instant,
    tries: u32,
}

/// One connection's reliability state.
pub struct Envelope {
    /// Outbound `DATA`/`FIN` numbering, retained until cumulatively acked.
    send: SendHalf<Retained>,
    /// Inbound in-order delivery of `(is_fin, payload)`.
    recv: RecvHalf<(bool, Vec<u8>)>,
    /// In-order payloads ready for `read` (front chunk partially
    /// consumed up to `delivery_off`).
    delivery: VecDeque<Vec<u8>>,
    delivery_off: usize,
    /// The peer's `FIN` was delivered in order: reads return EOF once
    /// `delivery` drains.
    eof: bool,
    fin_sent: bool,
    /// Terminal failure: `TimedOut` for a dead peer, or what the driver saw
    /// on its socket (`ConnectionRefused`/`ConnectionReset` for ICMP errors).
    pub broken: Option<io::ErrorKind>,
    /// In-order `DATA` accepted since an ack last left (stand-alone or
    /// riding a `DATA`/`FIN`); a gap, a duplicate or a `FIN` jumps it
    /// straight to [`UDP_ACK_EVERY`], the stand-alone threshold.
    ack_owed: u32,
    /// A tick found `ack_owed` above zero and left it for reverse data to
    /// carry: the next tick acknowledges alone. Cleared wherever
    /// `ack_owed` is zeroed.
    ack_aged: bool,
    /// Last time the cumulative ack advanced (or a tick found nothing
    /// retained); staleness beyond [`UDP_DEAD_AFTER`] breaks the connection.
    last_progress: Instant,
}

impl Envelope {
    /// A fresh connection established at `now`.
    pub fn new(now: Instant) -> Envelope {
        Envelope {
            send: SendHalf::default(),
            recv: RecvHalf::default(),
            delivery: VecDeque::new(),
            delivery_off: 0,
            eof: false,
            fin_sent: false,
            broken: None,
            ack_owed: 0,
            ack_aged: false,
            last_progress: now,
        }
    }

    /// Numbers, sends and retains one `DATA` or `FIN` (`tag`) of at most
    /// [`MAX_DATAGRAM_BYTES`]; its header carries whatever ack is owed.
    /// Fails on a broken connection and after a `FIN`.
    pub fn send(
        &mut self,
        tag: u8,
        payload: &[u8],
        now: Instant,
        out: &mut Sink<'_>,
    ) -> io::Result<()> {
        if let Some(kind) = self.broken {
            return Err(io::Error::new(kind, "udp connection broken"));
        }
        if self.fin_sent {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "udp connection closed",
            ));
        }
        self.fin_sent = tag == DG_FIN;
        let mut dgram = Vec::with_capacity(DG_DATA_HDR + payload.len());
        dgram.push(tag);
        dgram.extend_from_slice(&self.send.next_seq().to_le_bytes());
        dgram.extend_from_slice(&self.recv.delivered().to_le_bytes());
        dgram.extend_from_slice(payload);
        self.ack_aged = false;
        let ack_rode = std::mem::take(&mut self.ack_owed) > 0;
        out(Sent::Data(ack_rode), &dgram);
        self.send.push(Retained {
            bytes: dgram,
            sent_at: now,
            tries: 0,
        });
        Ok(())
    }

    /// Applies one inbound datagram, and answers it with a stand-alone
    /// `ACK` when one is due at once.
    pub fn take_in(&mut self, bytes: &[u8], now: Instant, out: &mut Sink<'_>) {
        let mut confirm = |cum: u64| {
            if self.send.confirm(cum).is_ok_and(|newly| newly > 0) {
                self.last_progress = now;
            }
        };
        match bytes.first() {
            Some(&tag @ (DG_DATA | DG_FIN)) if bytes.len() >= DG_DATA_HDR => {
                let payload = &bytes[DG_DATA_HDR..];
                if payload.len() > MAX_DATAGRAM_BYTES {
                    return; // oversized: not ours, drop
                }
                confirm(le_u64(&bytes[1 + 8..]));
                let is_fin = tag == DG_FIN;
                let accept = self
                    .recv
                    .accept(le_u64(&bytes[1..]), (is_fin, payload.to_vec()));
                // Deliver the newly contiguous prefix.
                let mut delivered = 0;
                while let Some((is_fin, payload)) = self.recv.pop_ready() {
                    delivered += 1;
                    if is_fin {
                        self.eof = true;
                    } else if !payload.is_empty() {
                        self.delivery.push_back(payload);
                    }
                }
                // Plain in-order data may wait for a free ride; a duplicate,
                // a gap opened or filled, or a FIN is answered at once.
                self.ack_owed = if accept == Accept::Ready && delivered == 1 && !is_fin {
                    self.ack_owed + 1
                } else {
                    UDP_ACK_EVERY
                };
            }
            Some(&DG_ACK) if bytes.len() >= DG_CTRL_LEN => confirm(le_u64(&bytes[1..])),
            // Duplicate handshake datagrams straggling in, and `DATA`/`FIN`
            // too short for their header: ignore.
            _ => {}
        }
        if self.ack_owed >= UDP_ACK_EVERY {
            self.send_ack(out);
        }
    }

    /// One pass of the driver's timer: send an owed ack nothing carried
    /// since the previous tick, detect a dead peer, retransmit overdue
    /// retained datagrams. Returns the earliest retransmission deadline;
    /// `None` when nothing is retained or the connection is broken.
    pub fn tick(&mut self, now: Instant, out: &mut Sink<'_>) -> Option<Instant> {
        if self.broken.is_some() {
            return None;
        }
        // An ack owed since the previous tick found nothing to ride; a
        // younger one waits a tick for the reply that is likely coming (the
        // `CreditReturn` arm/tick rule).
        if self.ack_owed >= UDP_ACK_EVERY || self.ack_aged {
            self.send_ack(out);
        } else {
            self.ack_aged = self.ack_owed > 0;
        }
        if self.send.outstanding() == 0 {
            self.last_progress = now;
            return None;
        }
        if now.duration_since(self.last_progress) > UDP_DEAD_AFTER {
            self.broken = Some(io::ErrorKind::TimedOut);
            return None;
        }
        let mut burst = UDP_RETX_BURST;
        let mut due: Option<Instant> = None;
        for (_, r) in self.send.iter_mut() {
            if burst > 0 && now.duration_since(r.sent_at) >= rto(r.tries) {
                burst -= 1;
                r.sent_at = now;
                r.tries += 1;
                out(Sent::Retransmit, &r.bytes);
            }
            due = due.into_iter().chain([r.sent_at + rto(r.tries)]).min();
        }
        due
    }

    /// Copies delivered in-order bytes into `buf`: `Some(Ok(0))` at the
    /// end of the stream, the failure on a broken connection, `None` when
    /// starved.
    pub fn read(&mut self, buf: &mut [u8]) -> Option<io::Result<usize>> {
        if let Some(kind) = self.broken {
            return Some(Err(io::Error::new(kind, "udp connection broken")));
        }
        let mut copied = 0;
        while let Some(front) = self.delivery.front() {
            let avail = &front[self.delivery_off..];
            let n = avail.len().min(buf.len() - copied);
            buf[copied..copied + n].copy_from_slice(&avail[..n]);
            copied += n;
            if n < avail.len() {
                self.delivery_off += n;
                break;
            }
            self.delivery.pop_front();
            self.delivery_off = 0;
        }
        (copied > 0 || self.eof).then_some(Ok(copied))
    }

    /// Sends the stand-alone cumulative ack.
    fn send_ack(&mut self, out: &mut Sink<'_>) {
        self.ack_owed = 0;
        self.ack_aged = false;
        let mut ack = [0u8; DG_CTRL_LEN];
        ack[0] = DG_ACK;
        ack[1..].copy_from_slice(&self.recv.delivered().to_le_bytes());
        out(Sent::Ack, &ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::UdpStats;

    const MS: Duration = Duration::from_millis(1);
    const US: Duration = Duration::from_micros(1);

    /// Two machines joined by a lossless wire that moves datagrams only
    /// when told to, and the census of everything either one sent.
    struct Rig {
        env: [Envelope; 2],
        /// `wire[i]`: datagrams machine `i` sent, in flight to the other.
        wire: [VecDeque<Vec<u8>>; 2],
        stats: UdpStats,
    }

    fn sink<'a>(
        wire: &'a mut VecDeque<Vec<u8>>,
        stats: &'a UdpStats,
    ) -> impl FnMut(Sent, &[u8]) + 'a {
        move |sent, bytes| {
            stats.count(sent);
            wire.push_back(bytes.to_vec());
        }
    }

    impl Rig {
        fn new(t0: Instant) -> Rig {
            Rig {
                env: [Envelope::new(t0), Envelope::new(t0)],
                wire: Default::default(),
                stats: UdpStats::default(),
            }
        }

        fn send(&mut self, from: usize, tag: u8, payload: &[u8], now: Instant) -> io::Result<()> {
            let out = &mut sink(&mut self.wire[from], &self.stats);
            self.env[from].send(tag, payload, now, out)
        }

        /// Hands every datagram in flight to its receiver, and what they
        /// answer, until the wire is quiet.
        fn deliver(&mut self, now: Instant) {
            while let Some(from) = (0..2).find(|&i| !self.wire[i].is_empty()) {
                let dgram = self.wire[from].pop_front().expect("nonempty");
                let to = 1 - from;
                let out = &mut sink(&mut self.wire[to], &self.stats);
                self.env[to].take_in(&dgram, now, out);
            }
        }

        /// One pacer pass over both machines: their next deadlines.
        fn tick(&mut self, now: Instant) -> [Option<Instant>; 2] {
            [0, 1].map(|i| {
                let out = &mut sink(&mut self.wire[i], &self.stats);
                self.env[i].tick(now, out)
            })
        }

        fn read(&mut self, at: usize) -> Vec<u8> {
            let mut buf = [0u8; 64];
            match self.env[at].read(&mut buf) {
                Some(Ok(n)) => buf[..n].to_vec(),
                Some(Err(e)) => panic!("read failed: {e}"),
                None => Vec::new(),
            }
        }

        /// `[data_sent, acks_sent, acks_piggybacked, retransmits]`.
        fn counts(&self) -> [u64; 4] {
            self.stats.snapshot().map(|(_, n)| n)
        }

        fn outstanding(&self, at: usize) -> u64 {
            self.env[at].send.outstanding()
        }
    }

    #[test]
    fn request_response_acks_ride_the_data() {
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        for i in 0..1_000 {
            // One exchange per 5 ms pacer pass; the pass lands between
            // exchanges, when the client owes the pong an ack.
            let now = t0 + i * 5 * MS;
            rig.send(0, DG_DATA, b"ping", now).expect("open");
            rig.deliver(now);
            assert_eq!(rig.read(1), b"ping");
            rig.send(1, DG_DATA, b"pong", now + 10 * US).expect("open");
            rig.deliver(now + 10 * US);
            assert_eq!(rig.read(0), b"pong");
            // The ping is acked; the pong waits for the next ping.
            let pong_due = Some(now + 10 * US + UDP_RTO_MIN);
            assert_eq!(rig.tick(now + 20 * US), [None, pong_due]);
        }
        // Every datagram after the first carries the ack its predecessor
        // earned; a pass ages the client's owed ack and the next ping takes it.
        assert_eq!(rig.counts(), [2_000, 0, 1_999, 0]);
    }

    #[test]
    fn one_way_stream_is_acked_every_sixteenth_datagram() {
        const N: u32 = 10_000;
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        for i in 0..N {
            let now = t0 + i * 10 * US;
            rig.send(0, DG_DATA, b"x", now).expect("open");
            rig.deliver(now);
            assert_eq!(rig.read(1), b"x");
            if i % 500 == 499 {
                // A pacer pass every 5 ms: the sender's tail is far inside
                // its RTO, and an ack the receiver owes is aged, never sent:
                // the sixteenth datagram gets there first.
                rig.tick(now);
            }
        }
        let end = t0 + N * 10 * US;
        for pass in 1..=4 {
            assert_eq!(rig.tick(end + pass * 5 * MS), [None, None]);
        }
        assert_eq!(rig.outstanding(0), 0);
        assert_eq!(rig.counts(), [10_000, 625, 0, 0]);
    }

    #[test]
    fn idle_tail_is_acked_by_the_pacer_before_its_first_rto() {
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        rig.send(0, DG_DATA, b"tail", t0).expect("open");
        rig.deliver(t0);
        assert_eq!(rig.read(1), b"tail");
        // Then silence: no reverse data, no sixteenth datagram. The first
        // pass ages the owed ack, the second sends it.
        assert_eq!(rig.tick(t0 + 5 * MS), [Some(t0 + UDP_RTO_MIN), None]);
        assert_eq!(rig.counts(), [1, 0, 0, 0]);
        let second = t0 + 10 * MS;
        assert!(second < t0 + UDP_RTO_MIN);
        assert_eq!(rig.tick(second)[1], None);
        rig.deliver(second);
        assert_eq!(rig.outstanding(0), 0);
        assert_eq!(rig.tick(t0 + 25 * MS), [None, None]);
        assert_eq!(rig.counts(), [1, 1, 0, 0], "one ack, no retransmit");
    }

    #[test]
    fn the_rto_doubles_per_retry_up_to_its_cap() {
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        rig.send(0, DG_DATA, b"lost", t0).expect("open");
        rig.wire[0].clear();
        let mut due = rig.tick(t0)[0].expect("retained");
        let mut gaps = Vec::new();
        let mut sent_at = t0;
        for _ in 0..8 {
            // A microsecond early sends nothing; the deadline itself resends.
            assert_eq!(rig.tick(due - US)[0], Some(due));
            assert!(rig.wire[0].is_empty());
            let next = rig.tick(due)[0].expect("still retained");
            assert_eq!(rig.wire[0].pop_front().map(|d| d[0]), Some(DG_DATA));
            gaps.push((due - sent_at).as_millis());
            (sent_at, due) = (due, next);
        }
        assert_eq!(gaps, [20, 40, 80, 160, 320, 500, 500, 500]);
        assert_eq!(rig.counts(), [1, 0, 0, 8]);
    }

    #[test]
    fn a_peer_silent_past_dead_after_breaks_the_connection_only_with_traffic_retained() {
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        // Nothing outstanding: a tick any time later finds nothing dead.
        let idle = t0 + 3 * UDP_DEAD_AFTER;
        assert_eq!(rig.tick(idle), [None, None]);
        assert!(rig.env[0].broken.is_none());
        rig.send(0, DG_DATA, b"void", idle).expect("open");
        rig.wire[0].clear();
        assert!(rig.tick(idle + UDP_DEAD_AFTER)[0].is_some());
        assert!(rig.env[0].broken.is_none(), "not past it yet");
        rig.wire[0].clear();
        assert_eq!(rig.tick(idle + UDP_DEAD_AFTER + US)[0], None);
        assert_eq!(rig.env[0].broken, Some(io::ErrorKind::TimedOut));
        let mut buf = [0u8; 8];
        let err = rig.env[0]
            .read(&mut buf)
            .expect("broken")
            .expect_err("dead");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let err = rig.send(0, DG_DATA, b"more", idle + UDP_DEAD_AFTER + US);
        assert_eq!(err.expect_err("dead").kind(), io::ErrorKind::TimedOut);
        assert!(rig.env[1].broken.is_none());
    }

    #[test]
    fn a_retained_fin_is_retransmitted_until_it_is_acked() {
        let t0 = Instant::now();
        let mut rig = Rig::new(t0);
        rig.send(0, DG_FIN, &[], t0).expect("open");
        let closed = rig.send(0, DG_DATA, b"late", t0);
        assert_eq!(
            closed.expect_err("closed").kind(),
            io::ErrorKind::BrokenPipe
        );
        // The FIN and its first retransmission are lost; the second lands.
        rig.wire[0].clear();
        let mut at = t0;
        for expected in [t0 + 20 * MS, t0 + 60 * MS] {
            at = rig.tick(at)[0].expect("FIN retained");
            assert_eq!(at, expected);
            rig.wire[0].clear();
        }
        rig.tick(at);
        assert_eq!(rig.wire[0].front().map(|d| d[0]), Some(DG_FIN));
        // The FIN is answered at once, and ends the peer's stream.
        rig.deliver(at);
        let mut buf = [0u8; 8];
        assert_eq!(rig.env[1].read(&mut buf).expect("eof").expect("eof"), 0);
        assert_eq!(rig.outstanding(0), 0);
        assert_eq!(rig.tick(at + UDP_RTO_MAX), [None, None]);
        assert_eq!(rig.counts(), [1, 1, 0, 2]);
    }
}
