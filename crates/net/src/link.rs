//! The reliable link: the one implementation of sequence numbering,
//! sender retention, cumulative confirmation, replay, in-order
//! duplicate-free receipt, batching (§6.3) and credits riding the reverse
//! traffic (§6.4) that the paper's peer mesh rests on.
//!
//! Pure state machines — no socket, no clock, no lock, no metrics. A
//! [`Peer`] is one node's end of a duplex peer link; it packs
//! ([`Peer::pack`]) and takes in ([`Peer::receive`]), and `rpc.rs`'s
//! `serve_peer` serves what it took in. Three drivers:
//!
//! * the server's `PeerLink` holds a [`Peer`] behind a lock: any thread
//!   pushes, the owning shard reads the socket into it and pumps it last in
//!   every lap, the redial handshake requeues and resumes it. (Its receive
//!   side rides a kernel byte stream, which is already ordered.)
//! * `transport.rs`'s UDP connection holds both halves at datagram
//!   granularity and adds timers, pacing, faults and FIN.
//! * `cckvs-modelcheck`'s `RackModel` holds a [`Peer`] per node and peer,
//!   puts each pack on its wire as one flight, splits what lands into
//!   numbered items for a [`RecvHalf`], and lets its scheduler pick every
//!   delivery, loss, credit tick and crash.
//!
//! One numbering convention: items are numbered 0, 1, 2, … in send order,
//! and every cumulative value — a confirmation, a processed report, a
//! resume point — is a *count of items*, i.e. the number of the first item
//! **not** covered. Wire formats that number differently (`PeerResume`'s
//! 1-based `start_seq`) adapt at their boundary.

use crate::wire::{BatchBuilder, Frame};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Most items one [`Peer::pack`] carries. The credit window bounds a pack
/// first whenever it is smaller.
pub const PEER_BATCH_OPS: u64 = 32;

/// Byte budget for one pack: packing stops (and spills to the next pack)
/// once a batch holds this much, keeping batches far below
/// [`crate::wire::MAX_FRAME_BYTES`]. A datagram fabric caps it lower, at
/// its payload size. A single item over the budget still travels — alone,
/// as a bare frame.
pub const PEER_BATCH_MAX_BYTES: usize = 1 << 20;

/// Out-of-order items a [`RecvHalf`] parks before refusing further gaps
/// (the sender's retransmission recovers refused items).
pub const REORDER_CAP: usize = 4096;

/// A cumulative count claimed more items than were ever sent: it is stale
/// (addressed to another incarnation of this link) or corrupt. The call
/// that returned it changed nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeyondSent {
    /// The rejected cumulative count.
    pub claimed: u64,
    /// Items numbered so far.
    pub sent: u64,
}

impl fmt::Display for BeyondSent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} confirmed of {} sent", self.claimed, self.sent)
    }
}

/// The sending half: numbers items and retains each until a cumulative
/// confirmation covers it. `retained.len() == next_seq() − confirmed()`
/// always.
#[derive(Debug)]
pub struct SendHalf<T> {
    confirmed: u64,
    /// Front is item number `confirmed`.
    retained: VecDeque<T>,
}

impl<T> Default for SendHalf<T> {
    fn default() -> Self {
        SendHalf {
            confirmed: 0,
            retained: VecDeque::new(),
        }
    }
}

impl<T> SendHalf<T> {
    /// The number the next [`SendHalf::push`] assigns (= items numbered so
    /// far).
    pub fn next_seq(&self) -> u64 {
        self.confirmed + self.retained.len() as u64
    }

    /// Items the peer has confirmed.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Items sent but not yet confirmed — what a credit window bounds.
    pub fn outstanding(&self) -> u64 {
        self.retained.len() as u64
    }

    /// Numbers `item` and retains it until confirmed.
    pub fn push(&mut self, item: T) -> u64 {
        let seq = self.next_seq();
        self.retained.push_back(item);
        seq
    }

    /// Applies a cumulative confirmation of the first `cum` items and
    /// returns how many it newly released (0 for a stale repeat).
    pub fn confirm(&mut self, cum: u64) -> Result<u64, BeyondSent> {
        if cum > self.next_seq() {
            return Err(BeyondSent {
                claimed: cum,
                sent: self.next_seq(),
            });
        }
        let newly = cum.saturating_sub(self.confirmed);
        self.retained.drain(..newly as usize);
        self.confirmed += newly;
        Ok(newly)
    }

    /// The retained items with their numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.confirmed..).zip(&self.retained)
    }

    /// Mutable [`SendHalf::iter`] (retransmit bookkeeping lives in `T`).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        (self.confirmed..).zip(&mut self.retained)
    }
}

/// The outgoing side of one link: a FIFO of items not yet on the wire in
/// front of the [`SendHalf`] that numbers and retains what is. Wire order
/// is push order, a replay included: a reconnect's unprocessed tail goes
/// back to the front of the queue, ahead of everything pushed since. A
/// credit window bounds what may be on the wire unconfirmed
/// ([`Outbox::sendable`]).
#[derive(Debug)]
pub struct Outbox<T> {
    queue: VecDeque<T>,
    send: SendHalf<T>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Outbox {
            queue: VecDeque::new(),
            send: SendHalf::default(),
        }
    }
}

impl<T> Outbox<T> {
    /// Queues `item` behind everything not yet on the wire.
    pub fn push(&mut self, item: T) {
        self.queue.push_back(item);
    }

    /// The items not yet on the wire, oldest first.
    pub fn queued(&self) -> impl ExactSizeIterator<Item = &T> {
        self.queue.iter()
    }

    /// The front item, if it may go on the wire under `window`: fewer than
    /// `window` items are out unconfirmed.
    pub fn sendable(&self, window: u64) -> Option<&T> {
        self.queue.front().filter(|_| self.outstanding() < window)
    }

    /// Moves the front item onto the wire — into retention until confirmed
    /// — and returns its number. Panics if nothing is queued.
    pub fn pack_front(&mut self) -> u64 {
        let item = self.queue.pop_front().expect("an item is queued");
        self.send.push(item)
    }

    /// Applies a cumulative confirmation; see [`SendHalf::confirm`].
    pub fn confirm(&mut self, cum: u64) -> Result<u64, BeyondSent> {
        self.send.confirm(cum)
    }

    /// Items the peer has confirmed.
    pub fn confirmed(&self) -> u64 {
        self.send.confirmed()
    }

    /// Items on the wire and not yet confirmed — what a window bounds.
    pub fn outstanding(&self) -> u64 {
        self.send.outstanding()
    }

    /// Reconnect: the peer processed the first `processed` items. Confirms
    /// them and puts the rest back at the front of the queue, oldest first,
    /// rewinding the numbering, so that packing them again hands each its
    /// original number. `replayed` sees every requeued item, newest first.
    /// Returns the confirmed count; a count beyond what was sent is
    /// rejected and changes nothing.
    pub fn requeue_unprocessed(
        &mut self,
        processed: u64,
        mut replayed: impl FnMut(&T),
    ) -> Result<u64, BeyondSent> {
        self.send.confirm(processed)?;
        while let Some(item) = self.send.retained.pop_back() {
            replayed(&item);
            self.queue.push_front(item);
        }
        Ok(self.send.confirmed)
    }

    /// The retained items with their numbers, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = (u64, &T)> {
        self.send.iter()
    }

    /// Takes every queued item `unwanted` picks out of the queue and
    /// returns how many; what is on the wire stays retained.
    pub fn withdraw(&mut self, mut unwanted: impl FnMut(&T) -> bool) -> usize {
        let queued = self.queue.len();
        self.queue.retain(|item| !unwanted(item));
        queued - self.queue.len()
    }
}

/// What [`RecvHalf::accept`] did with an arriving item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Already delivered: dropped.
    Duplicate,
    /// Ahead of the next expected number: parked until the gap fills (a
    /// second copy of an already parked number is dropped).
    Held,
    /// The next expected number: [`RecvHalf::pop_ready`] now yields it and
    /// every parked successor.
    Ready,
    /// Ahead of the next expected number with [`REORDER_CAP`] gaps already
    /// parked: dropped.
    Refused,
}

/// The receiving half: hands items up exactly once, in number order.
#[derive(Debug)]
pub struct RecvHalf<T> {
    /// Items delivered so far (= the next expected number, and the
    /// cumulative count to confirm back to the sender).
    delivered: u64,
    held: BTreeMap<u64, T>,
}

impl<T> Default for RecvHalf<T> {
    fn default() -> Self {
        RecvHalf {
            delivered: 0,
            held: BTreeMap::new(),
        }
    }
}

impl<T> RecvHalf<T> {
    /// Items delivered so far; see the field.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Offers the item numbered `seq`. The cap bounds parked *gaps* only:
    /// the next expected item is always accepted, or a full buffer behind
    /// one lost head could never drain.
    pub fn accept(&mut self, seq: u64, item: T) -> Accept {
        if seq < self.delivered {
            return Accept::Duplicate;
        }
        let ahead = seq > self.delivered;
        if ahead && self.held.len() >= REORDER_CAP && !self.held.contains_key(&seq) {
            return Accept::Refused;
        }
        self.held.entry(seq).or_insert(item);
        if ahead {
            Accept::Held
        } else {
            Accept::Ready
        }
    }

    /// Pops the next in-order item, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<T> {
        let item = self.held.remove(&self.delivered)?;
        self.delivered += 1;
        Some(item)
    }

    /// Reconnect: the sender resumes at item `start` (its confirmed
    /// count). Anything parked belonged to the old connection and will be
    /// replayed.
    pub fn resume(&mut self, start: u64) {
        self.delivered = start;
        self.held.clear();
    }
}

/// A receiver returns credits stand-alone once it has processed
/// `window / CREDIT_RETURN_DIVISOR` items (at least one) it has not yet
/// announced — the paper's "one explicit credit per several messages"
/// (§6.4). A sender bounded by the same window therefore always has
/// three quarters of it open while the receiver keeps up.
pub const CREDIT_RETURN_DIVISOR: u64 = 4;

/// When the receiving side of a link announces its cumulative processed
/// count back to the sender. An announcement is free on a message that is
/// leaving toward the sender anyway, and bookkeeping otherwise, so:
///
/// 1. every outgoing batch carries it ([`CreditReturn::take`]);
/// 2. it leaves alone only when the unannounced debt reaches the
///    threshold ([`CreditReturn::due`]), or
/// 3. when a debt sat unannounced for one whole driver tick
///    ([`CreditReturn::arm`] / [`CreditReturn::tick`]) — the idle tail.
///
/// The processed count itself belongs to the driver (it outlives the
/// connection this policy is attached to) and is passed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditReturn {
    threshold: u64,
    announced: u64,
    /// `Some(announced)` as of arming, while the driver's tick is armed.
    armed: Option<u64>,
    /// A tick fired and nothing had been announced since it was armed.
    overdue: bool,
}

impl CreditReturn {
    /// The policy for a link whose sender is bounded by `window`.
    pub fn new(window: u64) -> Self {
        CreditReturn {
            threshold: (window / CREDIT_RETURN_DIVISOR).max(1),
            announced: 0,
            armed: None,
            overdue: false,
        }
    }

    /// Whether the debt must leave now, with or without company.
    pub fn due(&self, processed: u64) -> bool {
        let owed = processed.saturating_sub(self.announced);
        owed >= self.threshold || (self.overdue && owed > 0)
    }

    /// Announces everything processed: the count to put on the wire, or
    /// `None` when nothing is owed.
    pub fn take(&mut self, processed: u64) -> Option<u64> {
        self.overdue = false;
        if processed <= self.announced {
            return None;
        }
        self.announced = processed;
        Some(processed)
    }

    /// Whether the driver must arm its tick: a debt is left behind and no
    /// tick is watching it yet.
    pub fn arm(&mut self, processed: u64) -> bool {
        let arm = processed > self.announced && self.armed.is_none();
        if arm {
            self.armed = Some(self.announced);
        }
        arm
    }

    /// The armed tick fired. A debt nothing announced in the meantime is
    /// now [`CreditReturn::due`]; a younger one gets a tick of its own.
    pub fn tick(&mut self) {
        if let Some(at_arming) = self.armed.take() {
            self.overdue = at_arming == self.announced;
        }
    }
}

/// What a [`Peer`] carries: an item that knows its frame.
pub trait Item {
    /// Bytes the item adds beyond a frame's fixed overhead: what the byte
    /// budget counts.
    fn payload_len(&self) -> usize;
    /// Appends the item's frame to `batch`.
    fn push_to(&self, batch: &mut BatchBuilder);
}

impl Item for Frame {
    fn payload_len(&self) -> usize {
        match self {
            Frame::RpcReq { inner, .. }
            | Frame::RpcResp { inner, .. }
            | Frame::Traced { inner, .. } => inner.payload_len(),
            Frame::MissPut { value, .. }
            | Frame::MissGetResp { value }
            | Frame::WriteBack { value, .. }
            | Frame::HotMarkResp { value, .. } => value.len(),
            Frame::Protocol { bytes, .. } => bytes.as_ref().map_or(0, Vec::len),
            _ => 0,
        }
    }

    fn push_to(&self, batch: &mut BatchBuilder) {
        batch.push(self);
    }
}

/// Whether a frame is a link item: flow-controlled, numbered, counted.
fn is_item(frame: &Frame) -> bool {
    match frame {
        Frame::Protocol { .. } | Frame::RpcReq { .. } | Frame::RpcResp { .. } => true,
        Frame::Traced { inner, .. } => matches!(**inner, Frame::Protocol { .. }),
        _ => false,
    }
}

/// What one [`Peer::pack`] put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pack {
    /// The number of the first item packed (the next number, if none was).
    pub first: u64,
    /// Items packed.
    pub items: u64,
    /// The cumulative processed count a [`Frame::Credit`] announced.
    pub credit: Option<u64>,
    /// The pack left as one [`Frame::Batch`] of items, not as bare frames.
    pub batched: bool,
}

/// One node's end of a duplex peer link: the [`Outbox`] of what it sends,
/// the count of the peer's items it processed, the [`CreditReturn`] that
/// announces that count, and the generations that stamp it. Sans-IO both
/// ways: [`Peer::pack`] is what the link puts on the wire, [`Peer::receive`]
/// what it takes off.
#[derive(Debug)]
pub struct Peer<T> {
    /// What this end sends: queued, then retained until confirmed.
    pub outbox: Outbox<T>,
    /// Items of the peer's stream processed so far, in its numbering.
    processed: u64,
    credit: CreditReturn,
    /// This process's generation: a [`Frame::Credit`] stamped with another
    /// was addressed to a predecessor and counts in its numbering.
    gen: u64,
    /// The peer process's generation, stamped on the credits going back.
    peer_gen: u64,
    /// Scratch of [`Peer::pack`], kept for its capacity.
    builder: BatchBuilder,
}

impl<T: Item> Peer<T> {
    /// A link end of process `gen` whose peer is bounded by `window`, not
    /// yet connected (peer generation 0).
    pub fn new(gen: u64, window: u64) -> Self {
        Peer {
            outbox: Outbox::default(),
            processed: 0,
            credit: CreditReturn::new(window),
            gen,
            peer_gen: 0,
            builder: BatchBuilder::new(),
        }
    }

    /// Items of the peer's stream processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The peer process's generation as last resumed (0 = never).
    pub fn peer_gen(&self) -> u64 {
        self.peer_gen
    }

    /// Reconnect, the peer's stream: a connection to process `peer_gen`
    /// resumes it after its first `processed` items. Announcements start
    /// over, so the count goes back at once (cumulative confirmations are
    /// idempotent).
    pub fn resume(&mut self, peer_gen: u64, processed: u64) {
        self.peer_gen = peer_gen;
        self.processed = processed;
        self.credit = CreditReturn {
            threshold: self.credit.threshold,
            ..CreditReturn::new(0)
        };
    }

    /// Packs what is queued, front first, into one wire message appended
    /// to `out`: up to [`PEER_BATCH_OPS`] items under the credit `window`
    /// and `byte_cap` (the first item goes whatever its size), with the
    /// processed count announced as a [`Frame::Credit`] on every non-empty
    /// pack and alone only when the [`CreditReturn`] says it is due. One
    /// frame leaves bare, more as a [`Frame::Batch`]; an item over the
    /// budget leaves bare, and its credit as a second message. `numbered`
    /// sees each item with the number it went out under. Nothing waits for
    /// company: an empty queue and nothing due appends nothing.
    pub fn pack(
        &mut self,
        window: u64,
        byte_cap: usize,
        out: &mut Vec<u8>,
        mut numbered: impl FnMut(u64, &T),
    ) -> Pack {
        let builder = &mut self.builder;
        let first = self.outbox.send.next_seq();
        let mut items = 0;
        while items < PEER_BATCH_OPS {
            let Some(head) = self.outbox.sendable(window) else {
                break;
            };
            // Byte bound: an item count alone would let a burst of large
            // values coalesce past MAX_FRAME_BYTES, and the receiver drops
            // an oversized frame together with the whole link.
            if builder.count() > 0 && builder.bytes() + 64 + head.payload_len() > byte_cap {
                break;
            }
            head.push_to(builder);
            numbered(first + items, head);
            self.outbox.pack_front();
            items += 1;
        }
        let due = items > 0 || self.credit.due(self.processed);
        let credit = due.then(|| self.credit.take(self.processed)).flatten();
        if let Some(cum) = credit {
            if builder.bytes() > byte_cap {
                builder.append_to(out);
            }
            let gen = self.peer_gen;
            builder.push(&Frame::Credit { cum, gen });
        }
        let batched = items > 0 && builder.count() > 1;
        builder.append_to(out);
        Pack {
            first,
            items,
            credit,
            batched,
        }
    }

    /// Takes in one message from the peer, a [`Frame::Batch`] sub-frame by
    /// sub-frame: a [`Frame::Credit`] of this generation confirms the
    /// outbox (one of another generation, or beyond what was sent, changes
    /// nothing); a link item — a protocol message, possibly traced, or a
    /// miss-path request or response — is counted processed and pushed
    /// onto `serve`, for `rpc.rs`'s `serve_peer` once the caller lets go
    /// of this end (serving enqueues on links, this one included). Any
    /// other frame ends the message as `Err`, the items before it counted
    /// and pushed.
    pub fn receive(&mut self, frame: Frame, serve: &mut Vec<Frame>) -> Result<(), Frame> {
        let mut one = |frame: Frame| {
            match frame {
                Frame::Credit { cum, gen } => {
                    if gen == self.gen {
                        let _ = self.outbox.confirm(cum);
                    }
                }
                frame if is_item(&frame) => {
                    self.processed += 1;
                    serve.push(frame);
                }
                other => return Err(other),
            }
            Ok(())
        };
        match frame {
            Frame::Batch { frames } => frames.into_iter().try_for_each(one),
            frame => one(frame),
        }
    }

    /// Whether the driver must arm its credit tick; see
    /// [`CreditReturn::arm`]. Asked after every pump.
    pub fn arm(&mut self) -> bool {
        self.credit.arm(self.processed)
    }

    /// The armed credit tick fired; see [`CreditReturn::tick`].
    pub fn tick(&mut self) {
        self.credit.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameDecoder;
    use consistency::lamport::{NodeId, Timestamp};
    use consistency::messages::ProtocolMsg;
    use proptest::prelude::*;

    #[test]
    fn cap_bounds_held_gaps_but_never_the_next_expected_item() {
        let mut recv = RecvHalf::default();
        for seq in 1..=REORDER_CAP as u64 {
            assert_eq!(recv.accept(seq, seq), Accept::Held);
        }
        assert_eq!(recv.accept(REORDER_CAP as u64 + 1, 0), Accept::Refused);
        assert_eq!(
            recv.accept(7, 0),
            Accept::Held,
            "already parked: no new gap"
        );
        assert_eq!(recv.accept(0, 0), Accept::Ready);
        let drained: Vec<u64> = std::iter::from_fn(|| recv.pop_ready()).collect();
        assert_eq!(drained, (0..=REORDER_CAP as u64).collect::<Vec<_>>());
    }

    type Tagged = (&'static str, u64);

    /// Packs `n` items off the front, each with the number it gets.
    fn pack(outbox: &mut Outbox<Tagged>, n: usize) -> Vec<(u64, Tagged)> {
        (0..n)
            .map(|_| {
                let item = *outbox.sendable(u64::MAX).expect("queued");
                (outbox.pack_front(), item)
            })
            .collect()
    }

    #[test]
    fn replay_drains_first_and_in_fifo_order() {
        // A reconciled tail leaves ahead of the items queued before the
        // redial, oldest first, under its original numbers.
        let mut outbox = Outbox::default();
        for item in [("update", 1), ("inv", 1), ("inv", 2)] {
            outbox.push(item);
        }
        assert_eq!(
            pack(&mut outbox, 3),
            vec![(0, ("update", 1)), (1, ("inv", 1)), (2, ("inv", 2))]
        );
        // Queued while the link was down.
        outbox.push(("inv", 3));
        outbox.push(("update", 4));
        // The peer processed only the first: the other two replay.
        let mut replayed = Vec::new();
        let confirmed = outbox.requeue_unprocessed(1, |item| replayed.push(*item));
        assert_eq!(confirmed, Ok(1));
        assert_eq!(replayed, [("inv", 2), ("inv", 1)], "newest first");
        assert_eq!(
            pack(&mut outbox, 4),
            vec![
                (1, ("inv", 1)),
                (2, ("inv", 2)),
                (3, ("inv", 3)),
                (4, ("update", 4))
            ],
            "the replay tail is strictly first, itself FIFO, under its old numbers"
        );
        // A count beyond what was sent is rejected and changes nothing.
        assert!(outbox.requeue_unprocessed(9, |_| unreachable!()).is_err());
        assert_eq!(outbox.queued().len(), 0);
        assert_eq!(outbox.outstanding(), 4);
    }

    /// A miss-path answer carrying `value`: the plainest link item.
    fn item(corr: u64, value: usize) -> Frame {
        let value = vec![7; value];
        let inner = Box::new(Frame::MissGetResp { value });
        Frame::RpcResp { corr, inner }
    }

    /// The wire messages `bytes` hold.
    fn messages(bytes: &[u8]) -> Vec<Frame> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        std::iter::from_fn(|| decoder.next_frame().expect("packs decode")).collect()
    }

    /// One [`Peer::pack`] and the wire messages it emitted.
    fn pack_once(end: &mut Peer<Frame>, window: u64, cap: usize) -> (Pack, Vec<Frame>) {
        let mut out = Vec::new();
        let pack = end.pack(window, cap, &mut out, |_, _| {});
        (pack, messages(&out))
    }

    /// Pumps `end` as a reactor lap's end does — packs until the queue is
    /// empty or the window closed — onto `wire`, and returns the packs.
    fn pump(end: &mut Peer<Frame>, window: u64, wire: &mut VecDeque<Frame>) -> Vec<Pack> {
        let (mut out, mut packs) = (Vec::new(), Vec::new());
        loop {
            let pack = end.pack(window, PEER_BATCH_MAX_BYTES, &mut out, |_, _| {});
            packs.push(pack);
            if pack.items == 0 || end.outbox.queued().len() == 0 {
                break;
            }
        }
        wire.extend(messages(&out));
        packs
    }

    /// `end` takes in `n` items from its peer.
    fn take_in(end: &mut Peer<Frame>, n: u64) {
        let mut served = Vec::new();
        for corr in 0..n {
            end.receive(item(corr, 0), &mut served)
                .expect("a link item");
        }
        assert_eq!(served.len() as u64, n);
    }

    #[test]
    fn a_pack_stops_at_the_window_the_item_count_and_the_byte_cap() {
        let mut end = Peer::new(1, 0);
        (0..100).for_each(|corr| end.outbox.push(item(corr, 0)));
        let (pack, sent) = pack_once(&mut end, 10, PEER_BATCH_MAX_BYTES);
        assert_eq!((pack.first, pack.items, pack.credit), (0, 10, None));
        let frames = (0..10).map(|corr| item(corr, 0)).collect();
        assert_eq!(sent, vec![Frame::Batch { frames }]);
        let (pack, sent) = pack_once(&mut end, 10, PEER_BATCH_MAX_BYTES);
        assert_eq!(
            (pack.first, pack.items, sent.len()),
            (10, 0, 0),
            "window closed"
        );
        let (pack, _) = pack_once(&mut end, u64::MAX, PEER_BATCH_MAX_BYTES);
        assert_eq!((pack.first, pack.items), (10, PEER_BATCH_OPS));
        // 1 000-byte values under a 2 500-byte cap: the second fits beside
        // the first, a third would not.
        let mut end = Peer::new(1, 0);
        (0..5).for_each(|corr| end.outbox.push(item(corr, 1000)));
        let (pack, sent) = pack_once(&mut end, u64::MAX, 2500);
        assert_eq!((pack.items, pack.batched), (2, true));
        let frames = vec![item(0, 1000), item(1, 1000)];
        assert_eq!(sent, vec![Frame::Batch { frames }]);
    }

    #[test]
    fn an_oversize_item_leaves_alone_and_a_singleton_bare() {
        let mut end = Peer::new(1, 128);
        end.outbox.push(item(0, 10));
        let (pack, sent) = pack_once(&mut end, 128, 1000);
        assert_eq!((pack.items, pack.credit, pack.batched), (1, None, false));
        assert_eq!(sent, vec![item(0, 10)], "a singleton leaves bare");
        // With a credit to ride, an item over the budget still travels —
        // bare, its credit as a second message.
        take_in(&mut end, 3);
        end.outbox.push(item(1, 5000));
        let (pack, sent) = pack_once(&mut end, 128, 1000);
        assert_eq!((pack.items, pack.credit, pack.batched), (1, Some(3), false));
        assert_eq!(sent, vec![item(1, 5000), Frame::Credit { cum: 3, gen: 0 }]);
    }

    #[test]
    fn a_credit_rides_every_pack_and_leaves_alone_only_when_due_or_after_a_tick() {
        // A window of 128 owes a lone credit from 32 unannounced items on.
        let mut end = Peer::new(1, 128);
        end.resume(5, 0);
        take_in(&mut end, 3);
        assert_eq!(pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES).1, vec![]);
        assert!(end.arm(), "a debt arms the tick");
        assert!(!end.arm(), "once");
        assert_eq!(pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES).1, vec![]);
        end.tick();
        let (pack, sent) = pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES);
        assert_eq!((pack.items, pack.credit), (0, Some(3)));
        assert_eq!(
            sent,
            vec![Frame::Credit { cum: 3, gen: 5 }],
            "alone after a tick"
        );
        take_in(&mut end, 1);
        end.outbox.push(item(9, 0));
        let (pack, sent) = pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES);
        assert_eq!((pack.items, pack.credit, pack.batched), (1, Some(4), true));
        let frames = vec![item(9, 0), Frame::Credit { cum: 4, gen: 5 }];
        assert_eq!(sent, vec![Frame::Batch { frames }], "riding the item");
        assert_eq!(pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES).1, vec![]);
        take_in(&mut end, 32);
        let sent = pack_once(&mut end, 128, PEER_BATCH_MAX_BYTES).1;
        assert_eq!(
            sent,
            vec![Frame::Credit { cum: 36, gen: 5 }],
            "alone once due"
        );
    }

    #[test]
    fn a_refused_frame_keeps_the_items_before_it_counted() {
        let mut end = Peer::<Frame>::new(1, 128);
        let (key, ts, from) = (7, Timestamp::ZERO, NodeId(0));
        let protocol = Frame::Protocol {
            msg: ProtocolMsg::Ack { key, ts, from },
            bytes: None,
        };
        let request = Frame::RpcReq {
            corr: 1,
            inner: Box::new(Frame::MissGet { key }),
        };
        let frames = vec![protocol.clone(), request.clone(), Frame::Ping, item(2, 0)];
        let mut served = Vec::new();
        let refused = end.receive(Frame::Batch { frames }, &mut served);
        assert_eq!(refused, Err(Frame::Ping));
        assert_eq!(end.processed(), 2, "each item is counted as it is taken in");
        assert_eq!(
            served,
            vec![protocol, request],
            "and handed on to be served"
        );
    }

    /// Everything an [`Outbox`] exposes: the queue, the retained items with
    /// their numbers, and the numbering.
    fn observe(outbox: &Outbox<u64>) -> (Vec<u64>, Vec<(u64, u64)>, u64, u64) {
        let queued = outbox.queued().copied().collect();
        let retained = outbox.retained().map(|(seq, &p)| (seq, p)).collect();
        (queued, retained, outbox.confirmed(), outbox.outstanding())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// An outbox/receiver pair under a random schedule of sends, lossy
        /// duplicating reordering deliveries, partial confirms, bogus
        /// confirms and disconnect → requeue → resume → replay cycles:
        /// delivery is exactly-once in order, retention is exactly the
        /// unconfirmed items, and a rejected call changes nothing.
        #[test]
        fn random_schedules_deliver_exactly_once_in_order(
            steps in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
        ) {
            let mut send = Outbox::<u64>::default();
            let mut recv = RecvHalf::<u64>::default();
            // The wire: (seq, payload) copies in flight, any order.
            let mut wire: Vec<(u64, u64)> = Vec::new();
            let mut produced = 0u64;
            let mut delivered: Vec<u64> = Vec::new();
            // Shadow counters the halves must agree with.
            let (mut sent, mut confirmed) = (0u64, 0u64);
            for (op, r) in steps {
                match op {
                    0 | 1 => {
                        send.push(produced);
                        let seq = send.pack_front();
                        prop_assert_eq!(seq, sent);
                        wire.push((seq, produced));
                        produced += 1;
                        sent += 1;
                    }
                    2 | 3 if !wire.is_empty() => {
                        // Deliver a random flight; op 3 leaves a duplicate
                        // behind.
                        let at = (r % wire.len() as u64) as usize;
                        let (seq, payload) = if op == 3 { wire[at] } else { wire.swap_remove(at) };
                        let before = recv.delivered();
                        let outcome = recv.accept(seq, payload);
                        prop_assert_eq!(outcome == Accept::Duplicate, seq < before);
                        prop_assert_eq!(outcome == Accept::Ready, seq == before);
                        delivered.extend(std::iter::from_fn(|| recv.pop_ready()));
                    }
                    4 if !wire.is_empty() => {
                        wire.swap_remove((r % wire.len() as u64) as usize); // loss
                    }
                    5 => {
                        // Retransmit every retained item.
                        wire.extend(send.retained().map(|(seq, p)| (seq, *p)));
                    }
                    6 => {
                        // A (possibly partial, possibly stale) confirm, or
                        // — one time in four — an impossible one.
                        if r % 4 == 0 {
                            let bogus = sent + 1 + r % 5;
                            prop_assert_eq!(
                                send.confirm(bogus),
                                Err(BeyondSent { claimed: bogus, sent })
                            );
                            prop_assert!(send.requeue_unprocessed(bogus, |_| {}).is_err());
                        } else {
                            let cum = r % (recv.delivered() + 1);
                            let newly = send.confirm(cum).expect("receiver never over-reports");
                            prop_assert_eq!(newly, cum.saturating_sub(confirmed));
                            confirmed = confirmed.max(cum);
                        }
                    }
                    7 => {
                        // Connection dies: flights vanish, the peer reports
                        // its processed count, the tail replays under its
                        // original numbers.
                        wire.clear();
                        let processed = recv.delivered();
                        send.requeue_unprocessed(processed, |_| {}).expect("honest report");
                        confirmed = processed;
                        prop_assert_eq!(send.outstanding(), 0);
                        recv.resume(send.confirmed());
                        while let Some(&payload) = send.sendable(u64::MAX) {
                            let seq = send.pack_front();
                            prop_assert_eq!(seq, payload, "replay keeps its number");
                            wire.push((seq, payload));
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(send.confirmed(), confirmed);
                prop_assert_eq!(send.outstanding(), sent - confirmed);
                prop_assert_eq!(send.retained().count() as u64, sent - confirmed);
                prop_assert!(send.retained().all(|(seq, p)| seq == *p));
                prop_assert!(delivered.iter().copied().eq(0..delivered.len() as u64));
                prop_assert_eq!(recv.delivered(), delivered.len() as u64);
            }
            // Liveness: with a lossless tail every produced item arrives.
            for (seq, p) in send.retained() {
                recv.accept(seq, *p);
            }
            delivered.extend(std::iter::from_fn(|| recv.pop_ready()));
            prop_assert_eq!(delivered.len() as u64, produced);
        }

        /// An outbox under any history of pushes, packs under a window,
        /// honest confirms and honest reconnects rejects a count beyond
        /// what it sent — as a confirm or as a reconnect — and the call
        /// leaves the queue, the retained items and the numbering as they
        /// were, and hands nothing to `replayed`.
        #[test]
        fn a_rejected_count_changes_nothing(
            steps in prop::collection::vec((0u8..4, any::<u64>()), 0..120),
            beyond in 1u64..6,
        ) {
            let mut outbox = Outbox::default();
            for (produced, (op, r)) in (0u64..).zip(steps) {
                let honest = outbox.confirmed() + r % (outbox.outstanding() + 1);
                match op {
                    0 => outbox.push(produced),
                    1 => {
                        while outbox.sendable(1 + r % 8).is_some() {
                            outbox.pack_front();
                        }
                    }
                    2 => {
                        outbox.confirm(honest).expect("at most what was sent");
                    }
                    _ => {
                        outbox.requeue_unprocessed(honest, |_| {}).expect("honest");
                    }
                }
            }
            let before = observe(&outbox);
            let sent = outbox.confirmed() + outbox.outstanding();
            let claimed = sent + beyond;
            let rejected = BeyondSent { claimed, sent };
            prop_assert_eq!(outbox.confirm(claimed), Err(rejected));
            prop_assert_eq!(observe(&outbox), before.clone());
            let mut replayed = 0;
            let requeued = outbox.requeue_unprocessed(claimed, |_| replayed += 1);
            prop_assert_eq!(requeued, Err(rejected));
            prop_assert_eq!(replayed, 0);
            prop_assert_eq!(observe(&outbox), before);
        }

        /// Two link ends over an ordered wire each way: `a` sends under a
        /// window, `b` runs laps the way the reactor does (take in some
        /// arrivals, then pump — with or without traffic of its own to
        /// ride), under any interleaving of pushes, laps, ticks and
        /// deliveries back to `a`. `a` pumps after every step, as its
        /// reactor does at the end of a lap.
        #[test]
        fn credit_returns_never_pin_the_sender(
            window in 1u64..200,
            steps in prop::collection::vec((0u8..8, any::<u8>()), 1..600),
        ) {
            let threshold = (window / CREDIT_RETURN_DIVISOR).max(1);
            let (mut a, mut b) = (Peer::new(0, window), Peer::new(0, window));
            let (mut to_b, mut to_a) = (VecDeque::new(), VecDeque::new());
            let mut served = Vec::new();
            let (mut tick_armed, mut last_announced) = (false, 0u64);
            // Ticks an unannounced debt has watched go by.
            let mut ticks_in_debt = 0u32;
            for (op, r) in steps {
                let mut lap = false;
                match op {
                    0..=2 => {
                        for corr in 0..=r % 8 {
                            a.outbox.push(item(corr.into(), 0));
                        }
                    }
                    3 | 4 => {
                        for message in to_b.drain(..to_b.len().min(1 + usize::from(r) % 4)) {
                            b.receive(message, &mut served).expect("items and credits");
                        }
                        if op == 4 && r % 2 == 0 {
                            b.outbox.push(item(0, 0));
                        }
                        lap = true;
                    }
                    5 if tick_armed => {
                        tick_armed = false;
                        b.tick();
                        lap = true;
                        if b.processed() > last_announced {
                            ticks_in_debt += 1;
                        }
                    }
                    6 => {
                        if let Some(message) = to_a.pop_front() {
                            a.receive(message, &mut served).expect("items and credits");
                        }
                    }
                    _ => {}
                }
                served.clear();
                pump(&mut a, window, &mut to_b);
                let outbox = &a.outbox;
                prop_assert!(outbox.queued().len() == 0 || outbox.outstanding() == window);
                if lap {
                    for cum in pump(&mut b, window, &mut to_a).iter().filter_map(|p| p.credit) {
                        prop_assert!(cum > last_announced, "announcements are monotone");
                        last_announced = cum;
                        ticks_in_debt = 0;
                    }
                    tick_armed |= b.arm();
                    let owed = b.processed() - last_announced;
                    prop_assert!(owed < threshold, "{owed} owed after a pump");
                    prop_assert!(owed == 0 || tick_armed, "a debt nothing watches");
                    prop_assert!(ticks_in_debt < 2, "a debt outlived two ticks");
                    if window < 2 * CREDIT_RETURN_DIVISOR {
                        prop_assert_eq!(owed, 0, "small windows announce every time");
                    }
                }
                if to_b.is_empty() && to_a.is_empty() {
                    prop_assert!(
                        a.outbox.outstanding() < window,
                        "pinned at the window with everything processed"
                    );
                }
            }
        }

        /// A link end under any history of pushes, packs, items taken in
        /// and honest credits refuses a `Credit` from another generation or
        /// beyond what it sent, and the refusal leaves its outbox, its
        /// processed count and its credit policy exactly as they were
        /// (SNIPPETS.md §2's P4).
        #[test]
        fn a_refused_credit_changes_nothing(
            steps in prop::collection::vec((0u8..5, any::<u8>()), 0..120),
            beyond in 1u64..6,
        ) {
            let gen = 3;
            let mut end = Peer::new(gen, 8);
            let mut wire = VecDeque::new();
            let mut served = Vec::new();
            for (op, r) in steps {
                let honest = end.outbox.confirmed() + u64::from(r) % (end.outbox.outstanding() + 1);
                match op {
                    0 => end.outbox.push(item(r.into(), 0)),
                    1 => {
                        pump(&mut end, 1 + u64::from(r) % 8, &mut wire);
                    }
                    2 => take_in(&mut end, u64::from(r) % 5),
                    3 => {
                        let credit = Frame::Credit { cum: honest, gen };
                        end.receive(credit, &mut served).expect("a credit");
                    }
                    _ => {
                        end.arm();
                        end.tick();
                    }
                }
            }
            let observe = |end: &Peer<Frame>| {
                let outbox = &end.outbox;
                let queued: Vec<Frame> = outbox.queued().cloned().collect();
                let retained: Vec<(u64, Frame)> =
                    outbox.retained().map(|(n, f)| (n, f.clone())).collect();
                let numbering = (outbox.confirmed(), outbox.outstanding());
                (queued, retained, numbering, end.processed(), end.credit.clone())
            };
            let before = observe(&end);
            let sent = end.outbox.confirmed() + end.outbox.outstanding();
            let other_gen = Frame::Credit { cum: sent, gen: gen + 1 };
            let beyond_sent = Frame::Credit { cum: sent + beyond, gen };
            for stale in [other_gen, beyond_sent] {
                prop_assert_eq!(end.receive(stale, &mut served), Ok(()));
                prop_assert!(served.is_empty());
                prop_assert_eq!(observe(&end), before.clone());
            }
        }
    }
}
