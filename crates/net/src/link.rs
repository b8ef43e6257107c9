//! The reliable link: the one implementation of sequence numbering,
//! sender retention, cumulative confirmation, replay and in-order
//! duplicate-free receipt that the paper's credit-flow-controlled peer
//! mesh (§6.3–6.4) rests on.
//!
//! Pure state machines — no socket, no clock, no lock, no metrics. Three
//! drivers own everything else:
//!
//! * `server.rs`'s `PeerLink` holds a [`SendHalf`] of coherence items;
//!   [`Frame::Credit`](crate::wire::Frame::Credit) confirms, the redial
//!   handshake [`SendHalf::reconcile`]s. (Its receive side rides a kernel
//!   byte stream, which is already ordered: a counter suffices — and a
//!   [`CreditReturn`] per connection says when that counter goes back.)
//! * `transport.rs`'s UDP connection holds both halves at datagram
//!   granularity and adds timers, pacing, faults and FIN.
//! * `cckvs-modelcheck`'s `RackModel` holds both halves per directed node
//!   pair and lets its scheduler pick every delivery, loss and confirm.
//!
//! One numbering convention: items are numbered 0, 1, 2, … in send order,
//! and every cumulative value — a confirmation, a processed report, a
//! resume point — is a *count of items*, i.e. the number of the first item
//! **not** covered. Wire formats that number differently (`PeerResume`'s
//! 1-based `start_seq`) adapt at their boundary.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

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

    /// Reconnect: the peer reports having processed the first `processed`
    /// items. Confirms that prefix and hands back the rest, oldest first,
    /// rewinding the numbering to the confirmed count — re-[`push`]ing the
    /// tail in order gives every item its original number.
    ///
    /// [`push`]: SendHalf::push
    pub fn reconcile(&mut self, processed: u64) -> Result<VecDeque<T>, BeyondSent> {
        self.confirm(processed)?;
        Ok(std::mem::take(&mut self.retained))
    }

    /// The retained items with their numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.confirmed..).zip(&self.retained)
    }

    /// Mutable [`SendHalf::iter`] (retransmit bookkeeping lives in `T`).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        (self.confirmed..).zip(&mut self.retained)
    }

    /// The retained item numbered `seq`, if it is still unconfirmed.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut T> {
        let at = seq.checked_sub(self.confirmed)?;
        self.retained.get_mut(usize::try_from(at).ok()?)
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
#[derive(Debug)]
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

#[cfg(test)]
mod tests {
    use super::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A sender/receiver pair under a random schedule of sends, lossy
        /// duplicating reordering deliveries, partial confirms, bogus
        /// confirms and disconnect → reconcile → resume → replay cycles:
        /// delivery is exactly-once in order, retention is exactly the
        /// unconfirmed items, and a rejected call changes nothing.
        #[test]
        fn random_schedules_deliver_exactly_once_in_order(
            steps in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
        ) {
            let mut send = SendHalf::<u64>::default();
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
                        let seq = send.push(produced);
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
                        wire.extend(send.iter().map(|(seq, p)| (seq, *p)));
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
                            prop_assert!(send.reconcile(bogus).is_err());
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
                        let tail = send.reconcile(processed).expect("honest report");
                        confirmed = processed;
                        prop_assert_eq!(send.next_seq(), processed);
                        recv.resume(send.confirmed());
                        for payload in tail {
                            let seq = send.push(payload);
                            prop_assert_eq!(seq, payload, "replay keeps its number");
                            wire.push((seq, payload));
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(send.next_seq(), sent);
                prop_assert_eq!(send.confirmed(), confirmed);
                prop_assert_eq!(send.outstanding(), sent - confirmed);
                prop_assert_eq!(send.iter().count() as u64, sent - confirmed);
                prop_assert!(send.iter().all(|(seq, p)| seq == *p));
                prop_assert!(delivered.iter().copied().eq(0..delivered.len() as u64));
                prop_assert_eq!(recv.delivered(), delivered.len() as u64);
            }
            // Liveness: with a lossless tail every produced item arrives.
            for (seq, p) in send.iter() {
                recv.accept(seq, *p);
            }
            delivered.extend(std::iter::from_fn(|| recv.pop_ready()));
            prop_assert_eq!(delivered.len() as u64, produced);
        }

        /// A window-bounded sender, an ordered wire, and a receiver that
        /// runs laps the way the reactor does (process some arrivals, then
        /// pump — with or without traffic of its own to ride), under any
        /// interleaving of sends, laps, ticks and credit deliveries.
        #[test]
        fn credit_returns_never_pin_the_sender(
            window in 1u64..200,
            steps in prop::collection::vec((0u8..8, any::<u8>()), 1..600),
        ) {
            let threshold = (window / CREDIT_RETURN_DIVISOR).max(1);
            let mut send = SendHalf::<()>::default();
            let mut policy = CreditReturn::new(window);
            // Items on the wire; announcements on the reverse wire.
            let (mut in_flight, mut processed) = (0u64, 0u64);
            let mut credits: VecDeque<u64> = VecDeque::new();
            let (mut tick_armed, mut last_announced) = (false, 0u64);
            // Ticks an unannounced debt has watched go by.
            let mut ticks_in_debt = 0u32;
            for (op, r) in steps {
                let mut pump: Option<bool> = None;
                match op {
                    0..=2 => {
                        for _ in 0..=r % 8 {
                            if send.outstanding() < window {
                                send.push(());
                                in_flight += 1;
                            }
                        }
                    }
                    3 | 4 => {
                        let n = in_flight.min(1 + u64::from(r) % 64);
                        in_flight -= n;
                        processed += n;
                        pump = Some(op == 4 && r % 2 == 0);
                    }
                    5 if tick_armed => {
                        tick_armed = false;
                        policy.tick();
                        pump = Some(false);
                        if processed > last_announced {
                            ticks_in_debt += 1;
                        }
                    }
                    6 => {
                        if let Some(cum) = credits.pop_front() {
                            send.confirm(cum).expect("never beyond sent");
                        }
                    }
                    _ => {}
                }
                if let Some(packed) = pump {
                    if packed || policy.due(processed) {
                        if let Some(cum) = policy.take(processed) {
                            prop_assert!(cum > last_announced, "announcements are monotone");
                            last_announced = cum;
                            ticks_in_debt = 0;
                            credits.push_back(cum);
                        }
                    }
                    tick_armed |= policy.arm(processed);
                    let owed = processed - last_announced;
                    prop_assert!(owed < threshold, "{owed} owed after a pump");
                    prop_assert!(owed == 0 || tick_armed, "a debt nothing watches");
                    prop_assert!(ticks_in_debt < 2, "a debt outlived two ticks");
                    if window < 2 * CREDIT_RETURN_DIVISOR {
                        prop_assert_eq!(owed, 0, "small windows announce every time");
                    }
                }
                if in_flight == 0 && credits.is_empty() {
                    prop_assert!(
                        send.outstanding() < window,
                        "pinned at the window with everything processed"
                    );
                }
            }
        }
    }
}
