//! `cckvs-trace` — low-overhead causal tracing for the networked rack.
//!
//! A sampled client operation mints a 64-bit trace id that travels on the
//! wire with every frame the operation touches or fans out (client
//! request, Lin invalidations, acks, SC updates, miss RPCs, replayed
//! frames after a peer reconnect). Each node records fixed-size
//! [`Event`]s into lock-free bounded rings — one lane per reactor shard
//! plus one shared lane for workers and admin paths — so the hot path
//! never takes a lock and never allocates. A drain thread (the metrics
//! scraper, when enabled) moves events into a bounded [`TraceSink`]
//! store, queryable over the wire via the `TraceDump` admin frame; the
//! `cckvs-trace` binary assembles the per-node dumps into one causal
//! per-op timeline.
//!
//! Timestamps are Unix-epoch nanoseconds ([`now_ns`]): rack nodes are
//! processes on the same machine (or NTP-synced hosts), so wall-clock
//! events from different nodes can be merged into one timeline without a
//! clock-sync protocol.
//!
//! The ring is a Vyukov-style bounded MPMC queue: producers claim a slot
//! with one CAS and publish with one release store; when the ring is
//! full events are dropped (and counted) rather than blocking the
//! reactor. An `Event` is 34 bytes and `Copy` — recording one is a few
//! nanoseconds plus a CAS.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// `Event::peer` value meaning "no peer involved".
pub const NO_PEER: u8 = 0xFF;

/// `Event::shard` value routing the event to the shared (worker/admin)
/// lane of a [`TraceSink`].
pub const SHARED_LANE: u8 = 0xFF;

/// What happened at one point of a traced operation's life.
///
/// The discriminants are the wire encoding (one byte) — append-only;
/// 1, 2 and 14 are unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A traced client frame was decoded off a client socket.
    Decode = 0,
    /// A Lin write hit the cache and started its invalidation round.
    LinInitiate = 3,
    /// One invalidation was queued for one peer (`peer` = destination).
    InvSend = 4,
    /// A traced protocol frame arrived from a peer (`peer` = sender).
    ProtocolRecv = 5,
    /// One invalidation ack arrived at the writer (`peer` = acker).
    AckRecv = 6,
    /// The Lin write committed (all acks in; writer unblocked).
    CommitFire = 7,
    /// The op's peer traffic stalled on an empty credit window
    /// (`key` holds the stall duration in ns, `peer` = stalled link).
    CreditStall = 8,
    /// A frame of this trace was re-queued for replay after a peer
    /// link reconnect (`peer` = redialed peer).
    Replay = 9,
    /// An SC update broadcast was queued for one peer.
    UpdateSend = 10,
    /// A miss-path RPC left for the key's home node (`peer` = home).
    MissRpc = 11,
    /// The response to the traced client op was written back.
    Respond = 12,
    /// A suspended op's continuation resumed on its owning shard (the
    /// commit, RPC response, or retry tick that un-suspended it arrived;
    /// `peer` = the peer whose message fired it, if any).
    ContinuationFire = 13,
}

impl EventKind {
    /// Decodes a wire byte back into a kind.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Decode,
            3 => EventKind::LinInitiate,
            4 => EventKind::InvSend,
            5 => EventKind::ProtocolRecv,
            6 => EventKind::AckRecv,
            7 => EventKind::CommitFire,
            8 => EventKind::CreditStall,
            9 => EventKind::Replay,
            10 => EventKind::UpdateSend,
            11 => EventKind::MissRpc,
            12 => EventKind::Respond,
            13 => EventKind::ContinuationFire,
            _ => return None,
        })
    }

    /// Stable lower-snake name, for dumps and timelines.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Decode => "decode",
            EventKind::LinInitiate => "lin_initiate",
            EventKind::InvSend => "inv_send",
            EventKind::ProtocolRecv => "protocol_recv",
            EventKind::AckRecv => "ack_recv",
            EventKind::CommitFire => "commit_fire",
            EventKind::CreditStall => "credit_stall",
            EventKind::Replay => "replay",
            EventKind::UpdateSend => "update_send",
            EventKind::MissRpc => "miss_rpc",
            EventKind::Respond => "respond",
            EventKind::ContinuationFire => "continuation_fire",
        }
    }
}

/// One recorded point on a traced operation's cross-node timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The operation's rack-wide trace id.
    pub trace_id: u64,
    /// Wall-clock Unix-epoch nanoseconds at the event.
    pub t_ns: u64,
    /// The key involved (or a kind-specific payload, see [`EventKind`]).
    pub key: u64,
    /// Node that recorded the event.
    pub node: u8,
    /// Reactor shard that recorded it ([`SHARED_LANE`] for workers).
    pub shard: u8,
    /// What happened.
    pub kind: EventKind,
    /// The peer node involved, or [`NO_PEER`].
    pub peer: u8,
}

/// Wall-clock Unix-epoch nanoseconds — the event timestamp domain.
pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One slot of the bounded ring: a sequence number gating a cell.
struct Slot {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<Event>>,
}

/// A Vyukov-style bounded lock-free MPMC ring of [`Event`]s.
///
/// `push` never blocks: a full ring rejects the event (the caller counts
/// the drop). Capacity is rounded up to a power of two.
pub struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// The UnsafeCell is only touched by the slot's CAS winner, between its
// claim and its release store of `seq` — the sequence protocol is the
// synchronization.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    /// A ring holding at least `capacity` events (rounded up to a power
    /// of two, minimum 2).
    pub fn new(capacity: usize) -> Ring {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event; `false` (and the event is dropped) if full.
    pub fn push(&self, ev: Event) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.val.get()).write(ev) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Takes the oldest event, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<Event> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let ev = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(ev);
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

/// Default per-lane ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default bound on events retained in the drained store.
pub const DEFAULT_STORE_CAPACITY: usize = 65_536;

/// Per-node event collector: one lock-free ring lane per reactor shard
/// plus a shared lane, drained into a bounded FIFO store.
///
/// Recording ([`TraceSink::record`]) is wait-free apart from one CAS and
/// touches no lock; [`TraceSink::drain`] (called off the hot path, e.g.
/// by the metrics scrape loop) moves events into the store, evicting the
/// oldest once `store_capacity` is reached — trace memory is bounded no
/// matter how long the node runs.
pub struct TraceSink {
    lanes: Vec<Ring>,
    dropped: AtomicU64,
    store_capacity: usize,
    store: Mutex<VecDeque<Event>>,
}

impl TraceSink {
    /// A sink with `shards` reactor lanes plus the shared lane.
    pub fn new(shards: usize) -> TraceSink {
        TraceSink::with_capacity(shards, DEFAULT_RING_CAPACITY, DEFAULT_STORE_CAPACITY)
    }

    /// A sink with explicit ring and store bounds.
    pub fn with_capacity(shards: usize, ring_capacity: usize, store_capacity: usize) -> TraceSink {
        let lanes = (0..shards.max(1) + 1)
            .map(|_| Ring::new(ring_capacity))
            .collect();
        TraceSink {
            lanes,
            dropped: AtomicU64::new(0),
            store_capacity: store_capacity.max(1),
            store: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one event into the lane named by `ev.shard`
    /// ([`SHARED_LANE`] or any out-of-range shard uses the shared lane).
    pub fn record(&self, ev: Event) {
        let lane = if (ev.shard as usize) < self.lanes.len() - 1 {
            ev.shard as usize
        } else {
            self.lanes.len() - 1
        };
        if !self.lanes[lane].push(ev) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Moves every ring event into the bounded store; returns how many
    /// were drained.
    pub fn drain(&self) -> usize {
        let mut moved = 0;
        let mut store = self.store.lock().expect("trace store poisoned");
        for lane in &self.lanes {
            while let Some(ev) = lane.pop() {
                if store.len() == self.store_capacity {
                    store.pop_front();
                }
                store.push_back(ev);
                moved += 1;
            }
        }
        moved
    }

    /// Drains the rings and snapshots every retained event, oldest
    /// first.
    pub fn dump(&self) -> Vec<Event> {
        self.drain();
        let store = self.store.lock().expect("trace store poisoned");
        store.iter().copied().collect()
    }

    /// Events dropped because a ring lane was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained in the drained store.
    pub fn stored(&self) -> usize {
        self.store.lock().expect("trace store poisoned").len()
    }
}

/// Assembles the events of one trace id (from any number of per-node
/// dumps) into a single time-ordered timeline.
pub fn assemble(dumps: &[Vec<Event>], trace_id: u64) -> Vec<Event> {
    let mut timeline: Vec<Event> = dumps
        .iter()
        .flat_map(|d| d.iter())
        .filter(|ev| ev.trace_id == trace_id)
        .copied()
        .collect();
    timeline.sort_by_key(|ev| (ev.t_ns, ev.node, ev.kind));
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(trace_id: u64, t_ns: u64, shard: u8, kind: EventKind) -> Event {
        Event {
            trace_id,
            t_ns,
            key: 7,
            node: 0,
            shard,
            kind,
            peer: NO_PEER,
        }
    }

    #[test]
    fn ring_is_fifo_and_bounded() {
        let ring = Ring::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            assert!(ring.push(ev(i, i, 0, EventKind::Decode)));
        }
        assert!(
            !ring.push(ev(99, 99, 0, EventKind::Decode)),
            "full ring must reject"
        );
        for i in 0..4 {
            assert_eq!(ring.pop().expect("event").trace_id, i);
        }
        assert!(ring.pop().is_none());
        // Wrap-around after a full drain.
        assert!(ring.push(ev(42, 42, 0, EventKind::AckRecv)));
        assert_eq!(ring.pop().expect("event").trace_id, 42);
    }

    #[test]
    fn ring_survives_concurrent_producers() {
        let ring = Arc::new(Ring::new(1 << 14));
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 2000;
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert!(ring.push(ev(p * PER_PRODUCER + i, i, 0, EventKind::Decode)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(e) = ring.pop() {
            assert!(seen.insert(e.trace_id), "duplicate event {}", e.trace_id);
        }
        assert_eq!(seen.len() as u64, PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn sink_routes_lanes_and_counts_drops() {
        let sink = TraceSink::with_capacity(2, 2, 16);
        // Lane 0, lane 1, and the shared lane are distinct rings of 2.
        for shard in [0u8, 1, SHARED_LANE] {
            sink.record(ev(u64::from(shard), 1, shard, EventKind::Decode));
            sink.record(ev(u64::from(shard), 2, shard, EventKind::Respond));
        }
        assert_eq!(sink.dropped(), 0);
        // Each lane is full now.
        sink.record(ev(9, 3, 0, EventKind::Decode));
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.dump().len(), 6);
        // Out-of-range shard falls into the shared lane (never panics).
        sink.record(ev(10, 4, 200, EventKind::Decode));
        assert_eq!(sink.dump().len(), 7);
    }

    #[test]
    fn store_is_bounded_fifo() {
        let sink = TraceSink::with_capacity(1, 64, 8);
        for i in 0..100u64 {
            sink.record(ev(i, i, 0, EventKind::Decode));
            if i % 16 == 0 {
                sink.drain();
            }
        }
        let dump = sink.dump();
        assert_eq!(dump.len(), 8, "store must hold exactly its bound");
        // The retained events are the newest ones, in order.
        assert_eq!(dump.last().expect("event").trace_id, 99);
        assert!(dump.windows(2).all(|w| w[0].trace_id < w[1].trace_id));
    }

    #[test]
    fn assemble_merges_and_orders_across_nodes() {
        let node0 = vec![
            ev(5, 100, 0, EventKind::Decode),
            ev(5, 400, 0, EventKind::CommitFire),
            ev(6, 150, 0, EventKind::Decode),
        ];
        let node1 = vec![Event {
            node: 1,
            ..ev(5, 250, 0, EventKind::ProtocolRecv)
        }];
        let timeline = assemble(&[node0, node1], 5);
        assert_eq!(timeline.len(), 3);
        assert_eq!(
            timeline.iter().map(|e| e.t_ns).collect::<Vec<_>>(),
            vec![100, 250, 400]
        );
        assert_eq!(timeline[1].node, 1);
    }

    #[test]
    fn event_kind_roundtrips() {
        for v in (0..=13u8).filter(|v| ![1, 2].contains(v)) {
            let kind = EventKind::from_u8(v).expect("kind");
            assert_eq!(kind as u8, v);
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_u8(1), None);
        assert_eq!(EventKind::from_u8(2), None);
        assert_eq!(EventKind::from_u8(14), None);
        assert_eq!(EventKind::from_u8(15), None);
        assert_eq!(EventKind::from_u8(255), None);
    }
}
