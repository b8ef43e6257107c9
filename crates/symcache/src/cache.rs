//! The per-node symmetric cache data structure (§4, §6.2).
//!
//! The cache "inherits its structure from our KVS (and thus by extension
//! from MICA), and also implements appropriate support for SC and Lin": each
//! cached key stores, under a seqlock, the consistency metadata (state,
//! Lamport clock, last writer, ack counter) next to the value bytes, and is
//! accessed concurrently by all cache threads of the node (CRCW).
//!
//! Protocol decisions are made by the *verified* per-key state machines of
//! the `consistency` crate: the metadata stored in the object is exactly a
//! serialised [`ScKeyState`] / [`LinKeyState`], decoded, stepped and
//! re-encoded inside the seqlock critical section. The byte value travels
//! alongside; protocol messages carry a compact 64-bit value *tag* and the
//! transport attaches the bytes.

use consistency::engine::Destination;
use consistency::lamport::{NodeId, Timestamp};
use consistency::lin::{LinKeyState, LinStatus, PendingWrite};
use consistency::messages::{Action, ConsistencyModel, Event, ProtocolMsg};
use consistency::sc::ScKeyState;
use kvstore::object::ObjectHeader;
use kvstore::partition::Partition;
use kvstore::seqlock::Payload;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Number of bytes of serialised protocol metadata stored before the value.
/// (The production system packs this into 8 bytes by reusing the version
/// field for the awaited timestamp; we keep the fields explicit.)
const META_BYTES: usize = 43;

/// Result of probing the cache for a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Cache hit: the value and its timestamp.
    Hit {
        /// Value bytes.
        value: Vec<u8>,
        /// Timestamp of the value.
        ts: Timestamp,
    },
    /// The key is cached but cannot be read right now (invalid or pending a
    /// local write under Lin); the caller must retry.
    Stall,
    /// The key is not cached; the caller goes to the (possibly remote) KVS.
    Miss,
}

/// [`ReadOutcome`] without the value: what [`SymmetricCache::probe`]
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadProbe {
    /// A read would hit.
    Hit,
    /// A read would stall (see [`ReadOutcome::Stall`]).
    Stall,
    /// A read would miss.
    Miss,
}

/// Result of evicting a key from the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictOutcome {
    /// The key is not cached.
    NotCached,
    /// The key has a local write awaiting acknowledgements (Lin); evicting
    /// now would strand the blocked writer and could lose its value. The
    /// caller must retry once the pending write resolves (peers that already
    /// dropped the key still acknowledge invalidations, so it always does).
    Pending,
    /// The key was evicted. `dirty` is set when the value was written since
    /// the entry was filled, in which case the caller must write
    /// `(value, ts)` back to the key's home shard (write-back caching, §4).
    Evicted {
        /// The evicted value bytes.
        value: Vec<u8>,
        /// Timestamp of the evicted value.
        ts: Timestamp,
        /// Whether the value changed since the cache fill.
        dirty: bool,
    },
}

/// Result of a write probing the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write hit and completed immediately (SC, or single-replica Lin).
    Completed {
        /// Timestamp assigned to the write.
        ts: Timestamp,
        /// Protocol messages to send (update broadcast).
        outgoing: Vec<(Destination, ProtocolMsg)>,
    },
    /// The write hit and is pending acknowledgements (Lin).
    Pending {
        /// Timestamp assigned to the write.
        ts: Timestamp,
        /// Protocol messages to send (invalidation broadcast).
        outgoing: Vec<(Destination, ProtocolMsg)>,
    },
    /// The key is cached but another local write is still pending; retry.
    Stall,
    /// The key is not cached; the caller forwards the write to the home node.
    Miss,
}

/// Result of delivering a protocol message to the cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeliverOutcome {
    /// Protocol messages produced in response (acks, update broadcasts).
    pub outgoing: Vec<(Destination, ProtocolMsg)>,
    /// Set when this delivery completed a local pending write (Lin commit):
    /// the timestamp of the committed write.
    pub committed: Option<Timestamp>,
    /// The bytes to attach to any `Update` messages in `outgoing` (the value
    /// of the committed local write).
    pub commit_value: Option<Vec<u8>>,
    /// Whether an incoming update's value was applied to the cache.
    pub applied_update: bool,
}

/// Serialised protocol metadata (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    lin: LinKeyState,
    /// Set while the entry is transitioning into the cache (a *warming*
    /// fill awaiting deployment-wide activation) or out of it (mid
    /// eviction). Frozen entries are invisible to client reads and writes —
    /// which makes the freeze → remove sequence in [`SymmetricCache::evict`]
    /// atomic with respect to concurrent operations, and keeps writes off a
    /// half-installed hot set — but they still participate fully in the
    /// coherence protocol: an update committed elsewhere during the
    /// transition must land, or the entry would go live stale.
    frozen: bool,
}

impl Meta {
    fn initial(tag: u64) -> Self {
        Self {
            lin: LinKeyState::with_initial(tag),
            frozen: false,
        }
    }

    fn initial_at(tag: u64, ts: Timestamp) -> Self {
        let mut meta = Self::initial(tag);
        meta.lin.ts = ts;
        meta
    }

    fn encode(&self) -> [u8; META_BYTES] {
        let mut out = [0u8; META_BYTES];
        out[0] = match self.lin.status {
            LinStatus::Valid => 0,
            LinStatus::Invalid => 1,
        };
        out[1..5].copy_from_slice(&self.lin.ts.clock.to_le_bytes());
        out[5] = self.lin.ts.writer.0;
        out[6..10].copy_from_slice(&self.lin.awaiting.clock.to_le_bytes());
        out[10] = self.lin.awaiting.writer.0;
        match self.lin.pending {
            None => out[11] = 0,
            Some(p) => {
                out[11] = 1;
                out[12..16].copy_from_slice(&p.ts.clock.to_le_bytes());
                out[16] = p.ts.writer.0;
                out[17..25].copy_from_slice(&p.value.to_le_bytes());
                out[25] = p.needed;
                out[26..34].copy_from_slice(&p.acked.to_le_bytes());
            }
        }
        out[34..42].copy_from_slice(&self.lin.value.to_le_bytes());
        out[42] = u8::from(self.frozen);
        out
    }

    /// The metadata at the front of an entry's value.
    fn of(value: &Payload<'_>) -> Self {
        let mut bytes = [0u8; META_BYTES];
        value.read(0, &mut bytes);
        Self::decode(&bytes)
    }

    fn decode(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= META_BYTES, "cache metadata truncated");
        let status = if bytes[0] == 0 {
            LinStatus::Valid
        } else {
            LinStatus::Invalid
        };
        let ts = Timestamp::new(
            u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")),
            NodeId(bytes[5]),
        );
        let awaiting = Timestamp::new(
            u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")),
            NodeId(bytes[10]),
        );
        let pending = if bytes[11] == 1 {
            Some(PendingWrite {
                ts: Timestamp::new(
                    u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")),
                    NodeId(bytes[16]),
                ),
                needed: bytes[25],
                acked: u64::from_le_bytes(bytes[26..34].try_into().expect("8 bytes")),
                value: u64::from_le_bytes(bytes[17..25].try_into().expect("8 bytes")),
            })
        } else {
            None
        };
        let value = u64::from_le_bytes(bytes[34..42].try_into().expect("8 bytes"));
        Self {
            lin: LinKeyState {
                value,
                ts,
                status,
                awaiting,
                pending,
            },
            frozen: bytes[42] != 0,
        }
    }

    /// Runs a protocol step over this metadata for the given model.
    fn step(
        &mut self,
        model: ConsistencyModel,
        me: NodeId,
        replicas: usize,
        event: Event,
    ) -> Vec<Action> {
        match model {
            ConsistencyModel::Lin => self.lin.step(me, replicas, event),
            ConsistencyModel::Sc => {
                // SC state is the projection (value, ts) of the Lin state.
                let mut sc = ScKeyState {
                    value: self.lin.value,
                    ts: self.lin.ts,
                };
                let actions = sc.step(me, event);
                self.lin.value = sc.value;
                self.lin.ts = sc.ts;
                self.lin.status = LinStatus::Valid;
                self.lin.pending = None;
                actions
            }
        }
    }
}

/// The per-node symmetric cache.
#[derive(Debug)]
pub struct SymmetricCache {
    model: ConsistencyModel,
    me: NodeId,
    replicas: usize,
    store: Partition,
    /// Bytes of local writes awaiting commitment (Lin). Touched outside
    /// the entry's `modify` section, so an entry is named by the write it
    /// belongs to: by the time one cache thread fetches a committed
    /// write's bytes, another may have started the key's next write.
    pending_bytes: Mutex<HashMap<(u64, Timestamp), Vec<u8>>>,
}

impl SymmetricCache {
    /// Creates a cache able to hold `capacity` hot keys with values of up to
    /// `value_capacity` bytes, for replica `me` of `replicas` caches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `replicas` is zero.
    pub fn new(
        model: ConsistencyModel,
        me: NodeId,
        replicas: usize,
        capacity: usize,
        value_capacity: usize,
    ) -> Self {
        assert!(replicas > 0, "a deployment needs at least one replica");
        Self {
            model,
            me,
            replicas,
            store: Partition::new(capacity, META_BYTES + value_capacity),
            pending_bytes: Mutex::new(HashMap::new()),
        }
    }

    /// The consistency model of the deployment.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// This replica's node id.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// Number of keys currently cached.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache holds no keys.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Whether `key` is cached (which, by symmetry, means *every* node caches
    /// it — the directory-free property of §4).
    pub fn contains(&self, key: u64) -> bool {
        self.store.contains(key)
    }

    /// Installs a hot key with its current value (cache fill at epoch start).
    ///
    /// Returns `false` if the cache is full and the key could not be added.
    pub fn fill(&self, key: u64, value: &[u8], tag: u64) -> bool {
        self.fill_versioned(key, value, tag, Timestamp::ZERO)
    }

    /// Installs a hot key carrying the version its home shard stored it at,
    /// so the per-key Lamport clock continues where the last epoch (or a
    /// cold write) left off instead of restarting from zero — a re-installed
    /// key's first write must still order after every write the shard has
    /// already accepted, or the next eviction's `put_if_newer` write-back
    /// would silently discard it.
    ///
    /// The install timestamp is also remembered in the object header, which
    /// protocol steps never touch: at eviction time `ts != install ts` is
    /// exactly "the value changed while cached" (the dirty bit).
    pub fn fill_versioned(&self, key: u64, value: &[u8], tag: u64, ts: Timestamp) -> bool {
        self.fill_at(key, value, tag, ts, false)
    }

    /// Installs a hot key in the *warming* state: the entry participates in
    /// the coherence protocol (acks invalidations, applies updates) but
    /// client reads and writes miss until [`SymmetricCache::activate`].
    ///
    /// A deployment-wide install must fill every replica before any of them
    /// accepts a write: a write committing against a half-installed hot set
    /// collects vacuous acks from the unfilled replicas, whose stale fills
    /// then shadow it. Fill all warm, then activate all.
    pub fn fill_warm(&self, key: u64, value: &[u8], tag: u64, ts: Timestamp) -> bool {
        self.fill_at(key, value, tag, ts, true)
    }

    fn fill_at(&self, key: u64, value: &[u8], tag: u64, ts: Timestamp, frozen: bool) -> bool {
        let mut meta = Meta::initial_at(tag, ts);
        meta.frozen = frozen;
        let mut payload = Vec::with_capacity(META_BYTES + value.len());
        payload.extend_from_slice(&meta.encode());
        payload.extend_from_slice(value);
        let header = ObjectHeader {
            clock: ts.clock,
            last_writer: ts.writer.0,
            ..ObjectHeader::default()
        };
        self.store.put(key, header, &payload).is_ok()
    }

    /// Activates a warming entry (see [`SymmetricCache::fill_warm`]),
    /// returning whether the key was present.
    pub fn activate(&self, key: u64) -> bool {
        self.store
            .modify(key, |_, payload| {
                let mut meta = Meta::of(payload);
                meta.frozen = false;
                payload.write(0, &meta.encode());
            })
            .is_some()
    }

    /// Evicts `key` from the cache (epoch change, §4).
    ///
    /// Eviction is two-phase: the entry is first atomically *frozen* (after
    /// which reads and writes miss, and protocol deliveries are ignored),
    /// then removed. Freezing fails with [`EvictOutcome::Pending`] while a
    /// local write awaits acknowledgements — evicting at that moment would
    /// leave the blocked writer waiting forever and could lose its value, so
    /// the caller retries once the acks arrive.
    pub fn evict(&self, key: u64) -> EvictOutcome {
        let frozen = self.store.modify(key, |hdr, payload| {
            let mut meta = Meta::of(payload);
            if meta.lin.pending.is_some() {
                return None;
            }
            meta.frozen = true;
            payload.write(0, &meta.encode());
            let install_ts = Timestamp::new(hdr.clock, NodeId(hdr.last_writer));
            let dirty = meta.lin.ts != install_ts;
            Some((payload.to_vec(META_BYTES), meta.lin.ts, dirty))
        });
        #[cfg(test)]
        section_left();
        match frozen {
            None => EvictOutcome::NotCached,
            Some(None) => EvictOutcome::Pending,
            Some(Some((value, ts, dirty))) => {
                self.store.remove(key);
                EvictOutcome::Evicted { value, ts, dirty }
            }
        }
    }

    /// All cached keys (diagnostics / epoch reconciliation).
    pub fn keys(&self) -> Vec<u64> {
        self.store.keys()
    }

    /// Invalidations to *reissue* toward `peer` after it crashed and
    /// restarted: one per local pending write whose acknowledgement from
    /// that peer has not been counted. The original invalidation may have
    /// died in the peer's old process (or on the severed link beyond the
    /// replay horizon), in which case the blocked writer would wait
    /// forever; the restarted peer acknowledges the reissue — vacuously if
    /// it no longer caches the key. Reissuing to a peer that *did* ack is
    /// harmless: the duplicate ack is deduplicated by the per-node bitmask
    /// in [`PendingWrite`].
    pub fn reissue_invalidations(&self, peer: NodeId) -> Vec<(Destination, ProtocolMsg)> {
        let mut out = Vec::new();
        for key in self.store.keys() {
            let Some(snap) = self.store.get(key) else {
                continue;
            };
            if snap.value.len() < META_BYTES {
                continue;
            }
            let meta = Meta::decode(&snap.value);
            if let Some(pending) = meta.lin.pending {
                if !pending.acked_by(peer) {
                    out.push((
                        Destination::To(peer),
                        ProtocolMsg::Invalidation {
                            key,
                            ts: pending.ts,
                            from: self.me,
                        },
                    ));
                }
            }
        }
        out
    }

    /// The read rules, for [`SymmetricCache::probe`] and
    /// [`SymmetricCache::read`] alike: what a read of `key` finds and the
    /// timestamp a hit carries, decided on the entry's metadata (copied
    /// onto the stack) — with its value appended to `value`, when one is
    /// asked for, by the same validated copy.
    fn read_rules(&self, key: u64, value: Option<&mut Vec<u8>>) -> (ReadProbe, Timestamp) {
        let mut meta = [0u8; META_BYTES];
        let entry = self.store.object(key);
        match entry.and_then(|entry| entry.read_value_parts(key, &mut meta, value)) {
            Some(len) if len >= META_BYTES => {}
            _ => return (ReadProbe::Miss, Timestamp::ZERO),
        }
        let meta = Meta::decode(&meta);
        let probe = if meta.frozen {
            ReadProbe::Miss
        } else if self.model == ConsistencyModel::Sc || meta.lin.readable() {
            ReadProbe::Hit
        } else {
            ReadProbe::Stall
        };
        (probe, meta.lin.ts)
    }

    /// What [`SymmetricCache::read`] would find, without copying the value
    /// out (or allocating at all): for callers that only route on it.
    pub fn probe(&self, key: u64) -> ReadProbe {
        self.read_rules(key, None).0
    }

    /// Probes the cache for a read: one index lookup, one validated copy,
    /// one allocation — the value handed out.
    pub fn read(&self, key: u64) -> ReadOutcome {
        let mut value = Vec::new();
        match self.read_rules(key, Some(&mut value)) {
            (ReadProbe::Hit, ts) => ReadOutcome::Hit { value, ts },
            (ReadProbe::Stall, _) => ReadOutcome::Stall,
            (ReadProbe::Miss, _) => ReadOutcome::Miss,
        }
    }

    /// Probes the cache for a write of `value` (tagged `tag`).
    pub fn write(&self, key: u64, value: &[u8], tag: u64) -> WriteOutcome {
        let model = self.model;
        let me = self.me;
        let replicas = self.replicas;
        let result = self.store.modify(key, |_, payload| {
            let mut meta = Meta::of(payload);
            if meta.frozen {
                // Mid-eviction: the key is logically uncached already.
                return None;
            }
            let actions = meta.step(model, me, replicas, Event::ClientPut { value: tag });
            if !actions.contains(&Action::PutStall) {
                payload.write(0, &meta.encode());
                payload.truncate(META_BYTES);
                payload.write(META_BYTES, value);
            }
            Some(actions)
        });
        #[cfg(test)]
        section_left();
        let Some(Some(actions)) = result else {
            return WriteOutcome::Miss;
        };
        if actions.contains(&Action::PutStall) {
            return WriteOutcome::Stall;
        }
        let outgoing = self.actions_to_msgs(key, &actions);
        let completed = actions.iter().find_map(|a| match a {
            Action::PutComplete { ts } => Some(*ts),
            _ => None,
        });
        let pending_ts = actions.iter().find_map(|a| match a {
            Action::BroadcastInvalidations { ts } => Some(*ts),
            _ => None,
        });
        match (completed, pending_ts) {
            (Some(ts), _) => WriteOutcome::Completed { ts, outgoing },
            (None, Some(ts)) => {
                self.pending_bytes.lock().insert((key, ts), value.to_vec());
                WriteOutcome::Pending { ts, outgoing }
            }
            (None, None) => WriteOutcome::Stall,
        }
    }

    /// Delivers a protocol message (invalidation, ack, or update with its
    /// value bytes) to the cache.
    pub fn deliver(&self, msg: &ProtocolMsg, update_bytes: Option<&[u8]>) -> DeliverOutcome {
        let key = msg.key();
        let model = self.model;
        let me = self.me;
        let replicas = self.replicas;
        let event = msg.to_event();
        // Frozen (warming / mid-eviction) entries step the protocol like
        // any other: an update that commits while a key transitions must
        // land in the entry (a warming fill would otherwise go live stale),
        // and invalidations must keep being acknowledged. Only the
        // client-facing read/write paths treat frozen entries as missing.
        let result = self.store.modify(key, |_, payload| {
            let mut meta = Meta::of(payload);
            let before_ts = meta.lin.ts;
            let actions = meta.step(model, me, replicas, event);
            payload.write(0, &meta.encode());
            let applied = match (event, update_bytes) {
                // The update was applied; install its bytes.
                (Event::RecvUpdate { ts, .. }, Some(bytes))
                    if meta.lin.ts == ts && before_ts != ts =>
                {
                    payload.truncate(META_BYTES);
                    payload.write(META_BYTES, bytes);
                    true
                }
                _ => false,
            };
            (actions, applied)
        });
        #[cfg(test)]
        section_left();
        let Some((actions, applied_update)) = result else {
            // Symmetric caches hold identical key sets, so this only happens
            // transiently around epoch changes; the message is stale — but
            // invalidations must still be acknowledged, or a writer whose
            // peers evicted the key mid-round would block forever.
            return self.deliver_uncached(msg);
        };
        let outgoing = self.actions_to_msgs(key, &actions);
        let committed = actions.iter().find_map(|a| match a {
            Action::PutComplete { ts } => Some(*ts),
            _ => None,
        });
        let commit_value = committed.and_then(|ts| self.pending_bytes.lock().remove(&(key, ts)));
        DeliverOutcome {
            outgoing,
            committed,
            commit_value,
            applied_update,
        }
    }

    /// Handles a protocol message for a key this cache does not hold. A node
    /// that no longer caches a key cannot serve stale reads of it, so
    /// acknowledging an invalidation is always safe — and necessary: during
    /// hot-set churn, replicas drop a key one by one while a writer elsewhere
    /// may still be collecting acks for it.
    fn deliver_uncached(&self, msg: &ProtocolMsg) -> DeliverOutcome {
        match *msg {
            ProtocolMsg::Invalidation { key, ts, from } => DeliverOutcome {
                outgoing: vec![(
                    Destination::To(from),
                    ProtocolMsg::Ack {
                        key,
                        ts,
                        from: self.me,
                    },
                )],
                ..DeliverOutcome::default()
            },
            _ => DeliverOutcome::default(),
        }
    }

    fn actions_to_msgs(&self, key: u64, actions: &[Action]) -> Vec<(Destination, ProtocolMsg)> {
        let mut out = Vec::new();
        for action in actions {
            match *action {
                Action::BroadcastInvalidations { ts } => out.push((
                    Destination::Broadcast,
                    ProtocolMsg::Invalidation {
                        key,
                        ts,
                        from: self.me,
                    },
                )),
                Action::SendAck { to, ts } => out.push((
                    Destination::To(to),
                    ProtocolMsg::Ack {
                        key,
                        ts,
                        from: self.me,
                    },
                )),
                Action::BroadcastUpdates { value, ts } => out.push((
                    Destination::Broadcast,
                    ProtocolMsg::Update {
                        key,
                        value,
                        ts,
                        from: self.me,
                    },
                )),
                _ => {}
            }
        }
        out
    }
}

/// Test hook: `write`, `deliver` and `evict` call this each time they have
/// left their `store.modify` section, so that another cache thread's
/// operation can be run at exactly that point on one thread. The closure
/// set in [`SECTION_LEFT`] runs once, at the next such point.
#[cfg(test)]
fn section_left() {
    if let Some(hook) = SECTION_LEFT.with(|cell| cell.borrow_mut().take()) {
        hook();
    }
}

#[cfg(test)]
thread_local! {
    static SECTION_LEFT: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(model: ConsistencyModel, me: u8) -> SymmetricCache {
        SymmetricCache::new(model, NodeId(me), 3, 64, 64)
    }

    #[test]
    fn fill_and_read_hit() {
        let c = cache(ConsistencyModel::Sc, 0);
        assert!(c.fill(5, b"hot", 1));
        assert!(c.contains(5));
        match c.read(5) {
            ReadOutcome::Hit { value, ts } => {
                assert_eq!(value, b"hot");
                assert_eq!(ts, Timestamp::ZERO);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.read(99), ReadOutcome::Miss);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn sc_write_completes_and_broadcasts_update() {
        let c = cache(ConsistencyModel::Sc, 1);
        c.fill(5, b"old", 0);
        match c.write(5, b"new", 77) {
            WriteOutcome::Completed { ts, outgoing } => {
                assert_eq!(ts, Timestamp::new(1, NodeId(1)));
                assert_eq!(outgoing.len(), 1);
                assert!(matches!(
                    outgoing[0],
                    (
                        Destination::Broadcast,
                        ProtocolMsg::Update {
                            key: 5,
                            value: 77,
                            ..
                        }
                    )
                ));
            }
            other => panic!("expected completed write, got {other:?}"),
        }
        // The local read immediately sees the new value (non-blocking SC).
        assert!(matches!(c.read(5), ReadOutcome::Hit { value, .. } if value == b"new"));
    }

    #[test]
    fn lin_write_blocks_until_acks_then_commits() {
        let c = cache(ConsistencyModel::Lin, 0);
        c.fill(5, b"old", 0);
        let ts = match c.write(5, b"new", 42) {
            WriteOutcome::Pending { ts, outgoing } => {
                assert!(matches!(
                    outgoing[0],
                    (
                        Destination::Broadcast,
                        ProtocolMsg::Invalidation { key: 5, .. }
                    )
                ));
                ts
            }
            other => panic!("expected pending write, got {other:?}"),
        };
        // Local reads stall while the write is pending.
        assert_eq!(c.read(5), ReadOutcome::Stall);
        // A second local write to the same key also stalls.
        assert_eq!(c.write(5, b"other", 43), WriteOutcome::Stall);
        // Deliver the two acks.
        let ack1 = ProtocolMsg::Ack {
            key: 5,
            ts,
            from: NodeId(1),
        };
        let out1 = c.deliver(&ack1, None);
        assert!(out1.committed.is_none());
        let ack2 = ProtocolMsg::Ack {
            key: 5,
            ts,
            from: NodeId(2),
        };
        let out2 = c.deliver(&ack2, None);
        assert_eq!(out2.committed, Some(ts));
        assert_eq!(out2.commit_value.as_deref(), Some(b"new".as_ref()));
        assert!(matches!(
            out2.outgoing[0],
            (
                Destination::Broadcast,
                ProtocolMsg::Update {
                    key: 5,
                    value: 42,
                    ..
                }
            )
        ));
        // Now readable with the new value.
        assert!(matches!(c.read(5), ReadOutcome::Hit { value, .. } if value == b"new"));
    }

    /// Two cache threads of one node (§6.2, CRCW) write the same key: the
    /// second was stalled behind the first and gets in the moment the
    /// last ack has stepped the entry to committed — before the
    /// delivering thread has fetched the bytes its update broadcast
    /// carries. Each commit must leave with its own write's bytes.
    #[test]
    fn a_second_local_write_cannot_steal_a_committing_writes_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let c = Rc::new(cache(ConsistencyModel::Lin, 0));
        c.fill(5, b"old", 0);
        let WriteOutcome::Pending { ts: first, .. } = c.write(5, b"W1", 1) else {
            panic!("expected a pending Lin write");
        };
        let ack = |ts, from| {
            let (key, from) = (5, NodeId(from));
            c.deliver(&ProtocolMsg::Ack { key, ts, from }, None)
        };
        assert!(ack(first, 1).committed.is_none());
        let raced = Rc::new(RefCell::new(None));
        let (writer, result) = (Rc::clone(&c), Rc::clone(&raced));
        SECTION_LEFT.with(|cell| {
            *cell.borrow_mut() = Some(Box::new(move || {
                *result.borrow_mut() = Some(writer.write(5, b"W2", 2));
            }));
        });
        let commit = ack(first, 2);
        let second = match raced.borrow_mut().take() {
            Some(WriteOutcome::Pending { ts, .. }) => ts,
            other => panic!("the stalled writer must get in at the commit, got {other:?}"),
        };
        assert_eq!(second, Timestamp::new(first.clock + 1, NodeId(0)));
        assert!(ack(second, 1).committed.is_none());
        let next_commit = ack(second, 2);
        assert_eq!(
            (commit.committed, next_commit.committed),
            (Some(first), Some(second))
        );
        assert_eq!(
            (commit.commit_value, next_commit.commit_value),
            (Some(b"W1".to_vec()), Some(b"W2".to_vec()))
        );
    }

    #[test]
    fn lin_invalidation_blocks_reads_until_update() {
        let c = cache(ConsistencyModel::Lin, 2);
        c.fill(5, b"old", 0);
        let ts = Timestamp::new(1, NodeId(0));
        let out = c.deliver(
            &ProtocolMsg::Invalidation {
                key: 5,
                ts,
                from: NodeId(0),
            },
            None,
        );
        assert_eq!(out.outgoing.len(), 1);
        assert!(matches!(
            out.outgoing[0],
            (Destination::To(NodeId(0)), ProtocolMsg::Ack { key: 5, .. })
        ));
        assert_eq!(c.read(5), ReadOutcome::Stall);
        // The matching update unblocks the key and installs the bytes.
        let out = c.deliver(
            &ProtocolMsg::Update {
                key: 5,
                value: 9,
                ts,
                from: NodeId(0),
            },
            Some(b"fresh"),
        );
        assert!(out.applied_update);
        assert!(
            matches!(c.read(5), ReadOutcome::Hit { value, ts: t } if value == b"fresh" && t == ts)
        );
    }

    #[test]
    fn stale_update_is_not_applied() {
        let c = cache(ConsistencyModel::Sc, 0);
        c.fill(5, b"old", 0);
        c.write(5, b"newer", 1); // local write at ts (1, n0)
        let out = c.deliver(
            &ProtocolMsg::Update {
                key: 5,
                value: 2,
                ts: Timestamp::new(1, NodeId(0)),
                from: NodeId(1),
            },
            Some(b"stale"),
        );
        // Same timestamp as stored (not newer): discarded.
        assert!(!out.applied_update);
        assert!(matches!(c.read(5), ReadOutcome::Hit { value, .. } if value == b"newer"));
    }

    #[test]
    fn writes_and_reads_to_uncached_keys_miss() {
        let c = cache(ConsistencyModel::Lin, 0);
        assert_eq!(c.write(1, b"x", 0), WriteOutcome::Miss);
        assert_eq!(c.read(1), ReadOutcome::Miss);
        let out = c.deliver(
            &ProtocolMsg::Update {
                key: 1,
                value: 0,
                ts: Timestamp::new(1, NodeId(1)),
                from: NodeId(1),
            },
            Some(b"x"),
        );
        assert_eq!(out, DeliverOutcome::default());
    }

    #[test]
    fn evict_returns_value_and_timestamp_for_write_back() {
        let c = cache(ConsistencyModel::Sc, 0);
        c.fill(5, b"old", 0);
        c.write(5, b"dirty", 1);
        match c.evict(5) {
            EvictOutcome::Evicted { value, ts, dirty } => {
                assert_eq!(value, b"dirty");
                assert_eq!(ts, Timestamp::new(1, NodeId(0)));
                assert!(dirty, "written-since-fill entry must be dirty");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!c.contains(5));
        assert_eq!(c.evict(5), EvictOutcome::NotCached);
    }

    #[test]
    fn clean_eviction_carries_no_dirty_bit() {
        let c = cache(ConsistencyModel::Sc, 0);
        let ts = Timestamp::new(9, NodeId(2));
        assert!(c.fill_versioned(5, b"hot", 0, ts));
        match c.evict(5) {
            EvictOutcome::Evicted {
                value,
                ts: t,
                dirty,
            } => {
                assert_eq!(value, b"hot");
                assert_eq!(t, ts);
                assert!(!dirty, "never-written entry must evict clean");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn eviction_refuses_while_a_local_write_is_pending() {
        let c = cache(ConsistencyModel::Lin, 0);
        c.fill(5, b"old", 0);
        let ts = match c.write(5, b"new", 1) {
            WriteOutcome::Pending { ts, .. } => ts,
            other => panic!("expected pending write, got {other:?}"),
        };
        assert_eq!(c.evict(5), EvictOutcome::Pending);
        assert!(c.contains(5), "a refused eviction must not remove the key");
        // Once the acks arrive and the write commits, the eviction proceeds
        // and carries the committed value.
        for peer in [1u8, 2] {
            c.deliver(
                &ProtocolMsg::Ack {
                    key: 5,
                    ts,
                    from: NodeId(peer),
                },
                None,
            );
        }
        match c.evict(5) {
            EvictOutcome::Evicted { value, dirty, .. } => {
                assert_eq!(value, b"new");
                assert!(dirty);
            }
            other => panic!("expected eviction after commit, got {other:?}"),
        }
    }

    #[test]
    fn versioned_fill_continues_the_lamport_clock() {
        let c = cache(ConsistencyModel::Sc, 1);
        let install = Timestamp::new(41, NodeId(2));
        assert!(c.fill_versioned(5, b"hot", 0, install));
        match c.read(5) {
            ReadOutcome::Hit { ts, .. } => assert_eq!(ts, install),
            other => panic!("expected hit, got {other:?}"),
        }
        match c.write(5, b"new", 7) {
            WriteOutcome::Completed { ts, .. } => {
                assert_eq!(ts, Timestamp::new(42, NodeId(1)), "clock continues");
            }
            other => panic!("expected completed write, got {other:?}"),
        }
    }

    #[test]
    fn warming_entries_miss_clients_but_run_the_protocol() {
        let c = cache(ConsistencyModel::Lin, 2);
        assert!(c.fill_warm(5, b"fetched", 0, Timestamp::ZERO));
        assert!(c.contains(5));
        // Invisible to clients until activation.
        assert_eq!(c.read(5), ReadOutcome::Miss);
        assert_eq!(c.write(5, b"w", 1), WriteOutcome::Miss);
        // ...but protocol-active: an invalidation is acknowledged and a
        // committed update lands in the warming entry.
        let ts = Timestamp::new(1, NodeId(0));
        let out = c.deliver(
            &ProtocolMsg::Invalidation {
                key: 5,
                ts,
                from: NodeId(0),
            },
            None,
        );
        assert!(matches!(
            out.outgoing[0],
            (Destination::To(NodeId(0)), ProtocolMsg::Ack { key: 5, .. })
        ));
        let out = c.deliver(
            &ProtocolMsg::Update {
                key: 5,
                value: 9,
                ts,
                from: NodeId(0),
            },
            Some(b"committed"),
        );
        assert!(out.applied_update, "update must land while warming");
        assert_eq!(c.read(5), ReadOutcome::Miss, "still warming");
        assert!(c.activate(5));
        // Live, and carrying the value committed during the transition —
        // not the stale fill.
        assert!(
            matches!(c.read(5), ReadOutcome::Hit { value, ts: t } if value == b"committed" && t == ts)
        );
        assert!(!c.activate(99), "activation of an absent key reports it");
    }

    /// `probe` is `read` without the value: walks one key through absent,
    /// warming (frozen), invalid, valid and locally pending, under both
    /// models, and compares the two at every step.
    #[test]
    fn probe_agrees_with_read_in_every_entry_state() {
        fn agreed(c: &SymmetricCache, key: u64) -> ReadProbe {
            let probe = c.probe(key);
            let read = match c.read(key) {
                ReadOutcome::Hit { .. } => ReadProbe::Hit,
                ReadOutcome::Stall => ReadProbe::Stall,
                ReadOutcome::Miss => ReadProbe::Miss,
            };
            assert_eq!(probe, read, "probe and read disagree");
            probe
        }
        for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
            let lin = model == ConsistencyModel::Lin;
            let c = cache(model, 2);
            // Only Lin invalidates; SC entries are never unreadable.
            let invalidate = |clock| {
                let ts = Timestamp::new(clock, NodeId(0));
                let from = NodeId(0);
                if lin {
                    c.deliver(&ProtocolMsg::Invalidation { key: 5, ts, from }, None);
                }
                ts
            };
            let update = |ts| {
                let (value, from) = (9, NodeId(0));
                let msg = ProtocolMsg::Update {
                    key: 5,
                    value,
                    ts,
                    from,
                };
                c.deliver(&msg, Some(b"fresh"));
            };
            let unreadable = if lin {
                ReadProbe::Stall
            } else {
                ReadProbe::Hit
            };
            assert_eq!(agreed(&c, 5), ReadProbe::Miss, "absent");
            assert!(c.fill_warm(5, b"fetched", 0, Timestamp::ZERO));
            assert_eq!(agreed(&c, 5), ReadProbe::Miss, "warming");
            let ts = invalidate(1);
            assert_eq!(agreed(&c, 5), ReadProbe::Miss, "warming and invalid");
            update(ts);
            assert!(c.activate(5));
            assert_eq!(agreed(&c, 5), ReadProbe::Hit, "valid");
            let ts = invalidate(2);
            assert_eq!(agreed(&c, 5), unreadable, "invalid");
            update(ts);
            assert_eq!(agreed(&c, 5), ReadProbe::Hit, "valid again");
            c.write(5, b"mine", 1);
            assert_eq!(agreed(&c, 5), unreadable, "local write pending");
            assert_eq!(agreed(&c, 6), ReadProbe::Miss, "another key");
        }
    }

    #[test]
    fn uncached_invalidations_are_acknowledged() {
        let c = cache(ConsistencyModel::Lin, 2);
        let ts = Timestamp::new(3, NodeId(0));
        let out = c.deliver(
            &ProtocolMsg::Invalidation {
                key: 99,
                ts,
                from: NodeId(0),
            },
            None,
        );
        assert_eq!(
            out.outgoing,
            vec![(
                Destination::To(NodeId(0)),
                ProtocolMsg::Ack {
                    key: 99,
                    ts,
                    from: NodeId(2),
                },
            )]
        );
        assert!(!c.contains(99), "the ack must not resurrect the key");
    }

    #[test]
    fn reissue_targets_only_peers_that_never_acked() {
        let c = cache(ConsistencyModel::Lin, 0);
        c.fill(5, b"old", 0);
        let ts = match c.write(5, b"new", 7) {
            WriteOutcome::Pending { ts, .. } => ts,
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        // Peer 1 acks; peer 2's ack is lost with its crashed process.
        let ack = ProtocolMsg::Ack {
            key: 5,
            ts,
            from: NodeId(1),
        };
        assert!(c.deliver(&ack, None).committed.is_none());
        let reissue_p2 = c.reissue_invalidations(NodeId(2));
        assert_eq!(
            reissue_p2,
            vec![(
                Destination::To(NodeId(2)),
                ProtocolMsg::Invalidation {
                    key: 5,
                    ts,
                    from: NodeId(0),
                }
            )]
        );
        // Peer 1 already acked: nothing to reissue toward it.
        assert!(c.reissue_invalidations(NodeId(1)).is_empty());
        // The restarted peer 2 acks the reissue; the write commits. A
        // duplicate ack from peer 1 beforehand must not commit it early.
        let dup = ProtocolMsg::Ack {
            key: 5,
            ts,
            from: NodeId(1),
        };
        assert!(c.deliver(&dup, None).committed.is_none());
        let ack2 = ProtocolMsg::Ack {
            key: 5,
            ts,
            from: NodeId(2),
        };
        assert_eq!(c.deliver(&ack2, None).committed, Some(ts));
        // Nothing pending any more: no reissues for anyone.
        assert!(c.reissue_invalidations(NodeId(2)).is_empty());
    }

    #[test]
    fn meta_roundtrip() {
        let meta = Meta {
            lin: LinKeyState {
                value: 0xDEAD_BEEF_CAFE,
                ts: Timestamp::new(77, NodeId(3)),
                status: LinStatus::Invalid,
                awaiting: Timestamp::new(78, NodeId(4)),
                pending: Some(PendingWrite {
                    ts: Timestamp::new(79, NodeId(3)),
                    value: 123,
                    needed: 8,
                    acked: (1 << 1) | (1 << 5),
                }),
            },
            frozen: true,
        };
        assert_eq!(Meta::decode(&meta.encode()), meta);
        let empty = Meta::initial(9);
        assert_eq!(Meta::decode(&empty.encode()), empty);
    }

    #[test]
    fn concurrent_cache_threads_share_the_cache_crcw() {
        use std::sync::Arc;
        let c = Arc::new(cache(ConsistencyModel::Sc, 0));
        for k in 0..16u64 {
            c.fill(k, b"seed", 0);
        }
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let k = i % 16;
                        if i % 10 == 0 {
                            let _ = c.write(k, &i.to_le_bytes(), (t as u64) << 32 | i);
                        } else {
                            match c.read(k) {
                                ReadOutcome::Hit { value, .. } => {
                                    assert!(value == b"seed" || value.len() == 8);
                                }
                                ReadOutcome::Miss => panic!("cached key missed"),
                                ReadOutcome::Stall => {}
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A writer thread alternates two values of different lengths, each
    /// filled with its own byte, for 200 ms: every read is a hit carrying
    /// one of them whole, and `probe` sees the same entry state.
    #[test]
    fn reads_raced_by_a_writer_return_one_whole_value() {
        use std::sync::{Arc, Barrier};
        use std::time::{Duration, Instant};
        let c = Arc::new(cache(ConsistencyModel::Sc, 0));
        let values = [vec![0xAAu8; 40], vec![0x55u8; 13]];
        c.fill(5, &values[0], 0);
        let start = Arc::new(Barrier::new(2));
        let deadline = Instant::now() + Duration::from_millis(200);
        let writer = {
            let (c, start, values) = (Arc::clone(&c), Arc::clone(&start), values.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut tag = 0u64;
                while Instant::now() < deadline {
                    tag += 1;
                    let _ = c.write(5, &values[tag as usize % 2], tag);
                }
            })
        };
        start.wait();
        while Instant::now() < deadline {
            match c.read(5) {
                ReadOutcome::Hit { value, .. } => {
                    assert!(values.contains(&value), "torn value {value:?}");
                }
                other => panic!("an SC entry always reads: {other:?}"),
            }
            assert_eq!(c.probe(5), ReadProbe::Hit);
        }
        writer.join().expect("writer thread");
    }
}
