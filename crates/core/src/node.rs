//! One ccKVS server node, independent of any transport.
//!
//! A [`CcNode`] combines the pieces every deployment backend needs on each
//! server — a [`SymmetricCache`] driven by the verified protocol state
//! machines, a [`NodeKvs`] shard with the home-shard rules of the miss
//! path (fence set, cold-version counter), and the bookkeeping for
//! blocking Lin writes — while staying completely transport-agnostic:
//! every operation that would put protocol messages on the wire instead
//! *returns* them as [`Outgoing`] values for the caller to ship.
//!
//! Two drivers run this type:
//!
//! * the reactor serving layer in the `cckvs-net` crate (one OS process or
//!   thread per node, framed TCP or UDP; with more than one reactor shard,
//!   several threads on one `CcNode`), and
//! * the `cckvs-modelcheck` harness (a seeded scheduler owning every
//!   delivery, loss, crash and restart).
//!
//! Keeping a single code path for both means the protocol behaviour
//! the checkers validate is byte-for-byte the behaviour a networked rack
//! executes.

use consistency::engine::Destination;
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::{ConsistencyModel, ProtocolMsg};
use kvstore::{ConcurrencyModel, KvError, NodeKvs};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use symcache::{EvictOutcome, ReadOutcome, SymmetricCache, WriteOutcome};
use workload::{KeyId, ShardMap};

/// Default number of KVS worker threads per node (the per-node shard
/// grain). Every deployment backend — networked rack, standalone
/// `cckvs-node`, model checker — derives its [`NodeConfig`] from this one
/// constant so the checkers validate the same grain the rack runs.
pub const DEFAULT_KVS_THREADS: usize = 4;

/// Configuration of one server node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Consistency model for the symmetric cache.
    pub model: ConsistencyModel,
    /// This node's id within the deployment.
    pub node: usize,
    /// Total number of server nodes.
    pub nodes: usize,
    /// Symmetric-cache capacity (hot keys).
    pub cache_capacity: usize,
    /// Back-end KVS capacity (objects).
    pub kvs_capacity: usize,
    /// Maximum value size in bytes.
    pub value_capacity: usize,
    /// Number of KVS worker threads (per-node shard grain).
    pub kvs_threads: usize,
}

impl NodeConfig {
    /// A small node suitable for tests and examples.
    pub fn small(model: ConsistencyModel, node: usize, nodes: usize) -> Self {
        Self {
            model,
            node,
            nodes,
            cache_capacity: 256,
            kvs_capacity: 4096,
            value_capacity: 64,
            kvs_threads: DEFAULT_KVS_THREADS,
        }
    }
}

/// A protocol message to be shipped by the transport, with the value bytes
/// to attach (updates carry their committed value on the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Where the message goes.
    pub dest: Destination,
    /// The protocol message.
    pub msg: ProtocolMsg,
    /// Value bytes attached to `Update` messages. Shared, so a broadcast
    /// fanned out to N-1 peers clones a pointer per peer instead of the
    /// value allocation (matters once values exceed a few hundred bytes).
    pub bytes: Option<Arc<[u8]>>,
}

/// Outcome of evicting a key from the node's cache (epoch change, §4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictHot {
    /// The key was not cached.
    NotCached,
    /// Evicted; the value never changed while cached, nothing to write back.
    Clean,
    /// Evicted; the dirty value was written back to the *local* KVS shard
    /// (this node is the key's home).
    WrittenBack {
        /// Timestamp the value was written back at.
        ts: Timestamp,
    },
    /// Evicted; this node is *not* the key's home, so the caller must ship
    /// the dirty value to the home shard (the `WriteBack` RPC). Dropping it
    /// loses the last acknowledged write to the key.
    WriteBackRemote {
        /// The dirty value.
        value: Vec<u8>,
        /// Timestamp of the dirty value (versions the remote
        /// `put_if_newer`).
        ts: Timestamp,
    },
}

/// Result of probing the local cache for a read (stalls resolved by
/// retrying internally; the caller only sees the terminal outcomes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheGet {
    /// Cache hit: the value and its timestamp.
    Hit {
        /// Value bytes.
        value: Vec<u8>,
        /// Timestamp of the value.
        ts: Timestamp,
    },
    /// Not cached; the caller must go to the key's (possibly remote) home
    /// shard.
    Miss,
}

/// Result of probing the local cache for a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachePut {
    /// The write completed immediately (SC, or single-replica Lin); ship the
    /// returned messages (update broadcast).
    Done {
        /// Timestamp assigned to the write.
        ts: Timestamp,
        /// Update broadcast to ship.
        outgoing: Vec<Outgoing>,
    },
    /// The write is pending acknowledgements (Lin); ship the returned
    /// invalidations, then block on [`CcNode::wait_committed`].
    Pending {
        /// Timestamp assigned to the write.
        ts: Timestamp,
        /// Invalidation broadcast to ship.
        outgoing: Vec<Outgoing>,
    },
    /// Not cached; the caller must forward the write to the key's home node.
    Miss,
}

/// Outcome of [`CcNode::cold_put`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdPut {
    /// Applied to the shard at this home-assigned version.
    Applied(Timestamp),
    /// Bounced — the key is fenced or cached at this home — and nothing
    /// changed; the caller retries the whole operation from the cache probe.
    Busy,
    /// The shard rejected the write (value over capacity, shard full);
    /// the message is for the client.
    Rejected(String),
}

/// A continuation registered for a pending Lin write, run when the final
/// acknowledgement commits it (see [`CcNode::on_committed`]).
pub type CommitHook = Box<dyn FnOnce() + Send>;

/// Commit bookkeeping shared between the blocking and continuation APIs.
/// One mutex guards both tables so registering a hook and firing a commit
/// cannot interleave into a lost wakeup.
#[derive(Default)]
struct CommitTable {
    /// Commits that fired before any waiter showed up (a blocking
    /// [`CcNode::wait_committed`] caller consumes these, and
    /// [`CcNode::on_committed`] fires immediately against them when the
    /// final ack raced ahead of registration).
    fired: HashSet<(u64, Timestamp)>,
    /// Continuations registered by event-loop transports, fired inline
    /// from the protocol-delivery path on the final ack.
    hooks: HashMap<(u64, Timestamp), CommitHook>,
}

/// One transport-agnostic ccKVS server node.
pub struct CcNode {
    cfg: NodeConfig,
    cache: SymmetricCache,
    kvs: NodeKvs,
    shards: ShardMap,
    committed: Mutex<CommitTable>,
    committed_cv: Condvar,
    /// The fence set: keys homed here that are in, or moving into or out
    /// of, the hot set. While a key is fenced its cold path is closed — the
    /// transition fetches the value, fills every cache and lands every
    /// write-back before [`CcNode::hot_unmark`] re-opens it, so no cold
    /// write can land in the gap and be shadowed by the caches.
    hot_marks: Mutex<HashSet<u64>>,
    /// Highest version this home shard has assigned to a cold write or seen
    /// pass through churn (a hot-key fetch, a landed write-back). The home
    /// is the one serialisation point of an uncached key, so versioning
    /// cold writes by *its* counter, not the sender's, makes arrival order
    /// the write order; pushing the counter past every version churn
    /// surfaces makes a cold write after an eviction supersede the
    /// written-back value. Wraps after 4 billion cold writes per node.
    cold_version: AtomicU64,
}

impl CcNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (node id outside the deployment,
    /// zero nodes).
    pub fn new(cfg: NodeConfig) -> Self {
        assert!(
            cfg.nodes > 0 && cfg.node < cfg.nodes,
            "node id within deployment"
        );
        Self {
            cfg,
            cache: SymmetricCache::new(
                cfg.model,
                NodeId(cfg.node as u8),
                cfg.nodes,
                cfg.cache_capacity,
                cfg.value_capacity,
            ),
            kvs: NodeKvs::with_value_capacity(
                ConcurrencyModel::Crcw,
                cfg.kvs_threads,
                cfg.kvs_capacity,
                cfg.value_capacity,
            ),
            shards: ShardMap::new(cfg.nodes, cfg.kvs_threads),
            committed: Mutex::new(CommitTable::default()),
            committed_cv: Condvar::new(),
            hot_marks: Mutex::new(HashSet::new()),
            cold_version: AtomicU64::new(0),
        }
    }

    /// The node configuration.
    pub fn config(&self) -> NodeConfig {
        self.cfg
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.cfg.node
    }

    /// The consistency model in force.
    pub fn model(&self) -> ConsistencyModel {
        self.cfg.model
    }

    /// The symmetric cache (diagnostics).
    pub fn cache(&self) -> &SymmetricCache {
        &self.cache
    }

    /// The local KVS shard (diagnostics / seeding).
    pub fn kvs(&self) -> &NodeKvs {
        &self.kvs
    }

    /// The home node of `key` under the deployment's shard map.
    pub fn home_node(&self, key: u64) -> usize {
        self.shards.home_node(KeyId(key))
    }

    /// Whether this node is the home shard for `key`.
    pub fn is_home(&self, key: u64) -> bool {
        self.home_node(key) == self.cfg.node
    }

    /// Installs a hot key into the cache (cache fill at epoch start) at the
    /// version `ts` its home shard stored it at — `Timestamp::ZERO` for a
    /// fresh dataset, the shard's stored version when a churning hot set
    /// re-installs a previously written key (the per-key clock must continue
    /// monotonically across install/evict cycles or later write-backs would
    /// be discarded as stale). If this node is the key's home shard, the
    /// value is also seeded into the back-end KVS (write-back target)
    /// without regressing a version the shard already holds.
    ///
    /// Returns `false` if the cache or the home shard is full (the cache
    /// fill is undone in the latter case, so a failed install never leaves
    /// a cached key without its write-back target).
    pub fn install_hot(&self, key: u64, value: &[u8], ts: Timestamp) -> bool {
        self.install(key, value, ts, false)
    }

    /// Installs a hot key in the *warming* state: protocol-active but
    /// invisible to client reads and writes until [`CcNode::activate_hot`].
    /// Deployment-wide installs under live traffic must warm every replica
    /// before activating any of them — a write committing against a
    /// half-installed hot set collects vacuous acknowledgements from the
    /// unfilled replicas, whose stale fills then shadow it.
    pub fn install_hot_warm(&self, key: u64, value: &[u8], ts: Timestamp) -> bool {
        self.install(key, value, ts, true)
    }

    fn install(&self, key: u64, value: &[u8], ts: Timestamp, warm: bool) -> bool {
        let filled = if warm {
            self.cache.fill_warm(key, value, 0, ts)
        } else {
            self.cache.fill_versioned(key, value, 0, ts)
        };
        if !filled {
            return false;
        }
        if self.is_home(key)
            && self
                .kvs
                .put_if_newer(0, key, value, ts.clock, ts.writer.0)
                .is_err()
        {
            self.cache.evict(key);
            return false;
        }
        true
    }

    /// Activates a warming hot key (see [`CcNode::install_hot_warm`]),
    /// returning whether the key was present.
    pub fn activate_hot(&self, key: u64) -> bool {
        self.cache.activate(key)
    }

    /// Evicts a key from the cache (epoch change / failed-install rollback).
    ///
    /// A value written while cached is *always* preserved: written back to
    /// the local KVS if this node is the key's home, returned as
    /// [`EvictHot::WriteBackRemote`] for the transport to ship to the home
    /// shard otherwise. (Earlier revisions silently discarded dirty values
    /// of non-home keys — the coherence-downgrade hazard of decoupling
    /// eviction from ownership.) If a local write is still collecting
    /// acknowledgements the eviction waits for it to commit first; peers
    /// that already dropped the key keep acknowledging invalidations, so
    /// the wait always resolves.
    pub fn evict_hot(&self, key: u64) -> EvictHot {
        let mut backoff = StallBackoff::new();
        loop {
            match self.cache.evict(key) {
                EvictOutcome::NotCached => return EvictHot::NotCached,
                EvictOutcome::Pending => backoff.wait(),
                EvictOutcome::Evicted { dirty: false, .. } => return EvictHot::Clean,
                EvictOutcome::Evicted {
                    value,
                    ts,
                    dirty: true,
                } => {
                    if self.is_home(key) {
                        let _ = self.write_back(key, &value, ts);
                        return EvictHot::WrittenBack { ts };
                    }
                    return EvictHot::WriteBackRemote { value, ts };
                }
            }
        }
    }

    /// Single-shot eviction probe for deterministic drivers: like
    /// [`CcNode::evict_hot`] but returns `None` instead of spinning in the
    /// internal backoff while a local write is still collecting
    /// acknowledgements. A single-threaded scheduler (the model checker)
    /// owns message delivery itself, so blocking here would wait on
    /// progress only the caller can make; it re-probes once the pending
    /// write has committed.
    pub fn try_evict_hot(&self, key: u64) -> Option<EvictHot> {
        match self.cache.evict(key) {
            EvictOutcome::NotCached => Some(EvictHot::NotCached),
            EvictOutcome::Pending => None,
            EvictOutcome::Evicted { dirty: false, .. } => Some(EvictHot::Clean),
            EvictOutcome::Evicted {
                value,
                ts,
                dirty: true,
            } => {
                if self.is_home(key) {
                    let _ = self.write_back(key, &value, ts);
                    Some(EvictHot::WrittenBack { ts })
                } else {
                    Some(EvictHot::WriteBackRemote { value, ts })
                }
            }
        }
    }

    /// Applies a write-back of an evicted dirty value to this node's KVS
    /// shard (this node is the key's home). Versioned: an older write-back
    /// racing with a newer one (every replica of a churning hot set evicts
    /// its own copy) is discarded. Returns whether the value was applied.
    /// Later cold writes are versioned above `ts` either way.
    pub fn write_back(&self, key: u64, value: &[u8], ts: Timestamp) -> Result<bool, KvError> {
        self.raise_cold_version(ts.clock);
        self.kvs.put_if_newer(0, key, value, ts.clock, ts.writer.0)
    }

    /// Serves a cold (uncached-key) read from this node's shard — this node
    /// is the key's home. `None` is a bounce: the key is fenced (during an
    /// eviction the freshest value may still be in flight from a dirty
    /// replica) or cached here (a cold op on a key its home caches only
    /// arises from cache asymmetry — a crash-restarted replica serving it
    /// through its miss path — and the shard's copy of a hot key is stale
    /// relative to the caches). The caller retries from the cache probe.
    pub fn cold_get(&self, key: u64) -> Option<Vec<u8>> {
        let marks = self.hot_marks.lock();
        if marks.contains(&key) || self.is_cached(key) {
            return None;
        }
        Some(self.kvs_get(key))
    }

    /// Applies a cold (uncached-key) write from node `writer` to this
    /// node's shard — this node is the key's home — at the next
    /// home-assigned version. Bounces exactly when [`CcNode::cold_get`]
    /// does; the check and the write share the fence lock, so a cold write
    /// never interleaves with a hot-set fetch or landing write-backs (it
    /// would be shadowed by the caches or clobbered by an older
    /// write-back).
    pub fn cold_put(&self, key: u64, value: &[u8], writer: u8) -> ColdPut {
        let marks = self.hot_marks.lock();
        if marks.contains(&key) || self.is_cached(key) {
            return ColdPut::Busy;
        }
        let clock = self.cold_version.fetch_add(1, Ordering::Relaxed) as u32 + 1;
        match self.kvs_put(key, value, clock, writer) {
            Ok(()) => ColdPut::Applied(Timestamp::new(clock, NodeId(writer))),
            Err(e) => {
                ColdPut::Rejected(format!("write of key {key} rejected by home shard: {e:?}"))
            }
        }
    }

    /// Fences `key` at this home and returns the authoritative value and
    /// version the caches are to be filled with, atomically with respect to
    /// cold writes. Idempotent.
    pub fn hot_mark(&self, key: u64) -> (Vec<u8>, Timestamp) {
        let fetched = {
            let mut marks = self.hot_marks.lock();
            marks.insert(key);
            self.kvs_get_versioned(key)
        };
        self.raise_cold_version(fetched.1.clock);
        fetched
    }

    /// Lifts the fence on `key` (every replica dropped its copy and every
    /// write-back landed, or an install was abandoned). A no-op for an
    /// unfenced key.
    pub fn hot_unmark(&self, key: u64) {
        self.hot_marks.lock().remove(&key);
    }

    /// The cold-version counter: every later cold write at this home is
    /// versioned above it. A supervisor polls it so a replacement process
    /// can be started past it.
    pub fn cold_version(&self) -> u32 {
        self.cold_version.load(Ordering::Relaxed) as u32
    }

    /// Versions every later cold write at this home above `clock`. An
    /// in-memory shard forgets its counter when the process dies; a
    /// replacement starting from scratch would reuse `(clock, writer)`
    /// pairs its predecessor assigned, making cross-crash histories
    /// ambiguous.
    pub fn raise_cold_version(&self, clock: u32) {
        self.cold_version
            .fetch_max(u64::from(clock), Ordering::Relaxed);
    }

    /// Whether `key` is cached (by symmetry, on every node).
    pub fn is_cached(&self, key: u64) -> bool {
        self.cache.contains(key)
    }

    /// Probes the cache for a read, retrying internally while the entry is
    /// unreadable (invalidated under Lin).
    pub fn cache_get(&self, key: u64) -> CacheGet {
        let mut backoff = StallBackoff::new();
        loop {
            match self.cache.read(key) {
                ReadOutcome::Hit { value, ts } => return CacheGet::Hit { value, ts },
                ReadOutcome::Miss => return CacheGet::Miss,
                ReadOutcome::Stall => backoff.wait(),
            }
        }
    }

    /// Single-shot cache read probe for deterministic drivers: like
    /// [`CcNode::cache_get`] but returns `None` instead of spinning in the
    /// internal backoff while the entry is invalidated under Lin. The model
    /// checker's scheduler delivers the unblocking update itself and
    /// re-probes; a thread that blocked here would deadlock it.
    pub fn try_cache_get(&self, key: u64) -> Option<CacheGet> {
        match self.cache.read(key) {
            ReadOutcome::Hit { value, ts } => Some(CacheGet::Hit { value, ts }),
            ReadOutcome::Miss => Some(CacheGet::Miss),
            ReadOutcome::Stall => None,
        }
    }

    /// Probes the cache for a write of `value` tagged `tag`, retrying
    /// internally while another local write to the key is in flight.
    pub fn cache_put(&self, key: u64, value: &[u8], tag: u64) -> CachePut {
        let mut backoff = StallBackoff::new();
        loop {
            match self.cache.write(key, value, tag) {
                WriteOutcome::Completed { ts, outgoing } => {
                    return CachePut::Done {
                        ts,
                        outgoing: attach(outgoing, Some(value)),
                    }
                }
                WriteOutcome::Pending { ts, outgoing } => {
                    return CachePut::Pending {
                        ts,
                        outgoing: attach(outgoing, None),
                    }
                }
                WriteOutcome::Miss => return CachePut::Miss,
                WriteOutcome::Stall => backoff.wait(),
            }
        }
    }

    /// Single-shot cache write probe for event-loop callers: like
    /// [`CcNode::cache_put`] but returns `None` instead of blocking in the
    /// internal backoff when the entry is stalled by another in-flight
    /// local write. A reactor shard must never wait for protocol progress
    /// it is itself responsible for delivering; callers route `None` (and
    /// `Miss`) to a thread that may block.
    pub fn try_cache_put(&self, key: u64, value: &[u8], tag: u64) -> Option<CachePut> {
        match self.cache.write(key, value, tag) {
            WriteOutcome::Completed { ts, outgoing } => Some(CachePut::Done {
                ts,
                outgoing: attach(outgoing, Some(value)),
            }),
            WriteOutcome::Pending { ts, outgoing } => Some(CachePut::Pending {
                ts,
                outgoing: attach(outgoing, None),
            }),
            WriteOutcome::Miss => Some(CachePut::Miss),
            WriteOutcome::Stall => None,
        }
    }

    /// Invalidations to reissue toward `peer` after its process crashed and
    /// restarted: one per local pending Lin write whose acknowledgement
    /// from that peer was never counted (the original invalidation — or
    /// its ack — may have died inside the peer's old process). The
    /// restarted peer acknowledges vacuously for keys it no longer caches,
    /// unblocking writers that would otherwise wait forever; per-node ack
    /// deduplication makes a reissue toward a peer that *did* ack a no-op.
    pub fn reissue_invalidations(&self, peer: NodeId) -> Vec<Outgoing> {
        attach(self.cache.reissue_invalidations(peer), None)
    }

    /// Blocks until the pending Lin write `(key, ts)` started by
    /// [`CcNode::cache_put`] commits (the transport delivering the final ack
    /// signals this through [`CcNode::deliver`]).
    pub fn wait_committed(&self, key: u64, ts: Timestamp) {
        let mut committed = self.committed.lock();
        while !committed.fired.remove(&(key, ts)) {
            self.committed_cv.wait(&mut committed);
        }
    }

    /// Registers a continuation for the pending Lin write `(key, ts)`
    /// started by [`CcNode::cache_put`] / [`CcNode::try_cache_put`]:
    /// instead of parking a thread in [`CcNode::wait_committed`], the hook
    /// runs as soon as the write's per-node ack bitmask
    /// ([`consistency::lin::PendingWrite`]) completes — inline on whatever
    /// thread delivers the final acknowledgement through
    /// [`CcNode::deliver`]. If the commit already fired (the final ack
    /// raced ahead of registration), the hook runs immediately on the
    /// calling thread. Each `(key, ts)` has exactly one waiter: a hook
    /// *or* a blocked `wait_committed` caller, never both.
    pub fn on_committed(&self, key: u64, ts: Timestamp, hook: CommitHook) {
        let mut committed = self.committed.lock();
        if committed.fired.remove(&(key, ts)) {
            drop(committed);
            hook();
        } else {
            committed.hooks.insert((key, ts), hook);
        }
    }

    /// Delivers a protocol message received from a peer, returning the
    /// messages to ship in response. Lin commits triggered by a final ack
    /// are signalled to the blocked writer internally — or, when the
    /// writer registered a continuation via [`CcNode::on_committed`], the
    /// hook runs here, on the delivery path, before this call returns.
    pub fn deliver(&self, msg: &ProtocolMsg, bytes: Option<&[u8]>) -> Vec<Outgoing> {
        let out = self.cache.deliver(msg, bytes);
        if let Some(ts) = out.committed {
            let mut committed = self.committed.lock();
            if let Some(hook) = committed.hooks.remove(&(msg.key(), ts)) {
                drop(committed);
                hook();
            } else {
                committed.fired.insert((msg.key(), ts));
                self.committed_cv.notify_all();
            }
        }
        // One shared allocation for the committed value; the update
        // broadcast fans it out to every peer by pointer.
        let commit_value: Option<Arc<[u8]>> = out.commit_value.map(Arc::from);
        out.outgoing
            .into_iter()
            .map(|(dest, msg)| {
                let bytes = match msg {
                    ProtocolMsg::Update { .. } => commit_value.clone(),
                    _ => None,
                };
                Outgoing { dest, msg, bytes }
            })
            .collect()
    }

    /// Serves a cache-missing read against the local KVS shard (the caller
    /// routed the request here because this node is the key's home).
    pub fn kvs_get(&self, key: u64) -> Vec<u8> {
        self.kvs.get(key).map(|v| v.value).unwrap_or_default()
    }

    /// Reads a key's value *and* stored version from the local KVS shard.
    /// The epoch coordinator fetches hot keys through this before installing
    /// them, so re-installed keys keep their Lamport clocks monotone.
    pub fn kvs_get_versioned(&self, key: u64) -> (Vec<u8>, Timestamp) {
        match self.kvs.get(key) {
            Some(v) => (v.value, Timestamp::new(v.version, NodeId(v.last_writer))),
            None => (Vec::new(), Timestamp::ZERO),
        }
    }

    /// Applies a cache-missing write to the local KVS shard with Lamport
    /// ordering (`tag` as the clock, `writer` breaking ties).
    ///
    /// Errors (value over capacity, shard full) are returned rather than
    /// panicking: the inputs originate from clients, so transports must be
    /// able to answer with an error instead of losing a server thread.
    pub fn kvs_put(
        &self,
        key: u64,
        value: &[u8],
        tag: u32,
        writer: u8,
    ) -> Result<(), kvstore::KvError> {
        self.kvs
            .put_if_newer(0, key, value, tag, writer)
            .map(|_| ())
    }
}

/// Adaptive wait for stalled cache probes: yield while the resolution is
/// likely sub-microsecond (in-process delivery), then sleep so a stall that
/// waits on a network round-trip (the TCP backend's Lin invalidation →
/// update window) does not pin an OS thread at 100% CPU and starve the
/// very thread that must deliver the unblocking message.
struct StallBackoff {
    spins: u32,
}

impl StallBackoff {
    const YIELD_SPINS: u32 = 64;

    fn new() -> Self {
        Self { spins: 0 }
    }

    fn wait(&mut self) {
        if self.spins < Self::YIELD_SPINS {
            self.spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}

fn attach(outgoing: Vec<(Destination, ProtocolMsg)>, value: Option<&[u8]>) -> Vec<Outgoing> {
    let shared: Option<Arc<[u8]>> = value.map(Arc::from);
    outgoing
        .into_iter()
        .map(|(dest, msg)| {
            let bytes = match msg {
                ProtocolMsg::Update { .. } => shared.clone(),
                _ => None,
            };
            Outgoing { dest, msg, bytes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack(model: ConsistencyModel, nodes: usize) -> Vec<CcNode> {
        (0..nodes)
            .map(|n| CcNode::new(NodeConfig::small(model, n, nodes)))
            .collect()
    }

    /// Ships every outgoing message until quiescence (synchronous transport).
    fn pump(nodes: &[CcNode], from: usize, mut queue: Vec<Outgoing>) {
        let mut pending: Vec<(usize, Outgoing)> = queue.drain(..).map(|o| (from, o)).collect();
        while let Some((src, out)) = pending.pop() {
            let targets: Vec<usize> = match out.dest {
                Destination::Broadcast => (0..nodes.len()).filter(|&n| n != src).collect(),
                Destination::To(node) => vec![node.0 as usize],
            };
            for dst in targets {
                for next in nodes[dst].deliver(&out.msg, out.bytes.as_deref()) {
                    pending.push((dst, next));
                }
            }
        }
    }

    #[test]
    fn try_probes_report_stall_instead_of_blocking() {
        let nodes = rack(ConsistencyModel::Lin, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        // Start a Lin write but deliver nothing: the entry is pending.
        let outgoing = match nodes[1].try_cache_put(7, b"new", 9) {
            Some(CachePut::Pending { outgoing, .. }) => outgoing,
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        // A second local write, an eviction and (on the invalidated peers,
        // once invalidations land) a read must all report "not now" rather
        // than spin: a deterministic single-threaded driver owns delivery.
        assert!(nodes[1].try_cache_put(7, b"newer", 10).is_none());
        assert!(nodes[1].try_evict_hot(7).is_none());
        pump(&nodes, 1, outgoing);
        // Committed: every probe resolves again.
        match nodes[2].try_cache_get(7) {
            Some(CacheGet::Hit { value, .. }) => assert_eq!(value, b"new"),
            other => panic!("expected hit after commit, got {other:?}"),
        }
        match nodes[1].try_evict_hot(7) {
            Some(EvictHot::WriteBackRemote { value, .. }) if !nodes[1].is_home(7) => {
                assert_eq!(value, b"new")
            }
            Some(EvictHot::WrittenBack { .. }) => assert!(nodes[1].is_home(7)),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        // Uncached key: a miss, not a stall.
        assert!(matches!(nodes[1].try_cache_get(999), Some(CacheGet::Miss)));
        assert!(matches!(
            nodes[1].try_evict_hot(999),
            Some(EvictHot::NotCached)
        ));
    }

    #[test]
    fn install_hot_seeds_only_the_home_shard() {
        let nodes = rack(ConsistencyModel::Sc, 3);
        let key = 42;
        for node in &nodes {
            assert!(node.install_hot(key, b"hot", Timestamp::ZERO));
        }
        let home = nodes[0].home_node(key);
        for (n, node) in nodes.iter().enumerate() {
            assert!(node.is_cached(key));
            assert_eq!(node.kvs().get(key).is_some(), n == home);
        }
    }

    #[test]
    fn sc_write_propagates_synchronously() {
        let nodes = rack(ConsistencyModel::Sc, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        match nodes[1].cache_put(7, b"new", 9) {
            CachePut::Done { outgoing, .. } => pump(&nodes, 1, outgoing),
            other => panic!("expected immediate SC completion, got {other:?}"),
        }
        for node in &nodes {
            match node.cache_get(7) {
                CacheGet::Hit { value, .. } => assert_eq!(value, b"new"),
                other => panic!("expected hit, got {other:?}"),
            }
        }
    }

    #[test]
    fn lin_write_commits_after_acks_and_unblocks_waiter() {
        let nodes = rack(ConsistencyModel::Lin, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        let (ts, outgoing) = match nodes[0].cache_put(7, b"new", 5) {
            CachePut::Pending { ts, outgoing } => (ts, outgoing),
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        pump(&nodes, 0, outgoing);
        // All acks were delivered synchronously by pump, so the commit is
        // already recorded and wait_committed returns without blocking.
        nodes[0].wait_committed(7, ts);
        for node in &nodes {
            match node.cache_get(7) {
                CacheGet::Hit { value, ts: t } => {
                    assert_eq!(value, b"new");
                    assert_eq!(t, ts);
                }
                other => panic!("expected hit, got {other:?}"),
            }
        }
    }

    #[test]
    fn commit_hook_fires_on_the_final_ack_delivery() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let nodes = rack(ConsistencyModel::Lin, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        let (ts, outgoing) = match nodes[0].cache_put(7, b"new", 5) {
            CachePut::Pending { ts, outgoing } => (ts, outgoing),
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        // Register the continuation before any ack arrives: it must fire
        // from inside the pump (the delivery path), not from a waiter.
        let fired = Arc::new(AtomicBool::new(false));
        let hook_fired = Arc::clone(&fired);
        nodes[0].on_committed(
            7,
            ts,
            Box::new(move || hook_fired.store(true, Ordering::SeqCst)),
        );
        assert!(!fired.load(Ordering::SeqCst));
        pump(&nodes, 0, outgoing);
        assert!(
            fired.load(Ordering::SeqCst),
            "the final ack must fire the registered continuation"
        );
    }

    #[test]
    fn commit_hook_registered_after_the_commit_fires_immediately() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let nodes = rack(ConsistencyModel::Lin, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        let (ts, outgoing) = match nodes[0].cache_put(7, b"new", 5) {
            CachePut::Pending { ts, outgoing } => (ts, outgoing),
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        // All acks land before the registration (the race an event-loop
        // transport must survive): the hook runs on the registering thread.
        pump(&nodes, 0, outgoing);
        let fired = Arc::new(AtomicBool::new(false));
        let hook_fired = Arc::clone(&fired);
        nodes[0].on_committed(
            7,
            ts,
            Box::new(move || hook_fired.store(true, Ordering::SeqCst)),
        );
        assert!(
            fired.load(Ordering::SeqCst),
            "a hook registered after the commit must fire immediately"
        );
    }

    #[test]
    fn dirty_eviction_of_a_non_home_key_reaches_the_home_shard() {
        // Regression: evict_hot used to write back only when the evicting
        // node happened to be the key's home — a dirty value evicted
        // anywhere else was silently discarded.
        let nodes = rack(ConsistencyModel::Sc, 3);
        let key = 42;
        let home = nodes[0].home_node(key);
        let non_home = (home + 1) % nodes.len();
        for node in &nodes {
            assert!(node.install_hot(key, b"old", Timestamp::ZERO));
        }
        match nodes[non_home].cache_put(key, b"final-value", 9) {
            CachePut::Done { outgoing, .. } => pump(&nodes, non_home, outgoing),
            other => panic!("expected immediate SC completion, got {other:?}"),
        }
        // Evict on the non-home node: the dirty value must come back for
        // the transport to ship home.
        let (value, ts) = match nodes[non_home].evict_hot(key) {
            EvictHot::WriteBackRemote { value, ts } => (value, ts),
            other => panic!("expected remote write-back, got {other:?}"),
        };
        assert_eq!(value, b"final-value");
        assert!(nodes[home].write_back(key, &value, ts).expect("capacity"));
        assert_eq!(nodes[home].kvs_get(key), b"final-value");
        // The home node's own eviction writes back locally.
        match nodes[home].evict_hot(key) {
            EvictHot::WrittenBack { ts: t } => assert_eq!(t, ts),
            other => panic!("expected local write-back, got {other:?}"),
        }
        assert_eq!(nodes[home].kvs_get(key), b"final-value");
    }

    #[test]
    fn stale_write_back_loses_to_a_newer_one() {
        let nodes = rack(ConsistencyModel::Sc, 2);
        let key = 5;
        let home = nodes[0].home_node(key);
        let newer = Timestamp::new(7, consistency::lamport::NodeId(1));
        let older = Timestamp::new(3, consistency::lamport::NodeId(0));
        assert!(nodes[home].write_back(key, b"new", newer).unwrap());
        assert!(!nodes[home].write_back(key, b"old", older).unwrap());
        assert_eq!(nodes[home].kvs_get(key), b"new");
        let (_, ts) = nodes[home].kvs_get_versioned(key);
        assert_eq!(ts, newer);
    }

    #[test]
    fn lin_writer_commits_even_when_peers_evicted_the_key() {
        // During hot-set churn, replicas drop a key one by one; a writer
        // still collecting acks must not block forever because a peer
        // evicted the key before the invalidation arrived.
        let nodes = rack(ConsistencyModel::Lin, 3);
        for node in &nodes {
            node.install_hot(7, b"old", Timestamp::ZERO);
        }
        assert!(matches!(nodes[1].evict_hot(7), EvictHot::Clean));
        assert!(matches!(nodes[2].evict_hot(7), EvictHot::Clean));
        let (ts, outgoing) = match nodes[0].cache_put(7, b"new", 5) {
            CachePut::Pending { ts, outgoing } => (ts, outgoing),
            other => panic!("expected pending Lin write, got {other:?}"),
        };
        // Both peers answer the invalidation with an ack despite not
        // caching the key any more, so the write commits.
        pump(&nodes, 0, outgoing);
        nodes[0].wait_committed(7, ts);
        match nodes[0].evict_hot(7) {
            EvictHot::WriteBackRemote { value, .. } if !nodes[0].is_home(7) => {
                assert_eq!(value, b"new")
            }
            EvictHot::WrittenBack { .. } if nodes[0].is_home(7) => {
                assert_eq!(nodes[0].kvs_get(7), b"new")
            }
            other => panic!("dirty eviction lost the committed write: {other:?}"),
        }
    }

    /// A key homed at node 0 of a 2-node rack, and that node.
    fn home_and_key(nodes: &[CcNode]) -> (&CcNode, u64) {
        let key = (0..).find(|&k| nodes[0].is_home(k)).expect("some key");
        (&nodes[0], key)
    }

    fn applied(put: ColdPut) -> Timestamp {
        match put {
            ColdPut::Applied(ts) => ts,
            other => panic!("expected an applied cold write, got {other:?}"),
        }
    }

    #[test]
    fn a_bounced_cold_op_changes_nothing() {
        let nodes = rack(ConsistencyModel::Lin, 2);
        let (home, key) = home_and_key(&nodes);
        applied(home.cold_put(key, b"stored", 1));
        let snapshot = |n: &CcNode| (n.cold_version(), n.kvs_get_versioned(key));
        // Fenced: both cold ops bounce, and nothing moved.
        let before = snapshot(home);
        let fetched = home.hot_mark(key);
        assert_eq!(fetched, before.1, "the mark fetches what the shard stores");
        assert_eq!(home.cold_put(key, b"shadowed", 1), ColdPut::Busy);
        assert_eq!(home.cold_get(key), None);
        assert_eq!(snapshot(home), before);
        // Cached at the home but not fenced (cache asymmetry): the same.
        assert!(home.install_hot(key, &fetched.0, fetched.1));
        home.hot_unmark(key);
        assert_eq!(home.cold_put(key, b"shadowed", 1), ColdPut::Busy);
        assert_eq!(home.cold_get(key), None);
        assert_eq!(snapshot(home), before);
        // Neither: the cold path is open again and moves both.
        assert!(matches!(home.evict_hot(key), EvictHot::Clean));
        assert_eq!(home.cold_get(key).as_deref(), Some(&b"stored"[..]));
        let ts = applied(home.cold_put(key, b"next", 0));
        assert_eq!(
            snapshot(home),
            (before.0 + 1, (b"next".to_vec(), ts)),
            "an accepted write moves the counter and the shard"
        );
    }

    #[test]
    fn cold_writes_are_versioned_above_everything_churn_surfaced() {
        let nodes = rack(ConsistencyModel::Sc, 2);
        let (home, key) = home_and_key(&nodes);
        // A version the counter has never seen sits in the shard (a hot
        // epoch ended on another replica's write).
        let hot = Timestamp::new(40, NodeId(1));
        home.kvs_put(key, b"hot-era", hot.clock, hot.writer.0)
            .unwrap();
        assert_eq!(home.hot_mark(key), (b"hot-era".to_vec(), hot));
        home.hot_unmark(key);
        let after_mark = applied(home.cold_put(key, b"cold-1", 0));
        assert!(
            after_mark.clock > hot.clock,
            "{after_mark} vs fetched {hot}"
        );
        assert_eq!(home.kvs_get(key), b"cold-1");
        // A write-back far ahead of the counter, stale or not.
        let wb = Timestamp::new(90, NodeId(1));
        assert!(home.write_back(key, b"written-back", wb).unwrap());
        assert!(!home
            .write_back(key, b"stale", Timestamp::new(70, NodeId(0)))
            .unwrap());
        let after_wb = applied(home.cold_put(key, b"cold-2", 0));
        assert!(after_wb.clock > wb.clock, "{after_wb} vs written back {wb}");
        assert_eq!(home.kvs_get(key), b"cold-2");
        // The home's own dirty eviction is a write-back too.
        assert!(home.install_hot(key, b"cold-2", after_wb));
        let hot_write = match home.cache_put(key, b"hot-again", 7) {
            CachePut::Done { ts, .. } => ts,
            other => panic!("expected immediate SC completion, got {other:?}"),
        };
        assert!(matches!(home.evict_hot(key), EvictHot::WrittenBack { ts } if ts == hot_write));
        let after_evict = applied(home.cold_put(key, b"cold-3", 0));
        assert!(after_evict.clock > hot_write.clock);
        // The supervisor's floor.
        home.raise_cold_version(1_000);
        assert!(applied(home.cold_put(key, b"cold-4", 0)).clock > 1_000);
    }

    #[test]
    fn unmarking_an_unmarked_key_is_a_no_op() {
        let nodes = rack(ConsistencyModel::Sc, 2);
        let (home, key) = home_and_key(&nodes);
        let first = applied(home.cold_put(key, b"v", 0));
        home.hot_unmark(key);
        home.hot_unmark(key + 1);
        assert_eq!(home.cold_version(), first.clock);
        assert_eq!(home.kvs_get_versioned(key), (b"v".to_vec(), first));
        assert_eq!(home.cold_get(key).as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn kvs_miss_path_orders_by_lamport_tag() {
        let nodes = rack(ConsistencyModel::Sc, 2);
        let node = &nodes[0];
        node.kvs_put(99, b"v1", 3, 0).unwrap();
        node.kvs_put(99, b"stale", 2, 1).unwrap();
        assert_eq!(node.kvs_get(99), b"v1");
        node.kvs_put(99, b"v2", 3, 1).unwrap();
        assert_eq!(node.kvs_get(99), b"v2");
        assert!(node.kvs_get(1234).is_empty());
    }
}
