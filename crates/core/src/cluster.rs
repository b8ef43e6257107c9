//! Functional in-process ccKVS cluster (correctness backend).
//!
//! Every node is a full [`CcNode`] — a real [`symcache::SymmetricCache`]
//! (seqlock-backed, CRCW) plus a real [`kvstore::NodeKvs`] shard — shared
//! with the networked serving layer in `cckvs-net`. Protocol messages travel
//! through asynchronous "network" threads that deliver them with optional
//! jitter, so protocol interleavings comparable to a real rack (reordered
//! acks, racing invalidations, late updates) actually occur. Client
//! operations can be issued concurrently from many threads; every operation
//! on a cached key is recorded in a [`History`] that the consistency
//! checkers validate (per-key SC / per-key Lin, §5.1).

use crate::node::{
    CacheGet, CachePut, CcNode, ColdPut, EvictHot, NodeConfig, Outgoing, DEFAULT_KVS_THREADS,
};
use consistency::engine::Destination;
use consistency::history::{History, OpRecord, RecordKind};
use consistency::lamport::Timestamp;
use consistency::messages::{ConsistencyModel, ProtocolMsg};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of a functional cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Consistency model for the symmetric caches.
    pub model: ConsistencyModel,
    /// Number of server nodes.
    pub nodes: usize,
    /// Symmetric-cache capacity (hot keys) per node.
    pub cache_capacity: usize,
    /// Back-end KVS capacity (objects) per node.
    pub kvs_capacity: usize,
    /// Maximum value size in bytes.
    pub value_capacity: usize,
    /// Number of asynchronous network-delivery threads (≥ 2 recommended so
    /// messages can genuinely reorder).
    pub network_threads: usize,
    /// Artificially jitter deliveries (spin for a pseudo-random short while)
    /// to widen the space of interleavings exercised.
    pub jitter: bool,
}

impl ClusterConfig {
    /// A small deployment suitable for tests and examples.
    pub fn small(model: ConsistencyModel) -> Self {
        Self {
            model,
            nodes: 3,
            cache_capacity: 256,
            kvs_capacity: 4096,
            value_capacity: 64,
            network_threads: 2,
            jitter: true,
        }
    }

    /// The per-node configuration this cluster config induces.
    pub fn node_config(&self, node: usize) -> NodeConfig {
        NodeConfig {
            model: self.model,
            node,
            nodes: self.nodes,
            cache_capacity: self.cache_capacity,
            kvs_capacity: self.kvs_capacity,
            value_capacity: self.value_capacity,
            kvs_threads: DEFAULT_KVS_THREADS,
        }
    }
}

/// The result of a client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// A get returned this value (empty if the key was never written).
    Value(Vec<u8>),
    /// A put completed.
    Done,
}

enum NetEvent {
    Deliver {
        dst: usize,
        msg: ProtocolMsg,
        /// Shared with every other delivery of the same broadcast.
        bytes: Option<Arc<[u8]>>,
    },
    Shutdown,
}

struct ClusterInner {
    cfg: ClusterConfig,
    nodes: Vec<CcNode>,
    net_tx: Sender<NetEvent>,
    clock: AtomicU64,
    tags: AtomicU64,
    history: Mutex<History>,
    session_seq: Mutex<HashMap<u32, u64>>,
}

impl ClusterInner {
    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn next_session_seq(&self, session: u32) -> u64 {
        let mut map = self.session_seq.lock();
        let seq = map.entry(session).or_insert(0);
        let out = *seq;
        *seq += 1;
        out
    }

    fn send(&self, from: usize, outgoing: Outgoing) {
        let Outgoing { dest, msg, bytes } = outgoing;
        match dest {
            Destination::Broadcast => {
                for dst in 0..self.cfg.nodes {
                    if dst != from {
                        self.net_tx
                            .send(NetEvent::Deliver {
                                dst,
                                msg,
                                bytes: bytes.clone(),
                            })
                            .expect("network thread alive");
                    }
                }
            }
            Destination::To(node) => {
                self.net_tx
                    .send(NetEvent::Deliver {
                        dst: node.0 as usize,
                        msg,
                        bytes,
                    })
                    .expect("network thread alive");
            }
        }
    }

    fn deliver(&self, dst: usize, msg: &ProtocolMsg, bytes: Option<&[u8]>) {
        for outgoing in self.nodes[dst].deliver(msg, bytes) {
            self.send(dst, outgoing);
        }
    }
}

/// A running functional cluster.
pub struct Cluster {
    inner: Arc<ClusterInner>,
    net_handles: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Starts a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero nodes or network threads).
    pub fn start(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes > 0 && cfg.network_threads > 0);
        let (net_tx, net_rx): (Sender<NetEvent>, Receiver<NetEvent>) = unbounded();
        let nodes = (0..cfg.nodes)
            .map(|id| CcNode::new(cfg.node_config(id)))
            .collect();
        let inner = Arc::new(ClusterInner {
            cfg,
            nodes,
            net_tx,
            clock: AtomicU64::new(1),
            tags: AtomicU64::new(1),
            history: Mutex::new(History::new()),
            session_seq: Mutex::new(HashMap::new()),
        });
        let net_handles = (0..cfg.network_threads)
            .map(|t| {
                let inner = Arc::clone(&inner);
                let rx = net_rx.clone();
                std::thread::Builder::new()
                    .name(format!("cckvs-net-{t}"))
                    .spawn(move || {
                        let mut jitter_state: u64 = 0x243F_6A88_85A3_08D3 ^ t as u64;
                        while let Ok(event) = rx.recv() {
                            match event {
                                NetEvent::Shutdown => break,
                                NetEvent::Deliver { dst, msg, bytes } => {
                                    if inner.cfg.jitter {
                                        // Cheap xorshift-based spin to perturb
                                        // delivery order without sleeping.
                                        jitter_state ^= jitter_state << 13;
                                        jitter_state ^= jitter_state >> 7;
                                        jitter_state ^= jitter_state << 17;
                                        for _ in 0..(jitter_state % 256) {
                                            std::hint::spin_loop();
                                        }
                                    }
                                    inner.deliver(dst, &msg, bytes.as_deref());
                                }
                            }
                        }
                    })
                    .expect("spawn network thread")
            })
            .collect();
        Self { inner, net_handles }
    }

    /// The cluster configuration.
    pub fn config(&self) -> ClusterConfig {
        self.inner.cfg
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inner.cfg.nodes
    }

    /// Seeds a key into its home node's back-end KVS.
    pub fn seed_kvs(&self, key: u64, value: &[u8]) {
        let home = self.inner.nodes[0].home_node(key);
        self.inner.nodes[home]
            .kvs()
            .put(key, value, 0)
            .expect("seeding within capacity");
    }

    /// Installs a hot key into the symmetric cache of every node (what the
    /// cache coordinator does at the end of an epoch, §4). The key's home
    /// shard is fenced and seeded with the value as the write-back target; a
    /// key the home shard already stores is installed at its stored version
    /// so the per-key clock stays monotone across install/evict cycles.
    pub fn install_hot_key(&self, key: u64, value: &[u8]) {
        let home = self.inner.nodes[0].home_node(key);
        let (_, ts) = self.inner.nodes[home].hot_mark(key);
        for node in &self.inner.nodes {
            assert!(node.install_hot(key, value, ts), "cache capacity exceeded");
        }
    }

    /// Evicts a key from every node's symmetric cache (epoch change). Dirty
    /// values are written back to the key's home shard — directly here (the
    /// nodes share one address space), over the `WriteBack` RPC in the
    /// networked rack. Every replica's copy is offered to the home shard
    /// with its version; `put_if_newer` keeps the newest. The home's fence
    /// lifts once every copy has landed.
    pub fn evict_hot_key(&self, key: u64) {
        let home = self.inner.nodes[0].home_node(key);
        for node in &self.inner.nodes {
            if let EvictHot::WriteBackRemote { value, ts } = node.evict_hot(key) {
                let _ = self.inner.nodes[home].write_back(key, &value, ts);
            }
        }
        self.inner.nodes[home].hot_unmark(key);
    }

    /// Whether a key is currently cached (checked on node 0; by symmetry all
    /// nodes agree).
    pub fn is_cached(&self, key: u64) -> bool {
        self.inner.nodes[0].is_cached(key)
    }

    /// Executes a get on behalf of `session`, directed at `node` (clients
    /// load-balance across nodes; any node can serve any key).
    pub fn get(&self, session: u32, node: usize, key: u64) -> OpResult {
        let inner = &self.inner;
        let invoked_at = inner.now();
        loop {
            match inner.nodes[node].cache_get(key) {
                CacheGet::Hit { value, ts } => {
                    let completed_at = inner.now();
                    let seq = inner.next_session_seq(session);
                    inner.history.lock().record(OpRecord {
                        session,
                        key,
                        kind: RecordKind::Get {
                            value: value_tag_of(&value),
                        },
                        ts,
                        invoked_at,
                        completed_at,
                        session_seq: seq,
                    });
                    return OpResult::Value(value);
                }
                CacheGet::Miss => {
                    // Fall through to the (possibly remote) home shard; a
                    // bounce means the key is changing sides of the hot
                    // set, so re-run the whole op from the cache probe.
                    let home = inner.nodes[node].home_node(key);
                    match inner.nodes[home].cold_get(key) {
                        Some(value) => return OpResult::Value(value),
                        None => std::thread::yield_now(),
                    }
                }
            }
        }
    }

    /// Executes a put on behalf of `session`, directed at `node`.
    pub fn put(&self, session: u32, node: usize, key: u64, value: &[u8]) -> OpResult {
        let inner = &self.inner;
        let invoked_at = inner.now();
        let tag = inner.tags.fetch_add(1, Ordering::Relaxed);
        loop {
            match inner.nodes[node].cache_put(key, value, tag) {
                CachePut::Done { ts, outgoing } => {
                    for out in outgoing {
                        inner.send(node, out);
                    }
                    self.record_put(session, key, value, ts, invoked_at);
                    return OpResult::Done;
                }
                CachePut::Pending { ts, outgoing } => {
                    for out in outgoing {
                        inner.send(node, out);
                    }
                    // Blocking write (Lin): wait until the commit is signalled
                    // by the network thread that delivered the last ack.
                    inner.nodes[node].wait_committed(key, ts);
                    self.record_put(session, key, value, ts, invoked_at);
                    return OpResult::Done;
                }
                CachePut::Miss => {
                    // Forward to the home node, which versions and performs
                    // the write — or bounces it, as for reads.
                    let home = inner.nodes[node].home_node(key);
                    match inner.nodes[home].cold_put(key, value, node as u8) {
                        ColdPut::Applied(_) => return OpResult::Done,
                        ColdPut::Busy => std::thread::yield_now(),
                        ColdPut::Rejected(why) => {
                            panic!("miss-path write within KVS capacity: {why}")
                        }
                    }
                }
            }
        }
    }

    fn record_put(&self, session: u32, key: u64, value: &[u8], ts: Timestamp, invoked_at: u64) {
        let inner = &self.inner;
        let completed_at = inner.now();
        let seq = inner.next_session_seq(session);
        inner.history.lock().record(OpRecord {
            session,
            key,
            kind: RecordKind::Put {
                value: value_tag_of(value),
            },
            ts,
            invoked_at,
            completed_at,
            session_seq: seq,
        });
    }

    /// A snapshot of the recorded history of operations on cached keys.
    pub fn history(&self) -> History {
        self.inner.history.lock().clone()
    }

    /// Waits for the in-flight protocol traffic to drain (best effort: the
    /// network queue is unbounded and single-stage, so an empty queue plus a
    /// short grace period means quiescence for test purposes).
    pub fn quiesce(&self) {
        while !self.inner.net_tx.is_empty() {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    /// Reads a key's value directly from one node's cache, bypassing the
    /// protocol (diagnostics; returns `None` on a miss or unreadable entry).
    pub fn peek_cache(&self, node: usize, key: u64) -> Option<Vec<u8>> {
        match self.inner.nodes[node].cache().read(key) {
            symcache::ReadOutcome::Hit { value, .. } => Some(value),
            _ => None,
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for _ in 0..self.net_handles.len() {
            let _ = self.inner.net_tx.send(NetEvent::Shutdown);
        }
        for handle in self.net_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Derives the 64-bit tag recorded in the history for a read value. Writers
/// record the tag they wrote; readers must record the same number for the
/// same bytes, so the checkers can match reads to writes. Values written by
/// the cluster always carry their tag in the first 8 bytes when they are
/// cluster-generated; seeded values fall back to a hash.
pub fn value_tag_of(value: &[u8]) -> u64 {
    if value.len() >= 8 {
        u64::from_le_bytes(value[..8].try_into().expect("8 bytes"))
    } else {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in value {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(model: ConsistencyModel) -> Cluster {
        let cluster = Cluster::start(ClusterConfig::small(model));
        for key in 0..8u64 {
            cluster.install_hot_key(key, &0u64.to_le_bytes());
        }
        cluster
    }

    #[test]
    fn cached_reads_hit_on_every_node() {
        let cluster = start(ConsistencyModel::Sc);
        for node in 0..cluster.nodes() {
            match cluster.get(0, node, 3) {
                OpResult::Value(v) => assert_eq!(v, 0u64.to_le_bytes()),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(cluster.is_cached(3));
    }

    #[test]
    fn sc_write_propagates_to_all_caches() {
        let cluster = start(ConsistencyModel::Sc);
        cluster.put(1, 0, 5, &42u64.to_le_bytes());
        cluster.quiesce();
        for node in 0..cluster.nodes() {
            assert_eq!(
                cluster.peek_cache(node, 5).expect("readable"),
                42u64.to_le_bytes(),
                "node {node} did not receive the update"
            );
        }
    }

    #[test]
    fn lin_write_is_visible_everywhere_once_it_returns() {
        let cluster = start(ConsistencyModel::Lin);
        cluster.put(1, 2, 5, &7u64.to_le_bytes());
        // Under Lin the put returns only after every replica acknowledged the
        // invalidation, so a subsequent read anywhere must *not* return the
        // old value once the update lands; reads of an invalid entry block
        // until the update arrives.
        for node in 0..cluster.nodes() {
            match cluster.get(2, node, 5) {
                OpResult::Value(v) => assert_eq!(v, 7u64.to_le_bytes()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn evicting_a_dirty_hot_key_writes_back_to_the_home_shard() {
        // Regression for the dirty-eviction bug: a value written through the
        // cache must survive eviction no matter which nodes are evicted, and
        // reads fall through to the home shard afterwards.
        let cluster = start(ConsistencyModel::Sc);
        let key = 3;
        cluster.put(0, 1, key, &99u64.to_le_bytes());
        cluster.quiesce();
        cluster.evict_hot_key(key);
        assert!(!cluster.is_cached(key));
        for node in 0..cluster.nodes() {
            match cluster.get(0, node, key) {
                OpResult::Value(v) => assert_eq!(
                    v,
                    99u64.to_le_bytes(),
                    "write lost after eviction (read via node {node})"
                ),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Re-install from the home shard: the value and version survive the
        // round trip, so cached reads resume where the hot set left off.
        cluster.install_hot_key(key, &99u64.to_le_bytes());
        assert!(cluster.is_cached(key));
        cluster.put(0, 2, key, &123u64.to_le_bytes());
        cluster.quiesce();
        cluster.evict_hot_key(key);
        match cluster.get(0, 0, key) {
            OpResult::Value(v) => assert_eq!(v, 123u64.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uncached_keys_fall_through_to_the_home_shard() {
        let cluster = start(ConsistencyModel::Sc);
        cluster.seed_kvs(1_000, b"cold-val");
        assert!(!cluster.is_cached(1_000));
        match cluster.get(0, 1, 1_000) {
            OpResult::Value(v) => assert_eq!(v, b"cold-val"),
            other => panic!("unexpected {other:?}"),
        }
        cluster.put(0, 2, 1_000, b"new-cold");
        match cluster.get(0, 0, 1_000) {
            OpResult::Value(v) => assert_eq!(v, b"new-cold"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_sessions_produce_consistent_histories() {
        for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
            let cluster = Arc::new(start(model));
            let handles: Vec<_> = (0..4u32)
                .map(|session| {
                    let cluster = Arc::clone(&cluster);
                    std::thread::spawn(move || {
                        for i in 0..200u64 {
                            // Per-key SC is a per-session guarantee through the
                            // replica the session talks to: asynchronous update
                            // propagation does not provide monotonic reads when a
                            // session hops between replicas, so SC sessions stay
                            // sticky. Lin is a real-time (global) guarantee, so
                            // Lin sessions deliberately spread across nodes.
                            let node = match model {
                                ConsistencyModel::Sc => session as usize % cluster.nodes(),
                                ConsistencyModel::Lin => {
                                    (session as u64 + i) as usize % cluster.nodes()
                                }
                            };
                            let key = i % 4;
                            if (i + u64::from(session)) % 3 == 0 {
                                let mut value = [0u8; 16];
                                value[..8]
                                    .copy_from_slice(&(u64::from(session) << 32 | i).to_le_bytes());
                                cluster.put(session, node, key, &value);
                            } else {
                                cluster.get(session, node, key);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            cluster.quiesce();
            let history = cluster.history();
            assert!(history.len() >= 800);
            history
                .check_per_key_sc()
                .unwrap_or_else(|v| panic!("{model:?}: SC violated: {v}"));
            if model == ConsistencyModel::Lin {
                history
                    .check_per_key_lin()
                    .unwrap_or_else(|v| panic!("Lin violated: {v}"));
            }
        }
    }
}
