//! The networked ccKVS node: a [`CcNode`] behind a TCP endpoint, served by
//! an epoll reactor.
//!
//! A [`NodeServer`] binds one listener and serves two kinds of
//! connections, distinguished by their hello frame (see [`crate::wire`]):
//! client request/response sessions and peer protocol links — one duplex
//! connection per node pair, dialed by the lower node id, so that a reply
//! leaves on the connection its request came in on and carries the
//! transport's acknowledgement. Outgoing protocol traffic flows through a
//! per-peer outbox drained by the reactor under credit-based flow control.
//!
//! Concurrency model (PR 7 — every frame handled on-shard, no worker
//! pool):
//!
//! * **Reactor shards** ([`ReactorConfig::shards`] threads) own every
//!   socket. Each connection is a nonblocking state machine: a streaming
//!   [`FrameDecoder`] assembles frames from whatever chunks the socket
//!   delivers, responses accumulate in a [`reactor::WriteBuf`] and drain on
//!   writability (backpressure instead of blocking writes). Thread count is
//!   `O(shards)`, independent of connection count.
//! * **Protocol deliveries and miss-path RPC service run inline on the
//!   shard** — they are lock-protected state updates that never wait on
//!   other messages, so a shard can never deadlock against itself.
//! * **Requests that must wait suspend as continuations** instead of
//!   parking a thread. The suspended-request state machine — what a
//!   `Get`, a `Put` or a batch does next, what it parks on, how it
//!   bounces and retries, one request in flight per connection — is
//!   [`crate::ops`]; a shard drives one per client connection through
//!   [`ShardHost`]. What this file adds is how the wake events travel: the
//!   shard that delivers a Lin write's final acknowledgement fires the
//!   commit hook ([`CcNode::on_committed`]), an arriving
//!   [`Frame::RpcResp`] finds its waiter in the pending-RPC table, and
//!   both reach the suspended connection on its owning shard as a
//!   [`ShardMsg::Resume`]; a bounce arms a timer-wheel tick.
//! * **Admin reconfiguration frames** run on two persistent service
//!   threads instead of ephemeral spawns: `Evict` on the admin service
//!   thread (eviction may wait for a pending Lin write to commit, which
//!   only the shards can deliver), `FlipEpoch` on the coordinator's epoch
//!   applier (whose nested evict-everywhere sweep calls back into the
//!   admin thread — two lanes, so the nesting cannot deadlock). Both
//!   resume the requesting connection like any other continuation.
//!
//! The per-peer credit window (§6.4) is driven by readiness events: a
//! stalled peer writer resumes in the lap that reads the peer's credit off
//! the same connection — which is always read, however far its own writes
//! are backed up — and credit returns owed to the peer still go out while
//! stalled, which keeps symmetric saturation deadlock-free exactly as the
//! thread-per-peer implementation did. Teardown drains stalled peers
//! without credits.
//!
//! Crash recovery (PR 5 — peers are now separate OS processes that die and
//! come back): every peer link is a [`PeerLink`] that survives its
//! connection. Messages are retained until the peer confirms
//! *processing* them through cumulative [`Frame::Credit`] acknowledgements
//! (TCP-ack style: idempotent, loss-proof), so when a link dies the
//! unconfirmed tail is replayed after the redial handshake — exactly once,
//! in order. The handshake ([`Frame::PeerHello`] →
//! [`Frame::PeerHelloAck`] → [`Frame::PeerResume`]) carries *process
//! generations* and reconciles both directions: a restarted peer is
//! detected on either side, its stale connections and confirmations are
//! rejected,
//! and every local pending Lin write reissues its invalidation toward the
//! restarted (now empty, vacuously acknowledging) peer — per-node ack
//! bitmasks in the protocol engine make duplicate acknowledgements
//! harmless. While a peer is down, outbound coherence traffic parks in the
//! link's queue (bounded by [`PARK_MAX`]) and, on the lower-id side of
//! the pair, a redial thread retries with exponential backoff (the higher
//! side waits to be dialed); miss-path RPCs ride it out within
//! [`NodeServerConfig::rpc_retry`]. The serving node keeps answering for
//! every key the dead peer does not home.

use crate::client::Conn;
use crate::link::{CreditReturn, SendHalf};
use crate::metrics::{Metrics, MetricsServer};
use crate::ops::{peel_trace, ConnOps, Note, OpsHost, ResumeEvent, Served, Step};
use crate::rpc::{serve_home_frame, RpcTable};
use crate::transport::{Connection, Transport, TransportConfig, TransportListener};
use crate::wire::{encode_frame_into, write_frame, BatchBuilder, Frame, FrameDecoder};
use cckvs::node::{CcNode, EvictHot, NodeConfig, Outgoing};
use cckvs_trace::{Event as TraceEvent, EventKind, TraceSink, NO_PEER, SHARED_LANE};
use consistency::engine::Destination;
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::ProtocolMsg;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use reactor::{Events, Interest, Poller, Token, Waker, WriteBuf};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use symcache::popularity::{CacheCoordinator, EpochConfig, HotSet};

/// Peer-mesh batching and credit-based flow-control knobs (§6.3/§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Send-credit window per peer: how many protocol messages may be in
    /// flight to one peer beyond what it has confirmed processing. A fast
    /// sender (a Lin ack round fanning out) stalls — instead of growing the
    /// receiver's backlog without bound — once the window is exhausted.
    pub credit_window: u64,
    /// Maximum protocol messages coalesced into one peer-mesh batch.
    pub peer_batch_ops: usize,
    /// Corking deadline for *bulk-class* peer traffic (update broadcasts,
    /// write-backs): a partially filled bulk batch flushes when the oldest
    /// corked message has waited this long, even if the adaptive target
    /// size was never reached. Latency-class traffic (invalidations, Lin
    /// acks, RPC responses) never corks — it flushes eagerly on every
    /// pump. Sub-50µs values round up to the reactor's fine timer
    /// resolution ([`reactor::FINE_RESOLUTION`]).
    pub max_delay: Duration,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            credit_window: 128,
            peer_batch_ops: 32,
            max_delay: Duration::from_micros(200),
        }
    }
}

/// Event-loop topology knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Reactor shard threads. Connections are spread across shards
    /// round-robin; each shard owns its sockets exclusively (no
    /// cross-shard locking on the I/O path). This is the node's whole
    /// serving thread count: there is no worker pool — requests that must
    /// wait suspend as continuations and resume on their owning shard.
    pub shards: usize,
}

impl Default for ReactorConfig {
    /// Two shards per node on multi-core hosts. On a single-CPU host the
    /// default drops to one: every shard is a thread, and with more
    /// threads than cores an invalidation's delivery waits on a scheduler
    /// timeslice instead of an epoll wake — measured as 2-3x on the Lin
    /// ack-wait p99 for a loopback rack, the latency the priority lane
    /// exists to protect. Explicit [`ReactorConfig`] values are honored
    /// as given.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2);
        Self {
            shards: if cores >= 2 { 2 } else { 1 },
        }
    }
}

/// Configuration of one networked node.
#[derive(Debug, Clone)]
pub struct NodeServerConfig {
    /// The node itself (id, deployment size, capacities, model).
    pub node: NodeConfig,
    /// Address to listen on (`127.0.0.1:0` picks an ephemeral port).
    pub listen: SocketAddr,
    /// Optional address for the plain-text metrics HTTP endpoint.
    pub metrics_listen: Option<SocketAddr>,
    /// When set, this node acts as the deployment's epoch coordinator (§4):
    /// it samples the request stream it serves, closes popularity epochs,
    /// and reconfigures the hot set of *every* node over the wire — exactly
    /// one node of a deployment should carry this.
    pub epochs: Option<EpochConfig>,
    /// Peer-mesh batching and flow-control knobs.
    pub flow: FlowConfig,
    /// Event-loop topology knobs.
    pub reactor: ReactorConfig,
    /// How long a miss-path RPC keeps redialing a dead peer before the
    /// failure surfaces to the operation. Sized to cover a supervised
    /// restart (crash detection + backoff + readiness), so a client op
    /// that raced a peer crash stalls briefly instead of erroring.
    pub rpc_retry: Duration,
    /// Starting value for the home shard's cold-version counter. An
    /// in-memory shard forgets its counter when the process dies; a
    /// replacement starting from scratch would reuse `(clock, writer)`
    /// pairs its predecessor already assigned, making cross-crash
    /// histories ambiguous. A supervisor polls the live counter over the
    /// wire ([`crate::wire::Frame::VersionFloor`]) and passes the last
    /// observation plus slack here on restart, keeping home-assigned
    /// versions monotone across the crash. 0 (the default) starts at 1.
    pub cold_version_floor: u32,
    /// Keys to *fence* at this node's home shard from boot: of the listed
    /// keys, those homed here start hot-marked, bouncing cold reads and
    /// writes with `MissRetry`. A supervisor restarting a crashed node
    /// passes the deployment's hot set (queried from a survivor via
    /// [`crate::wire::Frame::CacheKeys`]): the replacement's cache is
    /// empty, but the keys are still *hot* — live cached copies exist on
    /// every peer — so serving them from this shard's (empty, stale) cold
    /// path would fork the serialisation point. The fence lifts when the
    /// supervisor heals cache symmetry (rack-wide eviction + `HotUnmark`).
    pub hot_fence: Vec<u64>,
    /// Which fabric this node listens, dials peers and serves clients on
    /// (all three must match across a deployment). TCP by default;
    /// [`crate::transport::UdpTransport`] runs the paper-shaped
    /// unreliable-datagram fabric with userspace loss/reorder recovery.
    pub transport: TransportConfig,
}

/// Default miss-path RPC redial budget (covers a supervised peer restart).
pub const DEFAULT_RPC_RETRY: Duration = Duration::from_secs(10);

impl NodeServerConfig {
    /// A loopback node with an ephemeral port and a metrics endpoint.
    pub fn loopback(node: NodeConfig) -> Self {
        Self {
            node,
            listen: "127.0.0.1:0".parse().expect("static addr"),
            metrics_listen: Some("127.0.0.1:0".parse().expect("static addr")),
            epochs: None,
            flow: FlowConfig::default(),
            reactor: ReactorConfig::default(),
            rpc_retry: DEFAULT_RPC_RETRY,
            cold_version_floor: 0,
            hot_fence: Vec::new(),
            transport: TransportConfig::tcp(),
        }
    }

    /// Starts a [`NodeServerBuilder`] — the preferred way to assemble a
    /// node configuration (the knobs above accreted over several
    /// iterations; the builder names each one once and defaults the
    /// rest).
    pub fn builder(node: NodeConfig) -> NodeServerBuilder {
        NodeServerBuilder {
            cfg: Self::loopback(node),
        }
    }
}

/// Builder for [`NodeServerConfig`]: starts from the loopback defaults
/// (ephemeral listen port, metrics on, TCP) and overrides per knob.
///
/// ```
/// use cckvs::node::{NodeConfig, DEFAULT_KVS_THREADS};
/// use cckvs_net::server::NodeServerConfig;
/// use cckvs_net::transport::TransportKind;
/// use consistency::messages::ConsistencyModel;
///
/// let node = NodeConfig {
///     model: ConsistencyModel::Lin,
///     node: 0,
///     nodes: 1,
///     cache_capacity: 64,
///     kvs_capacity: 1024,
///     value_capacity: 64,
///     kvs_threads: DEFAULT_KVS_THREADS,
/// };
/// let cfg = NodeServerConfig::builder(node)
///     .transport_kind(TransportKind::Udp)
///     .metrics(None)
///     .shards(1)
///     .build();
/// assert_eq!(cfg.transport.kind, TransportKind::Udp);
/// ```
#[derive(Debug, Clone)]
pub struct NodeServerBuilder {
    cfg: NodeServerConfig,
}

impl NodeServerBuilder {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub fn listen(mut self, addr: SocketAddr) -> Self {
        self.cfg.listen = addr;
        self
    }

    /// Metrics HTTP endpoint address, or `None` to disable it.
    pub fn metrics(mut self, addr: Option<SocketAddr>) -> Self {
        self.cfg.metrics_listen = addr;
        self
    }

    /// Makes this node the deployment's epoch coordinator.
    pub fn epochs(mut self, epochs: Option<EpochConfig>) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Peer-mesh batching and credit flow-control knobs.
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.cfg.flow = flow;
        self
    }

    /// Reactor shard event-loop threads.
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.reactor = ReactorConfig { shards };
        self
    }

    /// Miss-path RPC redial budget.
    pub fn rpc_retry(mut self, budget: Duration) -> Self {
        self.cfg.rpc_retry = budget;
        self
    }

    /// Cold-version floor seed (supervised restarts).
    pub fn cold_version_floor(mut self, floor: u32) -> Self {
        self.cfg.cold_version_floor = floor;
        self
    }

    /// Keys fenced at the home shard from boot (supervised restarts).
    pub fn hot_fence(mut self, keys: Vec<u64>) -> Self {
        self.cfg.hot_fence = keys;
        self
    }

    /// Full transport selection, including fault injection.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Transport selection by kind, with no injected faults.
    pub fn transport_kind(mut self, kind: crate::transport::TransportKind) -> Self {
        self.cfg.transport = TransportConfig { kind, faults: None };
        self
    }

    /// The assembled configuration.
    pub fn build(self) -> NodeServerConfig {
        self.cfg
    }
}

/// The [`CreditReturn`] tick: a processed count that found nothing to ride
/// for this long goes back stand-alone, so an idle tail still releases the
/// sender's retained copies and a sender with a window smaller than this
/// node's return threshold stays live. Nothing waits on it while windows
/// match, and it is long on purpose: a busy link keeps it armed, an armed
/// tick puts a timeout on every blocking poll, and a timeout nearer than
/// the kernel's own next tick reprograms the clock-event device on arm and
/// again on cancel — at 5 ms that cost `cold_uniform` more than the
/// stand-alone credits it replaced.
pub const CREDIT_RETURN_TICK: Duration = Duration::from_millis(200);

/// How often a shard books its live peer links' kernel segment counts
/// ([`Connection::tcp_segments`]); a closing connection books its last.
const TCP_CENSUS_EVERY: Duration = Duration::from_secs(1);

/// Marks a wheel token as a peer connection's [`CREDIT_RETURN_TICK`].
/// It is armed beside the connection's `tick_armed` tick, not through it:
/// that flag dedupes arming, and a tick of milliseconds holding it would
/// put off the sub-millisecond cork deadline.
const TOKEN_CREDIT_TICK: u64 = 1 << 63;

/// Time constant of the per-link bulk arrival-rate EWMA driving the
/// adaptive cork target: samples taken `dt` apart blend with weight
/// `dt / (dt + CORK_RATE_TAU)`, so the estimate forgets a burst in a few
/// milliseconds and an idle link decays toward immediate flush.
const CORK_RATE_TAU: Duration = Duration::from_millis(2);

/// Byte budget for one coalesced peer-mesh batch: coalescing stops (and
/// spills to the next batch) once a batch holds this much, keeping batches
/// far below [`crate::wire::MAX_FRAME_BYTES`]. A single message exceeding
/// the budget still travels — alone, as a bare frame.
const PEER_BATCH_MAX_BYTES: usize = 1 << 20;

/// Write-buffer high-water mark: once a connection has this much pending
/// output, the shard stops reading from it (and a peer writer stops
/// packing batches) until the socket drains below [`LOW_WATER`].
const HIGH_WATER: usize = 1 << 20;

/// Write-buffer low-water mark: reads resume below this.
const LOW_WATER: usize = 128 << 10;

/// Decoded-but-unserved frames a client connection may queue before the
/// shard stops reading from it (a pipelining client cannot buffer-bloat
/// the server; TCP pushes back instead).
const MAX_PENDING_FRAMES: usize = 256;

/// Messages parked for a *down* peer beyond this bound are dropped (and
/// counted): a peer that stays dead longer than the supervisor's restart
/// budget comes back as a fresh process with an empty cache, for which the
/// dropped coherence traffic is moot — it acknowledges reissued
/// invalidations vacuously and receives no stale state. A *transient*
/// outage long enough to overflow the park is outside this layer's
/// guarantees and is surfaced by the `parked_dropped` metric.
const PARK_MAX: usize = 1 << 16;

/// Handshake I/O timeout for one peer-link dial attempt.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// First redial delay after a peer link dies; doubles up to
/// [`REDIAL_BACKOFF_MAX`].
pub const REDIAL_BACKOFF_START: Duration = Duration::from_millis(50);

/// Redial backoff cap.
pub const REDIAL_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How often the admin service thread, between jobs, sweeps the
/// pending-RPC table for entries past their transport deadline.
const RPC_SWEEP_TICK: Duration = Duration::from_millis(100);

/// A hot-set reconfiguration job for the coordinator's applier thread.
enum FlipJob {
    /// Apply this published hot set to the deployment.
    Apply(HotSet),
    /// A client-forced [`Frame::FlipEpoch`]: apply `hot` (closed on the
    /// serving shard) and resume the suspended connection with the
    /// response. Never coalesced — each forced flip owes its own answer.
    Forced {
        hot: HotSet,
        shard: usize,
        token: u64,
    },
    /// Stop the applier (server teardown).
    Shutdown,
}

/// A blocking request handed to the admin service thread. `Evict` is the
/// one client frame that may genuinely wait on protocol progress
/// (evicting a key with a pending Lin write blocks until the write
/// commits), so it cannot run on a shard; everything else is served
/// inline or as a continuation.
enum AdminJob {
    Evict {
        shard: usize,
        token: u64,
        key: u64,
    },
    /// Teardown poison: the service thread exits.
    Stop,
}

/// Who is waiting for a correlated RPC response.
enum RpcWaiter {
    /// A suspended client connection: resume it on its owning shard.
    Shard { shard: usize, token: u64 },
    /// A blocking off-shard caller (admin service thread, shutdown
    /// drain), parked on the slot's condvar.
    Blocking(Arc<BlockingSlot>),
}

/// Rendezvous for a blocking RPC caller.
#[derive(Default)]
struct BlockingSlot {
    result: Mutex<Option<io::Result<Frame>>>,
    cv: Condvar,
}

/// Per-node state of the epoch-coordinator role (present on exactly one
/// node of a deployment).
struct Churn {
    /// The popularity tracker fed by every client request this node serves.
    coord: Mutex<CacheCoordinator>,
    /// Lock-free sampling counter on the serving path: only one request in
    /// `sampling` ever touches the tracker's lock.
    observe_seq: AtomicU64,
    /// Copy of the tracker's sampling factor (hot-path use).
    sampling: u64,
    /// Keys this coordinator believes are currently installed. Maintained
    /// by the `InstallHot`/`Evict` admin handlers (reconfigurations are
    /// driven over the wire and pass through this node's own handlers, so
    /// the books stay right no matter who drives — the applier thread, a
    /// forced `FlipEpoch`, or an external admin client).
    installed: Mutex<HashSet<u64>>,
    /// Serialises whole reconfigurations (the applier thread and forced
    /// flips may race).
    reconfig: Mutex<()>,
    /// Highest epoch successfully applied: a forced flip can overtake an
    /// auto-closed epoch still queued for the applier thread, and applying
    /// the stale one afterwards would revert the hot set.
    applied_epoch: AtomicU64,
    /// Feeds the applier thread when an epoch closes on the serving path.
    flip_tx: Sender<FlipJob>,
}

/// One flow-controlled item queued toward a peer. Protocol messages carry
/// their value bytes broadcast-shared plus the trace id they travel under
/// when the originating client op was sampled — the id rides the link
/// queue, the unacked replay tail and the wire envelope, so causality
/// survives batching, credit stalls and reconnect replays. Correlated
/// miss-path RPC frames ([`Frame::RpcReq`]/[`Frame::RpcResp`]) share the
/// same queue, window, retained tail and replay machinery: a severed link
/// replays an unconfirmed RPC exactly like an unconfirmed invalidation.
enum LinkItem {
    Protocol(ProtocolMsg, Option<Arc<[u8]>>, Option<u64>),
    Rpc(Frame),
}

impl LinkItem {
    /// The trace id this item travels under, if sampled.
    fn trace(&self) -> Option<u64> {
        match self {
            LinkItem::Protocol(_, _, trace) => *trace,
            LinkItem::Rpc(Frame::RpcReq { inner, .. } | Frame::RpcResp { inner, .. }) => {
                match inner.as_ref() {
                    Frame::Traced { id, .. } => Some(*id),
                    _ => None,
                }
            }
            LinkItem::Rpc(_) => None,
        }
    }

    /// The key the item concerns (trace annotation; 0 when inapplicable).
    fn key(&self) -> u64 {
        match self {
            LinkItem::Protocol(msg, _, _) => msg.key(),
            LinkItem::Rpc(_) => 0,
        }
    }

    /// Approximate payload bytes beyond the fixed frame overhead, for the
    /// batch byte budget.
    fn payload_len(&self) -> usize {
        fn frame_payload(frame: &Frame) -> usize {
            match frame {
                Frame::RpcReq { inner, .. }
                | Frame::RpcResp { inner, .. }
                | Frame::Traced { inner, .. } => frame_payload(inner),
                Frame::MissPut { value, .. }
                | Frame::MissGetResp { value }
                | Frame::WriteBack { value, .. }
                | Frame::HotMarkResp { value, .. } => value.len(),
                _ => 0,
            }
        }
        match self {
            LinkItem::Protocol(_, bytes, _) => bytes.as_deref().map_or(0, <[u8]>::len),
            LinkItem::Rpc(frame) => frame_payload(frame),
        }
    }

    /// Which peer-mesh lane the item travels in. Latency class: frames a
    /// blocked operation is waiting on right now — invalidations and acks
    /// (a Lin writer stalls until the slowest sharer acknowledges),
    /// miss-path requests and their responses (a client op is suspended on
    /// each). Bulk class: frames that move data but block nobody —
    /// update/commit broadcasts and write-backs — which keep the
    /// throughput-oriented coalescing and may cork up to
    /// [`FlowConfig::max_delay`].
    fn lane(&self) -> Lane {
        match self {
            LinkItem::Protocol(msg, _, _) => match msg {
                ProtocolMsg::Invalidation { .. } | ProtocolMsg::Ack { .. } => Lane::Latency,
                ProtocolMsg::Update { .. } => Lane::Bulk,
            },
            LinkItem::Rpc(frame) => {
                fn is_write_back(frame: &Frame) -> bool {
                    match frame {
                        Frame::Traced { inner, .. } => is_write_back(inner),
                        Frame::WriteBack { .. } => true,
                        _ => false,
                    }
                }
                match frame {
                    Frame::RpcReq { inner, .. } if is_write_back(inner) => Lane::Bulk,
                    _ => Lane::Latency,
                }
            }
        }
    }

    /// The key whose per-link FIFO order the item participates in, if any.
    /// Two items with the same conflict key on the same link must reach
    /// the peer in arrival order regardless of lane (the per-key protocol
    /// state machines tolerate cross-*key* reordering, nothing more); the
    /// enqueue path downgrades a latency item into the bulk lane when a
    /// bulk item for its key is already corked there.
    fn conflict_key(&self) -> Option<u64> {
        fn frame_key(frame: &Frame) -> Option<u64> {
            match frame {
                Frame::RpcReq { inner, .. }
                | Frame::RpcResp { inner, .. }
                | Frame::Traced { inner, .. } => frame_key(inner),
                Frame::MissGet { key }
                | Frame::MissPut { key, .. }
                | Frame::WriteBack { key, .. }
                | Frame::HotMark { key }
                | Frame::HotUnmark { key }
                | Frame::InstallHot { key, .. }
                | Frame::ActivateHot { key, .. }
                | Frame::Evict { key, .. } => Some(*key),
                _ => None,
            }
        }
        match self {
            LinkItem::Protocol(msg, _, _) => Some(msg.key()),
            LinkItem::Rpc(frame) => frame_key(frame),
        }
    }
}

/// Peer-mesh traffic class of one [`LinkItem`]; see [`LinkItem::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// Drained first, flushed eagerly, never corked.
    Latency,
    /// Credit-paced coalescing with an adaptive cork.
    Bulk,
}

/// The three send queues of one peer link, under one lock (lane routing
/// and the per-key downgrade check must see a consistent snapshot).
#[derive(Default)]
struct LinkQueues {
    /// Unconfirmed tail requeued by a redial handshake. Drains strictly
    /// FIFO *before* either lane: the repack must assign each replayed
    /// item its original sequence number, and wire order is seq order.
    replay: VecDeque<LinkItem>,
    /// Latency-class items ([`Lane::Latency`]).
    latency: VecDeque<LinkItem>,
    /// Bulk-class items ([`Lane::Bulk`]), plus latency items downgraded
    /// behind a same-key bulk item to preserve per-key FIFO.
    bulk: VecDeque<LinkItem>,
    /// Conflict-key multiset of `bulk` (kept in sync by
    /// [`LinkQueues::push`]/[`LinkQueues::pop_bulk`]): makes the per-key
    /// downgrade check O(1) instead of a scan of a possibly PARK_MAX-deep
    /// parked queue.
    bulk_keys: HashMap<u64, u32>,
}

impl LinkQueues {
    fn len(&self) -> usize {
        self.replay.len() + self.latency.len() + self.bulk.len()
    }

    fn is_empty(&self) -> bool {
        self.replay.is_empty() && self.latency.is_empty() && self.bulk.is_empty()
    }

    /// Routes one freshly shipped item into its lane, downgrading a
    /// latency item whose key already has bulk traffic queued (per-key
    /// FIFO across lanes). Returns the lane it landed in.
    fn push(&mut self, item: LinkItem) -> Lane {
        let lane = match item.lane() {
            Lane::Bulk => Lane::Bulk,
            Lane::Latency => match item.conflict_key() {
                Some(key) if self.bulk_keys.contains_key(&key) => Lane::Bulk,
                _ => Lane::Latency,
            },
        };
        match lane {
            Lane::Latency => self.latency.push_back(item),
            Lane::Bulk => {
                if let Some(key) = item.conflict_key() {
                    *self.bulk_keys.entry(key).or_insert(0) += 1;
                }
                self.bulk.push_back(item);
            }
        }
        lane
    }

    /// Pops the bulk front, maintaining the conflict-key multiset.
    fn pop_bulk(&mut self) -> Option<LinkItem> {
        let item = self.bulk.pop_front()?;
        if let Some(key) = item.conflict_key() {
            if let Some(n) = self.bulk_keys.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.bulk_keys.remove(&key);
                }
            }
        }
        Some(item)
    }
}

/// The crash-surviving state of the duplex link to one peer. The
/// connection comes and goes (adopted by the owning shard while up; while
/// down the lower node id redials from a background thread, the higher
/// waits); the link — queued traffic, the sent-but-unconfirmed tail, and
/// both directions' sequence counters — persists across reconnects.
///
/// Sequencing is [`crate::link`]'s: `send` numbers every flow-controlled
/// message for the life of this process and retains it until the peer's
/// cumulative [`Frame::Credit`] confirmations cover it. On redial the
/// handshake tells each side how far the other really processed; each
/// [`SendHalf::reconcile`]s and requeues its unconfirmed tail in front of
/// the lanes — the repack assigns the same numbers, so the peer (aligned
/// by the resume sequence) sees every message exactly once, in order.
/// The credit window bounds `send.outstanding()`.
#[derive(Default)]
struct PeerLink {
    /// Which reactor shard owns the link's socket (fixed: `peer % shards`
    /// — so frame processing, credit returns, replay and pumping never race
    /// across threads).
    shard: usize,
    /// Items not yet handed to the socket, split by lane (replay /
    /// latency / bulk). Parked here while the link is down.
    queues: Mutex<LinkQueues>,
    /// Lifetime count of bulk-class items enqueued on this link; the
    /// owning pump samples it to estimate the bulk arrival rate that
    /// drives the adaptive cork target.
    bulk_arrivals: AtomicU64,
    /// Items handed to the socket, retained until the peer confirms
    /// processing them. Lock order: `queues`, then `send`.
    send: Mutex<SendHalf<LinkItem>>,
    /// Flow-controlled messages from the peer processed so far, in the
    /// *peer's* sequence numbering (aligned by the handshake). Echoed back
    /// as [`Frame::Credit`] confirmations.
    processed: AtomicU64,
    /// The highest peer process generation a handshake has shown (0 =
    /// never connected).
    peer_gen: AtomicU64,
    /// A handshaken connection for this link is adopted by the owning
    /// shard.
    up: AtomicBool,
}

/// A message into a reactor shard from another thread.
enum ShardMsg {
    /// Adopt a connection: freshly accepted; a peer link this node dialed
    /// and handshook ([`Role::Peer`]); or one another shard accepted, its
    /// decoded [`Frame::PeerHello`] in its [`Role::Handshake`] for the shard
    /// that owns the peer to process (see [`Shard::accept_peer_hello`]).
    Adopt(Box<ConnState>),
    /// An off-shard event that resumes connection `token`'s suspended
    /// operation: a Lin commit hook fired, a correlated RPC resolved, or
    /// an admin service job finished. `sent_at` is when the wake-up event
    /// happened — the gap to the continuation actually running on this
    /// shard is the `continuation_fire` phase metric (the successor of
    /// the retired worker-handoff queue wait).
    Resume {
        token: u64,
        sent_at: Instant,
        event: ResumeEvent,
    },
}

/// The cross-thread face of one reactor shard.
struct ShardShared {
    waker: Waker,
    inbox: Mutex<Vec<ShardMsg>>,
}

impl ShardShared {
    fn send(&self, msg: ShardMsg) {
        self.inbox.lock().push(msg);
        self.waker.wake();
    }
}

struct ServerInner {
    node: CcNode,
    metrics: Arc<Metrics>,
    listen_addr: SocketAddr,
    running: AtomicBool,
    /// Latched by [`ServerInner::link_came_up`] once every peer link has
    /// been up; shards park client traffic until then (frames wait in
    /// decode buffers), so no operation is served against a half-wired
    /// mesh during boot.
    ready: AtomicBool,
    /// Signals [`NodeServer::wait`] once shutdown was initiated.
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
    tags: AtomicU64,
    /// Epoch-coordinator role, when this node carries it.
    churn: Option<Churn>,
    /// This process's generation: stamps peer-link handshakes and
    /// cumulative credit confirmations, so a restarted peer (or this
    /// node's own restarted predecessor) is detected and its stale frames
    /// rejected.
    gen: u64,
    /// The duplex protocol links, indexed by peer node id (the self entry
    /// is `None`). The links exist for the server's whole life; their
    /// connections come and go.
    peer_links: Vec<Option<Arc<PeerLink>>>,
    /// Peer listen addresses (redials and the coordinator's admin conns);
    /// empty until [`NodeServer::connect_peers`] supplies them.
    peer_addrs: Mutex<Vec<SocketAddr>>,
    /// Pending correlated miss-path RPCs ([`crate::rpc`]). An arriving
    /// [`Frame::RpcResp`] takes its entry out and resumes the waiter; a
    /// response whose id is absent (duplicate after a restart reissue, a
    /// late answer after the deadline sweep gave up, an answer addressed
    /// to this node's dead predecessor) is dropped. Deadlines are
    /// transport deadlines: past one the RPC fails with a timeout (the
    /// peer stayed dead longer than [`NodeServerConfig::rpc_retry`]).
    rpcs: Mutex<RpcTable<RpcWaiter>>,
    /// Batching / flow-control knobs.
    flow: FlowConfig,
    /// Event-loop topology.
    reactor: ReactorConfig,
    /// Miss-path RPC redial budget (see [`NodeServerConfig::rpc_retry`]).
    rpc_retry: Duration,
    /// The reactor shards (set once at startup, before any I/O happens).
    shards: OnceLock<Vec<Arc<ShardShared>>>,
    /// Feeds the admin service thread (blocking `Evict` handling and the
    /// pending-RPC deadline sweep).
    admin_tx: Sender<AdminJob>,
    /// Per-node trace event collector: one lock-free ring lane per
    /// reactor shard plus a shared lane for admin and blocking paths.
    /// Drained by the metrics scraper (when enabled) and on demand by
    /// [`Frame::TraceDump`].
    sink: Arc<TraceSink>,
    /// The fabric every connection of this node runs on (the listener,
    /// peer-link dials and miss-path RPC dials all go through it).
    transport: Arc<dyn Transport>,
}

impl ServerInner {
    fn shard(&self, id: usize) -> &ShardShared {
        &self.shards.get().expect("shards wired at startup")[id]
    }

    /// An owning handle to shard `id`'s cross-thread face, for commit
    /// hooks that outlive the borrow.
    fn shard_arc(&self, id: usize) -> Arc<ShardShared> {
        Arc::clone(&self.shards.get().expect("shards wired at startup")[id])
    }

    fn link(&self, peer: usize) -> &Arc<PeerLink> {
        self.peer_links[peer]
            .as_ref()
            .expect("no peer link to self")
    }

    /// Records one trace event into `lane` — a no-op unless the op is
    /// sampled (`trace` is `Some`), so the untraced hot path pays one
    /// branch.
    fn trace_event(&self, trace: Option<u64>, lane: u8, kind: EventKind, key: u64, peer: u8) {
        if let Some(trace_id) = trace {
            self.sink.record(TraceEvent {
                trace_id,
                t_ns: cckvs_trace::now_ns(),
                key,
                node: self.node.node() as u8,
                shard: lane,
                kind,
                peer,
            });
        }
    }

    /// Ships protocol messages produced by the local node to their peers:
    /// push to the per-peer link queues, wake the owning shards. Messages
    /// for a *down* peer park in its queue (bounded by [`PARK_MAX`]) until
    /// the redial thread brings the link back.
    fn ship(&self, outgoing: Vec<Outgoing>) {
        self.ship_traced(outgoing, None);
    }

    /// [`ServerInner::ship`], stamping every queued message with the
    /// sampled op's trace id so protocol traffic this op fans out (Lin
    /// invalidations, acks, commit updates, SC broadcasts) stays causally
    /// linked across nodes. Per-peer send events are recorded here — the
    /// enqueue is the fan-out point.
    fn ship_traced(&self, outgoing: Vec<Outgoing>, trace: Option<u64>) {
        if outgoing.is_empty() {
            return;
        }
        let mut wake: Vec<usize> = Vec::new();
        let mut parked = false;
        {
            let mut push = |peer: usize, msg: ProtocolMsg, bytes: Option<Arc<[u8]>>| {
                let Some(link) = self.peer_links.get(peer).and_then(Option::as_ref) else {
                    return;
                };
                let up = link.up.load(Ordering::Acquire);
                {
                    let mut queues = link.queues.lock();
                    if !up && queues.len() >= PARK_MAX {
                        // The peer has been dead long past the restart
                        // budget; see PARK_MAX for why dropping is safe
                        // for a *restarted* (state-fresh) peer.
                        self.metrics.record_parked_drop();
                        return;
                    }
                    if queues.push(LinkItem::Protocol(msg, bytes, trace)) == Lane::Bulk {
                        link.bulk_arrivals.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.metrics.record_protocol_out(1);
                if trace.is_some() {
                    let kind = match msg {
                        ProtocolMsg::Invalidation { .. } => Some(EventKind::InvSend),
                        ProtocolMsg::Update { .. } => Some(EventKind::UpdateSend),
                        // The ack's arrival at the writer is the traced
                        // moment (AckRecv); its enqueue adds nothing.
                        ProtocolMsg::Ack { .. } => None,
                    };
                    if let Some(kind) = kind {
                        self.trace_event(trace, SHARED_LANE, kind, msg.key(), peer as u8);
                    }
                }
                // Re-check `up` AFTER the enqueue: the link can come up
                // between the load above and the push (the adoption pump
                // would then have drained an empty queue), and a parked-
                // without-wake message on an idle link would strand — a
                // Lin invalidation stuck this way blocks its writer
                // forever. Down both times → genuinely parked; the
                // adoption pump after the redial picks it up.
                if link.up.load(Ordering::Acquire) {
                    if !wake.contains(&link.shard) {
                        wake.push(link.shard);
                    }
                } else {
                    parked = true;
                }
            };
            for Outgoing { dest, msg, bytes } in outgoing {
                match dest {
                    Destination::Broadcast => {
                        for peer in 0..self.node.config().nodes {
                            if peer != self.node.node() {
                                push(peer, msg, bytes.clone());
                            }
                        }
                    }
                    Destination::To(node) => push(node.0 as usize, msg, bytes),
                }
            }
        }
        if parked {
            self.refresh_parked();
        }
        for shard in wake {
            self.shard(shard).waker.wake();
        }
    }

    /// Queues one correlated RPC frame toward `peer` on its
    /// crash-surviving link, waking the owning shard. Returns `false` if
    /// the frame had to be dropped (the peer has been down long past the
    /// restart budget and its park overflowed) — the caller fails the
    /// pending entry instead of letting it dangle to the deadline.
    fn ship_rpc(&self, peer: usize, frame: Frame) -> bool {
        let Some(link) = self.peer_links.get(peer).and_then(Option::as_ref) else {
            return false;
        };
        let up = link.up.load(Ordering::Acquire);
        {
            let mut queues = link.queues.lock();
            if !up && queues.len() >= PARK_MAX {
                self.metrics.record_parked_drop();
                return false;
            }
            if queues.push(LinkItem::Rpc(frame)) == Lane::Bulk {
                link.bulk_arrivals.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Same post-enqueue re-check as `ship_traced`: a link coming up
        // between the load and the push must not strand the frame.
        if link.up.load(Ordering::Acquire) {
            self.shard(link.shard).waker.wake();
        } else {
            self.refresh_parked();
        }
        true
    }

    /// Runs `f` on the pending-RPC table and refreshes its gauge.
    fn with_rpcs<R>(&self, f: impl FnOnce(&mut RpcTable<RpcWaiter>) -> R) -> R {
        let mut table = self.rpcs.lock();
        let out = f(&mut table);
        self.metrics.set_pending_rpcs(table.len() as u64);
        out
    }

    /// Takes `corr` out of the pending-RPC table and hands `result` to its
    /// waiter; late and duplicate responses find nothing and are dropped.
    fn resolve_rpc(&self, corr: u64, result: io::Result<Frame>) {
        if let Some(waiter) = self.with_rpcs(|table| table.resolve(corr)) {
            self.wake_rpc(corr, waiter, result);
        }
    }

    /// Hands the outcome of RPC `corr`, already out of the table, to its
    /// waiter.
    fn wake_rpc(&self, corr: u64, waiter: RpcWaiter, result: io::Result<Frame>) {
        match waiter {
            RpcWaiter::Shard { shard, token } => {
                let event = match result {
                    Ok(response) => ResumeEvent::Rpc { corr, response },
                    Err(e) => ResumeEvent::RpcFailed {
                        corr,
                        message: e.to_string(),
                    },
                };
                self.shard(shard).send(ShardMsg::Resume {
                    token,
                    sent_at: Instant::now(),
                    event,
                });
            }
            RpcWaiter::Blocking(slot) => {
                *slot.result.lock() = Some(result);
                slot.cv.notify_all();
            }
        }
    }

    /// Fails every pending RPC past its transport deadline. Run by the
    /// admin service thread between jobs.
    fn sweep_rpc_deadlines(&self) {
        let now = Instant::now();
        for (corr, waiter) in self.with_rpcs(|table| table.expired(now)) {
            self.wake_rpc(
                corr,
                waiter,
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "miss-path rpc exceeded its redial budget",
                )),
            );
        }
    }

    /// Recomputes the parked-messages gauge: traffic queued behind down
    /// peer links, waiting for a redial.
    fn refresh_parked(&self) {
        let total: u64 = self
            .peer_links
            .iter()
            .flatten()
            .filter(|link| !link.up.load(Ordering::Acquire))
            .map(|link| link.queues.lock().len() as u64)
            .sum();
        self.metrics.set_parked(total);
    }

    /// A peer's process died and a new one took its place (detected by a
    /// generation change on either link direction). Reissue the
    /// invalidation of every local pending Lin write the dead process
    /// never acknowledged: the original invalidation or its ack died with
    /// the old process, and the blocked writer would otherwise wait
    /// forever. The restarted peer acknowledges vacuously (its cache is
    /// empty); per-node ack bitmasks dedupe the cases where the old
    /// process *had* acknowledged.
    fn peer_restarted(&self, peer: usize) {
        let reissue = self.node.reissue_invalidations(NodeId(peer as u8));
        if !reissue.is_empty() {
            self.metrics.record_reissued(reissue.len() as u64);
            self.ship(reissue);
        }
        // In-doubt miss-path RPCs: the dead process confirmed the request
        // but its answer died with it. Ask again under the SAME correlation
        // id — if the old answer somehow raced out first, the entry is
        // already gone and the duplicate response is dropped.
        let confirmed = self.link(peer).send.lock().confirmed();
        let in_doubt = self.rpcs.lock().in_doubt(peer, confirmed);
        for (corr, frame) in in_doubt {
            if !self.ship_rpc(peer, frame) {
                self.resolve_rpc(
                    corr,
                    Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "peer link overflowed while reissuing rpc",
                    )),
                );
            }
        }
    }

    /// The owning shard pumps a handshaken connection of the link to
    /// `peer`: it is up (and from now on has its row of segment counts).
    fn link_came_up(&self, peer: usize) {
        self.link(peer).up.store(true, Ordering::Release);
        self.metrics.record_peer_tcp_segments(peer, 0, 0);
        self.refresh_parked();
        self.mesh_may_be_complete();
    }

    /// A peer link came up, or `connect_peers` supplied the addresses:
    /// latches `ready` the first time the whole mesh is up and wakes every
    /// shard to release the client connections it parked.
    fn mesh_may_be_complete(&self) {
        let complete = !self.peer_addrs.lock().is_empty()
            && (self.peer_links.iter().flatten()).all(|link| link.up.load(Ordering::Acquire));
        if complete && !self.ready.swap(true, Ordering::AcqRel) {
            for shard in self.shards.get().expect("shards wired at startup") {
                shard.waker.wake();
            }
        }
    }

    /// Marks the link to `peer` down and, on the lower node id of the pair
    /// (the higher waits to be dialed), spawns a thread that redials with
    /// backoff until the link is back or the server shuts down. One link has
    /// one connection, and only its death (or failed adoption) leads here:
    /// no second thread can be at work.
    fn peer_link_down(self: &Arc<Self>, peer: usize) {
        self.link(peer).up.store(false, Ordering::Release);
        self.refresh_parked();
        if self.node.node() > peer || !self.running.load(Ordering::SeqCst) {
            return;
        }
        let inner = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name(format!("cckvs-redial-n{}-p{}", self.node.node(), peer))
            .spawn(move || {
                let mut backoff = REDIAL_BACKOFF_START;
                while inner.running.load(Ordering::SeqCst) {
                    let addr = inner.peer_addrs.lock()[peer];
                    if inner.dial_peer(peer, addr).is_ok() {
                        return;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(REDIAL_BACKOFF_MAX);
                }
            });
    }

    /// One direction of the reconnect handshake: `peer` has processed the
    /// first `processed` messages of this node's stream. Drops that prefix,
    /// requeues the rest for replay under their original numbers and returns
    /// the (1-based) wire sequence the replay starts at. A count beyond what
    /// was sent is rejected and changes nothing.
    fn requeue_unprocessed(&self, peer: usize, processed: u64) -> io::Result<u64> {
        let link = self.link(peer);
        let mut queues = link.queues.lock();
        let mut send = link.send.lock();
        let tail = send.reconcile(processed).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("peer {peer} claims {e} (confirmation from a different generation?)"),
            )
        })?;
        if !tail.is_empty() {
            self.metrics.record_peer_replayed(tail.len() as u64);
        }
        for item in tail.into_iter().rev() {
            // A sampled op's message keeps its original trace id across
            // the replay (exactly once — the requeued item IS the retained
            // original); the Replay event marks the detour on the
            // timeline. Replayed items go to the dedicated replay queue,
            // NOT their lane: the repack must hand each one its original
            // sequence number, so they drain strictly FIFO ahead of both
            // lanes regardless of class (a replayed bulk update must not
            // be overtaken by a replayed — or fresh — invalidation).
            self.trace_event(
                item.trace(),
                SHARED_LANE,
                EventKind::Replay,
                item.key(),
                peer as u8,
            );
            queues.replay.push_front(item);
        }
        Ok(send.confirmed() + 1)
    }

    /// Dials the link to `peer` (a higher node id) and runs the blocking
    /// reconnect handshake over both directions: the hello reports what this
    /// node processed of the peer's stream, the ack what the peer processed
    /// of this node's and where its replay resumes, the resume where this
    /// node's does. On success the link's queue front holds exactly what the
    /// peer has not processed and the connection is on its way to its shard.
    fn dial_peer(&self, peer: usize, addr: SocketAddr) -> io::Result<()> {
        let mut stream = self.transport.dial(addr, HANDSHAKE_TIMEOUT)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let link = self.link(peer);
        let prev_gen = link.peer_gen.load(Ordering::Acquire);
        write_frame(
            &mut stream,
            &Frame::PeerHello {
                from: self.node.node() as u8,
                gen: self.gen,
                processed: link.processed.load(Ordering::Acquire),
                peer_gen: prev_gen,
            },
        )?;
        let (processed, peer_gen, peer_start) = match crate::wire::read_frame(&mut stream)? {
            Some(Frame::PeerHelloAck {
                processed,
                gen,
                start_seq,
            }) if gen >= prev_gen.max(1) && start_seq > 0 => (processed, gen, start_seq),
            Some(other) => return Err(unexpected_frame("peer-hello", &other)),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ))
            }
        };
        // Reconcile before anything else is touched: an ack claiming more
        // than was sent fails here and has changed nothing.
        let start_seq = self.requeue_unprocessed(peer, processed)?;
        link.peer_gen.store(peer_gen, Ordering::Release);
        link.processed.store(peer_start - 1, Ordering::Release);
        write_frame(&mut stream, &Frame::PeerResume { start_seq })?;
        stream.set_read_timeout(None)?;
        stream.set_nonblocking(true)?;
        if prev_gen != 0 {
            self.metrics.record_peer_reconnect();
            // A different generation than last time means the old peer
            // process is gone: reissue invalidations its death may have
            // stranded.
            if prev_gen != peer_gen {
                self.peer_restarted(peer);
            }
        }
        let role = Role::peer(peer, link, &self.flow, true);
        self.shard(link.shard)
            .send(ShardMsg::Adopt(Box::new(ConnState::new(stream, role))));
        Ok(())
    }

    /// Evicts `key` from the local cache, shipping a dirty value back to
    /// its (possibly remote) home shard before returning — an `EvictResp`
    /// on the wire therefore means "this replica's copy is gone *and* its
    /// last write is durable at the home".
    fn evict_key(&self, key: u64) -> io::Result<bool> {
        let existed = match self.node.evict_hot(key) {
            EvictHot::NotCached => false,
            EvictHot::Clean => true,
            EvictHot::WrittenBack { .. } => {
                self.metrics.record_writeback();
                true
            }
            EvictHot::WriteBackRemote { value, ts } => {
                // The cache entry is already gone; this RPC is the only
                // copy of the dirty value, so a transient failure must not
                // drop it — retry with fresh links before giving up.
                let home = self.node.home_node(key);
                let mut attempt = 0;
                loop {
                    attempt += 1;
                    match self.rpc(
                        home,
                        &Frame::WriteBack {
                            key,
                            value: value.clone(),
                            ts,
                        },
                    ) {
                        Ok(Frame::WriteBackResp { .. }) => break,
                        Ok(other) => {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("unexpected write-back response {other:?}"),
                            ))
                        }
                        Err(_) if attempt < 3 => {
                            std::thread::sleep(Duration::from_millis(10 * attempt))
                        }
                        Err(e) => return Err(e),
                    }
                }
                self.metrics.record_writeback();
                true
            }
        };
        // Coordinator bookkeeping: the key left the hot set.
        if let Some(churn) = &self.churn {
            churn.installed.lock().remove(&key);
        }
        Ok(existed)
    }

    /// Feeds one served client request into the popularity tracker (no-op
    /// unless this node is the coordinator); a closed epoch is handed to
    /// the applier thread. The sampling filter runs on a lock-free counter
    /// so discarded requests never contend on the tracker.
    fn observe(&self, key: u64) {
        let Some(churn) = &self.churn else { return };
        let seq = churn.observe_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if seq % churn.sampling != 0 {
            return;
        }
        let hot = churn.coord.lock().observe_sampled(key);
        if let Some(hot) = hot {
            let _ = churn.flip_tx.send(FlipJob::Apply(hot));
        }
    }

    /// Reconfigures the deployment's symmetric caches to hold `hot`: evicts
    /// departing keys from every node (write-backs land before the cold
    /// path re-opens), then installs arriving keys on every node at the
    /// value and version their home shards store. Admin frames go over the
    /// wire to *all* nodes including this one — the same path an external
    /// driver would use, which also keeps the coordinator's bookkeeping in
    /// its own handlers.
    ///
    /// Returns `(installed, evicted)` key counts.
    fn apply_hot_set(&self, hot: &HotSet) -> io::Result<(u64, u64)> {
        let churn = self
            .churn
            .as_ref()
            .expect("apply_hot_set requires the coordinator role");
        let _serial = churn.reconfig.lock();
        // A forced flip can overtake an auto-closed epoch still queued for
        // the applier; applying the stale set afterwards would revert the
        // caches to outdated popularity data. Epoch numbers are unique and
        // monotone (one counter issues them), so skip anything not newer.
        if hot.epoch <= churn.applied_epoch.load(Ordering::Acquire) {
            return Ok((0, 0));
        }
        let target: HashSet<u64> = hot.keys.iter().copied().collect();
        let current = churn.installed.lock().clone();
        let to_evict: Vec<u64> = current.difference(&target).copied().collect();
        // Install in published (hottest-first) order.
        let to_install: Vec<u64> = hot
            .keys
            .iter()
            .copied()
            .filter(|k| !current.contains(k))
            .collect();
        let addrs = self.peer_addrs.lock().clone();
        let mut conns = addrs
            .iter()
            .map(|&addr| Conn::open(&*self.transport, addr, &Frame::ClientHello))
            .collect::<io::Result<Vec<_>>>()?;
        let mut evicted = 0u64;
        for &key in &to_evict {
            if let Err(e) = self.evict_everywhere(&mut conns, key) {
                self.abandon_key(&mut conns, key);
                return Err(e);
            }
            evicted += 1;
        }
        let mut installed = 0u64;
        for &key in &to_install {
            match self.install_everywhere(&mut conns, key) {
                Ok(true) => installed += 1,
                // A cache is full: later keys are colder and would fail
                // the same way (the key was already rolled back).
                Ok(false) => break,
                Err(e) => {
                    self.abandon_key(&mut conns, key);
                    return Err(e);
                }
            }
        }
        churn.applied_epoch.fetch_max(hot.epoch, Ordering::Release);
        self.metrics.record_epoch(hot.epoch);
        self.metrics.record_installs(installed);
        self.metrics.record_evictions(evicted);
        Ok((installed, evicted))
    }

    /// Evicts `key` from every node, then re-opens the cold path at its
    /// home shard (every replica dropped its copy and all dirty
    /// write-backs landed by then).
    fn evict_everywhere(&self, conns: &mut [Conn], key: u64) -> io::Result<()> {
        for conn in conns.iter_mut() {
            match conn.call(&Frame::Evict { key })? {
                Frame::EvictResp { .. } => {}
                other => return Err(unexpected_frame("evict", &other)),
            }
        }
        match self.rpc(self.node.home_node(key), &Frame::HotUnmark { key })? {
            Frame::HotUnmarkResp => Ok(()),
            other => Err(unexpected_frame("hot-unmark", &other)),
        }
    }

    /// Installs `key` on every node: fence the home, warm every replica,
    /// then activate. Returns `Ok(false)` (after rolling the key back) if
    /// a cache was full.
    fn install_everywhere(&self, conns: &mut [Conn], key: u64) -> io::Result<bool> {
        let home = self.node.home_node(key);
        // Mark the key hot at its home and fetch the authoritative
        // (value, version): cold writes bounce from here on, so the
        // caches cannot shadow a write accepted after the fetch.
        let (value, ts) = match self.rpc(home, &Frame::HotMark { key })? {
            Frame::HotMarkResp { value, ts } => (value, ts),
            other => return Err(unexpected_frame("hot-mark", &other)),
        };
        // Phase 1: warm every replica. Warming entries run the coherence
        // protocol but refuse client writes, so no write can commit
        // against a half-installed hot set (the unfilled replicas would
        // ack it vacuously and then shadow it with their stale fills).
        for n in 0..conns.len() {
            let ok = match conns[n].call(&Frame::InstallHot {
                key,
                value: value.clone(),
                ts,
                warm: true,
            })? {
                Frame::InstallHotResp { ok } => ok,
                other => return Err(unexpected_frame("install", &other)),
            };
            if !ok {
                // Roll the key back off the nodes that took it (symmetry)
                // and lift the fence.
                for rollback in conns.iter_mut().take(n) {
                    let _ = rollback.call(&Frame::Evict { key });
                }
                let _ = self.rpc(home, &Frame::HotUnmark { key });
                return Ok(false);
            }
        }
        // Phase 2: activate everywhere — only now do client reads and
        // writes start hitting, on a fully symmetric hot set.
        for conn in conns.iter_mut() {
            match conn.call(&Frame::ActivateHot { key })? {
                Frame::ActivateHotResp { .. } => {}
                other => return Err(unexpected_frame("activate", &other)),
            }
        }
        Ok(true)
    }

    /// Best-effort recovery when a reconfiguration step for `key` failed
    /// midway: restore the safe cold state — evict every replica (dirty
    /// copies write back where reachable), lift the home's transition
    /// fence, and drop the key from the coordinator's books so the next
    /// epoch re-derives a correct delta. Without this, a partial failure
    /// would leave the key fenced (cold writes bouncing forever) or cached
    /// on a subset of replicas that no future delta ever touches.
    fn abandon_key(&self, conns: &mut [Conn], key: u64) {
        for conn in conns.iter_mut() {
            let _ = conn.call(&Frame::Evict { key });
        }
        let _ = self.rpc(self.node.home_node(key), &Frame::HotUnmark { key });
        if let Some(churn) = &self.churn {
            churn.installed.lock().remove(&key);
        }
    }

    /// Performs a blocking miss-path RPC against peer `home` over its
    /// crash-surviving peer link, for callers that are not a reactor shard
    /// (admin service thread, epoch applier, shutdown drain).
    ///
    /// A dead peer is waited out for up to [`NodeServerConfig::rpc_retry`]
    /// before the failure surfaces: a peer process crashing under a
    /// supervisor comes back within the budget, so operations that raced
    /// the crash stall briefly instead of failing.
    fn rpc(&self, home: usize, request: &Frame) -> io::Result<Frame> {
        self.rpc_until(home, request, Instant::now() + self.rpc_retry)
    }

    fn rpc_until(&self, home: usize, request: &Frame, deadline: Instant) -> io::Result<Frame> {
        if home == self.node.node() {
            // No link to self: `apply_hot_set` drives its own home keys
            // through the same RPC surface. The mark/unmark/write-back
            // handlers never block on shard-delivered protocol traffic,
            // so serving inline is safe from any thread.
            return match serve_rpc_frame(self, SHARED_LANE, request.clone())? {
                Frame::Error { message } => {
                    Err(io::Error::new(io::ErrorKind::InvalidInput, message))
                }
                frame => Ok(frame),
            };
        }
        let slot = Arc::new(BlockingSlot::default());
        let corr = {
            // Park overflow on a long-dead peer is the only issue-side
            // failure; retry with backoff.
            let mut backoff = Duration::from_millis(10);
            loop {
                match self.issue_rpc(
                    home,
                    request.clone(),
                    RpcWaiter::Blocking(Arc::clone(&slot)),
                    deadline,
                ) {
                    Ok(corr) => break corr,
                    Err(e)
                        if Instant::now() >= deadline || !self.running.load(Ordering::SeqCst) =>
                    {
                        return Err(e)
                    }
                    Err(_) => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(250));
                    }
                }
            }
        };
        let mut guard = slot.result.lock();
        loop {
            if let Some(result) = guard.take() {
                return match result? {
                    // The peer's Frame::Error answer over a healthy link.
                    Frame::Error { message } => {
                        Err(io::Error::new(io::ErrorKind::InvalidInput, message))
                    }
                    frame => Ok(frame),
                };
            }
            let now = Instant::now();
            if now >= deadline || !self.running.load(Ordering::SeqCst) {
                drop(guard);
                // Only the side that removes the table entry owns the
                // outcome: if the resolver got there first, its result is
                // en route to the slot — wait it out instead of reporting
                // a timeout for an RPC that actually resolved.
                let removed = self.with_rpcs(|table| table.resolve(corr)).is_some();
                guard = slot.result.lock();
                if removed {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "miss-path rpc exceeded its redial budget",
                    ));
                }
                loop {
                    if let Some(result) = guard.take() {
                        return match result? {
                            Frame::Error { message } => {
                                Err(io::Error::new(io::ErrorKind::InvalidInput, message))
                            }
                            frame => Ok(frame),
                        };
                    }
                    slot.cv.wait_for(&mut guard, Duration::from_millis(10));
                }
            }
            slot.cv.wait_for(&mut guard, deadline - now);
        }
    }

    /// Registers a pending-RPC continuation and queues the correlated
    /// request toward `home`'s crash-surviving peer link. The returned
    /// correlation id resolves exactly once: via [`ServerInner::resolve_rpc`]
    /// when the response frame (or a failure) arrives, or via the deadline
    /// sweep.
    fn issue_rpc(
        &self,
        home: usize,
        request: Frame,
        waiter: RpcWaiter,
        deadline: Instant,
    ) -> io::Result<u64> {
        let (corr, frame) = self.with_rpcs(|table| table.issue(home, request, waiter, deadline));
        if !self.ship_rpc(home, frame) {
            self.with_rpcs(|table| table.resolve(corr));
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("peer {home} link unavailable for rpc"),
            ));
        }
        Ok(corr)
    }

    /// Evicts every *remote-homed* cached key, shipping dirty values back
    /// to their home shards over the `WriteBack` RPC, so the last
    /// committed write of each hot key is durable at a surviving process
    /// before this one exits. Bounded by `budget` — a key whose pending
    /// write cannot resolve (e.g. a peer down mid-drain) is skipped rather
    /// than hanging the shutdown. Returns the number of dirty values
    /// shipped.
    ///
    /// Locally-homed keys are left alone: their write-back target dies
    /// with this process either way (the KVS shard is in-memory), and the
    /// surviving replicas still cache their latest values.
    fn drain_dirty_writebacks(&self, budget: Duration) -> u64 {
        use symcache::EvictOutcome;
        let deadline = Instant::now() + budget;
        let node = &self.node;
        let mut retry: VecDeque<u64> = node
            .cache()
            .keys()
            .into_iter()
            .filter(|&key| !node.is_home(key))
            .collect();
        let mut drained = 0u64;
        while let Some(key) = retry.pop_front() {
            if Instant::now() >= deadline {
                break;
            }
            match node.cache().evict(key) {
                EvictOutcome::NotCached => {}
                EvictOutcome::Pending => {
                    // A local write is still collecting acks; give it a
                    // moment and come back.
                    std::thread::sleep(Duration::from_millis(1));
                    retry.push_back(key);
                }
                EvictOutcome::Evicted { dirty: false, .. } => {}
                EvictOutcome::Evicted {
                    value,
                    ts,
                    dirty: true,
                } => {
                    let home = node.home_node(key);
                    // The drain deadline caps each RPC's redial budget
                    // too: a dead home peer must not stretch one
                    // write-back to the full rpc_retry and blow the whole
                    // drain past the supervisor's SIGKILL patience.
                    if matches!(
                        self.rpc_until(home, &Frame::WriteBack { key, value, ts }, deadline),
                        Ok(Frame::WriteBackResp { .. })
                    ) {
                        self.metrics.record_writeback();
                        drained += 1;
                    }
                }
            }
        }
        drained
    }

    fn initiate_shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // Wake every shard so it notices, drains its peers and exits.
            if let Some(shards) = self.shards.get() {
                for shard in shards {
                    shard.waker.wake();
                }
            }
            // Stop the admin service thread, queued behind outstanding
            // jobs, and fail every pending RPC so no continuation (or
            // blocking caller) is stranded waiting on a response that
            // will never be read.
            let _ = self.admin_tx.send(AdminJob::Stop);
            for (corr, waiter) in self.with_rpcs(RpcTable::drain) {
                self.wake_rpc(
                    corr,
                    waiter,
                    Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "node shutting down",
                    )),
                );
            }
            let mut stopped = self.stopped.lock();
            *stopped = true;
            self.stopped_cv.notify_all();
        }
    }
}

/// A running networked ccKVS node.
pub struct NodeServer {
    inner: Arc<ServerInner>,
    shard_handles: Vec<std::thread::JoinHandle<()>>,
    applier_handle: Option<std::thread::JoinHandle<()>>,
    metrics_server: Option<MetricsServer>,
}

impl NodeServer {
    /// Binds the listener and starts the reactor. Peer links are not yet
    /// up: call [`NodeServer::connect_peers`] once every node of the
    /// deployment is listening.
    pub fn start(cfg: NodeServerConfig) -> io::Result<NodeServer> {
        if let Some(epochs) = &cfg.epochs {
            assert!(
                epochs.cache_entries <= cfg.node.cache_capacity,
                "epoch hot set ({} keys) exceeds cache capacity ({})",
                epochs.cache_entries,
                cfg.node.cache_capacity
            );
        }
        assert!(cfg.reactor.shards >= 1, "reactor needs at least one shard");
        assert!(
            cfg.node.nodes <= 64,
            "per-write ack bitmasks support up to 64 nodes"
        );
        // The transport binds the listener (for TCP with SO_REUSEADDR: a
        // supervisor restarting a crashed node rebinds the same port
        // while the dead process's connections may still linger in
        // TIME_WAIT; without the option the restart fails spuriously
        // with AddrInUse).
        let transport: Arc<dyn Transport> = cfg.transport.build();
        let listener = transport.listen(cfg.listen)?;
        let listen_addr = listener.local_addr()?;
        let nodes = cfg.node.nodes;
        let metrics = Arc::new(Metrics::new());
        metrics.set_reactor_shards(cfg.reactor.shards as u64);
        if let Some(stats) = transport.udp_stats() {
            metrics.attach_udp_stats(stats);
        }
        let (churn, flip_rx) = match cfg.epochs {
            Some(epochs) => {
                let (flip_tx, flip_rx) = unbounded();
                (
                    Some(Churn {
                        coord: Mutex::new(CacheCoordinator::new(epochs)),
                        observe_seq: AtomicU64::new(0),
                        sampling: epochs.sampling,
                        installed: Mutex::new(HashSet::new()),
                        reconfig: Mutex::new(()),
                        applied_epoch: AtomicU64::new(0),
                        flip_tx,
                    }),
                    Some(flip_rx),
                )
            }
            None => (None, None),
        };
        let (admin_tx, admin_rx) = unbounded();
        let me = cfg.node.node;
        let shard_count = cfg.reactor.shards;
        let sink = Arc::new(TraceSink::new(shard_count));
        let node = CcNode::new(cfg.node);
        node.raise_cold_version(cfg.cold_version_floor);
        // The fence is a home-shard concept: only keys homed here matter.
        for &key in cfg.hot_fence.iter().filter(|&&key| node.is_home(key)) {
            node.hot_mark(key);
        }
        let gen = process_generation();
        let inner = Arc::new(ServerInner {
            node,
            metrics: Arc::clone(&metrics),
            listen_addr,
            running: AtomicBool::new(true),
            // A single-node deployment has no mesh to wait for.
            ready: AtomicBool::new(nodes == 1),
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
            tags: AtomicU64::new(1),
            churn,
            gen,
            peer_links: (0..nodes)
                .map(|peer| {
                    let shard = peer % shard_count;
                    (peer != me).then(|| {
                        Arc::new(PeerLink {
                            shard,
                            ..PeerLink::default()
                        })
                    })
                })
                .collect(),
            peer_addrs: Mutex::new(Vec::new()),
            // Ids continue from the generation stamp (wall-clock
            // nanoseconds), so they never meet the dead predecessor's.
            rpcs: Mutex::new(RpcTable::new(gen)),
            flow: cfg.flow,
            reactor: cfg.reactor,
            rpc_retry: cfg.rpc_retry,
            shards: OnceLock::new(),
            admin_tx,
            sink: Arc::clone(&sink),
            transport,
        });
        let metrics_server = match cfg.metrics_listen {
            Some(addr) => Some(crate::metrics::serve_http_traced(
                addr,
                format!("n{}", cfg.node.node),
                metrics,
                Some(sink),
            )?),
            None => None,
        };
        let applier_handle = match flip_rx {
            Some(rx) => {
                let applier_inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name(format!("cckvs-epochs-n{}", cfg.node.node))
                        .spawn(move || epoch_applier_loop(applier_inner, rx))?,
                )
            }
            None => None,
        };
        // The admin service thread: one detached thread serving the rare
        // blocking admin paths (Evict awaits a pending write's commit)
        // and sweeping pending-RPC deadlines. Detached so a job parked on
        // a commit that never resolves cannot hang teardown — it exits on
        // Stop poison.
        {
            let admin_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("cckvs-admin-n{}", cfg.node.node))
                .spawn(move || admin_loop(admin_inner, admin_rx))?;
        }
        // Build every shard's poller+waker before spawning any shard, so
        // the shard list is complete (and published) before the first
        // event fires.
        let mut pollers = Vec::with_capacity(cfg.reactor.shards);
        let mut shareds = Vec::with_capacity(cfg.reactor.shards);
        for _ in 0..cfg.reactor.shards {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, Token(TOKEN_WAKER))?;
            pollers.push(poller);
            shareds.push(Arc::new(ShardShared {
                waker,
                inbox: Mutex::new(Vec::new()),
            }));
        }
        inner
            .shards
            .set(shareds.clone())
            .unwrap_or_else(|_| unreachable!("shards set once"));
        let mut shard_handles = Vec::with_capacity(cfg.reactor.shards);
        let mut listener = Some(listener);
        for (id, poller) in pollers.into_iter().enumerate() {
            let shard_listener = if id == 0 { listener.take() } else { None };
            if let Some(l) = &shard_listener {
                poller.register(l.raw_fd(), Token(TOKEN_LISTENER), Interest::READ)?;
            }
            let shard_inner = Arc::clone(&inner);
            let shared = Arc::clone(&shareds[id]);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("cckvs-shard-n{}-{}", cfg.node.node, id))
                    .spawn(move || {
                        Shard::new(shard_inner, id, poller, shared, shard_listener).run()
                    })?,
            );
        }
        Ok(NodeServer {
            inner,
            shard_handles,
            applier_handle,
            metrics_server,
        })
    }

    /// The address clients and peers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.listen_addr
    }

    /// The metrics endpoint address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(MetricsServer::addr)
    }

    /// The node's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The node's trace sink (drained by the metrics scraper when
    /// enabled; dumped over the wire via [`Frame::TraceDump`]).
    pub fn trace_sink(&self) -> Arc<TraceSink> {
        Arc::clone(&self.inner.sink)
    }

    /// The underlying node (diagnostics).
    pub fn node(&self) -> &CcNode {
        &self.inner.node
    }

    /// Dials the protocol link to every peer with a *higher* node id (lower
    /// ids dial this node), retrying for up to `timeout` per peer (nodes of
    /// a rack boot concurrently). `addrs` is indexed by node id and includes
    /// this node's own entry. Clients are served, and `Ping` answered, once
    /// every link — dialed or accepted — has been up, which may be later.
    pub fn connect_peers(&mut self, addrs: &[SocketAddr], timeout: Duration) -> io::Result<()> {
        assert_eq!(
            addrs.len(),
            self.inner.node.config().nodes,
            "one address per node"
        );
        *self.inner.peer_addrs.lock() = addrs.to_vec();
        let me = self.inner.node.node();
        for (peer, &addr) in addrs.iter().enumerate().skip(me + 1) {
            // Full reconnect handshake, retried until the peer is up (the
            // nodes of a rack boot concurrently) or the timeout runs out.
            let deadline = Instant::now() + timeout;
            while let Err(e) = self.inner.dial_peer(peer, addr) {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Every link may have been accepted before the addresses were known
        // (the highest node id dials nobody).
        self.inner.mesh_may_be_complete();
        Ok(())
    }

    /// Asks the server to stop accepting connections and shut down.
    pub fn initiate_shutdown(&self) {
        self.inner.initiate_shutdown();
    }

    /// A cheap handle for out-of-band shutdown paths (signal watchers):
    /// lets a thread that does not own the server drain write-backs and
    /// initiate shutdown while the owning thread blocks in
    /// [`NodeServer::wait`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Graceful-exit drain (the SIGTERM path): see
    /// [`ShutdownHandle::drain_dirty_writebacks`].
    pub fn drain_dirty_writebacks(&self, budget: Duration) -> u64 {
        self.inner.drain_dirty_writebacks(budget)
    }

    /// Blocks until the server shuts down (via [`Frame::Shutdown`] from a
    /// client or [`NodeServer::initiate_shutdown`]), then tears down the
    /// reactor.
    pub fn wait(mut self) {
        {
            let mut stopped = self.inner.stopped.lock();
            while !*stopped {
                self.inner.stopped_cv.wait(&mut stopped);
            }
        }
        self.teardown();
    }

    /// Shuts the server down and joins the reactor threads.
    pub fn shutdown(mut self) {
        self.inner.initiate_shutdown();
        self.teardown();
    }

    fn teardown(&mut self) {
        self.inner.initiate_shutdown();
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.applier_handle.take() {
            if let Some(churn) = &self.inner.churn {
                let _ = churn.flip_tx.send(FlipJob::Shutdown);
            }
            let _ = handle.join();
        }
        if let Some(server) = self.metrics_server.take() {
            server.shutdown();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Out-of-band shutdown handle (see [`NodeServer::shutdown_handle`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    inner: Arc<ServerInner>,
}

impl ShutdownHandle {
    /// Graceful-exit drain: ships dirty remote-homed cached values back to
    /// their home shards within `budget`; returns how many were shipped.
    pub fn drain_dirty_writebacks(&self, budget: Duration) -> u64 {
        self.inner.drain_dirty_writebacks(budget)
    }

    /// Asks the server to stop accepting connections and shut down
    /// (unblocks [`NodeServer::wait`]).
    pub fn initiate_shutdown(&self) {
        self.inner.initiate_shutdown();
    }
}

/// A value unique to one life of this process, monotone across restarts
/// (wall-clock nanoseconds): the peer-link generation stamp. A restarted
/// node presents a *higher* generation, which is how peers distinguish it
/// from its dead predecessor's stale connections.
///
/// Assumption: the host clock does not step *backwards* across a restart
/// (slewing is fine — restarts take well over any slew). A step-back
/// larger than the gap would make peers reject the replacement's hellos
/// as stale until wall clock passes the predecessor's stamp; deployments
/// with step-prone clocks should discipline them (the usual NTP setup
/// slews).
fn process_generation() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1)
}

/// Serves one *never-blocking* client frame: liveness, diagnostics, the
/// lock-protected cache-fill admin, and the home-shard frames an admin
/// caller (the supervisor's heal) sends without being a peer. Get/Put and
/// the reconfiguration admin frames (Evict, FlipEpoch) have
/// continuation-based paths in [`crate::ops`] — nothing here may wait on
/// another message. `None` ends the connection: the client asked the node
/// to shut down, or sent a frame no client may send.
fn serve_inline_frame(inner: &ServerInner, lane: u8, frame: Frame) -> Option<Frame> {
    Some(match frame {
        Frame::TraceDump => Frame::TraceDumpResp {
            dropped: inner.sink.dropped(),
            events: inner.sink.dump(),
        },
        Frame::InstallHot {
            key,
            value,
            ts,
            warm,
        } => {
            let ok = if warm {
                inner.node.install_hot_warm(key, &value, ts)
            } else {
                inner.node.install_hot(key, &value, ts)
            };
            if ok {
                // Coordinator bookkeeping: the key joined the hot set.
                if let Some(churn) = &inner.churn {
                    churn.installed.lock().insert(key);
                }
            }
            Frame::InstallHotResp { ok }
        }
        Frame::ActivateHot { key } => Frame::ActivateHotResp {
            ok: inner.node.activate_hot(key),
        },
        Frame::Ping => Frame::Pong,
        Frame::VersionFloor => Frame::VersionFloorResp {
            clock: inner.node.cold_version(),
        },
        Frame::CacheKeys => Frame::CacheKeysResp {
            keys: inner.node.cache().keys(),
        },
        Frame::Shutdown => {
            inner.initiate_shutdown();
            return None;
        }
        other => serve_rpc_frame(inner, lane, other).ok()?,
    })
}

/// Handles one non-batch frame arriving on a peer link. Returns how many
/// flow-controlled messages it consumed (credit confirmations themselves
/// are free: they must flow even when the window is closed).
fn deliver_peer_frame(
    inner: &ServerInner,
    shard: usize,
    from: usize,
    frame: Frame,
) -> io::Result<u64> {
    let (trace, frame) = peel_trace(frame);
    match frame {
        Frame::Protocol { msg, bytes } => {
            inner.metrics.record_protocol_in(1);
            if trace.is_some() {
                let kind = match msg {
                    // The ack landing at the blocked writer is its own
                    // span point: the per-peer gap between the
                    // invalidation send and this arrival is the ack wait.
                    ProtocolMsg::Ack { .. } => EventKind::AckRecv,
                    _ => EventKind::ProtocolRecv,
                };
                inner.trace_event(trace, shard as u8, kind, msg.key(), from as u8);
            }
            // Anything this delivery fans out (the ack answering an
            // invalidation, the commit update ending a round) inherits
            // the trace id — causality crosses the node boundary.
            let outgoing = inner.node.deliver(&msg, bytes.as_deref());
            inner.ship_traced(outgoing, trace);
            Ok(1)
        }
        Frame::Credit { cum, gen } => {
            // A cumulative confirmation of our own sends toward `from`.
            // Confirmations stamped with a different generation were
            // addressed to this node's dead predecessor — their counts
            // refer to its numbering and must not trim our retained tail.
            if gen != inner.gen {
                return Ok(0);
            }
            // A confirmation beyond what was sent is stale or corrupt:
            // rejected without effect.
            let _ = inner.link(from).send.lock().confirm(cum);
            Ok(0)
        }
        Frame::RpcReq { corr, inner: req } => {
            // A correlated miss-path request multiplexed over the peer
            // link: serve it right here (every handler is a lock-protected
            // state update) and queue the answer on the link it came in on.
            // A malformed inner frame answers Error instead of erroring
            // the whole link — the link carries unrelated traffic.
            let response = match serve_rpc_frame(inner, shard as u8, *req) {
                Ok(frame) => frame,
                Err(e) => Frame::Error {
                    message: e.to_string(),
                },
            };
            let resp = Frame::RpcResp {
                corr,
                inner: Box::new(response),
            };
            // A failed ship (link long-dead, park overflowed) drops the
            // answer; the requester's deadline sweep picks up the pieces.
            let _ = inner.ship_rpc(from, resp);
            Ok(1)
        }
        Frame::RpcResp { corr, inner: resp } => {
            inner.resolve_rpc(corr, Ok(*resp));
            Ok(1)
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected peer frame {other:?}"),
        )),
    }
}

/// Serves one home-shard frame — the inner frame of a peer's
/// [`Frame::RpcReq`], or the same frame sent bare on a client connection
/// by an admin caller. Every arm is a lock-protected state update that
/// never waits on another message, which is what allows it to be served
/// inline on a reactor shard.
fn serve_rpc_frame(inner: &ServerInner, lane: u8, frame: Frame) -> io::Result<Frame> {
    let (trace, frame) = peel_trace(frame);
    if trace.is_some() {
        let key_hint = match &frame {
            Frame::MissGet { key }
            | Frame::MissPut { key, .. }
            | Frame::WriteBack { key, .. }
            | Frame::HotMark { key }
            | Frame::HotUnmark { key } => *key,
            _ => 0,
        };
        inner.trace_event(trace, lane, EventKind::ProtocolRecv, key_hint, NO_PEER);
    }
    serve_home_frame(&inner.node, frame)
}

/// The admin service thread: serves the rare blocking admin jobs (an
/// Evict awaits the evicted key's pending write, then write-back RPCs
/// toward the home shard) and sweeps the pending-RPC table for entries
/// past their transport deadline. One detached thread — admin traffic is
/// reconfiguration-rate, not request-rate — and a lane of its own, so an
/// epoch flip on the applier thread can nest Evict RPCs back into this
/// node without deadlocking.
fn admin_loop(inner: Arc<ServerInner>, rx: Receiver<AdminJob>) {
    loop {
        match rx.recv_timeout(RPC_SWEEP_TICK) {
            Ok(AdminJob::Stop) => return,
            Ok(AdminJob::Evict { shard, token, key }) => {
                let response = inner
                    .evict_key(key)
                    .map(|existed| Frame::EvictResp { existed })
                    .ok();
                inner.shard(shard).send(ShardMsg::Resume {
                    token,
                    sent_at: Instant::now(),
                    event: ResumeEvent::Admin { response },
                });
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => inner.sweep_rpc_deadlines(),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The coordinator's reconfiguration thread: applies hot sets published by
/// the popularity tracker, coalescing a backlog of timer-driven flips to
/// the newest set. A client-forced flip ([`FlipJob::Forced`]) is never
/// coalesced — each one answers exactly one suspended client connection.
/// Errors on the timer path are swallowed deliberately — the
/// installed-set bookkeeping lives in the admin handlers, so a partially
/// applied epoch simply leaves a smaller delta for the next one (the
/// system converges instead of wedging).
fn epoch_applier_loop(inner: Arc<ServerInner>, rx: Receiver<FlipJob>) {
    let mut lookahead: Option<FlipJob> = None;
    loop {
        let job = match lookahead.take() {
            Some(job) => job,
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        match job {
            FlipJob::Shutdown => return,
            FlipJob::Forced { hot, shard, token } => {
                let response = match inner.apply_hot_set(&hot) {
                    Ok((installed, evicted)) => Frame::FlipEpochResp {
                        epoch: hot.epoch,
                        installed: installed as u32,
                        evicted: evicted as u32,
                    },
                    Err(e) => Frame::Error {
                        message: format!("epoch flip failed: {e}"),
                    },
                };
                inner.shard(shard).send(ShardMsg::Resume {
                    token,
                    sent_at: Instant::now(),
                    event: ResumeEvent::Admin {
                        response: Some(response),
                    },
                });
            }
            FlipJob::Apply(hot) => {
                let mut latest = hot;
                while let Ok(next) = rx.try_recv() {
                    match next {
                        FlipJob::Apply(newer) => latest = newer,
                        other => {
                            lookahead = Some(other);
                            break;
                        }
                    }
                }
                let _ = inner.apply_hot_set(&latest);
            }
        }
    }
}

fn unexpected_frame(what: &str, frame: &Frame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected {what} response {frame:?}"),
    )
}

// ---------------------------------------------------------------------------
// The reactor shard: one event loop owning a subset of the node's sockets.
// ---------------------------------------------------------------------------

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 16;

/// What a connection is for, decided by its hello frame.
enum Role {
    /// Hello not yet served: still to arrive, or — on a connection migrated
    /// to the shard that owns its peer — the decoded [`Frame::PeerHello`].
    Handshake(Option<Frame>),
    /// A client request/response session: its decoded requests and the
    /// one suspended mid-execution.
    Client(ConnOps),
    /// The duplex protocol link to `peer`: what the peer sent is delivered
    /// in the lap's inner loop ([`Shard::read_peer`]), the outbox is pumped
    /// last ([`Shard::pump_peer`]).
    Peer {
        peer: usize,
        link: Arc<PeerLink>,
        /// The handshake is complete: false while an accepted connection
        /// awaits the dialer's [`Frame::PeerResume`], and nothing is pumped.
        resumed: bool,
        builder: BatchBuilder,
        /// When the current credit stall began (metrics).
        stall_started: Option<Instant>,
        /// When the cumulative processed count goes back to the peer as a
        /// [`Frame::Credit`]. Fresh per connection, so a reconnect
        /// re-announces at once (cumulative confirmations are idempotent).
        credit: CreditReturn,
        /// Adaptive bulk-batch controller for this link.
        cork: AdaptiveCork,
        /// [`Connection::tcp_segments`] `(data, pure ACK)` as last booked.
        segments: (u64, u64),
    },
}

impl Role {
    fn peer(peer: usize, link: &Arc<PeerLink>, flow: &FlowConfig, resumed: bool) -> Role {
        Role::Peer {
            peer,
            link: Arc::clone(link),
            resumed,
            builder: BatchBuilder::new(),
            stall_started: None,
            credit: CreditReturn::new(flow.credit_window),
            cork: AdaptiveCork::new(),
            segments: (0, 0),
        }
    }
}

/// Per-link adaptive batching state: widens bulk batches under load and
/// shrinks toward immediate flush when idle. The controller estimates the
/// link's bulk arrival rate with an EWMA (time constant [`CORK_RATE_TAU`])
/// and targets the batch one [`FlowConfig::max_delay`] of arrivals would
/// fill — so under load a cork fills to the target and flushes `full`
/// within the deadline anyway, while an idle link's target decays to 1
/// and every bulk message flushes immediately (`idle`). A partially
/// filled cork whose oldest message has waited `max_delay` flushes on the
/// fine-timer `deadline` path. Owned by the link's `Role::Peer`, so no
/// locking: only the owning shard's pump touches it.
struct AdaptiveCork {
    /// When the oldest currently corked bulk item began waiting.
    since: Option<Instant>,
    /// EWMA of bulk arrivals per second on this link.
    rate: f64,
    /// `PeerLink::bulk_arrivals` as of the last rate sample.
    last_arrivals: u64,
    /// When the last rate sample was taken.
    last_sample: Instant,
}

/// Why a bulk cork flushed (the `cork_flush_total` metric labels).
#[derive(Clone, Copy)]
enum CorkFlush {
    /// The adaptive target size (or the batch byte budget) was reached.
    Full,
    /// The oldest corked message waited out `max_delay`.
    Deadline,
    /// The link is idle (target decayed to 1): immediate flush.
    Idle,
}

impl AdaptiveCork {
    fn new() -> Self {
        Self {
            since: None,
            rate: 0.0,
            last_arrivals: 0,
            last_sample: Instant::now(),
        }
    }

    /// Folds the arrival counter into the rate EWMA as of `now` (the
    /// lap's clock reading) and returns the current target bulk-batch
    /// size in `[1, max_ops]`.
    fn target(&mut self, now: Instant, arrivals: u64, max_ops: u64, max_delay: Duration) -> u64 {
        let dt = now.saturating_duration_since(self.last_sample);
        // Sample no finer than the fine-timer slot: the pump runs every
        // loop lap, and instantaneous rates over sub-µs windows are noise.
        if dt >= reactor::FINE_RESOLUTION {
            let n = arrivals.saturating_sub(self.last_arrivals);
            let inst = n as f64 / dt.as_secs_f64();
            let alpha = dt.as_secs_f64() / (dt + CORK_RATE_TAU).as_secs_f64();
            self.rate += alpha * (inst - self.rate);
            self.last_arrivals = arrivals;
            self.last_sample = now;
        }
        ((self.rate * max_delay.as_secs_f64()).round() as u64).clamp(1, max_ops.max(1))
    }
}

/// What [`Shard::step`] decided about a connection.
enum StepOutcome {
    /// Keep the connection registered on this shard.
    Keep,
    /// Close the connection.
    Close,
    /// An accepted peer link that must live on `target` (see
    /// [`Shard::accept_peer_hello`]): move the connection there, its
    /// decoded hello in its role.
    Migrate { target: usize },
}

/// One nonblocking connection owned by a shard.
struct ConnState {
    stream: Box<dyn Connection>,
    decoder: FrameDecoder,
    writebuf: WriteBuf,
    interest: Interest,
    role: Role,
    /// The peer closed its half (read returned 0).
    eof: bool,
    /// A fatal I/O or protocol error occurred; close on next advance.
    dead: bool,
    /// A timer-wheel tick is armed for this connection (credit stall,
    /// parked-for-ready re-check or a bounce retry); dedupes arming.
    tick_armed: bool,
}

impl ConnState {
    fn new(stream: Box<dyn Connection>, role: Role) -> ConnState {
        ConnState {
            stream,
            decoder: FrameDecoder::new(),
            writebuf: WriteBuf::new(),
            interest: Interest::READ,
            role,
            eof: false,
            dead: false,
            tick_armed: false,
        }
    }
}

/// [`OpsHost`] for one client connection on a reactor shard: what its op
/// machine reaches beyond the node goes through `inner`, and the wake
/// events it asks for find their way back by `(shard, token)`.
struct ShardHost<'a> {
    inner: &'a ServerInner,
    shard: usize,
    token: u64,
    /// The clock reading of the [`Shard::step_client`] pass under way.
    now: Instant,
}

impl OpsHost for ShardHost<'_> {
    fn node(&self) -> &CcNode {
        &self.inner.node
    }

    fn write_tag(&mut self, _value: &[u8]) -> u64 {
        self.inner.tags.fetch_add(1, Ordering::Relaxed)
    }

    fn issue_rpc(&mut self, home: usize, request: Frame) -> Option<u64> {
        let waiter = RpcWaiter::Shard {
            shard: self.shard,
            token: self.token,
        };
        let deadline = self.now + self.inner.rpc_retry;
        self.inner.issue_rpc(home, request, waiter, deadline).ok()
    }

    fn ship(&mut self, outgoing: Vec<Outgoing>, trace: Option<u64>) {
        let fanout = Instant::now();
        self.inner.ship_traced(outgoing, trace);
        self.inner
            .metrics
            .record_fanout_ns(fanout.elapsed().as_nanos() as u64);
    }

    fn on_commit(&mut self, key: u64, ts: Timestamp) {
        let owner = self.inner.shard_arc(self.shard);
        let token = self.token;
        self.inner.node.on_committed(
            key,
            ts,
            Box::new(move || {
                owner.send(ShardMsg::Resume {
                    token,
                    sent_at: Instant::now(),
                    event: ResumeEvent::Committed,
                });
            }),
        );
    }

    fn serve(&mut self, frame: Frame) -> Served {
        let (shard, token) = (self.shard, self.token);
        match frame {
            // Evicting a key with a pending Lin write blocks until the
            // write commits: the admin service thread's job.
            Frame::Evict { key } => {
                match self
                    .inner
                    .admin_tx
                    .send(AdminJob::Evict { shard, token, key })
                {
                    Ok(()) => Served::Later,
                    Err(_) => Served::Close,
                }
            }
            Frame::FlipEpoch => {
                let error = |message: &str| Frame::Error {
                    message: message.to_string(),
                };
                let Some(churn) = &self.inner.churn else {
                    return Served::Now(error("this node does not run the epoch coordinator"));
                };
                // Close the epoch on-shard (a cheap swap under the
                // coordinator lock); the multi-node evict/install sweep
                // runs on the epoch applier thread.
                let hot = churn.coord.lock().close_epoch();
                match churn.flip_tx.send(FlipJob::Forced { hot, shard, token }) {
                    Ok(()) => Served::Later,
                    Err(_) => Served::Now(error("epoch applier is not running")),
                }
            }
            frame => serve_inline_frame(self.inner, shard as u8, frame)
                .map_or(Served::Close, Served::Now),
        }
    }

    fn note(&mut self, note: Note) {
        let metrics = &self.inner.metrics;
        match note {
            Note::Batch(ops) => metrics.record_batch(ops as u64),
            Note::Get(key) => {
                metrics.record_get();
                self.inner.observe(key);
            }
            Note::Put(key) => {
                metrics.record_put();
                self.inner.observe(key);
            }
            Note::Cache(hit) => metrics.record_cache(hit),
            Note::InlineGet => metrics.record_inline_get(),
            Note::RemoteRead => metrics.record_remote_read(),
            Note::RemoteWrite => metrics.record_remote_write(),
            Note::LinAckWait(waited) => metrics.record_lin_ack_wait_ns(waited.as_nanos() as u64),
        }
    }

    fn trace(&mut self, trace: Option<u64>, kind: EventKind, key: u64, peer: u8) {
        self.inner
            .trace_event(trace, self.shard as u8, kind, key, peer);
    }
}

/// Books the TCP segments the kernel sent on a peer connection since the
/// owning shard last looked; a no-op on a fabric without such a count.
fn book_tcp_segments(metrics: &Metrics, conn: &mut ConnState) {
    if let Role::Peer { peer, segments, .. } = &mut conn.role {
        if let Some((all, data)) = conn.stream.tcp_segments() {
            let now = (data, all.saturating_sub(data));
            metrics.record_peer_tcp_segments(*peer, now.0 - segments.0, now.1 - segments.1);
            *segments = now;
        }
    }
}

struct Shard {
    inner: Arc<ServerInner>,
    id: usize,
    poller: Poller,
    shared: Arc<ShardShared>,
    listener: Option<Box<dyn TransportListener>>,
    conns: HashMap<u64, Box<ConnState>, BuildHasherDefault<TokenHasher>>,
    /// Tokens of peer connections on this shard (pumped every iteration;
    /// there are at most `nodes - 1` across all shards).
    peer_tokens: Vec<u64>,
    /// This shard has seen [`ServerInner::ready`] and released the client
    /// connections it had parked.
    ready: bool,
    /// When the peer links' TCP segment counts were last booked.
    census_at: Instant,
    next_token: u64,
    /// Round-robin accept target across shards (shard 0 only).
    next_shard: usize,
    wheel: reactor::TimerWheel,
    /// Shared read scratch: one hot buffer for every connection's socket
    /// reads, instead of a cold 64 KB tail per connection per read.
    scratch: Vec<u8>,
    /// Shared response scratch: what one client connection's op machine
    /// answered in one pass, on its way into that connection's write
    /// buffer.
    responses: Vec<Frame>,
    /// The inbox's other buffer: [`Shard::drain_inbox`] swaps the two, so
    /// both keep their capacity and a `send` never regrows from nothing.
    inbox_spare: Vec<ShardMsg>,
    /// The clock reading of the lap under way, taken once when the poller
    /// returns: what every connection stepped this lap calls "now".
    now: Instant,
}

/// Hasher of the connection map. Tokens are the shard's own sequential
/// counter, never outside input, so one multiply spreads them well enough.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("tokens hash through write_u64");
    }
    fn write_u64(&mut self, token: u64) {
        self.0 = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Shard {
    fn new(
        inner: Arc<ServerInner>,
        id: usize,
        poller: Poller,
        shared: Arc<ShardShared>,
        listener: Option<Box<dyn TransportListener>>,
    ) -> Shard {
        Shard {
            inner,
            id,
            poller,
            shared,
            listener,
            conns: HashMap::default(),
            peer_tokens: Vec::new(),
            ready: false,
            census_at: Instant::now(),
            next_token: TOKEN_FIRST_CONN,
            next_shard: 0,
            wheel: reactor::TimerWheel::new(),
            scratch: vec![0u8; reactor::READ_CHUNK],
            responses: Vec::new(),
            inbox_spare: Vec::new(),
            now: Instant::now(),
        }
    }

    /// One lap: handle I/O → { drain the inbox, advance every touched
    /// connection — a peer link delivers what it read } until the inbox
    /// stays empty → pump the peer links → block. Whatever a lap produces
    /// for this shard — a `Resume` continuation in the inbox, an
    /// invalidation, ack, miss RPC or credit return in a link queue —
    /// therefore leaves in that lap, a reply on the connection its request
    /// came in on; this thread's own `wake()` calls are no-ops
    /// ([`Waker::claim`]) and only other threads pay the eventfd.
    fn run(mut self) {
        self.shared.waker.claim();
        let mut events = Events::with_capacity(1024);
        let mut dirty: Vec<u64> = Vec::new();
        while self.inner.running.load(Ordering::SeqCst) {
            // A peer pump can still post to this shard's own inbox (a dying
            // link fails its RPCs' waiters) or complete the mesh (its own
            // wake is a no-op); such a lap must not block on either.
            let idle = self.shared.inbox.lock().is_empty()
                && (self.ready || !self.inner.ready.load(Ordering::Acquire));
            let timeout = if idle {
                self.wheel.next_timeout()
            } else {
                Some(Duration::ZERO)
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            if !self.inner.running.load(Ordering::SeqCst) {
                break;
            }
            // The lap's one clock reading; it opens the loop-lap span (one
            // wakeup's worth of work, poll wait excluded: the headroom gauge).
            self.now = Instant::now();
            let mut accept = false;
            for event in events.iter() {
                match event.token.0 {
                    // Drained before the inbox sweep below, as
                    // `Waker::drain` requires.
                    TOKEN_WAKER => self.shared.waker.drain(),
                    TOKEN_LISTENER => accept = true,
                    token => {
                        self.handle_io(token, event.readable, event.writable, event.closed);
                        dirty.push(token);
                    }
                }
            }
            if accept {
                self.accept_burst(&mut dirty);
            }
            for Token(fired) in self.wheel.expired() {
                let token = fired & !TOKEN_CREDIT_TICK;
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if fired == token {
                    conn.tick_armed = false;
                } else if let Role::Peer { credit, .. } = &mut conn.role {
                    credit.tick();
                }
                dirty.push(token);
            }
            loop {
                self.drain_inbox(&mut dirty);
                // The mesh came up (the last link possibly on this very
                // shard, whose own wake is a no-op): release what parked.
                if !self.ready && self.inner.ready.load(Ordering::Acquire) {
                    self.ready = true;
                    dirty.extend(self.conns.keys());
                }
                if dirty.is_empty() {
                    break;
                }
                dirty.sort_unstable();
                dirty.dedup();
                for token in dirty.drain(..) {
                    self.advance(token, false);
                }
            }
            // Peer links are few and cheap to pump; doing it every lap,
            // last, means "some protocol traffic shipped" needs no
            // per-outbox bookkeeping and nothing waits for another lap.
            dirty.extend_from_slice(&self.peer_tokens);
            for token in dirty.drain(..) {
                self.advance(token, true);
            }
            if self.now.duration_since(self.census_at) >= TCP_CENSUS_EVERY {
                self.census_at = self.now;
                for conn in self.conns.values_mut() {
                    book_tcp_segments(&self.inner.metrics, conn);
                }
            }
            self.inner
                .metrics
                .record_loop_lap_ns(self.now.elapsed().as_nanos() as u64);
        }
        self.teardown();
    }

    /// Reads/writes as much as the socket allows right now; protocol
    /// progress happens in `advance`.
    fn handle_io(&mut self, token: u64, readable: bool, writable: bool, closed: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if closed {
            conn.dead = true;
            return;
        }
        if writable && !conn.writebuf.is_empty() {
            match conn.writebuf.flush_to(&mut conn.stream) {
                Ok(_) => {}
                Err(_) => conn.dead = true,
            }
        }
        if readable {
            // One bounded read per readiness event; level-triggered epoll
            // re-fires while the socket holds more.
            match conn.decoder.fill_via(&mut conn.stream, &mut self.scratch) {
                Ok(Some(0)) => conn.eof = true,
                Ok(_) => {}
                Err(_) => conn.dead = true,
            }
        }
    }

    fn accept_burst(&mut self, dirty: &mut Vec<u64>) {
        let shard_count = self.inner.reactor.shards;
        loop {
            let accepted = match self.listener.as_mut() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                // The transport tuned the connection (nonblocking, nodelay
                // for TCP) before surfacing it.
                Ok(Some(stream)) => {
                    if !self.inner.running.load(Ordering::SeqCst) {
                        return;
                    }
                    let target = self.next_shard % shard_count;
                    self.next_shard = self.next_shard.wrapping_add(1);
                    let conn = Box::new(ConnState::new(stream, Role::Handshake(None)));
                    if target != self.id {
                        self.inner.shard(target).send(ShardMsg::Adopt(conn));
                    } else if let Some(token) = self.adopt(conn) {
                        dirty.push(token);
                    }
                }
                Ok(None) => return,
                // Transient accept errors (ECONNABORTED, EMFILE, ...) must
                // not take a healthy node offline; the listener stays
                // registered and the next readiness event retries.
                Err(_) => return,
            }
        }
    }

    fn drain_inbox(&mut self, dirty: &mut Vec<u64>) {
        let mut msgs = std::mem::take(&mut self.inbox_spare);
        std::mem::swap(&mut msgs, &mut *self.shared.inbox.lock());
        for msg in msgs.drain(..) {
            match msg {
                ShardMsg::Adopt(mut conn) => {
                    // A tick armed on the shard it came from no longer
                    // applies.
                    conn.tick_armed = false;
                    let dialed = match conn.role {
                        Role::Peer { peer, .. } => Some(peer),
                        _ => None,
                    };
                    match (self.adopt(conn), dialed) {
                        (Some(token), _) => dirty.push(token),
                        // Registration failed: the link stays down and the
                        // redial thread tries again.
                        (None, Some(peer)) => self.inner.peer_link_down(peer),
                        (None, None) => {}
                    }
                }
                ShardMsg::Resume {
                    token,
                    sent_at,
                    event,
                } => {
                    // The connection may be gone (client hung up mid-wait):
                    // the event is dropped, exactly as a response write to
                    // a dead socket would have been.
                    if let Some(Role::Client(ops)) =
                        self.conns.get_mut(&token).map(|conn| &mut conn.role)
                    {
                        self.inner
                            .metrics
                            .record_continuation_fire_ns(sent_at.elapsed().as_nanos() as u64);
                        ops.resume(event);
                        dirty.push(token);
                    }
                }
            }
        }
        self.inbox_spare = msgs;
    }

    /// Registers a connection state (fresh, dialed, or migrated from another
    /// shard with decode-buffer residue) with this shard's poller.
    fn adopt(&mut self, conn: Box<ConnState>) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(conn.stream.raw_fd(), Token(token), Interest::READ)
            .is_err()
        {
            return None;
        }
        self.inner.metrics.record_conn_opened();
        if matches!(conn.role, Role::Peer { .. }) {
            self.peer_tokens.push(token);
        }
        self.conns.insert(token, conn);
        Some(token)
    }

    /// Drives one connection's state machine as far as it can go. A peer
    /// link delivers what it read, or — with `pump`, at the end of the lap
    /// — sends what the lap queued.
    fn advance(&mut self, token: u64, pump: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        match self.step(token, &mut conn, pump) {
            StepOutcome::Migrate { target } => {
                // Hand the connection (with its decode-buffer residue) to
                // the shard that owns every connection of this peer. The
                // open-connection gauge transfers with it.
                self.poller.deregister(conn.stream.raw_fd());
                self.inner.metrics.record_conn_closed();
                self.inner.shard(target).send(ShardMsg::Adopt(conn));
            }
            StepOutcome::Close => self.close(token, *conn),
            StepOutcome::Keep if conn.dead => self.close(token, *conn),
            StepOutcome::Keep => {
                self.refresh_interest(token, &mut conn);
                self.conns.insert(token, conn);
            }
        }
    }

    fn step(&mut self, token: u64, conn: &mut ConnState, pump: bool) -> StepOutcome {
        if conn.dead {
            return StepOutcome::Close;
        }
        // Hello first: the first complete frame decides the role.
        if let Role::Handshake(migrated) = &mut conn.role {
            let hello = match migrated.take() {
                Some(hello) => Ok(Some(hello)),
                None => conn.decoder.next_frame(),
            };
            match hello {
                Ok(Some(Frame::ClientHello)) => {
                    // Client sessions move ~100-byte frames and modest
                    // request batches: cap the kernel socket buffers so
                    // thousands of connections stay cache-resident (peer
                    // links, which move 1 MiB coherence batches, keep
                    // kernel defaults). Best-effort.
                    let _ = reactor::set_socket_buffers(
                        conn.stream.raw_fd(),
                        crate::client::CONN_KERNEL_BUF_BYTES,
                    );
                    conn.role = Role::Client(ConnOps::default());
                }
                Ok(Some(hello @ Frame::PeerHello { from, gen, .. })) => {
                    // The lower node id of a pair dials, never the higher.
                    let from = usize::from(from);
                    if from >= self.inner.node.node() || gen == 0 {
                        return StepOutcome::Close;
                    }
                    // Hello processing must run on the shard that owns the
                    // link to this peer (`from % shards`): processed-count
                    // reporting and stale-connection teardown are then
                    // serialised with frame processing, which is what
                    // makes replay exactly-once.
                    let owner = from % self.inner.reactor.shards;
                    if owner != self.id {
                        conn.role = Role::Handshake(Some(hello));
                        return StepOutcome::Migrate { target: owner };
                    }
                    if !self.accept_peer_hello(token, conn, hello) {
                        return StepOutcome::Close;
                    }
                }
                Ok(Some(_)) | Err(_) => return StepOutcome::Close,
                Ok(None) => {
                    return if conn.eof {
                        StepOutcome::Close
                    } else {
                        StepOutcome::Keep
                    }
                }
            }
        }
        let close = match conn.role {
            // Client sessions park until the peer mesh is wired (`Pong`
            // means "fully serving"; a Lin put would hang on a link that
            // never existed); the lap that sees `ready` re-advances them.
            // Peer links never park: they ARE how the mesh gets wired.
            Role::Client(_) if !self.ready => false,
            Role::Client(_) => self.step_client(token, conn),
            Role::Peer { .. } if pump => self.pump_peer(token, conn),
            Role::Peer { .. } => self.read_peer(conn),
            Role::Handshake(_) => unreachable!("the hello decided the role"),
        };
        if close {
            StepOutcome::Close
        } else {
            StepOutcome::Keep
        }
    }

    /// Serves a [`Frame::PeerHello`] on the shard that owns the link to
    /// its sender: rejects stale generations and impossible counts without
    /// touching anything, closes the link's older connection (its buffered
    /// frames must not advance the processed counter after it is
    /// reported), detects a restarted peer, reconciles this node's stream
    /// against the dialer's report and answers with its own.
    fn accept_peer_hello(&mut self, token: u64, conn: &mut ConnState, hello: Frame) -> bool {
        let Frame::PeerHello {
            from,
            gen,
            processed,
            peer_gen,
        } = hello
        else {
            unreachable!("checked by caller");
        };
        let from = usize::from(from);
        let inner = Arc::clone(&self.inner);
        let link = inner.link(from);
        let cur = link.peer_gen.load(Ordering::Acquire);
        if gen < cur {
            return false; // A connection from the peer's dead predecessor.
        }
        // A count in another generation's numbering says nothing about
        // this process's stream: the peer has seen none of it.
        let processed = if peer_gen == inner.gen { processed } else { 0 };
        let Ok(start_seq) = inner.requeue_unprocessed(from, processed) else {
            return false;
        };
        let stale = (self.conns.iter())
            .find(|(_, c)| matches!(c.role, Role::Peer { peer, .. } if peer == from))
            .map(|(stale, _)| *stale);
        if let Some((stale, old)) = stale.and_then(|stale| self.conns.remove_entry(&stale)) {
            self.close(stale, *old);
        }
        if cur != 0 {
            inner.metrics.record_peer_reconnect();
        }
        if gen > cur {
            link.peer_gen.store(gen, Ordering::Release);
            link.processed.store(0, Ordering::Release);
            if cur != 0 {
                // A new process took the peer's place mid-flight: writes
                // pending on the dead process's acks must reissue.
                inner.peer_restarted(from);
            }
        }
        encode_frame_into(
            conn.writebuf.writer(),
            &Frame::PeerHelloAck {
                processed: link.processed.load(Ordering::Acquire),
                gen: inner.gen,
                start_seq,
            },
        );
        if conn.writebuf.flush_to(&mut conn.stream).is_err() {
            return false;
        }
        conn.role = Role::peer(from, link, &inner.flow, false);
        self.peer_tokens.push(token);
        true
    }

    /// Serves a client connection: hands decoded requests to its op
    /// machine ([`crate::ops`]; wake events were queued on it as they
    /// arrived), runs it against one reading of the clock, and writes out
    /// what it answered — every frame handled right here, on this shard.
    fn step_client(&mut self, token: u64, conn: &mut ConnState) -> bool {
        let Role::Client(ops) = &mut conn.role else {
            unreachable!("checked by caller");
        };
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => ops.push(frame),
                Ok(None) => break,
                Err(_) => return true,
            }
        }
        let now = self.now;
        let mut host = ShardHost {
            inner: &self.inner,
            shard: self.id,
            token,
            now,
        };
        let step = ops.run(&mut host, now, &mut self.responses);
        for response in self.responses.drain(..) {
            encode_frame_into(conn.writebuf.writer(), &response);
        }
        match step {
            Step::Close => return true,
            Step::Retry(delay) if !conn.tick_armed => {
                self.wheel.schedule(Token(token), delay);
                conn.tick_armed = true;
            }
            Step::Retry(_) | Step::Wait => {}
        }
        // Push what accumulated; the remainder drains on writability.
        if !conn.writebuf.is_empty() && conn.writebuf.flush_to(&mut conn.stream).is_err() {
            return true;
        }
        // EOF closes once everything decoded was served AND its responses
        // left the write buffer: a half-closing client (shutdown(WR),
        // then read the tail) must still receive every response, as the
        // blocking server guaranteed. A fully-closed peer errors the next
        // writability flush, so nothing lingers.
        conn.eof && ops.is_idle() && conn.writebuf.is_empty()
    }

    /// The inbound half of one peer link: delivers what the peer sent —
    /// first, on an accepted connection, the [`Frame::PeerResume`] that
    /// aligns the processed counter and completes the handshake.
    fn read_peer(&mut self, conn: &mut ConnState) -> bool {
        let Role::Peer {
            peer,
            link,
            resumed,
            ..
        } = &mut conn.role
        else {
            unreachable!("checked by caller");
        };
        let from = *peer;
        loop {
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return true,
            };
            if !*resumed {
                match frame {
                    Frame::PeerResume { start_seq } if start_seq > 0 => {
                        link.processed.store(start_seq - 1, Ordering::Release);
                        *resumed = true;
                        continue;
                    }
                    _ => return true,
                }
            }
            let deliver = |sub| deliver_peer_frame(&self.inner, self.id, from, sub);
            let processed = match frame {
                Frame::Batch { frames } => frames.into_iter().map(deliver).sum(),
                other => deliver(other),
            };
            let Ok(processed) = processed else {
                return true;
            };
            // Book the processing. This link is pumped last in this very
            // lap: its `CreditReturn` decides when the count goes back to
            // refill the sender's window and release its retained copies.
            link.processed.fetch_add(processed, Ordering::AcqRel);
        }
        conn.eof
    }

    /// The outbound half of one peer link: coalesces bursts of protocol
    /// traffic into [`Frame::Batch`] messages (§6.3's software-multicast
    /// amortisation) under credit-based flow control (§6.4), with the
    /// cumulative processed confirmation toward the peer piggybacked on
    /// every batch and sent alone only when the link's [`CreditReturn`]
    /// says it is due. Driven by readiness; a credit stall or a pending
    /// cork deadline arms a wheel tick instead of parking a thread.
    ///
    /// Lanes ([`LinkItem::lane`]): the replay queue drains strictly first
    /// (seq exactness), then the **latency lane** — invalidations, Lin
    /// acks, RPC traffic — which flushes eagerly on every pump and never
    /// waits on bulk coalescing or the 1 ms stall tick, then the **bulk
    /// lane** (update broadcasts, write-backs), whose flush is decided by
    /// the link's [`AdaptiveCork`]: flush when the adaptive target size is
    /// reached (`full`), when the oldest corked message has waited
    /// [`FlowConfig::max_delay`] (`deadline`), or immediately while the
    /// link is idle (`idle`). Wire order is pack order is seq order, so
    /// the per-key FIFO the protocol engines need is enforced at enqueue
    /// time ([`LinkQueues::push`]'s downgrade), not here.
    ///
    /// Every flow-controlled message moves from the link's queues into its
    /// retained `send` tail as it is packed: the socket may lose it (severed
    /// link, crashed peer), the link does not — the redial handshake
    /// replays whatever the peer did not confirm processing.
    ///
    /// Value bytes stay behind the broadcast-shared `Arc` all the way to
    /// serialisation: no per-peer copy is ever materialised.
    fn pump_peer(&mut self, token: u64, conn: &mut ConnState) -> bool {
        // On a datagram fabric one coalesced batch should ride one
        // datagram: cap the byte budget at the transport's datagram
        // payload size (streams keep the full budget).
        let batch_max = conn
            .stream
            .datagram_cap()
            .map_or(PEER_BATCH_MAX_BYTES, |cap| cap.min(PEER_BATCH_MAX_BYTES));
        let Role::Peer {
            peer,
            link,
            resumed,
            builder,
            stall_started,
            credit,
            cork,
            ..
        } = &mut conn.role
        else {
            unreachable!("checked by caller");
        };
        let peer = *peer;
        if !*resumed {
            return false;
        }
        if !link.up.load(Ordering::Relaxed) {
            self.inner.link_came_up(peer);
        }
        let inner = &self.inner;
        let window = inner.flow.credit_window;
        let max_ops = inner.flow.peer_batch_ops.max(1) as u64;
        let max_delay = inner.flow.max_delay;
        let running = inner.running.load(Ordering::SeqCst);
        // Messages from `peer` processed so far: only this shard delivers
        // them, so the count stands still while this pump runs.
        let processed = link.processed.load(Ordering::Acquire);
        // Remaining time until the current cork's deadline, when bulk was
        // left corked this pump.
        let mut cork_deadline: Option<Duration> = None;
        loop {
            // Backpressure: stop packing while the socket is behind; the
            // writability event resumes the pump.
            if conn.writebuf.pending() > HIGH_WATER {
                break;
            }
            cork_deadline = None;
            let mut queues = link.queues.lock();
            let mut send = link.send.lock();
            // Adaptive bulk decision: how the corked bulk lane flushes (or
            // keeps waiting) this round.
            let target = cork.target(
                self.now,
                link.bulk_arrivals.load(Ordering::Relaxed),
                max_ops,
                max_delay,
            );
            let bulk_len = queues.bulk.len() as u64;
            let deadline_hit = cork.since.is_some_and(|since| since.elapsed() >= max_delay);
            let flush_reason = if bulk_len == 0 {
                None
            } else if !running {
                // Teardown drains everything; the label is moot.
                Some(CorkFlush::Full)
            } else if target > 1 && bulk_len >= target {
                Some(CorkFlush::Full)
            } else if deadline_hit {
                Some(CorkFlush::Deadline)
            } else if target <= 1 {
                Some(CorkFlush::Idle)
            } else {
                None
            };
            let bulk_release = if flush_reason.is_some() { bulk_len } else { 0 };
            let want =
                ((queues.replay.len() + queues.latency.len()) as u64 + bulk_release).min(max_ops);
            let granted = if !running {
                // Teardown drains without credits — nothing reads the
                // peer's confirmations any more.
                want
            } else {
                let take = want.min(window.saturating_sub(send.outstanding()));
                if want > 0 && take == 0 {
                    // Window exhausted: note when the stall began.
                    stall_started.get_or_insert_with(Instant::now);
                } else if take > 0 {
                    if let Some(started) = stall_started.take() {
                        let stalled_ns = started.elapsed().as_nanos() as u64;
                        inner.metrics.record_credit_stall_ns(stalled_ns);
                        // If the message that waited out the stall at the
                        // queue front is traced, pin the stall onto its
                        // timeline (the `key` field carries the ns).
                        let front_trace = queues
                            .replay
                            .front()
                            .or_else(|| queues.latency.front())
                            .or_else(|| queues.bulk.front())
                            .and_then(LinkItem::trace);
                        inner.trace_event(
                            front_trace,
                            self.id as u8,
                            EventKind::CreditStall,
                            stalled_ns,
                            peer as u8,
                        );
                    }
                }
                take
            };
            let mut packed = 0u64;
            let mut latency_packed = 0u64;
            let mut bulk_packed = 0u64;
            // Trace id of the first corked bulk item flushed this batch:
            // its timeline carries the CorkWait span.
            let mut corked_trace: Option<u64> = None;
            while packed < granted {
                // Strict priority: replay (seq exactness), then the
                // latency lane, then released bulk. One wire batch may mix
                // classes — order within it is still queue order.
                let lane = if !queues.replay.is_empty() {
                    None
                } else if !queues.latency.is_empty() {
                    Some(Lane::Latency)
                } else if bulk_release > 0 && !queues.bulk.is_empty() {
                    Some(Lane::Bulk)
                } else {
                    break;
                };
                let head = match lane {
                    None => queues.replay.front(),
                    Some(Lane::Latency) => queues.latency.front(),
                    Some(Lane::Bulk) => queues.bulk.front(),
                }
                .expect("chosen queue nonempty");
                // Byte bound: op count alone would let a burst of large
                // values coalesce past MAX_FRAME_BYTES, and the receiver
                // drops an oversized frame together with the whole peer
                // link. A message that is itself large still travels —
                // alone, as a bare frame.
                let projected = builder.bytes() + 64 + head.payload_len();
                if builder.count() > 0 && projected > batch_max {
                    break;
                }
                match head {
                    LinkItem::Protocol(msg, bytes, trace) => {
                        builder.push_protocol_traced(*trace, msg, bytes.as_deref());
                    }
                    LinkItem::Rpc(frame) => builder.push(frame),
                }
                let item = match lane {
                    None => queues.replay.pop_front(),
                    Some(Lane::Latency) => queues.latency.pop_front(),
                    Some(Lane::Bulk) => queues.pop_bulk(),
                }
                .expect("head exists");
                match lane {
                    Some(Lane::Latency) => latency_packed += 1,
                    Some(Lane::Bulk) => {
                        if bulk_packed == 0 {
                            corked_trace = item.trace();
                        }
                        bulk_packed += 1;
                    }
                    None => {}
                }
                if running {
                    // A restarted peer that confirmed past this number
                    // owes the answer: `peer_restarted` asks those again.
                    if let LinkItem::Rpc(Frame::RpcReq { corr, .. }) = &item {
                        inner.rpcs.lock().packed(*corr, send.next_seq());
                    }
                    // Retain until the peer confirms processing: this is
                    // what the redial handshake replays.
                    send.push(item);
                }
                packed += 1;
            }
            // Cork bookkeeping. A bulk flush books its size, its reason
            // and — when a cork was actually open — the wait it served,
            // pinned to the first corked item's trace timeline. Fully
            // drained bulk closes the cork; bulk left waiting (no flush
            // reason, or a flush truncated by the window or byte budget)
            // keeps or starts it, and its deadline arms the fine timer.
            if bulk_packed > 0 {
                inner.metrics.record_adaptive_batch(bulk_packed);
                if let Some(reason) = flush_reason {
                    match reason {
                        CorkFlush::Full => inner.metrics.record_cork_flush_full(),
                        CorkFlush::Deadline => inner.metrics.record_cork_flush_deadline(),
                        CorkFlush::Idle => inner.metrics.record_cork_flush_idle(),
                    }
                }
                if let Some(since) = cork.since {
                    let waited_ns = since.elapsed().as_nanos() as u64;
                    inner.metrics.record_cork_wait_ns(waited_ns);
                    inner.trace_event(
                        corked_trace,
                        self.id as u8,
                        EventKind::CorkWait,
                        waited_ns,
                        peer as u8,
                    );
                }
            }
            if queues.bulk.is_empty() {
                cork.since = None;
            } else {
                let since = *cork.since.get_or_insert_with(Instant::now);
                cork_deadline = Some(max_delay.saturating_sub(since.elapsed()));
            }
            if latency_packed > 0 {
                inner.metrics.record_priority_lane(latency_packed);
            }
            let nothing_left = queues.replay.is_empty()
                && queues.latency.is_empty()
                && (bulk_release == 0 || queues.bulk.is_empty());
            drop(send);
            drop(queues);
            // The cumulative processed confirmation rides whatever was
            // just packed; with nothing to ride it leaves only once the
            // policy says it must. It is exempt from flow control, so it
            // goes out even while this link is stalled.
            if packed > 0 || credit.due(processed) {
                if let Some(cum) = credit.take(processed) {
                    // A message over the byte budget travels alone.
                    if builder.bytes() > batch_max {
                        builder.append_to(conn.writebuf.writer());
                    }
                    builder.push(&Frame::Credit {
                        cum,
                        gen: link.peer_gen.load(Ordering::Acquire),
                    });
                    inner.metrics.record_credit_frame(packed > 0);
                }
            }
            if builder.count() > 0 {
                // Singleton messages leave the builder as bare frames (see
                // `BatchBuilder::append_to`) — only count what actually
                // travels as a coalesced batch, or the batch-size
                // percentiles drown in ones that were never batched.
                if builder.count() > 1 && packed > 0 {
                    inner.metrics.record_batch(packed);
                }
                builder.append_to(conn.writebuf.writer());
            }
            // No progress: nothing more can happen this pump (the queues
            // are empty, the bulk lane is corked, or the window is closed
            // — ticks handle the latter two).
            if packed == 0 {
                break;
            }
            if nothing_left {
                break;
            }
        }
        if !conn.writebuf.is_empty() && conn.writebuf.flush_to(&mut conn.stream).is_err() {
            return true;
        }
        // A credit stall arms no tick: only the peer's `Credit` reopens the
        // window, and the lap that reads it pumps this link.
        if let Some(remaining) = cork_deadline.filter(|_| running && !conn.tick_armed) {
            self.wheel
                .schedule(Token(token), remaining.max(reactor::FINE_RESOLUTION));
            conn.tick_armed = true;
        }
        if credit.arm(processed) {
            self.wheel
                .schedule(Token(token | TOKEN_CREDIT_TICK), CREDIT_RETURN_TICK);
        }
        false
    }

    /// Keeps epoll interest in sync with what the connection can usefully
    /// be told about: writable only while output is pending, readable
    /// unless backpressure says stop.
    fn refresh_interest(&mut self, token: u64, conn: &mut ConnState) {
        let throttled = match &conn.role {
            Role::Client(ops) => {
                // A pipelining client stops being read once enough frames
                // are queued or its responses back up; TCP pushes back to
                // the sender instead of the server buffering without
                // bound.
                ops.queued() >= MAX_PENDING_FRAMES
                    || conn.writebuf.pending() >= HIGH_WATER
                    || (ops.wait().is_some() && ops.queued() >= MAX_PENDING_FRAMES / 2)
            }
            // A peer link always reads: two ends that stopped because their
            // writes were backed up would never drain each other, and the
            // credit window already bounds what the peer has in flight.
            _ => false,
        };
        let unthrottle = conn.writebuf.pending() <= LOW_WATER;
        let readable = if conn.interest.readable {
            !throttled
        } else {
            // Hysteresis: resume reading only once well below the mark.
            !throttled && unthrottle
        };
        let desired = Interest {
            readable,
            writable: !conn.writebuf.is_empty(),
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.raw_fd(), Token(token), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    fn close(&mut self, token: u64, mut conn: ConnState) {
        self.poller.deregister(conn.stream.raw_fd());
        self.inner.metrics.record_conn_closed();
        // A dead peer link is a recoverable event, not an amputation: mark
        // the link down and let the dialing side bring it back (unless the
        // server is shutting down).
        if let Role::Peer { peer, .. } = conn.role {
            self.peer_tokens.retain(|&t| t != token);
            // The kernel's counts die with the socket.
            book_tcp_segments(&self.inner.metrics, &mut conn);
            if self.inner.running.load(Ordering::SeqCst) {
                self.inner.peer_link_down(peer);
            }
        }
        // The stream drops here, closing the socket.
    }

    /// Shutdown path: drain every peer link without credits (blocking
    /// writes — the event loop is over), then drop all sockets.
    fn teardown(&mut self) {
        self.now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if matches!(conn.role, Role::Peer { .. }) {
                let _ = conn.stream.set_nonblocking(false);
                // `running` is false, so the pump packs without credits;
                // loop until the queue is empty (a burst can arrive
                // between pumps from a shard finishing up).
                loop {
                    if self.pump_peer(token, &mut conn) {
                        break; // link died mid-drain; nothing more to do
                    }
                    let Role::Peer { link, resumed, .. } = &conn.role else {
                        unreachable!("role checked above");
                    };
                    if !*resumed || link.queues.lock().is_empty() {
                        break;
                    }
                }
                while !conn.writebuf.is_empty() {
                    if conn.writebuf.flush_to(&mut conn.stream).is_err() {
                        break;
                    }
                }
                let _ = conn.stream.flush();
            }
            self.close(token, *conn);
        }
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;

    fn ts() -> Timestamp {
        Timestamp::new(1, NodeId(0))
    }

    fn inv(key: u64) -> LinkItem {
        LinkItem::Protocol(
            ProtocolMsg::Invalidation {
                key,
                ts: ts(),
                from: NodeId(0),
            },
            None,
            None,
        )
    }

    fn ack(key: u64) -> LinkItem {
        LinkItem::Protocol(
            ProtocolMsg::Ack {
                key,
                ts: ts(),
                from: NodeId(0),
            },
            None,
            None,
        )
    }

    fn update(key: u64) -> LinkItem {
        LinkItem::Protocol(
            ProtocolMsg::Update {
                key,
                value: 7,
                ts: ts(),
                from: NodeId(0),
            },
            Some(Arc::from(vec![0u8; 8])),
            None,
        )
    }

    fn write_back(key: u64) -> LinkItem {
        LinkItem::Rpc(Frame::RpcReq {
            corr: 1,
            inner: Box::new(Frame::WriteBack {
                key,
                value: vec![1],
                ts: ts(),
            }),
        })
    }

    fn miss_get(key: u64) -> LinkItem {
        LinkItem::Rpc(Frame::RpcReq {
            corr: 2,
            inner: Box::new(Frame::MissGet { key }),
        })
    }

    /// (kind, key) fingerprint for order assertions.
    fn tag(item: &LinkItem) -> (&'static str, u64) {
        match item {
            LinkItem::Protocol(ProtocolMsg::Invalidation { key, .. }, _, _) => ("inv", *key),
            LinkItem::Protocol(ProtocolMsg::Ack { key, .. }, _, _) => ("ack", *key),
            LinkItem::Protocol(ProtocolMsg::Update { key, .. }, _, _) => ("update", *key),
            LinkItem::Rpc(frame) => ("rpc", frame_tag_key(frame)),
        }
    }

    fn frame_tag_key(frame: &Frame) -> u64 {
        match frame {
            Frame::RpcReq { inner, .. } | Frame::RpcResp { inner, .. } => frame_tag_key(inner),
            Frame::WriteBack { key, .. } | Frame::MissGet { key } => *key,
            _ => 0,
        }
    }

    /// Drains the queues in exactly the pump's lane-selection order:
    /// replay strictly first, then the latency lane, then bulk.
    fn drain(queues: &mut LinkQueues) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        loop {
            let item = if let Some(item) = queues.replay.pop_front() {
                item
            } else if let Some(item) = queues.latency.pop_front() {
                item
            } else if let Some(item) = queues.pop_bulk() {
                item
            } else {
                break;
            };
            out.push(tag(&item));
        }
        assert!(queues.is_empty());
        out
    }

    #[test]
    fn latency_frames_overtake_unrelated_bulk() {
        let mut queues = LinkQueues::default();
        assert_eq!(queues.push(update(1)), Lane::Bulk);
        assert_eq!(queues.push(inv(2)), Lane::Latency);
        assert_eq!(queues.push(ack(3)), Lane::Latency);
        assert_eq!(
            drain(&mut queues),
            vec![("inv", 2), ("ack", 3), ("update", 1)],
            "latency-class frames must jump the bulk cork, FIFO within their lane"
        );
    }

    #[test]
    fn same_key_inv_never_overtakes_its_update() {
        // An SC update broadcast for key 7 is corked; a later Lin
        // invalidation of key 7 must not pass it on the wire — the push
        // path downgrades it into the bulk lane behind the update.
        let mut queues = LinkQueues::default();
        assert_eq!(queues.push(update(7)), Lane::Bulk);
        assert_eq!(
            queues.push(inv(7)),
            Lane::Bulk,
            "same-key inv must downgrade"
        );
        assert_eq!(
            queues.push(inv(8)),
            Lane::Latency,
            "other keys keep the fast lane"
        );
        assert_eq!(
            drain(&mut queues),
            vec![("inv", 8), ("update", 7), ("inv", 7)],
            "per-key FIFO must hold across lanes"
        );
    }

    #[test]
    fn same_key_rpc_follows_corked_write_back() {
        // A miss read racing a corked write-back of the same key must
        // arrive after it (the home must see the written-back value).
        let mut queues = LinkQueues::default();
        assert_eq!(queues.push(write_back(9)), Lane::Bulk);
        assert_eq!(
            queues.push(miss_get(9)),
            Lane::Bulk,
            "same-key rpc must downgrade"
        );
        assert_eq!(queues.push(miss_get(10)), Lane::Latency);
        assert_eq!(
            drain(&mut queues),
            vec![("rpc", 10), ("rpc", 9), ("rpc", 9)],
            "write-back then its follower, in push order"
        );
    }

    #[test]
    fn replay_drains_first_and_in_fifo_order() {
        // Requeued unconfirmed tail (redial handshake) must be repacked
        // before anything else, in original order — replay frames reuse
        // their original sequence numbers and wire order is seq order.
        let mut queues = LinkQueues::default();
        queues.replay.push_back(update(1));
        queues.replay.push_back(inv(1));
        assert_eq!(queues.push(inv(2)), Lane::Latency);
        assert_eq!(queues.push(update(3)), Lane::Bulk);
        assert_eq!(
            drain(&mut queues),
            vec![("update", 1), ("inv", 1), ("inv", 2), ("update", 3)],
            "replay is strictly first, itself FIFO"
        );
    }

    #[test]
    fn downgrade_check_clears_when_bulk_drains() {
        let mut queues = LinkQueues::default();
        assert_eq!(queues.push(update(5)), Lane::Bulk);
        assert_eq!(queues.push(update(5)), Lane::Bulk);
        queues.pop_bulk();
        // One bulk item for key 5 still queued: the downgrade must hold.
        assert_eq!(queues.push(inv(5)), Lane::Bulk);
        queues.pop_bulk();
        queues.pop_bulk();
        // Bulk fully drained: key 5 latency traffic is fast again.
        assert_eq!(queues.push(inv(5)), Lane::Latency);
    }
}
