//! The networked ccKVS node: a [`CcNode`] behind a TCP endpoint, served by
//! an epoll reactor.
//!
//! A [`NodeServer`] binds one listener and serves two kinds of
//! connections, distinguished by their hello frame (see [`crate::wire`]):
//! client request/response sessions and peer protocol links — one duplex
//! connection per node pair, dialed by the lower node id, so that a reply
//! leaves on the connection its request came in on and carries the
//! transport's acknowledgement. Each peer link's end is a sans-IO
//! [`link::Peer`](crate::link::Peer): outgoing protocol traffic queues in
//! its outbox — one FIFO per link, packed by the reactor under credit-based
//! flow control: wire order on a link is enqueue order — and what the peer
//! sends is taken in by it and served by [`crate::rpc::serve_peer`].
//!
//! This file holds the node and its links: [`NodeServer`], the shared
//! server state, shipping and the redial handshake.
//! `config.rs` holds the configuration types, `shard.rs` the reactor shard
//! that owns the sockets, and `admin.rs` the epoch coordinator's hot-set
//! reconfiguration and the shutdown write-back drain.
//!
//! Concurrency model (every frame handled on-shard, no worker pool):
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
//!   `shard::ShardHost`. What this module adds is how the
//!   wake events travel: the shard that delivers a Lin write's final
//!   acknowledgement fires the commit hook ([`CcNode::on_committed`]), an
//!   arriving [`Frame::RpcResp`] finds its waiter in the pending-RPC
//!   table, and both reach the suspended connection on its owning shard as a
//!   `ShardMsg::Resume`; a bounce arms a timer-wheel tick, and so does
//!   the first RPC a shard issues: past its deadline the sweep fails it.
//!   An `Evict` is such a request too — it bounces while the key's own
//!   write is pending and parks on the `WriteBack` RPC of a dirty value.
//! * **`FlipEpoch`** runs on the coordinator's epoch applier, the one
//!   thread a node starts besides its shards and the metrics endpoint. Its
//!   evict/install sweep talks to every node, this one included, over
//!   plain client connections, and its answer resumes the requesting
//!   connection like any other continuation.
//!
//! The per-peer credit window (§6.4) is driven by readiness events: a
//! stalled peer writer resumes in the lap that reads the peer's credit off
//! the same connection — which is always read, however far its own writes
//! are backed up — and credit returns owed to the peer still go out while
//! stalled, which keeps symmetric saturation deadlock-free exactly as the
//! thread-per-peer implementation did. Teardown drains every peer link
//! with the window wide open: nothing reads the peer's credits any more.
//!
//! Crash recovery (peers are separate OS processes that die and come back):
//! every peer link is a `PeerLink` that survives its connection. Messages
//! are retained until the peer confirms *processing* them through
//! cumulative [`Frame::Credit`] acknowledgements (TCP-ack style:
//! idempotent, loss-proof), so when a link dies the unconfirmed tail is
//! replayed after the redial handshake — exactly once, in order. The
//! handshake's three frames ([`Frame::PeerHello`] → [`Frame::PeerHelloAck`]
//! → [`Frame::PeerResume`]) are built and taken in by [`node_ops`]'s steps
//! ([`node_ops::hello`], [`node_ops::answer`], [`node_ops::take_ack`],
//! [`node_ops::take_resume`]), which the model checker exchanges too; this
//! module only moves them over the socket. They carry *process
//! generations* and reconcile both directions: a restarted peer is
//! detected on either side, its stale connections and confirmations are
//! rejected, and the restart rule reissues every local pending Lin write's
//! invalidation toward the restarted (now empty, vacuously acknowledging)
//! peer — per-node ack bitmasks in the protocol engine make duplicate
//! acknowledgements harmless — and asks its in-doubt miss-path RPCs again.
//! While a peer is down, outbound coherence traffic parks in the link's
//! outbox (bounded by `PARK_MAX`) and, on the lower-id side of the pair, a
//! redial thread retries with exponential backoff (the higher side waits to
//! be dialed); miss-path RPCs ride it out within
//! [`NodeServerConfig::rpc_retry`]. The serving node keeps answering for
//! every key the dead peer does not home.

use crate::client::Conn;
use crate::link::{Item, Pack, Peer, PEER_BATCH_MAX_BYTES};
use crate::metrics::{Metrics, MetricsServer};
use crate::node_ops::{self, Handshake, LinkEnd, NodeItem};
use crate::ops::{peel_trace, ConnOps, Note, OpsHost, ResumeEvent, Served, Step};
use crate::rpc::{serve_home_frame, serve_node_frame, serve_peer, PeerHost, RpcTable};
use crate::transport::{Connection, Transport, TransportConfig, TransportListener};
use crate::wire::{encode_frame_into, write_frame, BatchBuilder, Frame, FrameDecoder};
use cckvs::node::{CcNode, NodeConfig, Outgoing};
use cckvs_trace::{Event as TraceEvent, EventKind, TraceSink, NO_PEER, SHARED_LANE};
use consistency::lamport::Timestamp;
use consistency::messages::ProtocolMsg;
use parking_lot::{Condvar, Mutex};
use reactor::{Events, Interest, Poller, Token, Waker, WriteBuf};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use symcache::popularity::{CacheCoordinator, EpochConfig, HotSet};

mod admin;
mod config;
mod shard;

use self::admin::{epoch_applier_loop, Churn, FlipJob};
pub use self::config::{
    FlowConfig, NodeServerConfig, ReactorConfig, CREDIT_RETURN_TICK, DEFAULT_RPC_RETRY,
    REDIAL_BACKOFF_MAX, REDIAL_BACKOFF_START,
};
use self::shard::{ConnState, Role, Shard, TOKEN_LISTENER, TOKEN_WAKER};

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

/// Who is waiting for a correlated RPC response: a suspended client
/// connection, resumed on its owning shard.
struct RpcWaiter {
    shard: usize,
    token: u64,
}

/// One flow-controlled item queued toward a peer. Protocol messages carry
/// their value bytes broadcast-shared plus the trace id they travel under
/// when the originating client op was sampled — the id rides the link's
/// outbox, the unacked replay tail and the wire envelope, so causality
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
}

impl NodeItem for LinkItem {
    fn request(&self) -> Option<u64> {
        match self {
            LinkItem::Rpc(Frame::RpcReq { corr, .. }) => Some(*corr),
            _ => None,
        }
    }
}

impl Item for LinkItem {
    fn payload_len(&self) -> usize {
        match self {
            LinkItem::Protocol(_, bytes, _) => bytes.as_deref().map_or(0, <[u8]>::len),
            LinkItem::Rpc(frame) => frame.payload_len(),
        }
    }

    /// Value bytes stay behind the broadcast-shared `Arc` all the way to
    /// serialisation: no per-peer copy is ever materialised.
    fn push_to(&self, batch: &mut BatchBuilder) {
        match self {
            LinkItem::Protocol(msg, bytes, trace) => {
                batch.push_protocol_traced(*trace, msg, bytes.as_deref());
            }
            LinkItem::Rpc(frame) => batch.push(frame),
        }
    }
}

/// The pump takes a link's lock once per pack: the shards that enqueue on
/// it wait for one pack at most.
impl LinkEnd<LinkItem> for &Mutex<Peer<LinkItem>> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Peer<LinkItem>) -> R) -> R {
        f(&mut self.lock())
    }
}

/// The crash-surviving state of the duplex link to one peer. The connection
/// comes and goes (adopted by the owning shard while up; while down the
/// lower node id redials from a background thread, the higher waits); the
/// link — queued traffic, the sent-but-unconfirmed tail, and both
/// directions' sequence counters — persists across reconnects.
///
/// Queueing, sequencing, packing and taking in are [`crate::link`]'s
/// [`Peer`]: items leave in the order they were queued, so one key's
/// messages keep theirs, and each is numbered for the life of this process
/// and retained until the peer's cumulative [`Frame::Credit`]
/// confirmations cover it. On redial the handshake ([`node_ops::answer`],
/// [`node_ops::take_ack`]) tells each side how far the other really
/// processed; each requeues its unprocessed tail at the front of its
/// outbox — the repack assigns the same numbers, so the peer (aligned by
/// the resume sequence) sees every message exactly once, in order.
struct PeerLink {
    /// Which reactor shard owns the link's socket (fixed: `peer % shards`
    /// — so frame processing, credit returns, replay and pumping never race
    /// across threads).
    shard: usize,
    /// This node's end: items not yet on the wire, and those on it until
    /// the peer confirms processing them (traffic for a down peer parks
    /// here); the peer's messages processed so far, in the *peer's*
    /// numbering; when that count goes back; the highest peer process
    /// generation a handshake has shown (0 = never connected).
    peer: Mutex<Peer<LinkItem>>,
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
    /// the epoch applier finished a flip. `sent_at` is when the wake-up event
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
    /// peer stayed dead longer than [`NodeServerConfig::rpc_retry`]), on
    /// the sweep tick of the shard that issued it ([`Shard::sweep_rpcs`]).
    rpcs: Mutex<RpcTable<RpcWaiter>>,
    /// Batching / flow-control knobs.
    flow: FlowConfig,
    /// Event-loop topology.
    reactor: ReactorConfig,
    /// Miss-path RPC redial budget (see [`NodeServerConfig::rpc_retry`]).
    rpc_retry: Duration,
    /// The reactor shards (set once at startup, before any I/O happens).
    shards: OnceLock<Vec<Arc<ShardShared>>>,
    /// Per-node trace event collector: one lock-free ring lane per
    /// reactor shard plus a shared lane for every other thread.
    /// Drained by the metrics scraper (when enabled) and on demand by
    /// [`Frame::TraceDump`].
    sink: Arc<TraceSink>,
    /// The fabric every connection of this node runs on (the listener,
    /// peer-link dials and miss-path RPC dials all go through it).
    transport: Arc<dyn Transport>,
}

impl ServerInner {
    /// Shard `id`'s cross-thread face (cloned by commit hooks that outlive
    /// the borrow).
    fn shard(&self, id: usize) -> &Arc<ShardShared> {
        &self.shards.get().expect("shards wired at startup")[id]
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

    /// Ships protocol messages produced by the local node to their peers
    /// ([`ServerInner::enqueue`]), stamping every queued message with the
    /// sampled op's trace id, if any, so protocol traffic this op fans out
    /// (Lin invalidations, acks, commit updates, SC broadcasts) stays
    /// causally linked across nodes. Per-peer send events are recorded
    /// here — the enqueue is the fan-out point.
    fn ship(&self, outgoing: Vec<Outgoing>, trace: Option<u64>) {
        node_ops::ship(&self.node, outgoing, |peer, msg, bytes| {
            let kind = match msg {
                ProtocolMsg::Invalidation { .. } => Some(EventKind::InvSend),
                ProtocolMsg::Update { .. } => Some(EventKind::UpdateSend),
                // The ack's arrival at the writer is the traced moment
                // (AckRecv); its enqueue adds nothing.
                ProtocolMsg::Ack { .. } => None,
            };
            // Before the enqueue: once queued, the owning shard may ship the
            // message, and its answer arrive, before this thread runs again.
            if let Some(kind) = kind {
                self.trace_event(trace, SHARED_LANE, kind, msg.key(), peer as u8);
            }
            if self.enqueue(peer, LinkItem::Protocol(msg, bytes, trace)) {
                self.metrics.record_protocol_out(1);
            }
        });
    }

    /// Queues `item` on the crash-surviving link to `peer` and wakes the
    /// owning shard; while the link is down the item parks there instead,
    /// until the redial brings the link back. Returns `false` if the item
    /// was dropped: the peer has been down long past the restart budget and
    /// its park is full ([`PARK_MAX`] says why that is safe for a
    /// restarted, state-fresh peer). A dropped RPC request must be failed
    /// by the caller rather than left to dangle until its deadline.
    fn enqueue(&self, peer: usize, item: LinkItem) -> bool {
        let Some(link) = self.peer_links.get(peer).and_then(Option::as_ref) else {
            return false;
        };
        let up = link.up.load(Ordering::Acquire);
        {
            let mut end = link.peer.lock();
            if !up && end.outbox.queued().len() >= PARK_MAX {
                self.metrics.record_parked_drop();
                return false;
            }
            end.outbox.push(item);
        }
        // Re-check `up` AFTER the enqueue: the link can come up between the
        // load above and the push (the adoption pump would then have
        // drained an empty queue), and a parked-without-wake message on an
        // idle link would strand — a Lin invalidation stuck this way blocks
        // its writer forever. Down both times → genuinely parked; the
        // adoption pump after the redial picks it up.
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

    /// Takes `corr` out of the pending-RPC table and hands `response` to
    /// its waiter; late and duplicate responses find nothing and are
    /// dropped.
    fn resolve_rpc(&self, corr: u64, response: Frame) {
        if let Some(waiter) = self.with_rpcs(|table| table.resolve(corr)) {
            self.wake_rpc(waiter, ResumeEvent::Rpc { corr, response });
        }
    }

    /// Hands the outcome of an RPC already out of the table to its waiter.
    fn wake_rpc(&self, waiter: RpcWaiter, event: ResumeEvent) {
        self.shard(waiter.shard).send(ShardMsg::Resume {
            token: waiter.token,
            sent_at: Instant::now(),
            event,
        });
    }

    /// Recomputes the parked-messages gauge: traffic queued behind down
    /// peer links, waiting for a redial.
    fn refresh_parked(&self) {
        let total: u64 = self
            .peer_links
            .iter()
            .flatten()
            .filter(|link| !link.up.load(Ordering::Acquire))
            .map(|link| link.peer.lock().outbox.queued().len() as u64)
            .sum();
        self.metrics.set_parked(total);
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

    /// This node's side of the handshake with `peer`, taken by `step`
    /// ([`node_ops::answer`] or [`node_ops::take_ack`]) on the link's end
    /// and the pending-RPC table; then its metrics and trace events, and
    /// the restart rule's traffic queued. Returns the frame `step` answers
    /// with.
    fn handshake(
        &self,
        peer: usize,
        step: impl FnOnce(
            &mut Peer<LinkItem>,
            &mut RpcTable<RpcWaiter>,
        ) -> Result<(Frame, Handshake), String>,
    ) -> io::Result<Frame> {
        let mut end = self.link(peer).peer.lock();
        let reconnect = end.peer_gen() != 0;
        let (reply, shake) = step(&mut end, &mut self.rpcs.lock())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // A sampled op's message keeps its original trace id across the
        // replay (exactly once — the requeued item IS the retained
        // original); the Replay event marks the detour on the timeline.
        for item in end.outbox.queued().take(shake.replayed as usize) {
            let (trace, key) = (item.trace(), item.key());
            self.trace_event(trace, SHARED_LANE, EventKind::Replay, key, peer as u8);
        }
        drop(end);
        self.metrics.record_peer_replayed(shake.replayed);
        if reconnect {
            self.metrics.record_peer_reconnect();
        }
        self.metrics.record_reissued(shake.reissue.len() as u64);
        self.ship(shake.reissue, None);
        // One the full park drops is failed by the deadline sweep.
        for (_, request) in shake.asked_again {
            self.enqueue(peer, LinkItem::Rpc(request));
        }
        Ok(reply)
    }

    /// Dials the link to `peer` (a higher node id) and runs the blocking
    /// reconnect handshake over both directions: the hello reports what this
    /// node processed of the peer's stream, the ack what the peer processed
    /// of this node's and where its replay resumes, the resume where this
    /// node's does. On success the link's outbox queues, at its front,
    /// exactly what the peer has not processed, and the connection is on
    /// its way to its shard.
    fn dial_peer(&self, peer: usize, addr: SocketAddr) -> io::Result<()> {
        let mut stream = self.transport.dial(addr, HANDSHAKE_TIMEOUT)?;
        stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        let (link, node) = (self.link(peer), &self.node);
        let hello = node_ops::hello(&link.peer.lock(), node.node(), self.gen);
        write_frame(&mut stream, &hello)?;
        let Some(ack) = crate::wire::read_frame(&mut stream)? else {
            let eof = "peer closed during handshake";
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof));
        };
        // Reconcile before anything else is touched: an ack claiming more
        // than was sent fails here and has changed nothing.
        let resume = self.handshake(peer, |end, rpcs| {
            node_ops::take_ack(end, rpcs, node, peer, ack)
        })?;
        write_frame(&mut stream, &resume)?;
        stream.set_read_timeout(None)?;
        stream.set_nonblocking(true)?;
        let role = Role::peer(peer, link, true);
        self.shard(link.shard)
            .send(ShardMsg::Adopt(Box::new(ConnState::new(stream, role))));
        Ok(())
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

    fn initiate_shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // Wake every shard so it notices, drains its peers and exits.
            if let Some(shards) = self.shards.get() {
                for shard in shards {
                    shard.waker.wake();
                }
            }
            // Fail every pending RPC so no continuation is stranded
            // waiting on a response that will never be read.
            for (corr, waiter) in self.with_rpcs(RpcTable::drain) {
                let message = "node shutting down".to_string();
                self.wake_rpc(waiter, ResumeEvent::RpcFailed { corr, message });
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
                let (flip_tx, flip_rx) = channel();
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
                            peer: Mutex::new(Peer::new(gen, cfg.flow.credit_window)),
                            up: AtomicBool::new(false),
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
            sink: Arc::clone(&sink),
            transport,
        });
        let label = format!("n{}", cfg.node.node);
        let metrics_server = (cfg.metrics_listen)
            .map(|addr| crate::metrics::serve_http_traced(addr, label, metrics, Some(sink)))
            .transpose()?;
        let applier_handle = flip_rx.map(|rx| {
            let applier_inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("cckvs-epochs-n{}", cfg.node.node))
                .spawn(move || epoch_applier_loop(applier_inner, rx))
        });
        let applier_handle = applier_handle.transpose()?;
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

    /// A cheap handle for out-of-band shutdown paths (signal watchers):
    /// lets a thread that does not own the server drain write-backs and
    /// initiate shutdown while the owning thread blocks in
    /// [`NodeServer::wait`].
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Blocks until the server shuts down (via [`Frame::Shutdown`] from a
    /// client or [`ShutdownHandle::initiate_shutdown`]), then tears down the
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

/// Serves one *never-blocking* client frame: liveness, the trace dump, and
/// what an admin caller (the supervisor's heal, the epoch applier) sends
/// without being a peer ([`serve_node_frame`]). Get, Put and Evict are
/// [`crate::ops`]'s and FlipEpoch the epoch applier's — nothing here may
/// wait on another message. `None` ends the connection: the client asked
/// the node to shut down, or sent a frame no client may send.
fn serve_inline_frame(inner: &ServerInner, lane: u8, frame: Frame) -> Option<Frame> {
    Some(match frame {
        Frame::TraceDump => Frame::TraceDumpResp {
            dropped: inner.sink.dropped(),
            events: inner.sink.dump(),
        },
        Frame::Ping => Frame::Pong,
        Frame::Shutdown => {
            inner.initiate_shutdown();
            return None;
        }
        other => {
            let key = other.key();
            let response = serve_rpc_frame(inner, lane, other, serve_node_frame).ok()?;
            // Coordinator bookkeeping: the key joined the hot set.
            if let (Frame::InstallHotResp { ok: true }, Some(churn)) = (&response, &inner.churn) {
                churn.installed.lock().insert(key);
            }
            response
        }
    })
}

/// Serves one frame through `serve` — [`serve_home_frame`] for the inner
/// frame of a peer's [`Frame::RpcReq`], [`serve_node_frame`] for one an
/// admin caller sends bare on a client connection. Every arm of either is
/// a lock-protected state update that never waits on another message,
/// which is what allows it to be served inline on a reactor shard.
fn serve_rpc_frame(
    inner: &ServerInner,
    lane: u8,
    frame: Frame,
    serve: fn(&CcNode, Frame) -> io::Result<Frame>,
) -> io::Result<Frame> {
    let (trace, frame) = peel_trace(frame);
    inner.trace_event(trace, lane, EventKind::ProtocolRecv, frame.key(), NO_PEER);
    serve(&inner.node, frame)
}
