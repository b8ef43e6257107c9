//! Client library: load-balanced GET/PUT over a ccKVS deployment.
//!
//! A [`Client`] owns one connection per server node and spreads requests
//! across them with a [`LoadBalancePolicy`] (reused from the `workload`
//! crate — the same policies the paper describes in §6). Each client is a
//! *session* in the sense of the consistency models (§5.1): operations on
//! cached keys can be recorded into a process-wide [`SharedHistory`] whose
//! logical clock gives the real-time order the per-key Lin checker needs.
//!
//! Note the model-dependent load-balancing caveat: per-key SC is a
//! per-session guarantee through the replica the session talks to, so SC
//! sessions should stay sticky ([`LoadBalancePolicy::Pinned`]); Lin is a
//! real-time guarantee, so Lin sessions may spread freely.

use crate::churn::{Outcome, Transition};
use crate::metrics::Metrics;
use crate::transport::{Connection, Transport, TransportConfig};
use crate::wire::{encode_frame_into, read_frame_via, Frame};
use consistency::history::{value_tag_of, History, OpRecord, RecordKind};
use consistency::lamport::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufReader, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
pub use workload::LoadBalancePolicy;

/// A process-wide recorded history with the shared logical clock the
/// real-time (Lin) checks require. Cheap to share across client threads.
#[derive(Debug, Default)]
pub struct SharedHistory {
    clock: AtomicU64,
    history: parking_lot::Mutex<History>,
}

impl SharedHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances and returns the logical clock.
    pub fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Appends a completed operation.
    pub fn record(&self, op: OpRecord) {
        self.history.lock().record(op);
    }

    /// Appends a put whose call failed; see
    /// [`History::record_indeterminate_put`].
    pub fn record_indeterminate_put(&self, key: u64, value: u64, invoked_at: u64) {
        self.history
            .lock()
            .record_indeterminate_put(key, value, invoked_at);
    }

    /// A snapshot of the recorded history.
    pub fn snapshot(&self) -> History {
        self.history.lock().clone()
    }
}

/// A framed request/response connection. Shared with the server's
/// miss-path RPC links, which speak the same dial → hello → call sequence.
/// Fabric-agnostic: it drives whatever [`Connection`] the deployment's
/// [`Transport`] dials.
pub(crate) struct Conn {
    reader: BufReader<Box<dyn Connection>>,
    writer: Box<dyn Connection>,
    /// The frame being sent, encoded in place; leaves in one write.
    encoded: Vec<u8>,
    /// The payload of the frame being received.
    payload: Vec<u8>,
}

/// How long a client-side dial may take before it fails. Blocking clients
/// previously relied on the OS connect timeout (minutes); an explicit bound
/// keeps dead-node redials from stalling a whole session.
pub(crate) const CLIENT_DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection read-buffer capacity. Frames on the request/response paths
/// are ~100 bytes; `BufReader` bypasses its buffer for larger
/// transfers, so a small buffer loses nothing — while keeping a process
/// that opens thousands of connections (`cckvs-loadgen --connections`)
/// cache-resident instead of spending 16 KB of cold buffer per connection
/// per op.
const CONN_BUF_BYTES: usize = 1024;

/// Kernel socket-buffer cap for request/response connections (each
/// direction; the kernel doubles it internally). Generous for ~100-byte
/// frames and coalesced request batches, a fraction of the ~128 KB+
/// defaults that dominate per-connection memory at high connection
/// counts. Peer-mesh links (1 MiB coherence batches) keep kernel
/// defaults.
pub(crate) const CONN_KERNEL_BUF_BYTES: usize = 32 * 1024;

impl Conn {
    pub(crate) fn open(
        transport: &dyn Transport,
        addr: SocketAddr,
        hello: &Frame,
    ) -> io::Result<Conn> {
        let stream = transport.dial(addr, CLIENT_DIAL_TIMEOUT)?;
        // Cap kernel socket buffers on the request/response paths: a
        // driver holding thousands of connections otherwise spends most
        // of its memory (and cache) on default-sized kernel buffers.
        // Best-effort — frames still flow (in more round trips) if the
        // cap is refused. Datagram fabrics keep kernel defaults: a 32 KB
        // receive buffer holds only two max-size datagrams, which turns
        // ordinary bursts into (recoverable but slow) loss.
        if stream.datagram_cap().is_none() {
            let _ = reactor::set_socket_buffers(stream.raw_fd(), CONN_KERNEL_BUF_BYTES);
        }
        let mut conn = Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(CONN_BUF_BYTES, stream),
            encoded: Vec::new(),
            payload: Vec::new(),
        };
        conn.send(hello)?;
        Ok(conn)
    }

    /// Awaits the next frame. A [`Frame::Error`] reply is surfaced as an
    /// `io::Error` so every caller handles server-side failures uniformly.
    fn receive(&mut self) -> io::Result<Frame> {
        match read_frame_via(&mut self.reader, &mut self.payload)? {
            Some(Frame::Error { message }) => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, message))
            }
            Some(frame) => Ok(frame),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
        }
    }

    /// Bounds how long [`Conn::call`] waits for an answer (`None`: for ever).
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends `request` and awaits the response.
    pub(crate) fn call(&mut self, request: &Frame) -> io::Result<Frame> {
        self.send(request)?;
        self.receive()
    }

    pub(crate) fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.encoded.clear();
        encode_frame_into(&mut self.encoded, frame);
        self.writer.write_all(&self.encoded)?;
        self.writer.flush()
    }

    /// Sends a coalesced request batch and awaits the matching response
    /// batch: the server answers request `k` at position `k`. A top-level
    /// [`Frame::Error`] (or a count mismatch) is a connection-level fault.
    fn call_batch(&mut self, frames: Vec<Frame>) -> io::Result<Vec<Frame>> {
        let sent = frames.len();
        match self.call(&Frame::Batch { frames })? {
            Frame::Batch { frames } if frames.len() == sent => Ok(frames),
            Frame::Batch { frames } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("batch of {sent} answered with {} responses", frames.len()),
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to batch: {other:?}"),
            )),
        }
    }
}

/// Client-side request-coalescing knobs (§6.3: requests travel the wire in
/// MTU-sized batches). The queue flushes — the *doorbell* — as soon as
/// either bound is reached, or when [`Client::flush`] is called.
///
/// With `max_delay` set the doorbell becomes latency-aware:
///
/// - No queued op waits past the deadline (checked on every `queue_*`
///   call and by [`Client::pump`]).
/// - The op-count doorbell adapts to the measured flush round-trip
///   time: it widens additively while flushes keep round-tripping inside
///   `max_delay`, and shrinks multiplicatively — in proportion to the
///   overrun — when they stop (clamped to `[1, max_ops]`). Batches widen
///   exactly as far as the server answers inside the delay budget and
///   back off the moment it slows.
/// - A queued *write* flushes immediately and travels alone: writes are
///   synchronization points (a Lin put blocks on every sharer's ack), so
///   coalescing reads behind one would tax the whole batch's tail with
///   the ack wait. Queued reads ship first as their own batch, then the
///   write as a bare frame — reads never inherit an ack wait, which is
///   what keeps the batched p99 within sight of the unbatched one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum operations per batch.
    pub max_ops: usize,
    /// Maximum payload bytes queued before the batch is forced out.
    pub max_bytes: usize,
    /// Longest a queued op may wait for batch-mates before the queue is
    /// flushed anyway. `None` (the default) corks until a size bound or
    /// an explicit [`Client::flush`] — the pre-deadline behaviour.
    pub max_delay: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_ops: 16,
            max_bytes: 16 * 1024,
            max_delay: None,
        }
    }
}

/// Initial op-count doorbell in deadline mode, before the cost model has
/// measured a single flush: small enough that the first batches never owe
/// a full-width cycle of latency, large enough that coalescing starts
/// immediately.
const WARMUP_DOORBELL: usize = 8;

/// The completion of one queued operation, in queue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// A queued [`Client::queue_get`] completed.
    Get {
        /// The value read (empty if never written).
        value: Vec<u8>,
        /// Whether the symmetric cache served it.
        cached: bool,
    },
    /// A queued [`Client::queue_put`] completed.
    Put {
        /// Whether the write went through the symmetric cache.
        cached: bool,
        /// Timestamp of the write ([`Timestamp::ZERO`] only for cold
        /// writes against a node that predates versioned cold puts).
        ts: Timestamp,
    },
}

/// One operation waiting in the client's batch queue.
struct QueuedOp {
    request: Frame,
    key: u64,
    /// `Some(tag)` for puts (the tag of the value written), `None` for gets.
    put_tag: Option<u64>,
    invoked_at: Option<u64>,
    started: Instant,
}

/// A client session talking to every node of a deployment.
///
/// Sessions survive node crashes: a connection that dies (its node was
/// killed, or the network hiccuped) is dropped and lazily redialed on the
/// session's next use of that node, with the redials counted in
/// [`Client::reconnects`] and the failures in [`Client::node_errors`] —
/// the quantitative recovery evidence orchestration harnesses assert on.
/// A failed operation is never recorded into the checked history as
/// completed (no response means no acknowledgement); a failed put is
/// recorded as indeterminate — it may have taken effect — so crash-era
/// histories stay sound.
pub struct Client {
    session: u32,
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    transport: Arc<dyn Transport>,
    policy: LoadBalancePolicy,
    rr_next: usize,
    rng: StdRng,
    session_seq: u64,
    history: Option<Arc<SharedHistory>>,
    metrics: Option<Arc<Metrics>>,
    batching: BatchConfig,
    /// Adaptive op-count doorbell: how many ops a flush can carry and
    /// still round-trip inside `batching.max_delay`. Pinned to
    /// `batching.max_ops` when no deadline is configured.
    doorbell_target: usize,
    /// EWMA whole-flush round-trip time in ns (0 until the first
    /// adaptive flush) — compared against `max_delay` to steer the
    /// doorbell.
    flush_rtt_ns: f64,
    queue: Vec<QueuedOp>,
    queue_bytes: usize,
    outcomes: Vec<BatchOutcome>,
    reconnects: u64,
    node_errors: Vec<u64>,
    /// Trace one in every `trace_every` operations (0 = tracing off).
    trace_every: u64,
    /// Operations issued since connect (the sampling counter).
    trace_ops: u64,
    /// Trace ids minted so far (the id sequence counter).
    trace_seq: u64,
    /// Session-unique base the minted ids offset from.
    trace_base: u64,
    /// The next operation is traced regardless of the sampling rate
    /// (armed by [`Client::trace_next`]).
    trace_armed: bool,
    /// The most recently minted trace id.
    last_trace: Option<u64>,
}

/// Configures and connects a [`Client`]: the one place every session
/// option lives, replacing the post-connect `with_*` chain that grew by
/// accretion. Obtained from [`Client::builder`].
///
/// ```no_run
/// use cckvs_net::client::{Client, LoadBalancePolicy};
/// use cckvs_net::transport::TransportConfig;
///
/// let addrs = vec!["127.0.0.1:4000".parse().unwrap()];
/// let client = Client::builder(&addrs)
///     .session(7)
///     .policy(LoadBalancePolicy::RoundRobin)
///     .transport(TransportConfig::udp())
///     .trace_sampling(128)
///     .connect()
///     .unwrap();
/// # drop(client);
/// ```
#[derive(Clone)]
pub struct ClientBuilder {
    addrs: Vec<SocketAddr>,
    session: u32,
    policy: LoadBalancePolicy,
    transport: TransportConfig,
    batching: BatchConfig,
    trace_every: u64,
    history: Option<Arc<SharedHistory>>,
    metrics: Option<Arc<Metrics>>,
}

impl ClientBuilder {
    /// The session id (distinguishes sessions in checked histories and
    /// salts the load-balancing RNG). Default 0.
    pub fn session(mut self, session: u32) -> Self {
        self.session = session;
        self
    }

    /// How requests spread across the deployment. Default
    /// [`LoadBalancePolicy::RoundRobin`].
    pub fn policy(mut self, policy: LoadBalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Which fabric to dial the deployment over. Must match the servers'
    /// transport. Default TCP.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Request-coalescing bounds for [`Client::queue_get`] /
    /// [`Client::queue_put`].
    ///
    /// # Panics
    ///
    /// Panics if `max_ops` is 0 or `max_bytes` exceeds half the wire
    /// frame limit (the doorbell fires *at* the bound, so a batch can
    /// overshoot by one op's payload).
    pub fn batching(mut self, batching: BatchConfig) -> Self {
        assert!(batching.max_ops >= 1, "batches need at least one op");
        assert!(
            batching.max_bytes <= crate::wire::MAX_FRAME_BYTES / 2,
            "max_bytes must stay below half the wire frame limit"
        );
        self.batching = batching;
        self
    }

    /// Samples one in every `every` operations into the rack-wide tracing
    /// subsystem (0 = off, the default).
    pub fn trace_sampling(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }

    /// Records cached-key operations into `history` (for the checkers).
    pub fn history(mut self, history: Arc<SharedHistory>) -> Self {
        self.history = Some(history);
        self
    }

    /// Records per-operation latency and hit/miss counters into `metrics`.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Dials every node and builds the session.
    ///
    /// # Panics
    ///
    /// Panics if the address list is empty or a pinned policy points
    /// outside it.
    pub fn connect(self) -> io::Result<Client> {
        assert!(
            !self.addrs.is_empty(),
            "deployment must have at least one node"
        );
        if let LoadBalancePolicy::Pinned(n) = self.policy {
            assert!(n < self.addrs.len(), "pinned node {n} outside deployment");
        }
        let transport = self.transport.build();
        let conns = self
            .addrs
            .iter()
            .map(|&addr| Conn::open(&*transport, addr, &Frame::ClientHello).map(Some))
            .collect::<io::Result<Vec<_>>>()?;
        let session = self.session;
        Ok(Client {
            session,
            rr_next: session as usize % conns.len(),
            addrs: self.addrs,
            node_errors: vec![0; conns.len()],
            conns,
            transport,
            policy: self.policy,
            rng: StdRng::seed_from_u64(0x5EED_C11E_0000_0000 ^ u64::from(session)),
            session_seq: 0,
            history: self.history,
            metrics: self.metrics,
            batching: self.batching,
            // Deadline mode warms the doorbell up from below: the cost
            // model widens it as flush round-trips prove cheap, so the
            // first batches never owe a full-width cycle of latency.
            doorbell_target: if self.batching.max_delay.is_some() {
                self.batching.max_ops.min(WARMUP_DOORBELL)
            } else {
                self.batching.max_ops
            },
            flush_rtt_ns: 0.0,
            queue: Vec::new(),
            queue_bytes: 0,
            outcomes: Vec::new(),
            reconnects: 0,
            trace_every: self.trace_every,
            trace_ops: 0,
            trace_seq: 0,
            // Wall-clock salt makes ids unique across processes even when
            // session ids repeat (every driver starts its sessions at 0).
            trace_base: cckvs_trace::now_ns() ^ (u64::from(session) << 48),
            trace_armed: false,
            last_trace: None,
        })
    }
}

impl Client {
    /// Starts configuring a session against `addrs` (one per node).
    pub fn builder(addrs: &[SocketAddr]) -> ClientBuilder {
        ClientBuilder {
            addrs: addrs.to_vec(),
            session: 0,
            policy: LoadBalancePolicy::RoundRobin,
            transport: TransportConfig::tcp(),
            batching: BatchConfig::default(),
            trace_every: 0,
            history: None,
            metrics: None,
        }
    }

    /// Connects to every node of the deployment over TCP with default
    /// options — shorthand for [`Client::builder`] with only the session
    /// and policy set.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or a pinned policy points outside it.
    pub fn connect(
        addrs: &[SocketAddr],
        session: u32,
        policy: LoadBalancePolicy,
    ) -> io::Result<Client> {
        Client::builder(addrs)
            .session(session)
            .policy(policy)
            .connect()
    }

    /// Forces the *next* operation to be traced (regardless of the
    /// sampling rate) and returns the trace id it will carry — the handle
    /// a driver passes to `cckvs-trace` to assemble the op's cross-node
    /// timeline.
    pub fn trace_next(&mut self) -> u64 {
        self.trace_armed = true;
        let id = self.trace_base.wrapping_add(self.trace_seq + 1);
        self.last_trace = Some(id);
        id
    }

    /// The id of the most recently traced operation, if any.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace
    }

    /// Decides whether this operation is sampled; if so, mints its id.
    fn next_trace(&mut self) -> Option<u64> {
        let sampled = if self.trace_armed {
            self.trace_armed = false;
            true
        } else if self.trace_every > 0 {
            self.trace_ops += 1;
            self.trace_ops.is_multiple_of(self.trace_every)
        } else {
            false
        };
        sampled.then(|| {
            self.trace_seq += 1;
            let id = self.trace_base.wrapping_add(self.trace_seq);
            self.last_trace = Some(id);
            id
        })
    }

    /// Wraps `frame` in a trace envelope when this op is sampled.
    fn maybe_trace(&mut self, frame: Frame) -> Frame {
        match self.next_trace() {
            Some(id) => Frame::Traced {
                id,
                inner: Box::new(frame),
            },
            None => frame,
        }
    }

    /// How many times a dead connection was successfully redialed.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Transport failures observed per node (indexed by node id).
    pub fn node_errors(&self) -> &[u64] {
        &self.node_errors
    }

    /// The connection to `node`, redialing it if the previous one died.
    fn conn(&mut self, node: usize) -> io::Result<&mut Conn> {
        if self.conns[node].is_none() {
            let conn = Conn::open(&*self.transport, self.addrs[node], &Frame::ClientHello)?;
            self.conns[node] = Some(conn);
            self.reconnects += 1;
        }
        Ok(self.conns[node].as_mut().expect("dialed above"))
    }

    /// Post-call error classification: a transport failure drops the
    /// connection (the next use redials) and counts against the node; a
    /// [`Frame::Error`] answer over a healthy link (`InvalidInput`) keeps
    /// it. One helper so the single-frame and batch paths cannot drift.
    fn classify_result<T>(&mut self, node: usize, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            if e.kind() != io::ErrorKind::InvalidInput {
                self.conns[node] = None;
                self.node_errors[node] += 1;
            }
        }
        result
    }

    /// Calls `frame` on `node`, redialing a dead connection first.
    fn call_node(&mut self, node: usize, frame: &Frame) -> io::Result<Frame> {
        let result = self.conn(node).and_then(|conn| conn.call(frame));
        self.classify_result(node, result)
    }

    /// The session id.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Number of server nodes this client talks to.
    pub fn nodes(&self) -> usize {
        self.conns.len()
    }

    fn pick(&mut self) -> usize {
        match self.policy {
            LoadBalancePolicy::Random => self.rng.gen_range(0..self.conns.len()),
            LoadBalancePolicy::RoundRobin => {
                let n = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.conns.len();
                n
            }
            LoadBalancePolicy::Pinned(n) => n,
        }
    }

    /// Reads `key`, load-balancing across the deployment. A read that hits
    /// a dead connection fails over to the next node (reads are
    /// idempotent) unless the session is pinned — per-key SC stickiness
    /// must not silently migrate replicas.
    pub fn get(&mut self, key: u64) -> io::Result<Vec<u8>> {
        // Drain any queued-but-unsent batch first: jumping past it would
        // execute this op before earlier queued ones and silently invert
        // session program order (which per-key SC relies on).
        self.flush_queue()?;
        let mut node = self.pick();
        let invoked_at = self.history.as_ref().map(|h| h.now());
        let started = Instant::now();
        let request = self.maybe_trace(Frame::Get { key });
        let failover = !matches!(self.policy, LoadBalancePolicy::Pinned(_));
        let mut attempt = 0;
        let response = loop {
            attempt += 1;
            match self.call_node(node, &request) {
                Ok(response) => break response,
                Err(e)
                    if failover
                        && e.kind() != io::ErrorKind::InvalidInput
                        && attempt < self.conns.len() =>
                {
                    node = (node + 1) % self.conns.len();
                }
                Err(e) => return Err(e),
            }
        };
        let Frame::GetResp { cached, ts, value } = response else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected response to Get",
            ));
        };
        if let Some(metrics) = &self.metrics {
            metrics.record_get();
            metrics.record_cache(cached);
            metrics.record_latency_ns(started.elapsed().as_nanos() as u64);
        }
        if cached {
            self.record_history(
                key,
                RecordKind::Get {
                    value: value_tag_of(&value),
                },
                ts,
                invoked_at,
            );
        }
        Ok(value)
    }

    /// Writes `value` under `key`, load-balancing across the deployment.
    /// Returns the protocol timestamp for cache-path writes.
    pub fn put(&mut self, key: u64, value: &[u8]) -> io::Result<Option<Timestamp>> {
        // Preserve session program order past any queued batch (see get).
        self.flush_queue()?;
        let node = self.pick();
        let invoked_at = self.history.as_ref().map(|h| h.now());
        let started = Instant::now();
        // No failover for writes: a transport error mid-put is ambiguous
        // (the write may or may not have applied), so retrying elsewhere
        // is the caller's decision. The history records it as such.
        let request = self.maybe_trace(Frame::Put {
            key,
            value: value.to_vec(),
        });
        let put = (key, Some(value_tag_of(value)), invoked_at, started);
        let response = self.call_node(node, &request);
        let response = response.map_err(|e| self.indeterminate(&[put], e))?;
        let Frame::PutResp { cached, ts } = response else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected response to Put",
            ));
        };
        if let Some(metrics) = &self.metrics {
            metrics.record_put();
            metrics.record_cache(cached);
            metrics.record_latency_ns(started.elapsed().as_nanos() as u64);
        }
        // Every put is recorded: cache-path puts carry the protocol
        // timestamp, cold puts the version the home shard assigned on
        // arrival. Cold versions matter to the checkers because they
        // resurface as install timestamps when a cold key turns hot — a
        // cached get may then legitimately return a timestamp only a cold
        // put produced.
        if ts != Timestamp::ZERO {
            self.record_history(
                key,
                RecordKind::Put {
                    value: value_tag_of(value),
                },
                ts,
                invoked_at,
            );
        }
        Ok(cached.then_some(ts))
    }

    /// Queues a read for the next coalesced batch. The batch flushes by
    /// itself once a [`BatchConfig`] bound is reached; call
    /// [`Client::flush`] to force it out and collect outcomes.
    pub fn queue_get(&mut self, key: u64) -> io::Result<()> {
        let invoked_at = self.history.as_ref().map(|h| h.now());
        self.queue_bytes += 16;
        let request = self.maybe_trace(Frame::Get { key });
        self.queue.push(QueuedOp {
            request,
            key,
            put_tag: None,
            invoked_at,
            started: Instant::now(),
        });
        self.maybe_flush()
    }

    /// Queues a write for the next coalesced batch.
    pub fn queue_put(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        // Deadline mode: a write is a synchronization point (see
        // [`BatchConfig`]) — ship the queued reads as their own wire
        // batch first, then the write alone. The reads never inherit the
        // write's ack wait (the dominant batched-tail term), and the
        // write pays one pipelined read flush, not the reverse.
        if self.batching.max_delay.is_some() && !self.queue.is_empty() {
            self.flush_queue()?;
        }
        let invoked_at = self.history.as_ref().map(|h| h.now());
        self.queue_bytes += 16 + value.len();
        let request = self.maybe_trace(Frame::Put {
            key,
            value: value.to_vec(),
        });
        self.queue.push(QueuedOp {
            request,
            key,
            put_tag: Some(value_tag_of(value)),
            invoked_at,
            started: Instant::now(),
        });
        if self.batching.max_delay.is_some() {
            self.flush_queue()
        } else {
            self.maybe_flush()
        }
    }

    /// Number of operations currently queued and unflushed.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Flushes any queued operations and returns the outcome of every
    /// operation queued since the last `flush`, in queue order (including
    /// those sent by automatic doorbell flushes in between).
    ///
    /// A server-side per-operation failure surfaces as an `io::Error` and
    /// discards ALL accumulated outcomes — those of ops behind the failure
    /// in the same batch and those of earlier flushes alike — so the next
    /// `flush` never returns outcomes that belong to a previous round.
    pub fn flush(&mut self) -> io::Result<Vec<BatchOutcome>> {
        self.flush_queue()?;
        Ok(std::mem::take(&mut self.outcomes))
    }

    /// Time until the oldest queued op hits the [`BatchConfig::max_delay`]
    /// deadline (zero when overdue). `None` when the queue is empty or no
    /// deadline is configured — drivers use this to size their next poll
    /// or sleep, then call [`Client::pump`].
    pub fn due_in(&self) -> Option<Duration> {
        let deadline = self.batching.max_delay?;
        let oldest = self.queue.first()?;
        Some(deadline.saturating_sub(oldest.started.elapsed()))
    }

    /// Flushes the queue iff the [`BatchConfig::max_delay`] deadline has
    /// passed for the oldest queued op; returns whether a flush happened.
    /// The synchronous client has no background thread, so a driver that
    /// goes quiet between `queue_*` calls pumps the deadline itself.
    pub fn pump(&mut self) -> io::Result<bool> {
        match self.due_in() {
            Some(d) if d.is_zero() => {
                self.flush_queue()?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn maybe_flush(&mut self) -> io::Result<()> {
        let doorbell = self.doorbell_target.min(self.batching.max_ops);
        let overdue = match (self.batching.max_delay, self.queue.first()) {
            (Some(deadline), Some(oldest)) => oldest.started.elapsed() >= deadline,
            _ => false,
        };
        if self.queue.len() >= doorbell || self.queue_bytes >= self.batching.max_bytes || overdue {
            self.flush_queue()?;
        }
        Ok(())
    }

    /// Ships the queued batch to ONE node (picked by the balancing policy,
    /// so a whole batch — not each op — is the balancing unit; program
    /// order within the session is preserved, which the per-key SC
    /// session-order guarantee relies on) and processes the responses.
    fn flush_queue(&mut self) -> io::Result<()> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let result = self.flush_queue_inner();
        if result.is_err() {
            // The op↔outcome correspondence is broken (ops ahead of the
            // failure completed, ops behind it were discarded): holding
            // the stale outcomes would hand them to the NEXT flush, where
            // positional matching misattributes them to fresh ops.
            self.outcomes.clear();
        }
        result
    }

    fn flush_queue_inner(&mut self) -> io::Result<()> {
        let node = self.pick();
        let ops = std::mem::take(&mut self.queue);
        self.queue_bytes = 0;
        let mut requests = Vec::with_capacity(ops.len());
        let metas: Vec<(u64, Option<u64>, Option<u64>, Instant)> = ops
            .into_iter()
            .map(|op| {
                requests.push(op.request);
                (op.key, op.put_tag, op.invoked_at, op.started)
            })
            .collect();
        // A singleton flush travels as a bare frame: batch=1 is exactly
        // the unbatched wire protocol (and not counted as a wire batch).
        let flush_started = Instant::now();
        let responses = if requests.len() == 1 {
            self.call_node(node, &requests[0])
                .map(|response| vec![response])
        } else {
            if let Some(metrics) = &self.metrics {
                metrics.record_batch(requests.len() as u64);
            }
            let result = self.conn(node).and_then(|conn| conn.call_batch(requests));
            self.classify_result(node, result)
        };
        let responses = responses.map_err(|e| self.indeterminate(&metas, e))?;
        // Latency-feedback doorbell: widen while whole flushes round-trip
        // inside the delay budget (the server pipelines a batch's misses,
        // so width is nearly free until it isn't), shrink in proportion
        // the moment the smoothed round-trip overruns — the overrun IS
        // the congestion signal. Flushes carrying a write are not
        // measurements: their round-trip is dominated by the Lin ack
        // wait, an irreducible synchronization cost the batch width
        // cannot amortize (pricing it in collapses the doorbell and
        // forfeits the read-pipelining win).
        let wrote = metas.iter().any(|(_, put_tag, _, _)| put_tag.is_some());
        if let (Some(budget), false) = (self.batching.max_delay, wrote) {
            let rtt = flush_started.elapsed().as_nanos() as f64;
            self.flush_rtt_ns = if self.flush_rtt_ns > 0.0 {
                0.7 * self.flush_rtt_ns + 0.3 * rtt
            } else {
                rtt
            };
            let budget_ns = budget.as_nanos() as f64;
            let target = if self.flush_rtt_ns <= budget_ns {
                self.doorbell_target + 2
            } else {
                (self.doorbell_target as f64 * budget_ns / self.flush_rtt_ns) as usize
            };
            self.doorbell_target = target.clamp(1, self.batching.max_ops);
        }
        for (i, response) in responses.into_iter().enumerate() {
            let (key, put_tag, invoked_at, started) = metas[i];
            match self.complete(key, put_tag, invoked_at, started, response) {
                Ok(outcome) => self.outcomes.push(outcome),
                Err(e) => return Err(self.indeterminate(&metas[i..], e)),
            }
        }
        Ok(())
    }

    /// The puts among `ops` (`(key, put tag, invoked_at, started)`) failed
    /// with `e` and may or may not have taken effect: the history records
    /// them as indeterminate. Returns `e`.
    fn indeterminate(
        &self,
        ops: &[(u64, Option<u64>, Option<u64>, Instant)],
        e: io::Error,
    ) -> io::Error {
        if let Some(history) = &self.history {
            for &(key, put_tag, invoked_at, _) in ops {
                if let Some(tag) = put_tag {
                    let invoked_at = invoked_at.expect("taken when the op was queued");
                    history.record_indeterminate_put(key, tag, invoked_at);
                }
            }
        }
        e
    }

    /// Processes one response out of a flushed batch: metrics, history
    /// recording (identical to the unbatched paths) and the outcome.
    fn complete(
        &mut self,
        key: u64,
        put_tag: Option<u64>,
        invoked_at: Option<u64>,
        started: Instant,
        response: Frame,
    ) -> io::Result<BatchOutcome> {
        match (put_tag, response) {
            (None, Frame::GetResp { cached, ts, value }) => {
                if let Some(metrics) = &self.metrics {
                    metrics.record_get();
                    metrics.record_cache(cached);
                    metrics.record_latency_ns(started.elapsed().as_nanos() as u64);
                }
                if cached {
                    self.record_history(
                        key,
                        RecordKind::Get {
                            value: value_tag_of(&value),
                        },
                        ts,
                        invoked_at,
                    );
                }
                Ok(BatchOutcome::Get { value, cached })
            }
            (Some(tag), Frame::PutResp { cached, ts }) => {
                if let Some(metrics) = &self.metrics {
                    metrics.record_put();
                    metrics.record_cache(cached);
                    metrics.record_latency_ns(started.elapsed().as_nanos() as u64);
                }
                if ts != Timestamp::ZERO {
                    self.record_history(key, RecordKind::Put { value: tag }, ts, invoked_at);
                }
                Ok(BatchOutcome::Put { cached, ts })
            }
            (_, Frame::Error { message }) => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, message))
            }
            (_, other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("mismatched batch response {other:?}"),
            )),
        }
    }

    fn record_history(
        &mut self,
        key: u64,
        kind: RecordKind,
        ts: Timestamp,
        invoked_at: Option<u64>,
    ) {
        if let Some(history) = &self.history {
            let completed_at = history.now();
            let seq = self.session_seq;
            self.session_seq += 1;
            history.record(OpRecord {
                session: self.session,
                key,
                kind,
                ts,
                invoked_at: invoked_at.expect("taken when the op was queued"),
                completed_at,
                session_seq: seq,
            });
        }
    }

    /// Pings every node (redialing dead connections), returning the number
    /// that answered.
    pub fn ping_all(&mut self) -> usize {
        (0..self.conns.len())
            .filter(|&n| matches!(self.call_node(n, &Frame::Ping), Ok(Frame::Pong)))
            .count()
    }

    /// Sends a shutdown request to every node (admin path). Every node is
    /// attempted; the first failure (e.g. a node already down) is
    /// reported after the sweep.
    pub fn shutdown_deployment(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for node in 0..self.conns.len() {
            let result = self.conn(node).and_then(|conn| conn.send(&Frame::Shutdown));
            if let Err(e) = result {
                self.conns[node] = None;
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// Installs a hot set into every node over the wire (dialing `transport`,
/// the nodes' fabric) at timestamp zero: the bootstrap install of a fresh
/// dataset. It does **not** fence the cold path, so writes to the keys must
/// be quiescent; live churn is [`Transition::install`]'s.
pub fn install_hot_set_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
    entries: &[(u64, Vec<u8>)],
) -> io::Result<()> {
    let mut conns = open_all(transport, addrs)?;
    // Key-major order so a failure affects exactly one key, which is then
    // rolled back everywhere: the caches stay *symmetric* — a key cached on
    // some nodes but not others would leave Lin writes waiting forever for
    // acks the missing replica never sends.
    for (key, value) in entries {
        for node in 0..conns.len() {
            let failure = match conns[node].call(&Frame::InstallHot {
                key: *key,
                value: value.clone(),
                ts: Timestamp::ZERO,
                warm: false,
            }) {
                Ok(Frame::InstallHotResp { ok: true }) => continue,
                Ok(Frame::InstallHotResp { ok: false }) => io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    format!(
                        "cache or home shard full installing key {key} on node {node} \
                         (rolled back; earlier keys remain installed symmetrically)"
                    ),
                ),
                Ok(other) => io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected response {other:?}"),
                ),
                Err(e) => e,
            };
            // Whatever went wrong — full cache, dead node, protocol error —
            // roll the key back off the nodes that already took it.
            for rollback in conns.iter_mut().take(node) {
                let _ = rollback.call(&Frame::Evict { key: *key });
            }
            return Err(failure);
        }
    }
    Ok(())
}

/// One client connection to each of `addrs`, in order.
pub(crate) fn open_all(transport: &dyn Transport, addrs: &[SocketAddr]) -> io::Result<Vec<Conn>> {
    addrs
        .iter()
        .map(|&addr| Conn::open(transport, addr, &Frame::ClientHello))
        .collect()
}

/// Evicts keys from every node over the wire, one [`Transition::evict`] per
/// key: when this returns, every evicted key's last write is at its home.
pub fn evict_hot_set_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
    keys: &[u64],
) -> io::Result<()> {
    let mut conns = open_all(transport, addrs)?;
    for &key in keys {
        let evict = Transition::evict(key, addrs.len());
        match evict.run(|node, frame| conns[node].call(frame).ok()) {
            Outcome::Evicted => {}
            outcome => return Err(io::Error::other(format!("evicting key {key}: {outcome:?}"))),
        }
    }
    Ok(())
}

/// Result of a forced epoch flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochFlip {
    /// The popularity epoch that was closed.
    pub epoch: u64,
    /// Keys installed into the hot set.
    pub installed: u32,
    /// Keys evicted from the hot set.
    pub evicted: u32,
}

/// Asks the deployment's epoch coordinator to close the current popularity
/// epoch and reconfigure the hot set now (the epoch otherwise closes by
/// itself after `EpochConfig::epoch_length` sampled requests).
pub fn flip_epoch_via(transport: &dyn Transport, coordinator: SocketAddr) -> io::Result<EpochFlip> {
    let mut conn = Conn::open(transport, coordinator, &Frame::ClientHello)?;
    match conn.call(&Frame::FlipEpoch)? {
        Frame::FlipEpochResp {
            epoch,
            installed,
            evicted,
        } => Ok(EpochFlip {
            epoch,
            installed,
            evicted,
        }),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected response {other:?}"),
        )),
    }
}

/// Fetches every node's trace buffer (admin path): per address, the number
/// of span events dropped at ring overflow and the events currently
/// retained. Feed the per-node event dumps to [`cckvs_trace::assemble`] to
/// build one operation's cross-node timeline.
pub fn collect_traces_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
) -> io::Result<Vec<(u64, Vec<cckvs_trace::Event>)>> {
    addrs
        .iter()
        .map(|&addr| {
            let mut conn = Conn::open(transport, addr, &Frame::ClientHello)?;
            match conn.call(&Frame::TraceDump)? {
                Frame::TraceDumpResp { dropped, events } => Ok((dropped, events)),
                other => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected response {other:?}"),
                )),
            }
        })
        .collect()
}
