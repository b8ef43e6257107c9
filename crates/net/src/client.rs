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

use crate::churn::{Flip, Outcome, Transition};
pub use crate::client_ops::{BatchConfig, BatchOutcome};
use crate::client_ops::{ClientHost, ClientOps, Op};
use crate::metrics::Metrics;
use crate::ops::Time;
use crate::transport::{Connection, Transport, TransportConfig};
use crate::wire::{encode_frame_into, read_frame_via, Frame};
use consistency::history::{value_tag_of, History, OpRecord, RecordKind};
use consistency::lamport::Timestamp;
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

    /// Sends `request` and awaits the response, whatever it is.
    fn exchange(&mut self, request: &Frame) -> io::Result<Frame> {
        self.send(request)?;
        read_frame_via(&mut self.reader, &mut self.payload)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Bounds how long [`Conn::call`] waits for an answer (`None`: for ever).
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends `request` and awaits the response. A [`Frame::Error`] reply
    /// is surfaced as an `io::Error` so every caller handles server-side
    /// failures uniformly.
    pub(crate) fn call(&mut self, request: &Frame) -> io::Result<Frame> {
        match self.exchange(request)? {
            Frame::Error { message } => Err(io::Error::new(io::ErrorKind::InvalidInput, message)),
            frame => Ok(frame),
        }
    }

    pub(crate) fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.encoded.clear();
        encode_frame_into(&mut self.encoded, frame);
        self.writer.write_all(&self.encoded)?;
        self.writer.flush()
    }
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
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<Conn>>,
    transport: Arc<dyn Transport>,
    /// The queue, the batches and what settles them.
    ops: ClientOps,
    recorder: Recorder,
    /// Outcomes settled since the last [`Client::flush`], in queue order.
    outcomes: Vec<Option<BatchOutcome>>,
    /// `Some` when nothing reads the time — no deadline doorbell, no
    /// latency metrics — and the machine is handed this one instant
    /// instead of a clock read per op.
    frozen: Option<Instant>,
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

/// Where the blocking client's ops are recorded: the metrics, and the
/// checked history — every put the node versioned, and every read the cache
/// served (a cold read's answer carries no version, so none is recorded).
struct Recorder {
    session: u32,
    history: Option<Arc<SharedHistory>>,
    metrics: Option<Arc<Metrics>>,
}

impl ClientHost<Instant> for Recorder {
    fn completed(&mut self, op: &Op<Instant>, outcome: &BatchOutcome, ts: Timestamp, now: Instant) {
        let (kind, cached, recorded) = match (outcome, op.put) {
            (BatchOutcome::Get { value, cached }, _) => {
                let value = value_tag_of(value);
                (RecordKind::Get { value }, *cached, *cached)
            }
            // Cold puts count: their versions resurface as install
            // timestamps when a cold key turns hot, so a cached get may
            // legitimately return a timestamp only a cold put produced.
            (BatchOutcome::Put { cached, .. }, value) => {
                let value = value.expect("a put carries its tag");
                (RecordKind::Put { value }, *cached, ts != Timestamp::ZERO)
            }
        };
        if let Some(metrics) = &self.metrics {
            match kind {
                RecordKind::Get { .. } => metrics.record_get(),
                RecordKind::Put { .. } => metrics.record_put(),
            }
            metrics.record_cache(cached);
            metrics.record_latency_ns(now.since(op.queued_at).as_nanos() as u64);
        }
        if let (Some(history), true) = (&self.history, recorded) {
            history.record(OpRecord {
                session: self.session,
                key: op.key,
                kind,
                ts,
                invoked_at: op.invoked_at,
                completed_at: history.now(),
                session_seq: op.seq,
            });
        }
    }

    fn indeterminate(&mut self, op: &Op<Instant>) {
        if let (Some(history), Some(tag)) = (&self.history, op.put) {
            history.record_indeterminate_put(op.key, tag, op.invoked_at);
        }
    }
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
        let session = self.session;
        let ops = ClientOps::new(self.addrs.len(), self.policy, self.batching, session);
        let timed = self.batching.max_delay.is_some() || self.metrics.is_some();
        let frozen = (!timed).then(Instant::now);
        let transport = self.transport.build();
        let conns = self
            .addrs
            .iter()
            .map(|&addr| Conn::open(&*transport, addr, &Frame::ClientHello).map(Some))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client {
            addrs: self.addrs,
            node_errors: vec![0; conns.len()],
            ops,
            conns,
            transport,
            recorder: Recorder {
                session,
                history: self.history,
                metrics: self.metrics,
            },
            outcomes: Vec::new(),
            frozen,
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
        self.recorder.session
    }

    /// Number of server nodes this client talks to.
    pub fn nodes(&self) -> usize {
        self.conns.len()
    }

    /// Reads `key`, load-balancing across the deployment. A read that hits
    /// a dead connection fails over to the next node (reads are
    /// idempotent) unless the session is pinned — per-key SC stickiness
    /// must not silently migrate replicas.
    pub fn get(&mut self, key: u64) -> io::Result<Vec<u8>> {
        match self.call(key, None)? {
            BatchOutcome::Get { value, .. } => Ok(value),
            BatchOutcome::Put { .. } => unreachable!("a get settles as a get"),
        }
    }

    /// Writes `value` under `key`, load-balancing across the deployment.
    /// Returns the protocol timestamp for cache-path writes. No failover:
    /// a put that meets a dead connection may or may not have applied, so
    /// retrying elsewhere is the caller's decision; the history records it
    /// as such.
    pub fn put(&mut self, key: u64, value: &[u8]) -> io::Result<Option<Timestamp>> {
        match self.call(key, Some(value))? {
            BatchOutcome::Put { cached, ts } => Ok(cached.then_some(ts)),
            BatchOutcome::Get { .. } => unreachable!("a put settles as a put"),
        }
    }

    /// One op on its own frame, after whatever is queued: jumping past the
    /// queue would execute it before earlier queued ops and silently
    /// invert session program order (which per-key SC relies on).
    fn call(&mut self, key: u64, value: Option<&[u8]>) -> io::Result<BatchOutcome> {
        self.flush_queue()?;
        let now = self.enqueue(key, value);
        self.ops.flush();
        self.drive(now)?;
        let settled = self.outcomes.pop().flatten();
        Ok(settled.expect("a drive that succeeded settled the call"))
    }

    /// Queues a read for the next coalesced batch. The batch flushes by
    /// itself once a [`BatchConfig`] bound is reached; call
    /// [`Client::flush`] to force it out and collect outcomes.
    pub fn queue_get(&mut self, key: u64) -> io::Result<()> {
        let now = self.enqueue(key, None);
        self.drive(now)
    }

    /// Queues a write for the next coalesced batch.
    pub fn queue_put(&mut self, key: u64, value: &[u8]) -> io::Result<()> {
        let now = self.enqueue(key, Some(value));
        self.drive(now)
    }

    /// Hands one op to the machine, stamped and maybe traced; returns the
    /// time it was queued at.
    fn enqueue(&mut self, key: u64, value: Option<&[u8]>) -> Instant {
        let invoked_at = self.recorder.history.as_ref().map_or(0, |h| h.now());
        let trace = self.next_trace();
        let now = self.now();
        self.ops.queue(key, value, trace, invoked_at, now);
        now
    }

    /// Number of operations currently queued and unflushed.
    pub fn queued(&self) -> usize {
        self.ops.queued()
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
        Ok(self.outcomes.drain(..).flatten().collect())
    }

    /// Time until the oldest queued op hits the [`BatchConfig::max_delay`]
    /// deadline (zero when overdue). `None` when the queue is empty or no
    /// deadline is configured — drivers use this to size their next poll
    /// or sleep, then call [`Client::pump`].
    pub fn due_in(&self) -> Option<Duration> {
        Some(self.ops.due()?.since(Instant::now()))
    }

    /// Flushes the queue iff the [`BatchConfig::max_delay`] deadline has
    /// passed for the oldest queued op; returns whether a flush happened.
    /// The synchronous client has no background thread, so a driver that
    /// goes quiet between `queue_*` calls pumps the deadline itself.
    pub fn pump(&mut self) -> io::Result<bool> {
        let queued = self.ops.queued();
        self.drive(self.now())?;
        Ok(self.ops.queued() < queued)
    }

    fn flush_queue(&mut self) -> io::Result<()> {
        self.ops.flush();
        if self.ops.queued() == 0 {
            return Ok(());
        }
        self.drive(self.now())
    }

    /// The time, for the machine (see `frozen`).
    fn now(&self) -> Instant {
        self.frozen.unwrap_or_else(Instant::now)
    }

    /// Sends what the machine has to send, one frame at a time, each
    /// answered (or its connection lost) before the next. A failure
    /// discards every outcome not yet collected: the op↔outcome
    /// correspondence of the round is broken.
    fn drive(&mut self, mut now: Instant) -> io::Result<()> {
        while let Some((node, frame)) = self.ops.poll_send(now) {
            if let (Frame::Batch { frames }, Some(metrics)) = (&frame, &self.recorder.metrics) {
                metrics.record_batch(frames.len() as u64);
            }
            let answer = self.conn(node).and_then(|conn| conn.exchange(&frame));
            now = self.now();
            let (host, out) = (&mut self.recorder, &mut self.outcomes);
            let settled = match answer {
                Ok(response) => self.ops.answer(host, node, response, now, out),
                Err(e) if self.ops.lost(host, node, out) => Err(e),
                Err(e) => {
                    // A lone GET failing over: `poll_send` has it again.
                    let _ = self.classify_result::<()>(node, Err(e));
                    continue;
                }
            };
            if let Err(e) = self.classify_result(node, settled) {
                self.outcomes.clear();
                return Err(e);
            }
        }
        Ok(())
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
/// dataset, one [`Transition::seed`] per key in one [`Flip`]. It does
/// **not** fence the cold path, so writes to the keys must be quiescent;
/// live churn is [`Transition::install`]'s. A key that fails is rolled back
/// off the nodes that took it, so the caches stay *symmetric* — a key
/// cached on some nodes but not others would leave Lin writes waiting
/// forever for acks the missing replica never sends.
pub fn install_hot_set_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
    entries: &[(u64, Vec<u8>)],
) -> io::Result<()> {
    let nodes = addrs.len();
    let seeds = entries
        .iter()
        .map(|(key, value)| Transition::seed(*key, value.clone(), nodes));
    flip_via(transport, addrs, seeds.collect(), Outcome::Installed)
}

/// One client connection to each of `addrs`, in order.
pub(crate) fn open_all(transport: &dyn Transport, addrs: &[SocketAddr]) -> io::Result<Vec<Conn>> {
    addrs
        .iter()
        .map(|&addr| Conn::open(transport, addr, &Frame::ClientHello))
        .collect()
}

/// Evicts keys from every node over the wire, one [`Transition::evict`] per
/// key in one [`Flip`]: when this returns, every evicted key's last write
/// is at its home.
pub fn evict_hot_set_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
    keys: &[u64],
) -> io::Result<()> {
    let evicts = keys.iter().map(|&key| Transition::evict(key, addrs.len()));
    flip_via(transport, addrs, evicts.collect(), Outcome::Evicted)
}

/// Runs `transitions` as one [`Flip`] over one connection per node, to the
/// first group that fails; it fails unless every key ends in `goal`.
fn flip_via(
    transport: &dyn Transport,
    addrs: &[SocketAddr],
    transitions: Vec<Transition>,
    goal: Outcome,
) -> io::Result<()> {
    let mut conns = open_all(transport, addrs)?;
    let ended = Flip::new(transitions)
        .until_failure()
        .run(|node, frame| conns[node].call(frame).ok());
    match ended.into_iter().find(|&(_, outcome)| outcome != goal) {
        None => Ok(()),
        Some((key, outcome)) => Err(io::Error::other(format!(
            "key {key} ended {outcome:?}; no key after its group moved"
        ))),
    }
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
