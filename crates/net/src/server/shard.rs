use super::*;

/// How often a shard books its live peer links' kernel segment counts
/// ([`Connection::tcp_segments`]); a closing connection books its last.
const TCP_CENSUS_EVERY: Duration = Duration::from_secs(1);

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

// ---------------------------------------------------------------------------
// The reactor shard: one event loop owning a subset of the node's sockets.
// ---------------------------------------------------------------------------

pub(super) const TOKEN_WAKER: u64 = 0;
pub(super) const TOKEN_LISTENER: u64 = 1;
/// The wheel token of a shard's pending-RPC deadline tick.
const TOKEN_RPC_SWEEP: u64 = 2;
const TOKEN_FIRST_CONN: u64 = 16;

/// What a connection is for, decided by its hello frame.
pub(super) enum Role {
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
        /// When the current credit stall began (metrics).
        stall_started: Option<Instant>,
        /// [`Connection::tcp_segments`] `(data, pure ACK)` as last booked.
        segments: (u64, u64),
    },
}

impl Role {
    pub(super) fn peer(peer: usize, link: &Arc<PeerLink>, resumed: bool) -> Role {
        Role::Peer {
            peer,
            link: Arc::clone(link),
            resumed,
            stall_started: None,
            segments: (0, 0),
        }
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
pub(super) struct ConnState {
    stream: Box<dyn Connection>,
    decoder: FrameDecoder,
    writebuf: WriteBuf,
    interest: Interest,
    role: Role,
    /// The peer closed its half (read returned 0).
    eof: bool,
    /// A fatal I/O or protocol error occurred; close on next advance.
    dead: bool,
    /// A client connection's bounce-retry tick is armed; dedupes arming.
    /// (A peer connection's one wheel entry, the [`CREDIT_RETURN_TICK`],
    /// is deduped by its link's [`Peer::arm`].)
    tick_armed: bool,
}

impl ConnState {
    pub(super) fn new(stream: Box<dyn Connection>, role: Role) -> ConnState {
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
pub(super) struct ShardHost<'a> {
    inner: &'a ServerInner,
    shard: usize,
    token: u64,
    /// The clock reading of the [`Shard::step_client`] pass under way.
    now: Instant,
    /// An RPC was issued: its deadline needs the shard's sweep tick.
    issued: bool,
}

impl OpsHost for ShardHost<'_> {
    fn node(&self) -> &CcNode {
        &self.inner.node
    }

    fn write_tag(&mut self, _value: &[u8]) -> u64 {
        self.inner.tags.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers the RPC in the pending table and queues it on `home`'s
    /// crash-surviving link; it resolves exactly once — its response, a
    /// failure, or the issuing shard's deadline sweep.
    fn issue_rpc(&mut self, home: usize, request: Frame) -> Option<u64> {
        let waiter = RpcWaiter {
            shard: self.shard,
            token: self.token,
        };
        let deadline = self.now + self.inner.rpc_retry;
        let inner = self.inner;
        let (corr, frame) = inner.with_rpcs(|table| table.issue(home, request, waiter, deadline));
        if !inner.enqueue(home, LinkItem::Rpc(frame)) {
            inner.with_rpcs(|table| table.resolve(corr));
            return None;
        }
        self.issued = true;
        Some(corr)
    }

    fn ship(&mut self, outgoing: Vec<Outgoing>, trace: Option<u64>) {
        let fanout = Instant::now();
        self.inner.ship(outgoing, trace);
        self.inner
            .metrics
            .record_fanout_ns(fanout.elapsed().as_nanos() as u64);
    }

    fn on_commit(&mut self, key: u64, ts: Timestamp) {
        let owner = Arc::clone(self.inner.shard(self.shard));
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
            Note::WriteBack => metrics.record_writeback(),
            Note::Evicted(key) => {
                if let Some(churn) = &self.inner.churn {
                    churn.installed.lock().remove(&key);
                }
            }
        }
    }

    fn trace(&mut self, trace: Option<u64>, kind: EventKind, key: u64, peer: u8) {
        self.inner
            .trace_event(trace, self.shard as u8, kind, key, peer);
    }
}

/// [`PeerHost`] for one peer link on a reactor shard: what its items reach
/// beyond the node goes through `inner`, and trace events land in the
/// shard's lane.
struct PeerServe<'a> {
    inner: &'a ServerInner,
    lane: u8,
    from: usize,
}

impl PeerHost for PeerServe<'_> {
    fn node(&self) -> &CcNode {
        &self.inner.node
    }

    fn received(&mut self, msg: &ProtocolMsg, trace: Option<u64>) {
        self.inner.metrics.record_protocol_in(1);
        let kind = match msg {
            // The ack landing at the blocked writer is its own span point:
            // the per-peer gap between the invalidation send and this
            // arrival is the ack wait.
            ProtocolMsg::Ack { .. } => EventKind::AckRecv,
            _ => EventKind::ProtocolRecv,
        };
        (self.inner).trace_event(trace, self.lane, kind, msg.key(), self.from as u8);
    }

    fn ship(&mut self, outgoing: Vec<Outgoing>, trace: Option<u64>) {
        self.inner.ship(outgoing, trace);
    }

    /// Served right here (every handler is a lock-protected state update).
    /// A malformed inner frame answers `Error` instead of erroring the
    /// whole link: the link carries unrelated traffic.
    fn serve_home(&mut self, _corr: u64, request: Frame) -> Frame {
        let served = serve_rpc_frame(self.inner, self.lane, request, serve_home_frame);
        served.unwrap_or_else(|e| Frame::Error {
            message: e.to_string(),
        })
    }

    /// A failed ship (link long-dead, park overflowed) drops the answer;
    /// the requester's deadline sweep picks up the pieces.
    fn answer(&mut self, response: Frame) {
        let _ = self.inner.enqueue(self.from, LinkItem::Rpc(response));
    }

    fn resolve(&mut self, corr: u64, response: Frame) {
        self.inner.resolve_rpc(corr, response);
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

pub(super) struct Shard {
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
    /// The pending-RPC deadline tick ([`TOKEN_RPC_SWEEP`]) is armed.
    rpc_sweep_armed: bool,
    /// Shared read scratch: one hot buffer for every connection's socket
    /// reads, instead of a cold 64 KB tail per connection per read.
    scratch: Vec<u8>,
    /// Shared response scratch: what one client connection's op machine
    /// answered in one pass, on its way into that connection's write
    /// buffer.
    responses: Vec<Frame>,
    /// Shared peer scratch: the items one peer message carried, taken in
    /// by the link's end and on their way to [`serve_peer`].
    items: Vec<Frame>,
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
    pub(super) fn new(
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
            rpc_sweep_armed: false,
            scratch: vec![0u8; reactor::READ_CHUNK],
            responses: Vec::new(),
            items: Vec::new(),
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
    pub(super) fn run(mut self) {
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
            for Token(token) in self.wheel.expired() {
                if token == TOKEN_RPC_SWEEP {
                    self.sweep_rpcs();
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                match &mut conn.role {
                    Role::Peer { link, .. } => link.peer.lock().tick(),
                    _ => conn.tick_armed = false,
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

    /// Arms the pending-RPC deadline tick `after` from now, unless it is
    /// armed already — at a deadline no later than any this shard issued
    /// since (every RPC waits the same budget).
    fn arm_rpc_sweep(&mut self, after: Duration) {
        if !self.rpc_sweep_armed {
            self.rpc_sweep_armed = true;
            self.wheel.schedule(Token(TOKEN_RPC_SWEEP), after);
        }
    }

    /// The deadline tick fired: fails every pending RPC past its deadline
    /// (whichever shard issued it; [`node_ops::expire`]), withdraws those
    /// still queued on their links, and, while any is left, arms again at
    /// the nearest. An empty table arms nothing.
    fn sweep_rpcs(&mut self) {
        self.rpc_sweep_armed = false;
        let now = Instant::now();
        let inner = &self.inner;
        let (expired, queued, next) = inner.with_rpcs(|table| node_ops::expire(table, now));
        // The table's lock is let go: the handshake and the pump take a
        // link's lock first, then the table's.
        let withdraw = |&(peer, corr): &(usize, u64)| {
            node_ops::withdraw(&mut inner.link(peer).peer.lock(), corr)
        };
        if queued.iter().filter(|queued| withdraw(queued)).count() > 0 {
            inner.refresh_parked();
        }
        for (waiter, event) in expired {
            self.inner.wake_rpc(waiter, event);
        }
        if let Some(next) = next {
            self.arm_rpc_sweep(next.saturating_duration_since(now));
        }
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
                ShardMsg::Adopt(conn) => {
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
                Ok(Some(hello)) => {
                    let Some(from) = node_ops::hello_from(&hello) else {
                        return StepOutcome::Close;
                    };
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
                    if !self.accept_peer_hello(token, conn, from, hello) {
                        return StepOutcome::Close;
                    }
                }
                Err(_) => return StepOutcome::Close,
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

    /// Serves node `from`'s [`Frame::PeerHello`] on the shard that owns the
    /// link to it: runs this node's side of the handshake
    /// ([`node_ops::answer`]), closes the link's older connection (its
    /// buffered frames must not advance the processed counter after it is
    /// reported) and answers with its report.
    fn accept_peer_hello(
        &mut self,
        token: u64,
        conn: &mut ConnState,
        from: usize,
        hello: Frame,
    ) -> bool {
        let inner = Arc::clone(&self.inner);
        // A hello from this node itself, or from no node at all.
        let Some(link) = inner.peer_links.get(from).and_then(Option::as_ref) else {
            return false;
        };
        let (node, gen) = (&inner.node, inner.gen);
        let answered = inner.handshake(from, |end, rpcs| {
            node_ops::answer(end, rpcs, node, gen, hello)
        });
        let Ok(ack) = answered else {
            return false;
        };
        let stale = (self.conns.iter())
            .find(|(_, c)| matches!(c.role, Role::Peer { peer, .. } if peer == from))
            .map(|(stale, _)| *stale);
        if let Some((stale, old)) = stale.and_then(|stale| self.conns.remove_entry(&stale)) {
            self.close(stale, *old);
        }
        encode_frame_into(conn.writebuf.writer(), &ack);
        if conn.writebuf.flush_to(&mut conn.stream).is_err() {
            return false;
        }
        conn.role = Role::peer(from, link, false);
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
            issued: false,
        };
        let step = ops.run(&mut host, now, &mut self.responses);
        if host.issued {
            self.arm_rpc_sweep(self.inner.rpc_retry);
        }
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

    /// The inbound half of one peer link: the link's end takes in what
    /// the peer sent, one lock per message, and [`serve_peer`] serves the
    /// items it counted — first, on an accepted connection, the
    /// [`Frame::PeerResume`] aligns the processed count and completes the
    /// handshake. This link is pumped last in this very lap: its credit
    /// policy decides when the count goes back.
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
        let (lane, from) = (self.id as u8, *peer);
        loop {
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => return true,
            };
            if !*resumed {
                if node_ops::take_resume(&mut link.peer.lock(), frame).is_err() {
                    return true;
                }
                *resumed = true;
                continue;
            }
            // Serving enqueues on links, this one included: the lock is
            // let go first.
            let received = link.peer.lock().receive(frame, &mut self.items);
            let inner = &self.inner;
            for item in self.items.drain(..) {
                serve_peer(&mut PeerServe { inner, lane, from }, item);
            }
            if received.is_err() {
                return true;
            }
        }
        conn.eof
    }

    /// The outbound half of one peer link: [`node_ops::pump`] packs what is
    /// queued (batches of §6.3's amortisation under §6.4's credit window,
    /// the processed count riding them) until the queue is empty, the
    /// window closes or the socket is behind. Driven by readiness: a credit
    /// stall arms nothing, the lap that reads the peer's `Credit` pumps the
    /// link again; a debt left unannounced arms the link's
    /// [`CREDIT_RETURN_TICK`].
    ///
    /// Every item moves from the outbox's queue into its retained tail as
    /// it is packed: the socket may lose it (severed link, crashed peer),
    /// the link does not — the redial handshake replays whatever the peer
    /// did not confirm processing.
    fn pump_peer(&mut self, token: u64, conn: &mut ConnState) -> bool {
        // On a datagram fabric one pack should ride one datagram: cap the
        // byte budget at the transport's datagram payload size.
        let byte_cap = (conn.stream.datagram_cap())
            .map_or(PEER_BATCH_MAX_BYTES, |cap| cap.min(PEER_BATCH_MAX_BYTES));
        let Role::Peer {
            peer,
            link,
            resumed,
            stall_started,
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
        // Teardown drains with the window wide open: nothing reads the
        // peer's confirmations any more.
        let window = if inner.running.load(Ordering::SeqCst) {
            inner.flow.credit_window
        } else {
            u64::MAX
        };
        if let Some(started) = *stall_started {
            if let Some(head) = link.peer.lock().outbox.sendable(window) {
                let stalled_ns = started.elapsed().as_nanos() as u64;
                inner.metrics.record_credit_stall_ns(stalled_ns);
                // If the message that waited out the stall at the queue
                // front is traced, pin the stall onto its timeline (the
                // `key` field carries the ns).
                let (trace, lane) = (head.trace(), self.id as u8);
                inner.trace_event(trace, lane, EventKind::CreditStall, stalled_ns, peer as u8);
                *stall_started = None;
            }
        }
        let packed = |corr, seq| inner.rpcs.lock().packed(corr, seq);
        let sent = |pack: Pack, _: &mut Vec<u8>| {
            if pack.items > 0 {
                inner.metrics.record_adaptive_batch(pack.items);
            }
            if pack.credit.is_some() {
                inner.metrics.record_credit_frame(pack.items > 0);
            }
            // Only what travels as a coalesced batch: the batch-size
            // percentiles must not drown in ones that were never batched.
            if pack.batched {
                inner.metrics.record_batch(pack.items);
            }
        };
        // Backpressure: no pack while the socket is behind; the
        // writability event resumes the pump.
        let (out, end) = (conn.writebuf.writer(), &mut &link.peer);
        let (arm, held) = node_ops::pump(end, window, byte_cap, HIGH_WATER, out, packed, sent);
        if held > 0 {
            stall_started.get_or_insert_with(Instant::now);
        }
        if !conn.writebuf.is_empty() && conn.writebuf.flush_to(&mut conn.stream).is_err() {
            return true;
        }
        if arm {
            self.wheel.schedule(Token(token), CREDIT_RETURN_TICK);
        }
        false
    }

    /// Keeps epoll interest in sync with what the connection can usefully
    /// be told about: writable only while output is pending, readable
    /// until end of file and unless backpressure says stop. A socket at end
    /// of file stays readable for good; a shard that kept asking would be
    /// woken by it every lap while the connection waits for anything else.
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
            readable: readable && !conn.eof,
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

    /// Shutdown path: drain every peer link with its window wide open
    /// (blocking writes — the event loop is over), then drop all sockets.
    fn teardown(&mut self) {
        self.now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if matches!(conn.role, Role::Peer { .. }) {
                let _ = conn.stream.set_nonblocking(false);
                // `running` is false, so the pump ignores the window; loop
                // until the queue is empty (a burst can arrive between
                // pumps from a shard finishing up).
                loop {
                    if self.pump_peer(token, &mut conn) {
                        break; // link died mid-drain; nothing more to do
                    }
                    let Role::Peer { link, resumed, .. } = &conn.role else {
                        unreachable!("role checked above");
                    };
                    if !*resumed || link.peer.lock().outbox.queued().len() == 0 {
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
