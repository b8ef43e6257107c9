//! The transport seam: how ccKVS endpoints move framed bytes.
//!
//! The paper's rack runs its coherence protocol over two-sided RDMA UD —
//! *unreliable datagrams* — while everything above the socket in this
//! reproduction (per-connection state machines, credit-gated peer links,
//! the PR 5 replay machinery) only ever assumed an ordered byte stream
//! with readiness events. This module makes that seam explicit:
//!
//! * [`Transport`] — dial and listen; produces [`Connection`]s and a
//!   [`TransportListener`].
//! * [`Connection`] — an ordered byte stream ([`Read`] + [`Write`]) with
//!   the readiness hooks the epoll reactor needs: a raw fd to register,
//!   blocking-mode control for the boot-time peer handshake, and a
//!   [`Connection::datagram_cap`] hint so batching layers keep one
//!   sub-batch within one datagram.
//! * [`TcpTransport`] — the original path, byte-for-byte: `SO_REUSEADDR`
//!   listener, `TCP_NODELAY` connections.
//! * [`UdpTransport`] — the paper-shaped fabric: every connection is a
//!   connected UDP socket pair whose datagrams carry the
//!   [`crate::envelope`] machine's sequence numbers and cumulative acks,
//!   so *every* connection (client, peer, RPC) survives loss. A
//!   [`FaultPlan`] injects deterministic drop/duplicate/reorder faults for
//!   the lossy-rack e2es.
//!
//! # UDP handshake and pacing
//!
//! A connection starts with a nonce-matched `SYN`/`SYN-ACK` (byte layouts:
//! `docs/WIRE.md`, "UDP datagram envelope"). Payloads are capped at
//! [`MAX_DATAGRAM_BYTES`], which [`Connection::datagram_cap`] reports so
//! one peer batch rides one datagram. The socket paths feed each
//! connection's envelope under one lock beside its fault plan, and one
//! process-wide pacer thread, spawned on first UDP use, ticks them all.
//!
//! Accepting is connection-per-socket: the listener socket only ever
//! sees `SYN`s; each accepted connection gets a fresh connected socket
//! (so ICMP errors and epoll readiness behave per-connection, exactly
//! like TCP fds), and the `SYN-ACK` is sent *from* that socket so the
//! dialer learns the connection address from its source.

use crate::envelope::{le_u64, Envelope, Sent, Sink, DG_CTRL_LEN, DG_DATA, DG_DATA_HDR, DG_FIN};
use crate::wire::MAX_DATAGRAM_BYTES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Which wire fabric a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// Kernel TCP streams (the original serving-layer path).
    #[default]
    Tcp,
    /// Unreliable datagrams with userspace recovery (the paper's fabric
    /// shape).
    Udp,
}

impl TransportKind {
    /// Stable label (`"tcp"` / `"udp"`): the tokens the CLI flags and
    /// topology files use.
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Udp => "udp",
        }
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcp" => Ok(TransportKind::Tcp),
            "udp" => Ok(TransportKind::Udp),
            other => Err(format!("unknown transport `{other}` (tcp|udp)")),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic datagram fault injection for the lossy-rack e2es:
/// each percentage is rolled independently per datagram *send* (including
/// retransmissions, so recovery itself is exercised under loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// Percent of datagrams silently dropped.
    pub drop_pct: u8,
    /// Percent of datagrams sent twice.
    pub dup_pct: u8,
    /// Percent of datagrams held back and released after the next send
    /// (pairwise reordering; an idle connection's held datagram is
    /// released by the pacer).
    pub reorder_pct: u8,
    /// RNG seed; each connection derives its own stream from it.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan dropping, duplicating and reordering `pct`% of datagrams.
    pub fn uniform(pct: u8, seed: u64) -> FaultPlan {
        FaultPlan {
            drop_pct: pct,
            dup_pct: pct,
            reorder_pct: pct,
            seed,
        }
    }

    fn is_noop(&self) -> bool {
        self.drop_pct == 0 && self.dup_pct == 0 && self.reorder_pct == 0
    }
}

/// Transport selection plus its knobs — the value carried by
/// `NodeServerConfig`/`RackConfig`/`ClientBuilder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportConfig {
    /// The fabric.
    pub kind: TransportKind,
    /// Datagram fault injection (UDP only; ignored by TCP).
    pub faults: Option<FaultPlan>,
}

impl TransportConfig {
    /// Plain TCP (the default).
    pub fn tcp() -> TransportConfig {
        TransportConfig::default()
    }

    /// UDP datagrams with loss recovery, no injected faults.
    pub fn udp() -> TransportConfig {
        TransportConfig {
            kind: TransportKind::Udp,
            faults: None,
        }
    }

    /// UDP with an injected [`FaultPlan`].
    pub fn udp_with_faults(faults: FaultPlan) -> TransportConfig {
        TransportConfig {
            kind: TransportKind::Udp,
            faults: Some(faults),
        }
    }

    /// Instantiates the transport this config describes.
    pub fn build(&self) -> Arc<dyn Transport> {
        match self.kind {
            TransportKind::Tcp => Arc::new(TcpTransport),
            TransportKind::Udp => Arc::new(UdpTransport {
                faults: self.faults.filter(|f| !f.is_noop()),
                stats: Arc::default(),
            }),
        }
    }
}

/// An established, ordered, reliable byte stream over some fabric.
///
/// The serving layer drives connections exactly the way it drove
/// `TcpStream`s: nonblocking reads/writes from shard event loops (with
/// the raw fd registered for level-triggered readiness), and blocking
/// reads with a timeout during the boot-time peer handshake. `read`
/// returning `Ok(0)` means the peer closed; `WouldBlock` means starved.
/// `write` never returns `Ok(0)`.
pub trait Connection: Read + Write + Send + fmt::Debug {
    /// The fd to register with the reactor's poller for readiness.
    fn raw_fd(&self) -> RawFd;

    /// Switches between nonblocking (event-loop) and blocking
    /// (handshake/teardown) operation.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;

    /// Read timeout for blocking-mode reads.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;

    /// The remote address.
    fn peer_addr(&self) -> io::Result<SocketAddr>;

    /// A second handle to the same connection (for split reader/writer
    /// ownership in blocking clients).
    fn try_clone(&self) -> io::Result<Box<dyn Connection>>;

    /// `Some(cap)` when the fabric is datagram-based and writers should
    /// keep one logical batch within `cap` bytes so it rides a single
    /// datagram. `None` for streams.
    fn datagram_cap(&self) -> Option<usize> {
        None
    }

    /// The kernel's count of TCP segments sent on this connection, `(all,
    /// carrying data)`; `None` on other fabrics. Ask from the owning thread.
    fn tcp_segments(&self) -> Option<(u64, u64)> {
        None
    }
}

/// A bound, nonblocking listener producing [`Connection`]s.
pub trait TransportListener: Send {
    /// Accepts one ready connection; `Ok(None)` when none is pending.
    /// Returned connections are nonblocking and tuned for event-loop use.
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>>;

    /// The bound address (with the ephemeral port resolved).
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// The fd to register with the poller for accept readiness.
    fn raw_fd(&self) -> RawFd;
}

/// A connection fabric: how to listen and how to dial.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Which fabric this is.
    fn kind(&self) -> TransportKind;

    /// Binds a nonblocking listener.
    fn listen(&self, addr: SocketAddr) -> io::Result<Box<dyn TransportListener>>;

    /// Dials `addr`, completing within `timeout`. The returned connection
    /// is *blocking* (handshakes run on it directly); callers switch it
    /// to nonblocking before handing it to an event loop.
    fn dial(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Connection>>;

    /// The datagram census of this transport instance; `None` on fabrics
    /// that send no datagrams of their own.
    fn udp_stats(&self) -> Option<Arc<UdpStats>> {
        None
    }
}

// ---------------------------------------------------------------------------
// TCP: the original path, unchanged behavior behind the trait.
// ---------------------------------------------------------------------------

/// Kernel TCP streams — the serving layer's original fabric.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn listen(&self, addr: SocketAddr) -> io::Result<Box<dyn TransportListener>> {
        let listener = reactor::listen_reuseaddr(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Box::new(TcpListenerAdapter { listener }))
    }

    fn dial(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Connection>> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Box::new(TcpConnection { stream }))
    }
}

struct TcpListenerAdapter {
    listener: std::net::TcpListener,
}

impl TransportListener for TcpListenerAdapter {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                // A conn that refuses tuning is dropped, as before: it
                // would otherwise serve with latency-hostile Nagle.
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    return Ok(None);
                }
                Ok(Some(Box::new(TcpConnection { stream })))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    fn raw_fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
}

/// A [`Connection`] over one `TcpStream`.
#[derive(Debug)]
pub struct TcpConnection {
    stream: TcpStream,
}

impl Read for TcpConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Connection for TcpConnection {
    fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.stream.peer_addr()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Connection>> {
        Ok(Box::new(TcpConnection {
            stream: self.stream.try_clone()?,
        }))
    }

    fn tcp_segments(&self) -> Option<(u64, u64)> {
        reactor::tcp_segments_out(self.stream.as_raw_fd()).ok()
    }
}

// ---------------------------------------------------------------------------
// UDP: the envelope machine behind a connected socket, ticked by a pacer.
// ---------------------------------------------------------------------------

/// Datagram type tags (first byte of every datagram).
pub const DG_SYN: u8 = 1;
/// Handshake answer, sent from the accepted connection's own socket.
pub const DG_SYNACK: u8 = 2;

/// Longest the pacer thread sleeps between passes, and so the longest an
/// owed ack waits for one: a pass wakes sooner for a retransmission due.
const UDP_PACER_TICK: Duration = Duration::from_millis(5);
/// How long a dropped connection lingers to retransmit its `FIN` and ack
/// the peer's.
const UDP_LINGER: Duration = Duration::from_secs(2);
/// Dialer SYN retry cadence.
const UDP_DIAL_RETRY: Duration = Duration::from_millis(100);
/// How long the listener remembers a handshake so duplicate `SYN`s get
/// the same `SYN-ACK` instead of a second connection.
const UDP_HANDSHAKE_MEMORY: Duration = Duration::from_secs(10);

/// Datagram census of one [`UdpTransport`] instance — every listener and
/// connection it mints shares it — counted where a datagram is handed to
/// the socket (before any injected fault).
#[derive(Debug, Default)]
pub struct UdpStats {
    /// `DATA`/`FIN` datagrams sent for the first time.
    pub data_sent: AtomicU64,
    /// Stand-alone `ACK` datagrams sent.
    pub acks_sent: AtomicU64,
    /// Owed acks that rode a `DATA`/`FIN` header instead.
    pub acks_piggybacked: AtomicU64,
    /// `DATA`/`FIN` datagrams sent again after their RTO expired.
    pub retransmits: AtomicU64,
}

impl UdpStats {
    /// Every counter's value under its `/metrics` `kind` label, in field order.
    pub fn snapshot(&self) -> [(&'static str, u64); 4] {
        [
            ("data", &self.data_sent),
            ("ack", &self.acks_sent),
            ("ack_piggybacked", &self.acks_piggybacked),
            ("retransmit", &self.retransmits),
        ]
        .map(|(kind, counter)| (kind, counter.load(Ordering::Relaxed)))
    }

    /// Books one datagram the envelope hands to the socket.
    pub(crate) fn count(&self, sent: Sent) {
        let counter = match sent {
            Sent::Data(ack_rode) => {
                if ack_rode {
                    self.acks_piggybacked.fetch_add(1, Ordering::Relaxed);
                }
                &self.data_sent
            }
            Sent::Ack => &self.acks_sent,
            Sent::Retransmit => &self.retransmits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Unreliable datagrams with userspace loss/reorder recovery.
#[derive(Debug, Clone, Default)]
pub struct UdpTransport {
    /// Injected datagram faults, applied to every connection this
    /// transport creates (both sides of loopback tests usually share one
    /// plan; each connection derives an independent RNG stream).
    pub faults: Option<FaultPlan>,
    stats: Arc<UdpStats>,
}

impl Transport for UdpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Udp
    }

    fn listen(&self, addr: SocketAddr) -> io::Result<Box<dyn TransportListener>> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        Ok(Box::new(UdpListener {
            sock,
            faults: self.faults,
            stats: Arc::clone(&self.stats),
            pending: HashMap::new(),
        }))
    }

    fn udp_stats(&self) -> Option<Arc<UdpStats>> {
        Some(Arc::clone(&self.stats))
    }

    fn dial(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Connection>> {
        let bind_addr: SocketAddr = if addr.is_ipv4() {
            "0.0.0.0:0".parse().expect("static addr")
        } else {
            "[::]:0".parse().expect("static addr")
        };
        let sock = UdpSocket::bind(bind_addr)?;
        sock.set_read_timeout(Some(UDP_DIAL_RETRY))?;
        let nonce: u64 = rand::thread_rng().gen();
        let mut syn = [0u8; DG_CTRL_LEN];
        syn[0] = DG_SYN;
        syn[1..].copy_from_slice(&nonce.to_le_bytes());
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 64];
        // SYN → SYN-ACK, retrying on silence. The SYN-ACK's *source*
        // address is the fresh per-connection socket the listener bound;
        // connecting to it pins this socket pair together (and lets ICMP
        // errors from a dead peer surface as recv errors, like RSTs).
        sock.send_to(&syn, addr)?;
        loop {
            match sock.recv_from(&mut buf) {
                Ok((n, from))
                    if n >= DG_CTRL_LEN
                        && buf[0] == DG_SYNACK
                        && buf[1..DG_CTRL_LEN] == nonce.to_le_bytes() =>
                {
                    sock.connect(from)?;
                    sock.set_read_timeout(None)?;
                    return Ok(Box::new(UdpConnection::establish(
                        sock,
                        conn_faults(self.faults, nonce),
                        Arc::clone(&self.stats),
                    )));
                }
                Ok(_) => {} // stray datagram; keep waiting
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("udp dial to {addr} timed out"),
                        ));
                    }
                    sock.send_to(&syn, addr)?;
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    // ICMP port-unreachable from a previous SYN: the
                    // listener isn't up (yet). Keep retrying within the
                    // budget — boot-time peer dials race node starts.
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(UDP_DIAL_RETRY);
                    sock.send_to(&syn, addr)?;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Derives one connection's fault stream from the transport plan.
fn conn_faults(plan: Option<FaultPlan>, nonce: u64) -> Option<Faults> {
    plan.filter(|p| !p.is_noop()).map(|plan| Faults {
        rng: StdRng::seed_from_u64(plan.seed ^ nonce),
        plan,
        holdback: None,
    })
}

struct UdpListener {
    sock: UdpSocket,
    faults: Option<FaultPlan>,
    stats: Arc<UdpStats>,
    /// Recently answered handshakes: a duplicate `SYN` (ours got a lost
    /// `SYN-ACK`, or the dialer retried early) re-sends the same
    /// `SYN-ACK` from the same connection socket instead of minting a
    /// second connection.
    pending: HashMap<(SocketAddr, u64), (UdpSocket, Instant)>,
}

impl TransportListener for UdpListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        let mut buf = [0u8; 64];
        loop {
            match self.sock.recv_from(&mut buf) {
                Ok((n, from)) => {
                    if n < DG_CTRL_LEN || buf[0] != DG_SYN {
                        continue; // the listener socket only speaks SYN
                    }
                    let nonce = le_u64(&buf[1..]);
                    let mut synack = [0u8; DG_CTRL_LEN];
                    synack[0] = DG_SYNACK;
                    synack[1..].copy_from_slice(&nonce.to_le_bytes());
                    if let Some((conn_sock, _)) = self.pending.get(&(from, nonce)) {
                        let _ = conn_sock.send(&synack);
                        continue;
                    }
                    let local_ip = self.sock.local_addr()?.ip();
                    let conn_sock = UdpSocket::bind(SocketAddr::new(local_ip, 0))?;
                    conn_sock.connect(from)?;
                    conn_sock.set_nonblocking(true)?;
                    let _ = conn_sock.send(&synack);
                    let now = Instant::now();
                    self.pending.retain(|_, (_, expires)| *expires > now);
                    self.pending.insert(
                        (from, nonce),
                        (conn_sock.try_clone()?, now + UDP_HANDSHAKE_MEMORY),
                    );
                    return Ok(Some(Box::new(UdpConnection::establish(
                        conn_sock,
                        conn_faults(self.faults, nonce),
                        Arc::clone(&self.stats),
                    ))));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    fn raw_fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }
}

/// Per-connection fault stream.
struct Faults {
    plan: FaultPlan,
    rng: StdRng,
    /// Reorder holdback slot: one datagram waiting to be released after
    /// the next send (or by the pacer when idle).
    holdback: Option<Vec<u8>>,
}

impl Faults {
    fn roll(&mut self, pct: u8) -> bool {
        pct > 0 && self.rng.gen_range(0..100u8) < pct
    }
}

/// The shared core of one UDP connection: the connected socket, and under
/// one lock the envelope machine and the fault plan it sends through.
/// Handles (`UdpConnection`) and the pacer share it.
struct UdpIo {
    sock: UdpSocket,
    state: Mutex<(Envelope, Option<Faults>)>,
    /// The minting transport's census.
    stats: Arc<UdpStats>,
    /// Live [`UdpConnection`] handles. Not `Arc::strong_count`: the pacer
    /// upgrades its weak refs for the length of a tick, and a handle
    /// dropped meanwhile must still see itself as the last one.
    handles: AtomicUsize,
}

fn send_raw(sock: &UdpSocket, bytes: &[u8]) {
    // Best-effort: a full socket buffer loses the datagram exactly like
    // the network would, and the retransmission timer recovers it.
    let _ = sock.send(bytes);
}

impl UdpIo {
    /// The envelope's sink: counts one datagram, then sends it through the
    /// connection's fault plan (drop, duplicate, pairwise reorder via the
    /// holdback slot).
    fn emit(&self, faults: &mut Option<Faults>, sent: Sent, bytes: &[u8]) {
        self.stats.count(sent);
        let Some(faults) = faults else {
            send_raw(&self.sock, bytes);
            return;
        };
        if faults.roll(faults.plan.drop_pct) {
            return;
        }
        if faults.roll(faults.plan.reorder_pct) && faults.holdback.is_none() {
            faults.holdback = Some(bytes.to_vec());
            return;
        }
        let dup = faults.roll(faults.plan.dup_pct);
        send_raw(&self.sock, bytes);
        if dup {
            send_raw(&self.sock, bytes);
        }
        if let Some(held) = faults.holdback.take() {
            send_raw(&self.sock, &held);
        }
    }

    /// Runs `f` on the envelope under the lock, with [`UdpIo::emit`] as
    /// its sink.
    fn with_env<R>(&self, f: impl FnOnce(&mut Envelope, &mut Sink<'_>) -> R) -> R {
        let mut st = self.state.lock().expect("udp state");
        let (env, faults) = &mut *st;
        f(env, &mut |sent, bytes| self.emit(faults, sent, bytes))
    }

    /// One pacer pass, under one lock: release a stale holdback, take in
    /// what a lingering connection's socket holds (into `linger`), tick.
    /// The next deadline: `now` while a datagram is held back, `None` once
    /// nothing is retained or the connection is broken.
    fn tick(&self, now: Instant, linger: Option<&mut [u8]>) -> Option<Instant> {
        let mut st = self.state.lock().ok()?;
        let (env, faults) = &mut *st;
        if env.broken.is_some() {
            return None;
        }
        if let Some(held) = faults.as_mut().and_then(|f| f.holdback.take()) {
            send_raw(&self.sock, &held);
        }
        let mut out = |sent, bytes: &[u8]| self.emit(faults, sent, bytes);
        if let Some(buf) = linger {
            while let Ok(n) = self.sock.recv(buf) {
                env.take_in(&buf[..n], now, &mut out);
            }
        }
        let due = env.tick(now, &mut out);
        if faults.as_ref().is_some_and(|f| f.holdback.is_some()) {
            return Some(now);
        }
        due
    }
}

/// The process-wide retransmission pacer: one lazily spawned thread
/// ticking every live UDP connection. TCP-only deployments never spawn
/// it, keeping their exact thread census.
struct Pacer {
    conns: Mutex<Vec<Weak<UdpIo>>>,
    /// Dropped connections lingering until their `FIN` is acked or the
    /// deadline passes.
    closing: Mutex<Vec<(Arc<UdpIo>, Instant)>>,
}

impl Pacer {
    /// One pass: each open connection ticks, each lingering one drains its
    /// socket into `buf` and ticks. Returns the earliest deadline.
    fn pass(&self, now: Instant, buf: &mut [u8]) -> Option<Instant> {
        let open: Vec<Arc<UdpIo>> = {
            let mut conns = self.conns.lock().expect("pacer registry");
            conns.retain(|w| w.strong_count() > 0);
            conns.iter().filter_map(Weak::upgrade).collect()
        };
        let mut next = open
            .iter()
            .filter(|io| io.handles.load(Ordering::Acquire) > 0)
            .filter_map(|io| io.tick(now, None))
            .min();
        let mut closing = std::mem::take(&mut *self.closing.lock().expect("pacer closing"));
        closing.retain(|(io, until)| {
            let due = (now < *until)
                .then(|| io.tick(now, Some(&mut *buf)))
                .flatten();
            next = next.into_iter().chain(due).min();
            due.is_some()
        });
        self.closing.lock().expect("pacer closing").extend(closing);
        next
    }
}

fn pacer() -> &'static Pacer {
    static PACER: OnceLock<&'static Pacer> = OnceLock::new();
    PACER.get_or_init(|| {
        let pacer: &'static Pacer = Box::leak(Box::new(Pacer {
            conns: Mutex::new(Vec::new()),
            closing: Mutex::new(Vec::new()),
        }));
        std::thread::Builder::new()
            .name("cckvs-udp-pacer".to_string())
            .spawn(move || {
                let mut buf = vec![0u8; MAX_DATAGRAM_BYTES + DG_DATA_HDR];
                let mut sleep_for = UDP_PACER_TICK;
                loop {
                    std::thread::sleep(sleep_for);
                    // Sleeping shorter than the reactor's fine timer
                    // resolution would only spin.
                    sleep_for = pacer
                        .pass(Instant::now(), &mut buf)
                        .map_or(UDP_PACER_TICK, |due| {
                            due.saturating_duration_since(Instant::now())
                        })
                        .clamp(reactor::FINE_RESOLUTION, UDP_PACER_TICK);
                }
            })
            .expect("spawn udp pacer");
        pacer
    })
}

/// One handle to a UDP connection. Cloned handles (reader/writer splits)
/// share the same `UdpIo`; the last handle to drop sends the `FIN` and
/// parks the core with the pacer until it is acknowledged.
pub struct UdpConnection {
    io: Arc<UdpIo>,
    /// Receive scratch, sized for the largest datagram we ever send.
    scratch: Vec<u8>,
}

impl fmt::Debug for UdpConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sock = &self.io.sock;
        f.debug_struct("UdpConnection").field("sock", sock).finish()
    }
}

impl UdpConnection {
    fn establish(sock: UdpSocket, faults: Option<Faults>, stats: Arc<UdpStats>) -> UdpConnection {
        let io = Arc::new(UdpIo {
            sock,
            stats,
            state: Mutex::new((Envelope::new(Instant::now()), faults)),
            handles: AtomicUsize::new(1),
        });
        let mut conns = pacer().conns.lock().expect("pacer registry");
        conns.push(Arc::downgrade(&io));
        UdpConnection {
            io,
            scratch: vec![0u8; MAX_DATAGRAM_BYTES + DG_DATA_HDR],
        }
    }
}

impl Read for UdpConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if let Some(done) = self.io.state.lock().expect("udp state").0.read(buf) {
                return done;
            }
            // Not holding the state lock across the (possibly blocking)
            // recv: the pacer must stay free to retransmit meanwhile.
            match self.io.sock.recv(&mut self.scratch) {
                Ok(n) => {
                    let now = Instant::now();
                    let bytes = &self.scratch[..n];
                    self.io.with_env(|env, out| env.take_in(bytes, now, out));
                }
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionRefused
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    // ICMP unreachable: the peer process is gone. Mark
                    // broken so writes fail too, then surface it.
                    self.io.state.lock().expect("udp state").0.broken = Some(e.kind());
                    return Err(e);
                }
                // `WouldBlock`/`TimedOut` (starved) and anything else.
                Err(e) => return Err(e),
            }
        }
    }
}

impl Write for UdpConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        // Unbounded send-side retention: the write always succeeds and the
        // datagrams stay retained until cumulatively acked. Backpressure is
        // the serving layer's job (credit windows, request/response
        // pacing); a datagram socket is "always writable", so refusing
        // bytes here would only buy an EPOLLOUT busy-spin.
        self.io.with_env(|env, out| {
            let mut chunks = buf.chunks(MAX_DATAGRAM_BYTES);
            chunks.try_for_each(|chunk| env.send(DG_DATA, chunk, now, out))
        })?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Connection for UdpConnection {
    fn raw_fd(&self) -> RawFd {
        self.io.sock.as_raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.io.sock.set_nonblocking(nonblocking)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.io.sock.set_read_timeout(timeout)
    }

    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.io.sock.peer_addr()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Connection>> {
        self.io.handles.fetch_add(1, Ordering::AcqRel);
        Ok(Box::new(UdpConnection {
            io: Arc::clone(&self.io),
            scratch: vec![0u8; MAX_DATAGRAM_BYTES + DG_DATA_HDR],
        }))
    }

    fn datagram_cap(&self) -> Option<usize> {
        Some(MAX_DATAGRAM_BYTES)
    }
}

impl Drop for UdpConnection {
    fn drop(&mut self) {
        // Only the last handle closes the connection (reader/writer
        // splits share the core).
        if self.io.handles.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let now = Instant::now();
        // Broken or closed already: nothing to linger for.
        if self
            .io
            .with_env(|env, out| env.send(DG_FIN, &[], now, out))
            .is_err()
        {
            return;
        }
        // Linger nonblocking so the pacer can retransmit the FIN and ack
        // the peer's without ever blocking its tick.
        let _ = self.io.sock.set_nonblocking(true);
        let mut closing = pacer().closing.lock().expect("pacer closing");
        closing.push((Arc::clone(&self.io), now + UDP_LINGER));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(transport: &dyn Transport) -> (Box<dyn Connection>, Box<dyn Connection>) {
        let mut listener = transport
            .listen("127.0.0.1:0".parse().expect("static addr"))
            .expect("listen");
        let addr = listener.local_addr().expect("local addr");
        let dialer = std::thread::spawn({
            let transport: TransportConfig = match transport.kind() {
                TransportKind::Tcp => TransportConfig::tcp(),
                TransportKind::Udp => TransportConfig::udp(),
            };
            move || transport.build().dial(addr, Duration::from_secs(5))
        });
        let accepted = (0..5_000)
            .find_map(|_| {
                let conn = listener.accept().expect("accept");
                if conn.is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                conn
            })
            .expect("accept timed out");
        (dialer.join().expect("dial thread").expect("dial"), accepted)
    }

    #[test]
    fn transport_kind_parses_its_labels() {
        assert_eq!("tcp".parse(), Ok(TransportKind::Tcp));
        assert_eq!("udp".parse(), Ok(TransportKind::Udp));
        assert!(TransportKind::from_str("sctp").is_err());
        assert_eq!(TransportKind::Udp.label(), "udp");
    }

    #[test]
    fn tcp_roundtrip_through_the_trait() {
        let (mut client, mut server) = pair(&TcpTransport);
        server.set_nonblocking(false).expect("blocking");
        client.write_all(b"hello transport").expect("write");
        client.flush().expect("flush");
        let mut buf = [0u8; 15];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hello transport");
        assert!(client.datagram_cap().is_none());
    }

    #[test]
    fn udp_roundtrip_through_the_trait() {
        let (mut client, mut server) = pair(&UdpTransport::default());
        server.set_nonblocking(false).expect("blocking");
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(b"hello datagrams").expect("write");
        let mut buf = [0u8; 15];
        server.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hello datagrams");
        // And the other direction.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        server.write_all(b"pong").expect("write");
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"pong");
        assert_eq!(client.datagram_cap(), Some(MAX_DATAGRAM_BYTES));
    }

    #[test]
    fn udp_delivers_large_transfers_in_order_under_faults() {
        let transport = UdpTransport {
            faults: Some(FaultPlan::uniform(10, 42)),
            ..UdpTransport::default()
        };
        let (mut client, mut server) = pair(&transport);
        server.set_nonblocking(false).expect("blocking");
        server
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        // Spans many datagrams; every byte position is distinguishable.
        let payload: Vec<u8> = (0..(3 * MAX_DATAGRAM_BYTES + 1234))
            .map(|i| (i % 251) as u8)
            .collect();
        let sent = payload.clone();
        let writer = std::thread::spawn(move || {
            client.write_all(&payload).expect("write");
            client // keep the handle alive until the reader is done
        });
        let mut got = vec![0u8; sent.len()];
        server.read_exact(&mut got).expect("read");
        assert_eq!(got, sent, "loss/reorder/dup must be invisible above");
        drop(writer.join().expect("writer"));
    }

    #[test]
    fn udp_fin_surfaces_as_eof() {
        let (client, mut server) = pair(&UdpTransport::default());
        server.set_nonblocking(false).expect("blocking");
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        drop(client);
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).expect("read EOF");
        assert_eq!(n, 0, "peer close must read as EOF");
    }

    /// Senders retain without bound, so a receiver can hold a full reorder
    /// buffer behind one lost head; the head's retransmit must still be
    /// accepted or the connection can never drain.
    #[test]
    fn udp_lost_head_is_accepted_behind_a_full_reorder_buffer() {
        let cap = crate::link::REORDER_CAP as u64;
        let mut listener = UdpTransport::default()
            .listen("127.0.0.1:0".parse().expect("static addr"))
            .expect("listen");
        // A hand-driven peer: raw datagrams, no recovery of its own.
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut syn = [0u8; DG_CTRL_LEN];
        syn[0] = DG_SYN;
        peer.send_to(&syn, listener.local_addr().expect("local addr"))
            .expect("syn");
        let mut server = loop {
            if let Some(conn) = listener.accept().expect("accept") {
                break conn;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let (_, conn_addr) = peer.recv_from(&mut [0u8; 64]).expect("syn-ack");
        peer.connect(conn_addr).expect("connect");
        let data = |seq: u64| {
            let mut dgram = vec![DG_DATA];
            dgram.extend_from_slice(&seq.to_le_bytes());
            dgram.extend_from_slice(&0u64.to_le_bytes()); // cum: nothing to ack
            dgram.push(seq as u8);
            dgram
        };
        let mut got = Vec::new();
        let mut drain = |server: &mut Box<dyn Connection>| {
            let mut buf = [0u8; 512];
            loop {
                match server.read(&mut buf) {
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break got.len(),
                    Err(e) => panic!("read failed: {e}"),
                }
            }
        };
        for seq in 1..=cap {
            peer.send(&data(seq)).expect("send");
            if seq % 32 == 0 {
                // Keep the socket buffer shallow; nothing is deliverable.
                assert_eq!(drain(&mut server), 0);
            }
        }
        peer.send(&data(0)).expect("send head");
        assert_eq!(drain(&mut server) as u64, cap + 1, "head drains the buffer");
        assert!(got.iter().copied().eq((0..=cap).map(|seq| seq as u8)));
    }

    /// The pacer holds a strong ref to every live connection while it
    /// ticks; a handle dropped during a tick must still send its FIN.
    #[test]
    fn udp_close_during_a_pacer_tick_still_sends_fin() {
        let ours = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        ours.connect(peer.local_addr().expect("addr"))
            .expect("connect");
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let conn = UdpConnection::establish(ours, None, Arc::default());
        let mid_tick = Arc::clone(&conn.io);
        drop(conn);
        let mut buf = [0u8; 64];
        let n = peer.recv(&mut buf).expect("fin arrives");
        assert_eq!((n, buf[0]), (DG_DATA_HDR, DG_FIN));
        drop(mid_tick);
    }

    #[test]
    fn udp_nonblocking_read_starves_cleanly() {
        let (_client, mut server) = pair(&UdpTransport::default());
        // Accepted conns are nonblocking already; a read with nothing
        // pending must report WouldBlock, never spin or panic.
        let mut buf = [0u8; 8];
        let err = server.read(&mut buf).expect_err("starved");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn udp_dial_times_out_against_silence() {
        // A bound socket that never answers SYNs: dial must give up
        // within its budget instead of hanging.
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        let addr = sink.local_addr().expect("local addr");
        let err = UdpTransport::default()
            .dial(addr, Duration::from_millis(300))
            .expect_err("no listener answers");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
