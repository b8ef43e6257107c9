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
//!   connected UDP socket pair carrying sequence-numbered datagrams with
//!   cumulative acks, retransmission, reorder buffering and duplicate
//!   suppression — the same [`crate::link`] state machine the `PeerLink`
//!   replay layer drives at frame granularity, here driven at datagram
//!   granularity so *every* connection (client, peer, RPC) survives
//!   loss. A [`FaultPlan`] injects deterministic drop/duplicate/reorder
//!   faults for the lossy-rack e2es.
//!
//! # UDP framing and recovery
//!
//! Datagrams are typed: `SYN`/`SYN-ACK` (connection handshake, nonce
//! matched), `DATA {seq, cum, payload}`, `ACK {cum}`, `FIN {seq, cum}`
//! (byte layouts: `docs/WIRE.md`, "UDP datagram envelope"). Payloads
//! are capped at [`MAX_DATAGRAM_BYTES`]; the serving layer's peer pump
//! reads [`Connection::datagram_cap`] and sizes coherence sub-batches to
//! fit, so one batch normally rides one datagram. Sequence numbers count
//! datagrams; the receiver delivers the contiguous prefix, parks
//! out-of-order arrivals in a bounded reorder buffer and drops
//! duplicates. Senders retain every datagram until its sequence number
//! is covered by a cumulative ack — retained traffic is retransmitted on
//! an exponential timer by one process-wide pacer thread (spawned lazily
//! on first UDP use: the TCP path keeps its exact thread census). A
//! connection with no ack progress for [`UDP_DEAD_AFTER`] is marked
//! broken and surfaces an error on its next use, which feeds the
//! existing redial/generation machinery unchanged.
//!
//! Acks are bookkeeping (the paper's fabric has no per-message transport
//! ack at all, §6.4): every `DATA`/`FIN` carries the cumulative ack of the
//! reverse direction, and a stand-alone `ACK` leaves only when nothing
//! else will carry it — at once on a gap, a duplicate or a `FIN` (the
//! sender's timer is waiting on exactly that answer), otherwise after
//! [`UDP_ACK_EVERY`] unacknowledged in-order datagrams or with the
//! pacer's next pass (`UDP_PACER_TICK` = 5 ms, far inside `UDP_RTO_MIN` =
//! 20 ms: a clean link never retransmits). Request/response connections
//! (client sessions, peer links) send none in steady state, a stream
//! nobody answers one per [`UDP_ACK_EVERY`] datagrams. [`UdpStats`] counts all of it.
//!
//! Accepting is connection-per-socket: the listener socket only ever
//! sees `SYN`s; each accepted connection gets a fresh connected socket
//! (so ICMP errors and epoll readiness behave per-connection, exactly
//! like TCP fds), and the `SYN-ACK` is sent *from* that socket so the
//! dialer learns the connection address from its source.

use crate::link::{Accept, RecvHalf, SendHalf};
use crate::wire::MAX_DATAGRAM_BYTES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
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
// UDP: sequence numbers + cumulative acks + retransmission over datagrams.
// ---------------------------------------------------------------------------

/// Datagram type tags (first byte of every datagram).
pub const DG_SYN: u8 = 1;
/// Handshake answer, sent from the accepted connection's own socket.
pub const DG_SYNACK: u8 = 2;
/// One sequence-numbered chunk of the byte stream.
pub const DG_DATA: u8 = 3;
/// Stand-alone cumulative ack.
pub const DG_ACK: u8 = 4;
/// Sequence-numbered end of stream.
pub const DG_FIN: u8 = 5;

/// Size of a `SYN`/`SYN-ACK`/`ACK`: type byte + u64 (nonce or cumulative
/// ack).
pub const DG_CTRL_LEN: usize = 1 + 8;
/// `DATA`/`FIN` header: type byte + u64 sequence number + u64 cumulative
/// ack of the reverse direction.
pub const DG_DATA_HDR: usize = 1 + 8 + 8;

/// Initial retransmission timeout (doubles per retry, capped).
const UDP_RTO_MIN: Duration = Duration::from_millis(20);
/// In-order datagrams a receiver lets pile up unacknowledged before it
/// sends a stand-alone `ACK` (reverse `DATA` or the pacer may get there first).
pub const UDP_ACK_EVERY: u32 = 16;
/// Longest the pacer thread sleeps between passes, and so the longest an
/// owed ack waits for one. The actual sleep is deadline-driven — it
/// wakes at the nearest retained datagram's RTO, floored at the
/// reactor's fine timer resolution — so an idle fabric ticks at this
/// cadence while a loss burst retransmits on time.
const UDP_PACER_TICK: Duration = Duration::from_millis(5);
/// Retransmission timeout cap.
const UDP_RTO_MAX: Duration = Duration::from_millis(500);
/// A connection with retained traffic and no cumulative-ack progress for
/// this long is broken: the peer is gone. Mirrors a TCP RST feeding the
/// redial machinery.
pub const UDP_DEAD_AFTER: Duration = Duration::from_secs(10);
/// How long a dropped connection lingers to retransmit its `FIN` and ack
/// the peer's.
const UDP_LINGER: Duration = Duration::from_secs(2);
/// Dialer SYN retry cadence.
const UDP_DIAL_RETRY: Duration = Duration::from_millis(100);
/// Retransmissions per connection per pacer tick (burst cap).
const UDP_RETX_BURST: usize = 64;
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
}

impl Faults {
    fn roll(&mut self, pct: u8) -> bool {
        pct > 0 && self.rng.gen_range(0..100u8) < pct
    }
}

/// One retained (unacknowledged) outbound datagram's retransmit state.
struct Retained {
    bytes: Vec<u8>,
    sent_at: Instant,
    tries: u32,
}

/// Mutable reliability state of one UDP connection.
struct UdpState {
    /// Outbound `DATA`/`FIN` numbering, retained until cumulatively acked.
    send: SendHalf<Retained>,
    /// Inbound in-order delivery of `(is_fin, payload)`.
    recv: RecvHalf<(bool, Vec<u8>)>,
    /// In-order payloads ready for `read` (front chunk partially
    /// consumed up to `delivery_off`).
    delivery: VecDeque<Vec<u8>>,
    delivery_off: usize,
    /// The peer's `FIN` was delivered in order: reads return EOF once
    /// `delivery` drains.
    eof: bool,
    fin_sent: bool,
    /// Terminal failure (`TimedOut` for retransmit exhaustion,
    /// `ConnectionRefused`/`ConnectionReset` for ICMP errors).
    broken: Option<io::ErrorKind>,
    /// In-order `DATA` accepted since an ack last left (stand-alone or
    /// riding a `DATA`/`FIN`); a gap, a duplicate or a `FIN` jumps it
    /// straight to [`UDP_ACK_EVERY`], the stand-alone threshold.
    ack_owed: u32,
    faults: Option<Faults>,
    /// Reorder-fault holdback slot: one datagram waiting to be released
    /// after the next send (or by the pacer when idle).
    holdback: Option<Vec<u8>>,
    /// Last time the cumulative ack advanced (or the retained queue was
    /// empty); staleness beyond [`UDP_DEAD_AFTER`] breaks the connection.
    last_progress: Instant,
}

/// The shared core of one UDP connection: the connected socket plus
/// reliability state. Handles (`UdpConnection`) and the pacer share it.
struct UdpIo {
    sock: UdpSocket,
    state: Mutex<UdpState>,
    /// The minting transport's census.
    stats: Arc<UdpStats>,
    /// Live [`UdpConnection`] handles. Not `Arc::strong_count`: the pacer
    /// upgrades its weak refs for the length of a tick, and a handle
    /// dropped meanwhile must still see itself as the last one.
    handles: AtomicUsize,
}

impl fmt::Debug for UdpIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpIo").field("sock", &self.sock).finish()
    }
}

fn send_raw(sock: &UdpSocket, bytes: &[u8]) {
    // Best-effort: a full socket buffer loses the datagram exactly like
    // the network would, and the retransmission timer recovers it.
    let _ = sock.send(bytes);
}

/// Sends one datagram through the connection's fault plan (drop,
/// duplicate, pairwise reorder via the holdback slot).
fn send_datagram(sock: &UdpSocket, st: &mut UdpState, bytes: &[u8]) {
    let Some(faults) = st.faults.as_mut() else {
        send_raw(sock, bytes);
        return;
    };
    if faults.roll(faults.plan.drop_pct) {
        return;
    }
    if faults.roll(faults.plan.reorder_pct) && st.holdback.is_none() {
        st.holdback = Some(bytes.to_vec());
        return;
    }
    let dup = faults.roll(faults.plan.dup_pct);
    send_raw(sock, bytes);
    if dup {
        send_raw(sock, bytes);
    }
    if let Some(held) = st.holdback.take() {
        send_raw(sock, &held);
    }
}

/// The little-endian u64 at the front of `bytes`.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("caller checked the length"))
}

/// Retransmission timeout for the `tries`-th retry.
fn rto(tries: u32) -> Duration {
    UDP_RTO_MIN
        .saturating_mul(1u32 << tries.min(8))
        .min(UDP_RTO_MAX)
}

impl UdpIo {
    /// Applies one inbound datagram to the reliability state.
    fn process_datagram(&self, st: &mut UdpState, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let confirm = |st: &mut UdpState, cum: u64| {
            if st.send.confirm(cum).is_ok_and(|newly| newly > 0) {
                st.last_progress = Instant::now();
            }
        };
        match bytes[0] {
            DG_DATA | DG_FIN if bytes.len() >= DG_DATA_HDR => {
                let payload = &bytes[DG_DATA_HDR..];
                if payload.len() > MAX_DATAGRAM_BYTES {
                    return; // oversized: not ours, drop
                }
                confirm(st, le_u64(&bytes[1 + 8..]));
                let is_fin = bytes[0] == DG_FIN;
                let accept = st
                    .recv
                    .accept(le_u64(&bytes[1..]), (is_fin, payload.to_vec()));
                // Deliver the newly contiguous prefix.
                let mut delivered = 0;
                while let Some((is_fin, payload)) = st.recv.pop_ready() {
                    delivered += 1;
                    if is_fin {
                        st.eof = true;
                    } else if !payload.is_empty() {
                        st.delivery.push_back(payload);
                    }
                }
                // Plain in-order data may wait for a free ride; a duplicate,
                // a gap opened or filled, or a FIN is answered at once.
                st.ack_owed = if accept == Accept::Ready && delivered == 1 && !is_fin {
                    st.ack_owed + 1
                } else {
                    UDP_ACK_EVERY
                };
            }
            DG_ACK if bytes.len() >= DG_CTRL_LEN => confirm(st, le_u64(&bytes[1..])),
            // Duplicate handshake datagrams straggling in, and `DATA`/`FIN`
            // too short for their header: ignore.
            _ => {}
        }
    }

    /// Sends the stand-alone cumulative ack.
    fn send_ack(&self, st: &mut UdpState) {
        st.ack_owed = 0;
        let mut ack = [0u8; DG_CTRL_LEN];
        ack[0] = DG_ACK;
        ack[1..].copy_from_slice(&st.recv.delivered().to_le_bytes());
        self.stats.acks_sent.fetch_add(1, Ordering::Relaxed);
        send_datagram(&self.sock, st, &ack);
    }

    /// Numbers, sends and retains one `DATA`/`FIN` datagram; its header
    /// carries whatever ack is owed.
    fn send_numbered(&self, st: &mut UdpState, tag: u8, payload: &[u8]) {
        let mut dgram = Vec::with_capacity(DG_DATA_HDR + payload.len());
        dgram.push(tag);
        dgram.extend_from_slice(&st.send.next_seq().to_le_bytes());
        dgram.extend_from_slice(&st.recv.delivered().to_le_bytes());
        dgram.extend_from_slice(payload);
        if std::mem::take(&mut st.ack_owed) > 0 {
            self.stats.acks_piggybacked.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.data_sent.fetch_add(1, Ordering::Relaxed);
        send_datagram(&self.sock, st, &dgram);
        st.send.push(Retained {
            bytes: dgram,
            sent_at: Instant::now(),
            tries: 0,
        });
    }

    /// One pacer pass: release a stale holdback, send an owed ack nothing
    /// carried, retransmit overdue retained datagrams, detect a dead peer.
    fn pacer_tick(&self, now: Instant) {
        let Ok(mut st) = self.state.lock() else {
            return;
        };
        if st.broken.is_some() {
            return;
        }
        self.pacer_tick_locked(&mut st, now);
    }

    /// Drains inbound datagrams the connection socket has pending while a
    /// dropped connection lingers, so the peer's `FIN` still gets acked.
    fn linger_tick(&self, now: Instant) -> bool {
        let Ok(mut st) = self.state.lock() else {
            return true;
        };
        if st.broken.is_some() {
            return true;
        }
        let mut buf = vec![0u8; MAX_DATAGRAM_BYTES + DG_DATA_HDR];
        while let Ok(n) = self.sock.recv(&mut buf) {
            self.process_datagram(&mut st, &buf[..n]);
        }
        self.pacer_tick_locked(&mut st, now);
        st.send.outstanding() == 0
    }

    /// Like [`UdpIo::pacer_tick`] with the state already locked.
    fn pacer_tick_locked(&self, st: &mut UdpState, now: Instant) {
        if let Some(held) = st.holdback.take() {
            send_raw(&self.sock, &held);
        }
        if st.ack_owed > 0 {
            self.send_ack(st);
        }
        if st.send.outstanding() == 0 {
            st.last_progress = now;
            return;
        }
        if now.duration_since(st.last_progress) > UDP_DEAD_AFTER {
            st.broken = Some(io::ErrorKind::TimedOut);
            return;
        }
        let mut resend = Vec::new();
        for (_, r) in st.send.iter_mut() {
            if resend.len() >= UDP_RETX_BURST {
                break;
            }
            if now.duration_since(r.sent_at) >= rto(r.tries) {
                r.sent_at = now;
                r.tries += 1;
                resend.push(r.bytes.clone());
            }
        }
        self.stats
            .retransmits
            .fetch_add(resend.len() as u64, Ordering::Relaxed);
        for bytes in resend {
            send_datagram(&self.sock, st, &bytes);
        }
    }

    /// Time until this connection's earliest retransmission deadline
    /// (zero when one is already overdue); `None` when nothing is
    /// retained, held back, or the connection is broken.
    fn next_due(&self, now: Instant) -> Option<Duration> {
        let st = self.state.lock().ok()?;
        if st.broken.is_some() {
            return None;
        }
        if st.holdback.is_some() {
            return Some(Duration::ZERO);
        }
        st.send
            .iter()
            .map(|(_, r)| (r.sent_at + rto(r.tries)).saturating_duration_since(now))
            .min()
    }
}

/// The process-wide retransmission pacer: one lazily spawned thread
/// ticking every live UDP connection. TCP-only deployments never spawn
/// it, keeping their exact thread census.
struct Pacer {
    conns: Mutex<Vec<Weak<UdpIo>>>,
    closing: Mutex<Vec<(Arc<UdpIo>, Instant)>>,
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
                let mut sleep_for = UDP_PACER_TICK;
                loop {
                    std::thread::sleep(sleep_for);
                    let now = Instant::now();
                    let live: Vec<Arc<UdpIo>> = {
                        let mut conns = pacer.conns.lock().expect("pacer registry");
                        conns.retain(|w| w.strong_count() > 0);
                        conns.iter().filter_map(Weak::upgrade).collect()
                    };
                    for io in &live {
                        io.pacer_tick(now);
                    }
                    let lingering: Vec<(Arc<UdpIo>, Instant)> = {
                        let mut closing = pacer.closing.lock().expect("pacer closing");
                        std::mem::take(&mut *closing)
                    };
                    let mut keep = Vec::new();
                    for (io, deadline) in lingering {
                        if now < deadline && !io.linger_tick(now) {
                            keep.push((io, deadline));
                        }
                    }
                    pacer.closing.lock().expect("pacer closing").extend(keep);
                    // Deadline-driven cadence: wake at the nearest retained
                    // datagram's RTO instead of a fixed tick, floored at the
                    // reactor fine-timer resolution (sleeping shorter than
                    // the clock can honour just spins) and capped at the
                    // idle tick so new registrations are picked up promptly.
                    let now = Instant::now();
                    sleep_for = live
                        .iter()
                        .filter_map(|io| io.next_due(now))
                        .min()
                        .unwrap_or(UDP_PACER_TICK)
                        .clamp(reactor::FINE_RESOLUTION, UDP_PACER_TICK);
                }
            })
            .expect("spawn udp pacer");
        pacer
    })
}

/// One handle to a UDP connection. Cloned handles (reader/writer splits)
/// share the same [`UdpIo`]; the last handle to drop sends the `FIN` and
/// parks the core with the pacer until it is acknowledged.
pub struct UdpConnection {
    io: Arc<UdpIo>,
    /// Receive scratch, sized for the largest datagram we ever send.
    scratch: Vec<u8>,
}

impl fmt::Debug for UdpConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdpConnection")
            .field("io", &self.io)
            .finish()
    }
}

impl UdpConnection {
    fn establish(sock: UdpSocket, faults: Option<Faults>, stats: Arc<UdpStats>) -> UdpConnection {
        let io = Arc::new(UdpIo {
            sock,
            stats,
            state: Mutex::new(UdpState {
                send: SendHalf::default(),
                recv: RecvHalf::default(),
                delivery: VecDeque::new(),
                delivery_off: 0,
                eof: false,
                fin_sent: false,
                broken: None,
                ack_owed: 0,
                faults,
                holdback: None,
                last_progress: Instant::now(),
            }),
            handles: AtomicUsize::new(1),
        });
        pacer()
            .conns
            .lock()
            .expect("pacer registry")
            .push(Arc::downgrade(&io));
        UdpConnection {
            io,
            scratch: vec![0u8; MAX_DATAGRAM_BYTES + DG_DATA_HDR],
        }
    }

    /// Copies delivered in-order bytes into `buf`; `None` when starved.
    fn take_delivered(st: &mut UdpState, buf: &mut [u8]) -> Option<usize> {
        let mut copied = 0;
        while copied < buf.len() {
            let Some(front) = st.delivery.front() else {
                break;
            };
            let avail = &front[st.delivery_off..];
            let n = avail.len().min(buf.len() - copied);
            buf[copied..copied + n].copy_from_slice(&avail[..n]);
            copied += n;
            if n == avail.len() {
                st.delivery.pop_front();
                st.delivery_off = 0;
            } else {
                st.delivery_off += n;
            }
        }
        (copied > 0).then_some(copied)
    }
}

impl Read for UdpConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            {
                let mut st = self.io.state.lock().expect("udp state");
                if let Some(kind) = st.broken {
                    return Err(io::Error::new(kind, "udp connection broken"));
                }
                if let Some(n) = Self::take_delivered(&mut st, buf) {
                    return Ok(n);
                }
                if st.eof {
                    return Ok(0);
                }
            }
            // Not holding the state lock across the (possibly blocking)
            // recv: the pacer must stay free to retransmit meanwhile.
            match self.io.sock.recv(&mut self.scratch) {
                Ok(n) => {
                    let mut st = self.io.state.lock().expect("udp state");
                    // Borrow juggling: process_datagram needs &mut state
                    // while the bytes live in self.scratch.
                    let bytes = std::mem::take(&mut self.scratch);
                    self.io.process_datagram(&mut st, &bytes[..n]);
                    self.scratch = bytes;
                    if st.ack_owed >= UDP_ACK_EVERY {
                        self.io.send_ack(&mut st);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(e);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::ConnectionRefused
                        || e.kind() == io::ErrorKind::ConnectionReset =>
                {
                    // ICMP unreachable: the peer process is gone. Mark
                    // broken so writes fail too, then surface it.
                    let mut st = self.io.state.lock().expect("udp state");
                    st.broken = Some(e.kind());
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Write for UdpConnection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.io.state.lock().expect("udp state");
        if let Some(kind) = st.broken {
            return Err(io::Error::new(kind, "udp connection broken"));
        }
        if st.fin_sent {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "udp connection closed",
            ));
        }
        // Unbounded send-side retention: the write always succeeds and the
        // datagrams stay retained until cumulatively acked. Backpressure is
        // the serving layer's job (credit windows, request/response
        // pacing); a datagram socket is "always writable", so refusing
        // bytes here would only buy an EPOLLOUT busy-spin.
        for chunk in buf.chunks(MAX_DATAGRAM_BYTES) {
            self.io.send_numbered(&mut st, DG_DATA, chunk);
        }
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
        let mut st = self.io.state.lock().expect("udp state");
        if st.broken.is_some() || st.fin_sent {
            return;
        }
        st.fin_sent = true;
        self.io.send_numbered(&mut st, DG_FIN, &[]);
        drop(st);
        // Linger nonblocking so the pacer can retransmit the FIN and ack
        // the peer's without ever blocking its tick.
        let _ = self.io.sock.set_nonblocking(true);
        pacer()
            .closing
            .lock()
            .expect("pacer closing")
            .push((Arc::clone(&self.io), Instant::now() + UDP_LINGER));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two established connections over a connected socket pair and the
    /// census they share: no handshake datagrams in its counts, and no
    /// other test's traffic either.
    fn established_pair() -> (UdpConnection, UdpConnection, Arc<UdpStats>) {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind");
        a.connect(b.local_addr().expect("addr")).expect("connect");
        b.connect(a.local_addr().expect("addr")).expect("connect");
        for sock in [&a, &b] {
            sock.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
        }
        let stats = Arc::new(UdpStats::default());
        (
            UdpConnection::establish(a, None, Arc::clone(&stats)),
            UdpConnection::establish(b, None, Arc::clone(&stats)),
            stats,
        )
    }

    /// `[data_sent, acks_sent, acks_piggybacked, retransmits]`.
    fn counts(stats: &UdpStats) -> [u64; 4] {
        stats.snapshot().map(|(_, n)| n)
    }

    fn outstanding(conn: &UdpConnection) -> u64 {
        conn.io.state.lock().expect("udp state").send.outstanding()
    }

    /// Reads whatever `conn`'s socket holds (processing acks on the way).
    fn drain_nonblocking(conn: &mut UdpConnection) -> usize {
        let mut buf = [0u8; 256];
        let mut total = 0;
        loop {
            match conn.read(&mut buf) {
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return total,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Pacer passes that can have happened since `started`, at most.
    fn pacer_passes_since(started: Instant) -> u64 {
        (started.elapsed().as_micros() / UDP_PACER_TICK.as_micros()) as u64 + 1
    }

    /// Polls `sender` until everything it sent is acknowledged.
    fn await_all_acked(sender: &mut UdpConnection) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while outstanding(sender) > 0 {
            assert!(Instant::now() < deadline, "tail was never acknowledged");
            drain_nonblocking(sender);
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn request_response_acks_ride_the_data() {
        let (mut client, mut server, stats) = established_pair();
        let started = Instant::now();
        let mut buf = [0u8; 4];
        for _ in 0..1_000 {
            client.write_all(b"ping").expect("write");
            server.read_exact(&mut buf).expect("read");
            server.write_all(b"pong").expect("write");
            client.read_exact(&mut buf).expect("read");
        }
        let [data, acks, piggybacked, retransmits] = counts(&stats);
        assert_eq!((data, retransmits), (2_000, 0));
        // Only a pacer pass landing between a read and the write that
        // answers it finds an ack owed: at most one per side per pass.
        let per_side = pacer_passes_since(started).max(4);
        assert!(acks <= 2 * per_side, "{acks} stand-alone acks");
        assert!(piggybacked + acks >= 1_999, "{piggybacked} + {acks}");
    }

    #[test]
    fn one_way_stream_is_acked_every_sixteenth_datagram() {
        const N: u64 = 10_000;
        let (mut tx, mut rx, stats) = established_pair();
        tx.set_nonblocking(true).expect("nonblocking");
        rx.set_nonblocking(true).expect("nonblocking");
        let started = Instant::now();
        for _ in 0..N {
            // Lock step keeps the socket buffers shallow: nothing is lost,
            // so any retransmission would be a spurious one.
            tx.write_all(b"x").expect("write");
            assert_eq!(drain_nonblocking(&mut rx), 1);
            drain_nonblocking(&mut tx);
        }
        await_all_acked(&mut tx);
        let [data, acks, piggybacked, retransmits] = counts(&stats);
        assert_eq!((data, piggybacked, retransmits), (N, 0, 0));
        let bound = N / u64::from(UDP_ACK_EVERY) + pacer_passes_since(started);
        assert!(
            acks <= bound,
            "{acks} acks for {N} datagrams, bound {bound}"
        );
    }

    #[test]
    fn idle_tail_is_acked_by_the_pacer_before_its_first_rto() {
        let (mut tx, mut rx, stats) = established_pair();
        tx.set_nonblocking(true).expect("nonblocking");
        rx.set_nonblocking(true).expect("nonblocking");
        tx.write_all(b"tail").expect("write");
        assert_eq!(drain_nonblocking(&mut rx), 4);
        // Then silence: no reverse data, no sixteenth datagram.
        await_all_acked(&mut tx);
        assert_eq!(counts(&stats), [1, 1, 0, 0], "one ack, no retransmit");
    }

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
        let deadline = Instant::now() + Duration::from_secs(5);
        let accepted = loop {
            if let Some(conn) = listener.accept().expect("accept") {
                break conn;
            }
            assert!(Instant::now() < deadline, "accept timed out");
            std::thread::sleep(Duration::from_millis(1));
        };
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
