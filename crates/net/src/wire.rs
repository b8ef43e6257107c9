//! The ccKVS wire protocol: compact length-prefixed binary frames.
//!
//! Every message on a ccKVS TCP connection is one *frame*:
//!
//! ```text
//! [u32 LE payload length][u8 opcode][opcode-specific payload]
//! ```
//!
//! Two connection roles share the same framing, distinguished by the
//! hello frame sent immediately after connect:
//!
//! * **client** connections ([`Frame::ClientHello`]) carry GET/PUT requests
//!   and their responses, plus admin frames (hot-set install, ping,
//!   shutdown, and the home-shard fence/miss frames a supervisor's heal
//!   sends);
//! * **peer** connections ([`Frame::PeerHello`]) are duplex links carrying
//!   the consistency-protocol messages ([`consistency::messages::ProtocolMsg`]
//!   re-encoded as [`Frame::Protocol`] with the update's value bytes
//!   attached) and the correlated cache-miss RPCs ([`Frame::RpcReq`] /
//!   [`Frame::RpcResp`]: remote reads and forwarded writes to the key's
//!   home shard).
//!
//! Integers are little-endian throughout; [`Timestamp`]s travel as the
//! 5-byte `(clock: u32, writer: u8)` pair the paper packs into its object
//! header.

use cckvs_trace::{Event, EventKind};
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::ProtocolMsg;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (guards against corrupt length prefixes).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Upper bound on the payload of one datagram on a datagram transport
/// (`UdpTransport`): writers that know their connection is
/// datagram-framed ([`crate::transport::Connection::datagram_cap`]) keep
/// one encoded frame or coherence sub-batch within this many bytes so it
/// rides a single datagram — larger frames still arrive correctly, split
/// across datagrams by the reliability layer, they just lose the
/// one-frame-one-datagram alignment. Comfortably under the 64 KiB UDP
/// limit, leaving room for the datagram header.
pub const MAX_DATAGRAM_BYTES: usize = 16 * 1024;

/// The single encode entrypoint shared by the stream and datagram paths:
/// appends `frame` in wire form — 4-byte little-endian length prefix,
/// then the payload — to `buf`, encoding in place. [`write_frame`],
/// [`BatchBuilder::push`], the reactor's write buffers and the datagram
/// packers all funnel through this, so the two fabrics can never drift
/// apart in framing.
pub fn encode_frame_into(buf: &mut Vec<u8>, frame: &Frame) {
    put_prefixed(buf, |buf| frame.encode_into(buf));
}

/// Appends what `body` writes behind its 4-byte length prefix, reserved
/// first and patched once the length is known: the body is written once.
fn put_prefixed(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let len = buf.len() - at - 4;
    debug_assert!(len <= MAX_FRAME_BYTES);
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Error produced while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the advertised structure was complete.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// A [`Frame::Batch`] contained another batch. Batches are flat: one
    /// level of containment keeps decoding non-recursive (a hostile peer
    /// could otherwise nest ~3M levels into one 16 MB frame and overflow
    /// the decoder's stack).
    NestedBatch,
    /// A [`Frame::Traced`] wrapped another trace envelope, a batch, or a
    /// correlated RPC frame. Trace context annotates exactly one ordinary
    /// frame (a batch's sub-frames carry their own envelopes, and RPC
    /// frames carry the envelope *inside* their payload), which —
    /// together with [`WireError::NestedBatch`] and
    /// [`WireError::NestedRpc`] — keeps decode depth bounded at
    /// batch → rpc → traced → frame.
    NestedTrace,
    /// A [`Frame::RpcReq`] / [`Frame::RpcResp`] wrapped another RPC frame
    /// or a batch. Correlation envelopes wrap exactly one request or
    /// response frame (optionally trace-annotated); anything deeper would
    /// reopen the unbounded-recursion hole the batch/trace rules close.
    NestedRpc,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::NestedBatch => write!(f, "batch frames cannot nest"),
            WireError::NestedTrace => {
                write!(f, "trace envelopes wrap a single non-batch frame")
            }
            WireError::NestedRpc => {
                write!(f, "rpc correlation envelopes wrap a single plain frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

mod opcode {
    pub const CLIENT_HELLO: u8 = 0x01;
    pub const PEER_HELLO: u8 = 0x02;
    pub const PEER_HELLO_ACK: u8 = 0x04;
    pub const PEER_RESUME: u8 = 0x05;
    pub const GET: u8 = 0x10;
    pub const PUT: u8 = 0x11;
    pub const GET_RESP: u8 = 0x12;
    pub const PUT_RESP: u8 = 0x13;
    pub const PROTOCOL: u8 = 0x20;
    pub const MISS_GET: u8 = 0x30;
    pub const MISS_GET_RESP: u8 = 0x31;
    pub const MISS_PUT: u8 = 0x32;
    pub const MISS_PUT_RESP: u8 = 0x33;
    pub const WRITE_BACK: u8 = 0x34;
    pub const WRITE_BACK_RESP: u8 = 0x35;
    pub const HOT_MARK: u8 = 0x36;
    pub const HOT_MARK_RESP: u8 = 0x37;
    pub const HOT_UNMARK: u8 = 0x38;
    pub const HOT_UNMARK_RESP: u8 = 0x39;
    pub const MISS_RETRY: u8 = 0x3A;
    pub const INSTALL_HOT: u8 = 0x40;
    pub const INSTALL_HOT_RESP: u8 = 0x41;
    pub const EVICT: u8 = 0x42;
    pub const EVICT_RESP: u8 = 0x43;
    pub const FLIP_EPOCH: u8 = 0x44;
    pub const FLIP_EPOCH_RESP: u8 = 0x45;
    pub const ACTIVATE_HOT: u8 = 0x46;
    pub const ACTIVATE_HOT_RESP: u8 = 0x47;
    pub const PING: u8 = 0x50;
    pub const PONG: u8 = 0x51;
    pub const SHUTDOWN: u8 = 0x52;
    pub const VERSION_FLOOR: u8 = 0x54;
    pub const VERSION_FLOOR_RESP: u8 = 0x55;
    pub const CACHE_KEYS: u8 = 0x56;
    pub const CACHE_KEYS_RESP: u8 = 0x57;
    pub const TRACE_DUMP: u8 = 0x58;
    pub const TRACE_DUMP_RESP: u8 = 0x59;
    pub const BATCH: u8 = 0x60;
    pub const TRACED: u8 = 0x7F;
    pub const CREDIT: u8 = 0x61;
    pub const RPC_REQ: u8 = 0x62;
    pub const RPC_RESP: u8 = 0x63;
    pub const ERROR: u8 = 0x7E;
}

/// The full opcode assignment, as `(frame name, opcode byte)` pairs in
/// ascending opcode order. This is the machine-readable form of the table
/// in `docs/WIRE.md`; a unit test diffs the two so the document cannot
/// drift from the protocol (`tests/wire_docs.rs`).
pub fn opcode_table() -> Vec<(&'static str, u8)> {
    let mut table = vec![
        ("ClientHello", opcode::CLIENT_HELLO),
        ("PeerHello", opcode::PEER_HELLO),
        ("PeerHelloAck", opcode::PEER_HELLO_ACK),
        ("PeerResume", opcode::PEER_RESUME),
        ("Get", opcode::GET),
        ("Put", opcode::PUT),
        ("GetResp", opcode::GET_RESP),
        ("PutResp", opcode::PUT_RESP),
        ("Protocol", opcode::PROTOCOL),
        ("MissGet", opcode::MISS_GET),
        ("MissGetResp", opcode::MISS_GET_RESP),
        ("MissPut", opcode::MISS_PUT),
        ("MissPutResp", opcode::MISS_PUT_RESP),
        ("WriteBack", opcode::WRITE_BACK),
        ("WriteBackResp", opcode::WRITE_BACK_RESP),
        ("HotMark", opcode::HOT_MARK),
        ("HotMarkResp", opcode::HOT_MARK_RESP),
        ("HotUnmark", opcode::HOT_UNMARK),
        ("HotUnmarkResp", opcode::HOT_UNMARK_RESP),
        ("MissRetry", opcode::MISS_RETRY),
        ("InstallHot", opcode::INSTALL_HOT),
        ("InstallHotResp", opcode::INSTALL_HOT_RESP),
        ("Evict", opcode::EVICT),
        ("EvictResp", opcode::EVICT_RESP),
        ("FlipEpoch", opcode::FLIP_EPOCH),
        ("FlipEpochResp", opcode::FLIP_EPOCH_RESP),
        ("ActivateHot", opcode::ACTIVATE_HOT),
        ("ActivateHotResp", opcode::ACTIVATE_HOT_RESP),
        ("Ping", opcode::PING),
        ("Pong", opcode::PONG),
        ("Shutdown", opcode::SHUTDOWN),
        ("VersionFloor", opcode::VERSION_FLOOR),
        ("VersionFloorResp", opcode::VERSION_FLOOR_RESP),
        ("CacheKeys", opcode::CACHE_KEYS),
        ("CacheKeysResp", opcode::CACHE_KEYS_RESP),
        ("TraceDump", opcode::TRACE_DUMP),
        ("TraceDumpResp", opcode::TRACE_DUMP_RESP),
        ("Batch", opcode::BATCH),
        ("Credit", opcode::CREDIT),
        ("RpcReq", opcode::RPC_REQ),
        ("RpcResp", opcode::RPC_RESP),
        ("Error", opcode::ERROR),
        ("Traced", opcode::TRACED),
    ];
    table.sort_by_key(|&(_, op)| op);
    table
}

/// One wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Opens a client connection.
    ClientHello,
    /// Opens (or re-opens) the duplex protocol link from peer node `from`,
    /// the lower node id of the pair.
    ///
    /// `gen` stamps the sender's *process generation* — a value unique to
    /// one life of the sending process. The receiver tracks the highest
    /// generation seen per peer: a hello carrying a lower generation is a
    /// stale process (its connections are refused), a higher one means the
    /// peer crashed and restarted (triggering recovery), an equal one is
    /// the same process redialing after a transient link failure.
    PeerHello {
        /// Sender node id.
        from: u8,
        /// Sender process generation.
        gen: u64,
        /// Messages of the *receiver's* stream the sender has processed:
        /// the receiver drops that prefix of what it retains and replays
        /// the rest.
        processed: u64,
        /// The receiver generation whose numbering `processed` is in (0:
        /// none yet); a receiver of any other ignores the count.
        peer_gen: u64,
    },
    /// The receiver's reply to [`Frame::PeerHello`].
    PeerHelloAck {
        /// Messages processed from the dialing `(peer, generation)` (0 if
        /// the receiver restarted or never heard from this generation).
        /// The dialer drops every retained message up to `processed` and
        /// replays the rest — exactly once, in order.
        processed: u64,
        /// The *receiver's* process generation (lets the dialer detect
        /// that the peer it reconnected to is a restarted process).
        gen: u64,
        /// Sequence number of the first message the receiver will send;
        /// the dialer aligns its processed counter to `start_seq - 1`.
        start_seq: u64,
    },
    /// Sent by the dialing side after [`Frame::PeerHelloAck`]: the sequence
    /// number of the first flow-controlled message that will follow on this
    /// connection. The receiver aligns its processed counter to
    /// `start_seq - 1` (a restarted receiver adopts the dialer's numbering;
    /// an intact one sees its own count echoed back).
    PeerResume {
        /// Sequence number of the next message on this link.
        start_seq: u64,
    },
    /// Client read request.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Client write request.
    Put {
        /// Key to write.
        key: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Response to [`Frame::Get`].
    GetResp {
        /// Whether the read was served by the symmetric cache (and thus
        /// carries a protocol timestamp and belongs in checked histories).
        cached: bool,
        /// Timestamp of the value read (zero on the miss path).
        ts: Timestamp,
        /// The value (empty if never written).
        value: Vec<u8>,
    },
    /// Response to [`Frame::Put`].
    PutResp {
        /// Whether the write went through the symmetric cache.
        cached: bool,
        /// Timestamp assigned by the protocol (zero on the miss path).
        ts: Timestamp,
    },
    /// A consistency-protocol message, with the update's value bytes
    /// attached when present.
    Protocol {
        /// The protocol message.
        msg: ProtocolMsg,
        /// Value bytes accompanying `Update` messages.
        bytes: Option<Vec<u8>>,
    },
    /// Remote read of a cache-missing key, sent to the key's home node.
    MissGet {
        /// Key to read.
        key: u64,
    },
    /// Response to [`Frame::MissGet`].
    MissGetResp {
        /// The value (empty if never written).
        value: Vec<u8>,
    },
    /// Forwarded write of a cache-missing key, sent to the key's home node.
    MissPut {
        /// Key to write.
        key: u64,
        /// The sender's tag (diagnostics only: the home shard assigns the
        /// authoritative version on arrival, since sender-side counters
        /// advance independently).
        tag: u32,
        /// Writer id breaking clock ties.
        writer: u8,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Response to [`Frame::MissPut`], carrying the version the home shard
    /// assigned to the write (clients record it so histories include cold
    /// writes — the versions re-surface as install timestamps when a cold
    /// key later turns hot).
    MissPutResp {
        /// Home-assigned version of the write.
        ts: Timestamp,
    },
    /// Answer to a miss-path request for a key that is mid-transition into
    /// or out of the hot set: the sender retries (by then the key is either
    /// cached at the serving node or cold at the home shard).
    MissRetry,
    /// Write-back of a dirty evicted cache value to the key's home shard
    /// (rpc path). Versioned: every replica evicts its own copy, the home
    /// keeps the newest.
    WriteBack {
        /// Key being written back.
        key: u64,
        /// The evicted dirty value.
        value: Vec<u8>,
        /// Protocol timestamp of the value.
        ts: Timestamp,
    },
    /// Response to [`Frame::WriteBack`].
    WriteBackResp {
        /// Whether the value was applied (false: a newer version was
        /// already stored).
        applied: bool,
    },
    /// Marks a key as transitioning into the hot set at its home shard and
    /// fetches its current value and version (rpc path; epoch admin). While
    /// marked, the home bounces cold writes with [`Frame::MissRetry`] so no
    /// write lands between the fetch and the cache fills.
    HotMark {
        /// Key entering the hot set.
        key: u64,
    },
    /// Response to [`Frame::HotMark`].
    HotMarkResp {
        /// The shard's current value (empty if never written).
        value: Vec<u8>,
        /// The shard's stored version of the value.
        ts: Timestamp,
    },
    /// Clears a key's hot-transition mark at its home shard (rpc path;
    /// epoch admin) — sent after every replica dropped the key and all
    /// dirty write-backs landed, re-opening the cold write path.
    HotUnmark {
        /// Key leaving the hot set.
        key: u64,
    },
    /// Response to [`Frame::HotUnmark`].
    HotUnmarkResp,
    /// Installs a hot key into the node's symmetric cache (coordinator /
    /// rack-launcher admin path) at the version its home shard stored it
    /// at, so the per-key Lamport clock continues across epochs. A `warm`
    /// install stays invisible to client reads/writes (while participating
    /// in the coherence protocol) until [`Frame::ActivateHot`] — the
    /// coordinator warms every replica before activating any, so no write
    /// ever commits against a half-installed hot set.
    InstallHot {
        /// Key to install.
        key: u64,
        /// Initial value.
        value: Vec<u8>,
        /// Home-shard version of the value (`Timestamp::ZERO` for a fresh
        /// dataset).
        ts: Timestamp,
        /// Whether to install in the warming state.
        warm: bool,
    },
    /// Response to [`Frame::InstallHot`].
    InstallHotResp {
        /// Whether the key was installed (false: cache full).
        ok: bool,
    },
    /// Activates a warming hot key (epoch admin path; second phase of a
    /// live install).
    ActivateHot {
        /// Key to activate.
        key: u64,
    },
    /// Response to [`Frame::ActivateHot`].
    ActivateHotResp {
        /// Whether the key was present.
        ok: bool,
    },
    /// Evicts a key from the node's symmetric cache (epoch change /
    /// failed-install rollback; admin path). A dirty value is written back
    /// to the key's home shard before the response is sent.
    Evict {
        /// Key to evict.
        key: u64,
    },
    /// Response to [`Frame::Evict`].
    EvictResp {
        /// Whether the key was cached.
        existed: bool,
    },
    /// Asks the epoch coordinator to close the current popularity epoch and
    /// reconfigure the deployment's hot set now (admin path).
    FlipEpoch,
    /// Response to [`Frame::FlipEpoch`].
    FlipEpochResp {
        /// The epoch that was closed.
        epoch: u64,
        /// Keys installed into the hot set by this flip.
        installed: u32,
        /// Keys evicted from the hot set by this flip.
        evicted: u32,
    },
    /// The request failed server-side (e.g. a value over the shard's
    /// capacity); carries a human-readable reason. Sent in place of the
    /// normal response so client-controlled input never kills a server
    /// thread.
    Error {
        /// Why the request failed.
        message: String,
    },
    /// A coalesced run of frames travelling as one wire message (§6.3/§6.4:
    /// requests and coherence traffic are batched to amortise per-message
    /// network cost). Sub-frames are individually length-prefixed and
    /// decoded with the ordinary [`Frame::decode`]; batches never nest. On
    /// client connections a batch of requests is answered by one batch of
    /// responses in the same order; on peer links batches carry protocol
    /// messages and piggybacked [`Frame::Credit`] returns.
    Batch {
        /// The coalesced frames, in send order.
        frames: Vec<Frame>,
    },
    /// Cumulative flow-control acknowledgement for a peer link. Each
    /// protocol message sent to a peer consumes one credit; the peer
    /// confirms *processing* by echoing its cumulative processed count,
    /// piggybacked on batches flowing in the reverse direction — so a fast
    /// writer (a Lin ack round fanning out) can never overrun a slow
    /// receiver by more than the credit window. Cumulative (TCP-ack style)
    /// rather than incremental: a credit frame lost with a severed link is
    /// subsumed by the next one, so reconnects never leak window.
    Credit {
        /// Cumulative messages processed from the receiving node, in the
        /// receiving node's sequence numbering.
        cum: u64,
        /// The process generation whose numbering `cum` refers to (the
        /// confirmed direction's sender generation). A receiver whose own
        /// generation differs ignores the frame — a restarted sender must
        /// not interpret confirmations addressed to its predecessor.
        gen: u64,
    },
    /// A correlated request multiplexed over a peer link. Miss-path RPCs
    /// (and admin write-backs) travel as flow-controlled items on the
    /// crash-surviving peer mesh instead of pooled blocking connections:
    /// the sender registers `corr` in its pending-RPC table and resumes
    /// the suspended client op when the matching [`Frame::RpcResp`]
    /// arrives back on the same link. Retained-until-confirmed delivery
    /// (the PR 5 replay machinery) carries these across link severs and
    /// peer restarts like any protocol message.
    RpcReq {
        /// Correlation id, unique per sending process lifetime.
        corr: u64,
        /// The request (a `MissGet`/`MissPut`/`WriteBack`/… frame,
        /// optionally wrapped in [`Frame::Traced`]).
        inner: Box<Frame>,
    },
    /// The response to the [`Frame::RpcReq`] carrying the same `corr`.
    /// A response whose correlation id is unknown at the requester (the
    /// request was already answered once — e.g. re-served after a peer
    /// restart replay) is dropped, which is what makes RPC resolution
    /// exactly-once from the suspended op's point of view.
    RpcResp {
        /// Correlation id echoed from the request.
        corr: u64,
        /// The response frame (optionally wrapped in [`Frame::Traced`]).
        inner: Box<Frame>,
    },
    /// Asks the node for its current cold-version counter (admin path). A
    /// supervisor polls this while the node serves and passes the last
    /// observed value (plus slack) to a restarted replacement via
    /// `--cold-floor`, so home-assigned versions stay monotone across the
    /// crash — an in-memory shard cannot remember them itself, and a
    /// restarted home reusing `(clock, writer)` pairs would make
    /// cross-crash histories ambiguous.
    VersionFloor,
    /// Response to [`Frame::VersionFloor`].
    VersionFloorResp {
        /// The node's current cold-version counter.
        clock: u32,
    },
    /// Asks the node for the keys its symmetric cache currently holds
    /// (admin path). By symmetry this is the deployment's hot set; a
    /// supervisor queries a survivor when restarting a crashed node — the
    /// replacement boots with those of the keys it homes *fenced*
    /// (`--hot-fence`), and cache symmetry is then healed by evicting the
    /// hot set rack-wide.
    CacheKeys,
    /// Response to [`Frame::CacheKeys`].
    CacheKeysResp {
        /// The cached keys, in no particular order.
        keys: Vec<u64>,
    },
    /// Trace-context envelope: annotates one ordinary frame with the
    /// rack-wide trace id of the sampled client operation it belongs to.
    /// Receivers that trace record span events against `id` and then
    /// process `inner` exactly as if it had arrived bare; responses
    /// travel unwrapped (the sampler already knows the id). Envelopes
    /// wrap single frames only — a batch's sub-frames carry their own —
    /// and an envelope on a peer link consumes the flow-control credit
    /// of its inner frame.
    Traced {
        /// The operation's rack-wide trace id (nonzero by convention).
        id: u64,
        /// The annotated frame.
        inner: Box<Frame>,
    },
    /// Asks the node for its retained trace events (admin path). The
    /// node drains its per-shard rings and returns the bounded store;
    /// `cckvs-trace` merges dumps from every node into per-op timelines.
    TraceDump,
    /// Response to [`Frame::TraceDump`].
    TraceDumpResp {
        /// Events dropped node-side because a ring lane was full (a
        /// nonzero value means dumped timelines may have holes).
        dropped: u64,
        /// The retained events, oldest first.
        events: Vec<Event>,
    },
    /// Liveness probe.
    Ping,
    /// Response to [`Frame::Ping`].
    Pong,
    /// Asks the node to shut down (admin path; used by launchers and
    /// tests to stop remote `cckvs-node` processes).
    Shutdown,
}

fn put_ts(buf: &mut Vec<u8>, ts: Timestamp) {
    buf.extend_from_slice(&ts.clock.to_le_bytes());
    buf.push(ts.writer.0);
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

fn put_protocol(buf: &mut Vec<u8>, msg: &ProtocolMsg, bytes: Option<&[u8]>) {
    buf.push(opcode::PROTOCOL);
    match msg {
        ProtocolMsg::Invalidation { key, ts, from } => {
            buf.push(0);
            buf.extend_from_slice(&key.to_le_bytes());
            put_ts(buf, *ts);
            buf.push(from.0);
        }
        ProtocolMsg::Ack { key, ts, from } => {
            buf.push(1);
            buf.extend_from_slice(&key.to_le_bytes());
            put_ts(buf, *ts);
            buf.push(from.0);
        }
        ProtocolMsg::Update {
            key,
            value,
            ts,
            from,
        } => {
            buf.push(2);
            buf.extend_from_slice(&key.to_le_bytes());
            put_ts(buf, *ts);
            buf.push(from.0);
            buf.extend_from_slice(&value.to_le_bytes());
        }
    }
    match bytes {
        None => buf.push(0),
        Some(b) => {
            buf.push(1);
            put_bytes(buf, b);
        }
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn ts(&mut self) -> Result<Timestamp, WireError> {
        let clock = self.u32()?;
        let writer = self.u8()?;
        Ok(Timestamp::new(clock, NodeId(writer)))
    }

    /// A length-prefixed run of bytes, borrowed from the payload.
    fn slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(len));
        }
        self.take(len)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.slice()?.to_vec())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

impl Frame {
    /// [`Frame::encode_into`] a fresh buffer (tests; serving code appends).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the frame payload (opcode byte included, length prefix not)
    /// to `buf`; nested frames and batch sub-frames encode straight into
    /// the same buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::ClientHello => buf.push(opcode::CLIENT_HELLO),
            Frame::PeerHello {
                from,
                gen,
                processed,
                peer_gen,
            } => {
                buf.push(opcode::PEER_HELLO);
                buf.push(*from);
                for field in [gen, processed, peer_gen] {
                    buf.extend_from_slice(&field.to_le_bytes());
                }
            }
            Frame::PeerHelloAck {
                processed,
                gen,
                start_seq,
            } => {
                buf.push(opcode::PEER_HELLO_ACK);
                for field in [processed, gen, start_seq] {
                    buf.extend_from_slice(&field.to_le_bytes());
                }
            }
            Frame::PeerResume { start_seq } => {
                buf.push(opcode::PEER_RESUME);
                buf.extend_from_slice(&start_seq.to_le_bytes());
            }
            Frame::Get { key } => {
                buf.push(opcode::GET);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::Put { key, value } => {
                buf.push(opcode::PUT);
                buf.extend_from_slice(&key.to_le_bytes());
                put_bytes(buf, value);
            }
            Frame::GetResp { cached, ts, value } => {
                buf.push(opcode::GET_RESP);
                buf.push(u8::from(*cached));
                put_ts(buf, *ts);
                put_bytes(buf, value);
            }
            Frame::PutResp { cached, ts } => {
                buf.push(opcode::PUT_RESP);
                buf.push(u8::from(*cached));
                put_ts(buf, *ts);
            }
            Frame::Protocol { msg, bytes } => put_protocol(buf, msg, bytes.as_deref()),
            Frame::MissGet { key } => {
                buf.push(opcode::MISS_GET);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::MissGetResp { value } => {
                buf.push(opcode::MISS_GET_RESP);
                put_bytes(buf, value);
            }
            Frame::MissPut {
                key,
                tag,
                writer,
                value,
            } => {
                buf.push(opcode::MISS_PUT);
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&tag.to_le_bytes());
                buf.push(*writer);
                put_bytes(buf, value);
            }
            Frame::MissPutResp { ts } => {
                buf.push(opcode::MISS_PUT_RESP);
                put_ts(buf, *ts);
            }
            Frame::MissRetry => buf.push(opcode::MISS_RETRY),
            Frame::WriteBack { key, value, ts } => {
                buf.push(opcode::WRITE_BACK);
                buf.extend_from_slice(&key.to_le_bytes());
                put_ts(buf, *ts);
                put_bytes(buf, value);
            }
            Frame::WriteBackResp { applied } => {
                buf.push(opcode::WRITE_BACK_RESP);
                buf.push(u8::from(*applied));
            }
            Frame::HotMark { key } => {
                buf.push(opcode::HOT_MARK);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::HotMarkResp { value, ts } => {
                buf.push(opcode::HOT_MARK_RESP);
                put_ts(buf, *ts);
                put_bytes(buf, value);
            }
            Frame::HotUnmark { key } => {
                buf.push(opcode::HOT_UNMARK);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::HotUnmarkResp => buf.push(opcode::HOT_UNMARK_RESP),
            Frame::InstallHot {
                key,
                value,
                ts,
                warm,
            } => {
                buf.push(opcode::INSTALL_HOT);
                buf.extend_from_slice(&key.to_le_bytes());
                put_ts(buf, *ts);
                buf.push(u8::from(*warm));
                put_bytes(buf, value);
            }
            Frame::InstallHotResp { ok } => {
                buf.push(opcode::INSTALL_HOT_RESP);
                buf.push(u8::from(*ok));
            }
            Frame::ActivateHot { key } => {
                buf.push(opcode::ACTIVATE_HOT);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::ActivateHotResp { ok } => {
                buf.push(opcode::ACTIVATE_HOT_RESP);
                buf.push(u8::from(*ok));
            }
            Frame::Evict { key } => {
                buf.push(opcode::EVICT);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Frame::EvictResp { existed } => {
                buf.push(opcode::EVICT_RESP);
                buf.push(u8::from(*existed));
            }
            Frame::FlipEpoch => buf.push(opcode::FLIP_EPOCH),
            Frame::FlipEpochResp {
                epoch,
                installed,
                evicted,
            } => {
                buf.push(opcode::FLIP_EPOCH_RESP);
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&installed.to_le_bytes());
                buf.extend_from_slice(&evicted.to_le_bytes());
            }
            Frame::Batch { frames } => {
                buf.push(opcode::BATCH);
                buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
                for frame in frames {
                    debug_assert!(!matches!(frame, Frame::Batch { .. }), "batches cannot nest");
                    encode_frame_into(buf, frame);
                }
            }
            Frame::Credit { cum, gen } => {
                buf.push(opcode::CREDIT);
                buf.extend_from_slice(&cum.to_le_bytes());
                buf.extend_from_slice(&gen.to_le_bytes());
            }
            Frame::RpcReq { corr, inner } => {
                debug_assert!(
                    !matches!(
                        **inner,
                        Frame::RpcReq { .. } | Frame::RpcResp { .. } | Frame::Batch { .. }
                    ),
                    "rpc envelopes wrap a single plain frame"
                );
                buf.push(opcode::RPC_REQ);
                buf.extend_from_slice(&corr.to_le_bytes());
                inner.encode_into(buf);
            }
            Frame::RpcResp { corr, inner } => {
                debug_assert!(
                    !matches!(
                        **inner,
                        Frame::RpcReq { .. } | Frame::RpcResp { .. } | Frame::Batch { .. }
                    ),
                    "rpc envelopes wrap a single plain frame"
                );
                buf.push(opcode::RPC_RESP);
                buf.extend_from_slice(&corr.to_le_bytes());
                inner.encode_into(buf);
            }
            Frame::Error { message } => {
                buf.push(opcode::ERROR);
                put_bytes(buf, message.as_bytes());
            }
            Frame::VersionFloor => buf.push(opcode::VERSION_FLOOR),
            Frame::VersionFloorResp { clock } => {
                buf.push(opcode::VERSION_FLOOR_RESP);
                buf.extend_from_slice(&clock.to_le_bytes());
            }
            Frame::CacheKeys => buf.push(opcode::CACHE_KEYS),
            Frame::CacheKeysResp { keys } => {
                buf.push(opcode::CACHE_KEYS_RESP);
                buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for key in keys {
                    buf.extend_from_slice(&key.to_le_bytes());
                }
            }
            Frame::Traced { id, inner } => {
                debug_assert!(
                    !matches!(**inner, Frame::Traced { .. } | Frame::Batch { .. }),
                    "trace envelopes wrap a single non-batch frame"
                );
                buf.push(opcode::TRACED);
                buf.extend_from_slice(&id.to_le_bytes());
                inner.encode_into(buf);
            }
            Frame::TraceDump => buf.push(opcode::TRACE_DUMP),
            Frame::TraceDumpResp { dropped, events } => {
                buf.push(opcode::TRACE_DUMP_RESP);
                buf.extend_from_slice(&dropped.to_le_bytes());
                buf.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for ev in events {
                    buf.extend_from_slice(&ev.trace_id.to_le_bytes());
                    buf.extend_from_slice(&ev.t_ns.to_le_bytes());
                    buf.extend_from_slice(&ev.key.to_le_bytes());
                    buf.push(ev.node);
                    buf.push(ev.shard);
                    buf.push(ev.kind as u8);
                    buf.push(ev.peer);
                }
            }
            Frame::Ping => buf.push(opcode::PING),
            Frame::Pong => buf.push(opcode::PONG),
            Frame::Shutdown => buf.push(opcode::SHUTDOWN),
        }
    }

    /// Decodes a frame payload produced by [`Frame::encode`].
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut cur = Cursor::new(payload);
        let op = cur.u8()?;
        let frame = match op {
            opcode::CLIENT_HELLO => Frame::ClientHello,
            opcode::PEER_HELLO => Frame::PeerHello {
                from: cur.u8()?,
                gen: cur.u64()?,
                processed: cur.u64()?,
                peer_gen: cur.u64()?,
            },
            opcode::PEER_HELLO_ACK => Frame::PeerHelloAck {
                processed: cur.u64()?,
                gen: cur.u64()?,
                start_seq: cur.u64()?,
            },
            opcode::PEER_RESUME => Frame::PeerResume {
                start_seq: cur.u64()?,
            },
            opcode::GET => Frame::Get { key: cur.u64()? },
            opcode::PUT => Frame::Put {
                key: cur.u64()?,
                value: cur.bytes()?,
            },
            opcode::GET_RESP => Frame::GetResp {
                cached: cur.u8()? != 0,
                ts: cur.ts()?,
                value: cur.bytes()?,
            },
            opcode::PUT_RESP => Frame::PutResp {
                cached: cur.u8()? != 0,
                ts: cur.ts()?,
            },
            opcode::PROTOCOL => {
                let kind = cur.u8()?;
                let key = cur.u64()?;
                let ts = cur.ts()?;
                let from = NodeId(cur.u8()?);
                let msg = match kind {
                    0 => ProtocolMsg::Invalidation { key, ts, from },
                    1 => ProtocolMsg::Ack { key, ts, from },
                    2 => ProtocolMsg::Update {
                        key,
                        value: cur.u64()?,
                        ts,
                        from,
                    },
                    other => return Err(WireError::BadOpcode(other)),
                };
                let bytes = match cur.u8()? {
                    0 => None,
                    _ => Some(cur.bytes()?),
                };
                Frame::Protocol { msg, bytes }
            }
            opcode::MISS_GET => Frame::MissGet { key: cur.u64()? },
            opcode::MISS_GET_RESP => Frame::MissGetResp {
                value: cur.bytes()?,
            },
            opcode::MISS_PUT => Frame::MissPut {
                key: cur.u64()?,
                tag: cur.u32()?,
                writer: cur.u8()?,
                value: cur.bytes()?,
            },
            opcode::MISS_PUT_RESP => Frame::MissPutResp { ts: cur.ts()? },
            opcode::MISS_RETRY => Frame::MissRetry,
            opcode::WRITE_BACK => Frame::WriteBack {
                key: cur.u64()?,
                ts: cur.ts()?,
                value: cur.bytes()?,
            },
            opcode::WRITE_BACK_RESP => Frame::WriteBackResp {
                applied: cur.u8()? != 0,
            },
            opcode::HOT_MARK => Frame::HotMark { key: cur.u64()? },
            opcode::HOT_MARK_RESP => Frame::HotMarkResp {
                ts: cur.ts()?,
                value: cur.bytes()?,
            },
            opcode::HOT_UNMARK => Frame::HotUnmark { key: cur.u64()? },
            opcode::HOT_UNMARK_RESP => Frame::HotUnmarkResp,
            opcode::INSTALL_HOT => Frame::InstallHot {
                key: cur.u64()?,
                ts: cur.ts()?,
                warm: cur.u8()? != 0,
                value: cur.bytes()?,
            },
            opcode::INSTALL_HOT_RESP => Frame::InstallHotResp { ok: cur.u8()? != 0 },
            opcode::ACTIVATE_HOT => Frame::ActivateHot { key: cur.u64()? },
            opcode::ACTIVATE_HOT_RESP => Frame::ActivateHotResp { ok: cur.u8()? != 0 },
            opcode::EVICT => Frame::Evict { key: cur.u64()? },
            opcode::EVICT_RESP => Frame::EvictResp {
                existed: cur.u8()? != 0,
            },
            opcode::FLIP_EPOCH => Frame::FlipEpoch,
            opcode::FLIP_EPOCH_RESP => Frame::FlipEpochResp {
                epoch: cur.u64()?,
                installed: cur.u32()?,
                evicted: cur.u32()?,
            },
            opcode::BATCH => {
                let count = cur.u32()? as usize;
                // Sized once, by what the bytes present could hold (a
                // sub-frame is at least its prefix and an opcode) — never
                // by the count alone, which is attacker-chosen.
                let mut frames = Vec::with_capacity(count.min((payload.len() - cur.pos) / 5));
                for _ in 0..count {
                    let sub = cur.slice()?;
                    if sub.first() == Some(&opcode::BATCH) {
                        return Err(WireError::NestedBatch);
                    }
                    frames.push(Frame::decode(sub)?);
                }
                Frame::Batch { frames }
            }
            opcode::CREDIT => Frame::Credit {
                cum: cur.u64()?,
                gen: cur.u64()?,
            },
            opcode::ERROR => Frame::Error {
                message: String::from_utf8_lossy(cur.slice()?).into_owned(),
            },
            opcode::VERSION_FLOOR => Frame::VersionFloor,
            opcode::VERSION_FLOOR_RESP => Frame::VersionFloorResp { clock: cur.u32()? },
            opcode::CACHE_KEYS => Frame::CacheKeys,
            opcode::CACHE_KEYS_RESP => {
                let count = cur.u32()? as usize;
                // Growth proportional to bytes present, not the claimed
                // count (same discipline as batch decoding).
                let mut keys = Vec::new();
                for _ in 0..count {
                    keys.push(cur.u64()?);
                }
                Frame::CacheKeysResp { keys }
            }
            opcode::TRACED => {
                let id = cur.u64()?;
                let rest = cur.take(payload.len() - 9)?;
                match rest.first() {
                    Some(&opcode::TRACED) | Some(&opcode::BATCH) => {
                        return Err(WireError::NestedTrace)
                    }
                    // Trace context goes inside the correlation envelope
                    // (RpcReq{Traced{..}}), never around it — allowing
                    // both would nest traced → rpc → traced without
                    // bound.
                    Some(&opcode::RPC_REQ) | Some(&opcode::RPC_RESP) => {
                        return Err(WireError::NestedTrace)
                    }
                    _ => {}
                }
                Frame::Traced {
                    id,
                    inner: Box::new(Frame::decode(rest)?),
                }
            }
            op @ (opcode::RPC_REQ | opcode::RPC_RESP) => {
                let corr = cur.u64()?;
                let rest = cur.take(payload.len() - 9)?;
                match rest.first() {
                    Some(&opcode::RPC_REQ) | Some(&opcode::RPC_RESP) | Some(&opcode::BATCH) => {
                        return Err(WireError::NestedRpc)
                    }
                    _ => {}
                }
                let inner = Box::new(Frame::decode(rest)?);
                if op == opcode::RPC_REQ {
                    Frame::RpcReq { corr, inner }
                } else {
                    Frame::RpcResp { corr, inner }
                }
            }
            opcode::TRACE_DUMP => Frame::TraceDump,
            opcode::TRACE_DUMP_RESP => {
                let dropped = cur.u64()?;
                let count = cur.u32()? as usize;
                // Growth proportional to bytes present, not the claimed
                // count (same discipline as batch decoding).
                let mut events = Vec::new();
                for _ in 0..count {
                    let trace_id = cur.u64()?;
                    let t_ns = cur.u64()?;
                    let key = cur.u64()?;
                    let node = cur.u8()?;
                    let shard = cur.u8()?;
                    let kind_byte = cur.u8()?;
                    let kind =
                        EventKind::from_u8(kind_byte).ok_or(WireError::BadOpcode(kind_byte))?;
                    let peer = cur.u8()?;
                    events.push(Event {
                        trace_id,
                        t_ns,
                        key,
                        node,
                        shard,
                        kind,
                        peer,
                    });
                }
                Frame::TraceDumpResp { dropped, events }
            }
            opcode::PING => Frame::Ping,
            opcode::PONG => Frame::Pong,
            opcode::SHUTDOWN => Frame::Shutdown,
            other => return Err(WireError::BadOpcode(other)),
        };
        cur.finish()?;
        Ok(frame)
    }
}

/// Writes one frame to `w` (length prefix + payload). Does not flush.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, frame);
    w.write_all(&buf)
}

/// Incrementally assembles one coalesced wire message out of pre-encoded
/// sub-frames, so a writer thread batching a burst never materialises
/// intermediate [`Frame`] values. Value bytes passed to
/// [`BatchBuilder::push_protocol_traced`] are serialised straight from the
/// caller's buffer (the broadcast-shared `Arc<[u8]>`), so fanning an update
/// out to N-1 peers never clones the value into per-peer `Frame`s.
///
/// A builder holding exactly one sub-frame writes it *unwrapped* — the
/// receiver sees an ordinary frame, so singleton bursts pay no batch
/// overhead and peers without batching interoperate unchanged.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    /// Length-prefixed encoded sub-frames, back to back — exactly the
    /// stream framing, which is what makes the singleton fast path free.
    buf: Vec<u8>,
    count: u32,
}

impl BatchBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sub-frames pushed so far.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Bytes accumulated so far (sub-frame payloads plus their prefixes).
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Appends a frame to the batch.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `frame` is itself a batch — batches never nest.
    pub fn push(&mut self, frame: &Frame) {
        debug_assert!(!matches!(frame, Frame::Batch { .. }), "batches cannot nest");
        encode_frame_into(&mut self.buf, frame);
        self.count += 1;
    }

    /// Appends a protocol message whose value bytes are held externally,
    /// wrapped in a [`Frame::Traced`] envelope when the message belongs to
    /// a sampled operation — without materialising intermediate [`Frame`]
    /// values.
    pub fn push_protocol_traced(
        &mut self,
        trace: Option<u64>,
        msg: &ProtocolMsg,
        bytes: Option<&[u8]>,
    ) {
        put_prefixed(&mut self.buf, |buf| {
            if let Some(id) = trace {
                buf.push(opcode::TRACED);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            put_protocol(buf, msg, bytes);
        });
        self.count += 1;
    }

    /// Appends the assembled message to `out` and resets the builder: a
    /// [`Frame::Batch`] when more than one sub-frame was pushed, the bare
    /// sub-frame when exactly one, nothing when empty.
    pub fn append_to(&mut self, out: &mut Vec<u8>) {
        match self.count {
            0 => {}
            // One sub-frame: `buf` is already exactly the stream encoding
            // of that single frame (length prefix + payload).
            1 => out.extend_from_slice(&self.buf),
            count => put_prefixed(out, |out| {
                out.push(opcode::BATCH);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(&self.buf);
            }),
        }
        self.buf.clear();
        self.count = 0;
    }
}

/// A streaming, resumable frame decoder for nonblocking connections.
///
/// Bytes arrive in whatever chunks the socket delivers — a frame may be
/// split across dozens of reads, or one read may carry many frames. The
/// decoder accumulates bytes in a [`reactor::ReadBuf`] and yields each
/// frame exactly when its length prefix and payload are complete,
/// producing byte-for-byte the frames [`read_frame`] would produce from
/// the same stream. It never errors on a partial frame (it just waits for
/// more bytes) and never busy-spins: [`FrameDecoder::next_frame`] returns
/// `Ok(None)` without consuming anything when starved.
///
/// Length prefixes are validated against [`MAX_FRAME_BYTES`] as soon as
/// the prefix is complete, so a corrupt 4 GB length is rejected before any
/// buffer grows to meet it.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: reactor::ReadBuf,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw stream bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend(bytes);
    }

    /// Reads once from `r` into the decode buffer, through a caller-owned
    /// scratch buffer shared across many connections (see
    /// [`reactor::ReadBuf::fill_via`]): nonblocking sources surface
    /// `WouldBlock` as `Ok(None)`; `Ok(Some(0))` is EOF.
    pub fn fill_via<R: Read>(
        &mut self,
        r: &mut R,
        scratch: &mut [u8],
    ) -> io::Result<Option<usize>> {
        self.buf.fill_via(r, scratch)
    }

    /// Bytes buffered and not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds a partial frame — an EOF now means the
    /// peer died mid-frame (truncation), not an orderly close.
    pub fn is_mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed. A decode failure poisons the stream (framing is lost for
    /// good), so callers should drop the connection on `Err`.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let data = self.buf.data();
        if data.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(data[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(len));
        }
        if data.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&data[4..4 + len])?;
        self.buf.consume(4 + len);
        Ok(Some(frame))
    }
}

/// Reads one frame from `r`. Returns `Ok(None)` only on a clean EOF at a
/// frame boundary (the peer closed the connection); an EOF part-way
/// through the length prefix or payload is a truncation error, so a peer
/// dying mid-frame is diagnosable rather than indistinguishable from an
/// orderly close.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    read_frame_via(r, &mut Vec::new())
}

/// [`read_frame`], reading the payload through a caller-owned scratch
/// buffer that a long-lived connection reuses from frame to frame.
pub fn read_frame_via<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<Option<Frame>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame (partial length prefix)",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(len).into());
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(Some(Frame::decode(payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_trace_envelopes_are_rejected() {
        // Hand-encode (encode() debug-asserts against nesting): an
        // envelope wrapping an envelope, and an envelope wrapping a batch.
        let inner = Frame::Traced {
            id: 2,
            inner: Box::new(Frame::Ping),
        }
        .encode();
        let mut traced_traced = vec![super::opcode::TRACED];
        traced_traced.extend_from_slice(&1u64.to_le_bytes());
        traced_traced.extend_from_slice(&inner);
        assert_eq!(Frame::decode(&traced_traced), Err(WireError::NestedTrace));

        let batch = Frame::Batch {
            frames: vec![Frame::Ping],
        }
        .encode();
        let mut traced_batch = vec![super::opcode::TRACED];
        traced_batch.extend_from_slice(&1u64.to_le_bytes());
        traced_batch.extend_from_slice(&batch);
        assert_eq!(Frame::decode(&traced_batch), Err(WireError::NestedTrace));

        // A truncated envelope (id but no inner frame) is a truncation.
        let mut empty = vec![super::opcode::TRACED];
        empty.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(Frame::decode(&empty), Err(WireError::Truncated));
    }

    #[test]
    fn nested_rpc_envelopes_are_rejected() {
        // Hand-encode (encode() debug-asserts against nesting). The bound
        // to defend: decode depth stays batch → rpc → traced → frame.
        let wrap = |op: u8, corr: u64, inner: &[u8]| {
            let mut buf = vec![op];
            buf.extend_from_slice(&corr.to_le_bytes());
            buf.extend_from_slice(inner);
            buf
        };
        let req = Frame::RpcReq {
            corr: 1,
            inner: Box::new(Frame::Ping),
        }
        .encode();
        // rpc-in-rpc, both directions.
        assert_eq!(
            Frame::decode(&wrap(super::opcode::RPC_REQ, 2, &req)),
            Err(WireError::NestedRpc)
        );
        assert_eq!(
            Frame::decode(&wrap(super::opcode::RPC_RESP, 2, &req)),
            Err(WireError::NestedRpc)
        );
        // batch-in-rpc.
        let batch = Frame::Batch {
            frames: vec![Frame::Ping],
        }
        .encode();
        assert_eq!(
            Frame::decode(&wrap(super::opcode::RPC_REQ, 2, &batch)),
            Err(WireError::NestedRpc)
        );
        // rpc-in-traced: trace context belongs inside the correlation
        // envelope, never around it.
        let mut traced_rpc = vec![super::opcode::TRACED];
        traced_rpc.extend_from_slice(&1u64.to_le_bytes());
        traced_rpc.extend_from_slice(&req);
        assert_eq!(Frame::decode(&traced_rpc), Err(WireError::NestedTrace));
        // A truncated envelope (corr but no inner frame) is a truncation.
        assert_eq!(
            Frame::decode(&wrap(super::opcode::RPC_REQ, 2, &[])),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn trace_dump_resp_rejects_unknown_event_kind() {
        let good = Frame::TraceDumpResp {
            dropped: 0,
            events: vec![Event {
                trace_id: 1,
                t_ns: 2,
                key: 3,
                node: 0,
                shard: 0,
                kind: EventKind::Decode,
                peer: cckvs_trace::NO_PEER,
            }],
        };
        let mut encoded = good.encode();
        // The kind byte is the second-to-last byte of the single event.
        // 0xEE was never assigned; 2 no longer is.
        let kind_at = encoded.len() - 2;
        for unknown in [0xEE, 2] {
            encoded[kind_at] = unknown;
            assert_eq!(Frame::decode(&encoded), Err(WireError::BadOpcode(unknown)));
        }
    }

    #[test]
    fn nested_batches_are_rejected() {
        // Hand-encode (encode() debug-asserts against nesting): an outer
        // batch whose single sub-frame is itself a batch.
        let inner = Frame::Batch {
            frames: vec![Frame::Ping],
        }
        .encode();
        let mut outer = vec![super::opcode::BATCH];
        outer.extend_from_slice(&1u32.to_le_bytes());
        outer.extend_from_slice(&(inner.len() as u32).to_le_bytes());
        outer.extend_from_slice(&inner);
        assert_eq!(Frame::decode(&outer), Err(WireError::NestedBatch));
    }

    #[test]
    fn batch_count_overrunning_payload_is_truncation() {
        let mut bytes = vec![super::opcode::BATCH];
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        // No sub-frames follow the claimed count of 1000.
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn batch_builder_matches_frame_encoding() {
        let frames = vec![
            Frame::Get { key: 7 },
            Frame::Put {
                key: 8,
                value: b"v".to_vec(),
            },
            Frame::Credit { cum: 2, gen: 1 },
        ];
        let mut builder = BatchBuilder::new();
        for f in &frames {
            builder.push(f);
        }
        assert_eq!(builder.count(), 3);
        let mut via_builder = Vec::new();
        builder.append_to(&mut via_builder);
        let mut via_frame = Vec::new();
        write_frame(&mut via_frame, &Frame::Batch { frames }).unwrap();
        assert_eq!(via_builder, via_frame);
        // The builder resets after writing.
        assert_eq!(builder.count(), 0);
        assert_eq!(builder.bytes(), 0);
    }

    #[test]
    fn batch_builder_traced_protocol_matches_frame_encoding() {
        let ts = Timestamp::new(4, NodeId(2));
        let msg = ProtocolMsg::Invalidation {
            key: 3,
            ts,
            from: NodeId(2),
        };
        let mut builder = BatchBuilder::new();
        builder.push_protocol_traced(Some(0xAB), &msg, None);
        builder.push_protocol_traced(None, &msg, None);
        let mut via_builder = Vec::new();
        builder.append_to(&mut via_builder);
        let mut via_frame = Vec::new();
        write_frame(
            &mut via_frame,
            &Frame::Batch {
                frames: vec![
                    Frame::Traced {
                        id: 0xAB,
                        inner: Box::new(Frame::Protocol { msg, bytes: None }),
                    },
                    Frame::Protocol { msg, bytes: None },
                ],
            },
        )
        .unwrap();
        assert_eq!(via_builder, via_frame);
    }

    #[test]
    fn stream_framing_roundtrips_multiple_frames() {
        let frames = vec![
            Frame::Get { key: 1 },
            Frame::Put {
                key: 2,
                value: vec![0u8; 300],
            },
            Frame::Ping,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap().unwrap(), f);
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_and_unknown_frames_are_rejected() {
        assert_eq!(Frame::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Frame::decode(&[0xFF]), Err(WireError::BadOpcode(0xFF)));
        // The retired rpc-role hello (`0x03`, `from: u8`) is unassigned.
        assert_eq!(Frame::decode(&[0x03, 9]), Err(WireError::BadOpcode(0x03)));
        let mut encoded = Frame::Get { key: 7 }.encode();
        encoded.pop();
        assert_eq!(Frame::decode(&encoded), Err(WireError::Truncated));
        // Trailing garbage is also a framing error.
        let mut padded = Frame::Ping.encode();
        padded.push(0);
        assert_eq!(Frame::decode(&padded), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
