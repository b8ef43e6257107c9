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

/// One wire type: how a field of a table-written frame is appended and
/// read back. The only codec a plain frame has is its fields', in the
/// order its row declares them.
trait Field: Sized {
    /// The type's name in [`opcode_table`] and `docs/WIRE.md`.
    const WIRE: &'static str;
    fn put(&self, buf: &mut Vec<u8>);
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.data.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Everything not yet read: the frame an envelope wraps.
    fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.pos..];
        self.pos = self.data.len();
        out
    }

    /// A length-prefixed run of bytes, borrowed from the payload.
    fn slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = u32::get(self)? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversized(len));
        }
        self.take(len)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).put(buf);
    buf.extend_from_slice(bytes);
}

/// Little-endian integers.
macro_rules! int_fields {
    ($($int:ident)*) => {$(
        impl Field for $int {
            const WIRE: &'static str = stringify!($int);
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                let bytes = cur.take(std::mem::size_of::<$int>())?;
                Ok($int::from_le_bytes(bytes.try_into().expect("sized by take")))
            }
        }
    )*};
}
int_fields!(u8 u32 u64);

/// One byte; any nonzero value reads as `true`.
impl Field for bool {
    const WIRE: &'static str = "bool";
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(u8::get(cur)? != 0)
    }
}

/// The 5-byte `(clock: u32, writer: u8)` pair.
impl Field for Timestamp {
    const WIRE: &'static str = "Timestamp";
    fn put(&self, buf: &mut Vec<u8>) {
        self.clock.put(buf);
        self.writer.0.put(buf);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Timestamp::new(u32::get(cur)?, NodeId(u8::get(cur)?)))
    }
}

/// A `u32` length, then the bytes.
impl Field for Vec<u8> {
    const WIRE: &'static str = "bytes";
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(cur.slice()?.to_vec())
    }
}

/// `bytes` holding UTF-8 (read lossily: the text is for people).
impl Field for String {
    const WIRE: &'static str = "bytes";
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(String::from_utf8_lossy(cur.slice()?).into_owned())
    }
}

/// One retained trace event, 28 bytes.
impl Field for Event {
    const WIRE: &'static str = "Event";
    fn put(&self, buf: &mut Vec<u8>) {
        self.trace_id.put(buf);
        self.t_ns.put(buf);
        self.key.put(buf);
        buf.extend_from_slice(&[self.node, self.shard, self.kind as u8, self.peer]);
    }
    fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Event {
            trace_id: u64::get(cur)?,
            t_ns: u64::get(cur)?,
            key: u64::get(cur)?,
            node: u8::get(cur)?,
            shard: u8::get(cur)?,
            kind: u8::get(cur)
                .and_then(|kind| EventKind::from_u8(kind).ok_or(WireError::BadOpcode(kind)))?,
            peer: u8::get(cur)?,
        })
    }
}

/// Count-prefixed lists: a `u32` count, then that many items.
macro_rules! list_fields {
    ($($item:ident)*) => {$(
        impl Field for Vec<$item> {
            const WIRE: &'static str = concat!("[", stringify!($item), "]");
            fn put(&self, buf: &mut Vec<u8>) {
                (self.len() as u32).put(buf);
                for item in self {
                    item.put(buf);
                }
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                let count = u32::get(cur)?;
                // Growth proportional to bytes present, not the claimed
                // count (same discipline as batch decoding).
                let mut items = Vec::new();
                for _ in 0..count {
                    items.push($item::get(cur)?);
                }
                Ok(items)
            }
        }
    )*};
}
list_fields!(u64 Event);

/// One row of [`opcode_table`]: frame name, opcode byte, and — for a frame
/// the table writes — its `(field, wire type)` list in wire order (`None`:
/// the payload is hand-written, see the `custom` section of `wire.rs`).
pub type OpcodeRow = (
    &'static str,
    u8,
    Option<&'static [(&'static str, &'static str)]>,
);

/// The protocol's vocabulary, each frame stated once. A row is the
/// variant's rustdoc, its opcode byte, its name and its fields; the macro
/// expands the rows to [`Frame`], [`opcode_table`], [`Frame::encode_into`]
/// and [`Frame::decode`].
///
/// * `plain` rows list their fields **in wire order** with their types:
///   the payload is the opcode byte, then each field's [`Field`] encoding.
///   Adding a frame is one row here, one row of `docs/WIRE.md` and one
///   entry (plus its golden bytes) in `tests/common::all_frames()`.
/// * `custom` rows — frames that carry other frames, and `Protocol`, whose
///   layout depends on the message kind — also name their opcode constant
///   and give the two hand-written halves of their codec as
///   `|buf| <append payload, opcode included>` and `|cur| <read what
///   follows the opcode>`.
///
/// rustfmt leaves the invocation alone (brace-delimited macro body); keep
/// rows in ascending opcode order and formatted like an enum.
macro_rules! frames {
    (
        plain {$(
            $(#[$doc:meta])*
            $op:literal $name:ident $({$(
                $(#[$fdoc:meta])*
                $field:ident: $ty:ty
            ),* $(,)?})?
        ),* $(,)?}
        custom {$(
            $(#[$cdoc:meta])*
            $cop:literal $cconst:ident $cname:ident {$(
                $(#[$cfdoc:meta])*
                $cfield:ident: $cty:ty
            ),* $(,)?} => |$buf:ident| $encode:expr, |$cur:ident| $decode:expr
        ),* $(,)?}
    ) => {
        /// The opcodes hand-written code names; a plain frame's is its row's.
        mod opcode {$(
            pub const $cconst: u8 = $cop;
        )*}

        /// One wire message.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Frame {
            $($(#[$doc])* $name $({$($(#[$fdoc])* $field: $ty),*})?,)*
            $($(#[$cdoc])* $cname {$($(#[$cfdoc])* $cfield: $cty),*},)*
        }

        /// The full opcode assignment in ascending opcode order, with the
        /// field list of every frame the table writes. This is the
        /// machine-readable form of the table in `docs/WIRE.md`; a test
        /// diffs the two so the document cannot drift from the protocol
        /// (`tests/wire_docs.rs`).
        pub fn opcode_table() -> Vec<OpcodeRow> {
            let mut table: Vec<OpcodeRow> = vec![
                $((stringify!($name), $op, Some(&[$($((stringify!($field), <$ty>::WIRE)),*)?])),)*
                $((stringify!($cname), $cop, None),)*
            ];
            table.sort_by_key(|row| row.1);
            table
        }

        impl Frame {
            /// [`Frame::encode_into`] a fresh buffer (tests; serving code appends).
            pub fn encode(&self) -> Vec<u8> {
                let mut buf = Vec::new();
                self.encode_into(&mut buf);
                buf
            }

            /// Appends the frame payload (opcode byte included, length
            /// prefix not) to `buf`; nested frames and batch sub-frames
            /// encode straight into the same buffer.
            pub fn encode_into(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Frame::$name $({$($field),*})? => {
                        buf.push($op);
                        $($($field.put(buf);)*)?
                    })*
                    $(Frame::$cname {$($cfield),*} => {
                        let $buf = buf;
                        $encode
                    })*
                }
            }

            /// Decodes a frame payload produced by [`Frame::encode`].
            pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
                let mut cur = Cursor { data: payload, pos: 0 };
                let frame = match u8::get(&mut cur)? {
                    $($op => Frame::$name $({$($field: <$ty>::get(&mut cur)?),*})?,)*
                    $($cop => {
                        let $cur = &mut cur;
                        $decode
                    })*
                    other => return Err(WireError::BadOpcode(other)),
                };
                cur.finish()?;
                Ok(frame)
            }
        }
    };
}

frames! {
    plain {
        /// Opens a client connection.
        0x01 ClientHello,
        /// Opens (or re-opens) the duplex protocol link from peer node `from`,
        /// the lower node id of the pair.
        ///
        /// `gen` stamps the sender's *process generation* — a value unique to
        /// one life of the sending process. The receiver tracks the highest
        /// generation seen per peer: a hello carrying a lower generation is a
        /// stale process (its connections are refused), a higher one means the
        /// peer crashed and restarted (triggering recovery), an equal one is
        /// the same process redialing after a transient link failure.
        0x02 PeerHello {
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
        0x04 PeerHelloAck {
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
        0x05 PeerResume {
            /// Sequence number of the next message on this link.
            start_seq: u64,
        },
        /// Client read request.
        0x10 Get {
            /// Key to read.
            key: u64,
        },
        /// Client write request.
        0x11 Put {
            /// Key to write.
            key: u64,
            /// Value bytes.
            value: Vec<u8>,
        },
        /// Response to [`Frame::Get`].
        0x12 GetResp {
            /// Whether the read was served by the symmetric cache (and thus
            /// carries a protocol timestamp and belongs in checked histories).
            cached: bool,
            /// Timestamp of the value read (zero on the miss path).
            ts: Timestamp,
            /// The value (empty if never written).
            value: Vec<u8>,
        },
        /// Response to [`Frame::Put`].
        0x13 PutResp {
            /// Whether the write went through the symmetric cache.
            cached: bool,
            /// Timestamp assigned by the protocol (zero on the miss path).
            ts: Timestamp,
        },
        /// Remote read of a cache-missing key, sent to the key's home node.
        0x30 MissGet {
            /// Key to read.
            key: u64,
        },
        /// Response to [`Frame::MissGet`].
        0x31 MissGetResp {
            /// The value (empty if never written).
            value: Vec<u8>,
        },
        /// Forwarded write of a cache-missing key, sent to the key's home node.
        0x32 MissPut {
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
        0x33 MissPutResp {
            /// Home-assigned version of the write.
            ts: Timestamp,
        },
        /// Write-back of a dirty evicted cache value to the key's home shard
        /// (rpc path). Versioned: every replica evicts its own copy, the home
        /// keeps the newest.
        0x34 WriteBack {
            /// Key being written back.
            key: u64,
            /// Protocol timestamp of the value.
            ts: Timestamp,
            /// The evicted dirty value.
            value: Vec<u8>,
        },
        /// Response to [`Frame::WriteBack`].
        0x35 WriteBackResp {
            /// Whether the value was applied (false: a newer version was
            /// already stored).
            applied: bool,
        },
        /// Fences a key at its home shard for a hot-set transition and fetches
        /// its value and version: until [`Frame::HotUnmark`], the home bounces
        /// cold reads and writes of it with [`Frame::MissRetry`].
        0x36 HotMark {
            /// Key in transition.
            key: u64,
        },
        /// Response to [`Frame::HotMark`].
        0x37 HotMarkResp {
            /// The shard's stored version of the value.
            ts: Timestamp,
            /// The shard's current value (empty if never written).
            value: Vec<u8>,
        },
        /// Lifts a key's fence at its home shard: a transition's last call,
        /// once every replica answered.
        0x38 HotUnmark {
            /// Key in transition.
            key: u64,
        },
        /// Response to [`Frame::HotUnmark`].
        0x39 HotUnmarkResp,
        /// Answer to a miss-path request for a key that is mid-transition into
        /// or out of the hot set: the sender retries (by then the key is either
        /// cached at the serving node or cold at the home shard).
        0x3A MissRetry,
        /// Installs a hot key into the node's symmetric cache (coordinator /
        /// rack-launcher admin path) at the version its home shard stored it
        /// at, so the per-key Lamport clock continues across epochs. A `warm`
        /// install stays invisible to client reads/writes (while participating
        /// in the coherence protocol) until [`Frame::ActivateHot`] — the
        /// coordinator warms every replica before activating any, so no write
        /// ever commits against a half-installed hot set.
        0x40 InstallHot {
            /// Key to install.
            key: u64,
            /// Home-shard version of the value (`Timestamp::ZERO` for a fresh
            /// dataset).
            ts: Timestamp,
            /// Whether to install in the warming state.
            warm: bool,
            /// Initial value.
            value: Vec<u8>,
        },
        /// Response to [`Frame::InstallHot`].
        0x41 InstallHotResp {
            /// Whether the key was installed (false: cache full).
            ok: bool,
        },
        /// Evicts a key from the node's symmetric cache (epoch change /
        /// failed-install rollback; admin path). A dirty value is written back
        /// to the key's home shard before the response is sent.
        0x42 Evict {
            /// Key to evict.
            key: u64,
        },
        /// Response to [`Frame::Evict`].
        0x43 EvictResp {
            /// Whether the key was cached.
            existed: bool,
        },
        /// Asks the epoch coordinator to close the current popularity epoch and
        /// reconfigure the deployment's hot set now (admin path).
        0x44 FlipEpoch,
        /// Response to [`Frame::FlipEpoch`].
        0x45 FlipEpochResp {
            /// The epoch that was closed.
            epoch: u64,
            /// Keys installed into the hot set by this flip.
            installed: u32,
            /// Keys evicted from the hot set by this flip.
            evicted: u32,
        },
        /// Activates a warming hot key (epoch admin path; second phase of a
        /// live install).
        0x46 ActivateHot {
            /// Key to activate.
            key: u64,
        },
        /// Response to [`Frame::ActivateHot`].
        0x47 ActivateHotResp {
            /// Whether the key was present.
            ok: bool,
        },
        /// Liveness probe.
        0x50 Ping,
        /// Response to [`Frame::Ping`].
        0x51 Pong,
        /// Asks the node to shut down (admin path; used by launchers and
        /// tests to stop remote `cckvs-node` processes).
        0x52 Shutdown,
        /// Asks the node for its current cold-version counter (admin path). A
        /// supervisor polls this while the node serves and passes the last
        /// observed value (plus slack) to a restarted replacement via
        /// `--cold-floor`, so home-assigned versions stay monotone across the
        /// crash — an in-memory shard cannot remember them itself, and a
        /// restarted home reusing `(clock, writer)` pairs would make
        /// cross-crash histories ambiguous.
        0x54 VersionFloor,
        /// Response to [`Frame::VersionFloor`].
        0x55 VersionFloorResp {
            /// The node's current cold-version counter.
            clock: u32,
        },
        /// Asks the node for the keys its symmetric cache currently holds
        /// (admin path). By symmetry this is the deployment's hot set; a
        /// supervisor queries a survivor when restarting a crashed node — the
        /// replacement boots with those of the keys it homes *fenced*
        /// (`--hot-fence`), and cache symmetry is then healed by evicting the
        /// hot set rack-wide.
        0x56 CacheKeys,
        /// Response to [`Frame::CacheKeys`].
        0x57 CacheKeysResp {
            /// The cached keys, in no particular order.
            keys: Vec<u64>,
        },
        /// Asks the node for its retained trace events (admin path). The
        /// node drains its per-shard rings and returns the bounded store;
        /// `cckvs-trace` merges dumps from every node into per-op timelines.
        0x58 TraceDump,
        /// Response to [`Frame::TraceDump`].
        0x59 TraceDumpResp {
            /// Events dropped node-side because a ring lane was full (a
            /// nonzero value means dumped timelines may have holes).
            dropped: u64,
            /// The retained events, oldest first.
            events: Vec<Event>,
        },
        /// Cumulative flow-control acknowledgement for a peer link. Each
        /// protocol message sent to a peer consumes one credit; the peer
        /// confirms *processing* by echoing its cumulative processed count,
        /// piggybacked on batches flowing in the reverse direction — so a fast
        /// writer (a Lin ack round fanning out) can never overrun a slow
        /// receiver by more than the credit window. Cumulative (TCP-ack style)
        /// rather than incremental: a credit frame lost with a severed link is
        /// subsumed by the next one, so reconnects never leak window.
        0x61 Credit {
            /// Cumulative messages processed from the receiving node, in the
            /// receiving node's sequence numbering.
            cum: u64,
            /// The process generation whose numbering `cum` refers to (the
            /// confirmed direction's sender generation). A receiver whose own
            /// generation differs ignores the frame — a restarted sender must
            /// not interpret confirmations addressed to its predecessor.
            gen: u64,
        },
        /// The request failed server-side (e.g. a value over the shard's
        /// capacity); carries a human-readable reason. Sent in place of the
        /// normal response so client-controlled input never kills a server
        /// thread.
        0x7E Error {
            /// Why the request failed.
            message: String,
        },
    }
    custom {
        /// A consistency-protocol message, with the update's value bytes
        /// attached when present.
        0x20 PROTOCOL Protocol {
            /// The protocol message.
            msg: ProtocolMsg,
            /// Value bytes accompanying `Update` messages.
            bytes: Option<Vec<u8>>,
        } => |buf| put_protocol(buf, msg, bytes.as_deref()), |cur| get_protocol(cur)?,
        /// A coalesced run of frames travelling as one wire message (§6.3/§6.4:
        /// requests and coherence traffic are batched to amortise per-message
        /// network cost). Sub-frames are individually length-prefixed and
        /// decoded with the ordinary [`Frame::decode`]; batches never nest. On
        /// client connections a batch of requests is answered by one batch of
        /// responses in the same order; on peer links batches carry protocol
        /// messages and piggybacked [`Frame::Credit`] returns.
        0x60 BATCH Batch {
            /// The coalesced frames, in send order.
            frames: Vec<Frame>,
        } => |buf| put_batch(buf, frames), |cur| get_batch(cur)?,
        /// A correlated request multiplexed over a peer link. Miss-path RPCs
        /// (and admin write-backs) travel as flow-controlled items on the
        /// crash-surviving peer mesh instead of pooled blocking connections:
        /// the sender registers `corr` in its pending-RPC table and resumes
        /// the suspended client op when the matching [`Frame::RpcResp`]
        /// arrives back on the same link. Retained-until-confirmed delivery
        /// (the PR 5 replay machinery) carries these across link severs and
        /// peer restarts like any protocol message.
        0x62 RPC_REQ RpcReq {
            /// Correlation id, unique per sending process lifetime.
            corr: u64,
            /// The request (a `MissGet`/`MissPut`/`WriteBack`/… frame,
            /// optionally wrapped in [`Frame::Traced`]).
            inner: Box<Frame>,
        } => |buf| put_envelope(buf, opcode::RPC_REQ, *corr, inner, &RPC_WRAPS_NO),
            |cur| Frame::RpcReq {
                corr: u64::get(cur)?,
                inner: get_inner(cur, &RPC_WRAPS_NO, WireError::NestedRpc)?,
            },
        /// The response to the [`Frame::RpcReq`] carrying the same `corr`.
        /// A response whose correlation id is unknown at the requester (the
        /// request was already answered once — e.g. re-served after a peer
        /// restart replay) is dropped, which is what makes RPC resolution
        /// exactly-once from the suspended op's point of view.
        0x63 RPC_RESP RpcResp {
            /// Correlation id echoed from the request.
            corr: u64,
            /// The response frame (optionally wrapped in [`Frame::Traced`]).
            inner: Box<Frame>,
        } => |buf| put_envelope(buf, opcode::RPC_RESP, *corr, inner, &RPC_WRAPS_NO),
            |cur| Frame::RpcResp {
                corr: u64::get(cur)?,
                inner: get_inner(cur, &RPC_WRAPS_NO, WireError::NestedRpc)?,
            },
        /// Trace-context envelope: annotates one ordinary frame with the
        /// rack-wide trace id of the sampled client operation it belongs to.
        /// Receivers that trace record span events against `id` and then
        /// process `inner` exactly as if it had arrived bare; responses
        /// travel unwrapped (the sampler already knows the id). Envelopes
        /// wrap single frames only — a batch's sub-frames carry their own —
        /// and an envelope on a peer link consumes the flow-control credit
        /// of its inner frame.
        0x7F TRACED Traced {
            /// The operation's rack-wide trace id (nonzero by convention).
            id: u64,
            /// The annotated frame.
            inner: Box<Frame>,
        } => |buf| put_envelope(buf, opcode::TRACED, *id, inner, &TRACED_WRAPS_NO),
            |cur| Frame::Traced {
                id: u64::get(cur)?,
                inner: get_inner(cur, &TRACED_WRAPS_NO, WireError::NestedTrace)?,
            },
    }
}

// ---- custom: the hand-written halves the `custom` rows above name ----

fn put_protocol(buf: &mut Vec<u8>, msg: &ProtocolMsg, bytes: Option<&[u8]>) {
    buf.push(opcode::PROTOCOL);
    let (kind, key, ts, from) = match msg {
        ProtocolMsg::Invalidation { key, ts, from } => (0u8, key, ts, from),
        ProtocolMsg::Ack { key, ts, from } => (1, key, ts, from),
        ProtocolMsg::Update { key, ts, from, .. } => (2, key, ts, from),
    };
    kind.put(buf);
    key.put(buf);
    ts.put(buf);
    from.0.put(buf);
    if let ProtocolMsg::Update { value, .. } = msg {
        value.put(buf);
    }
    match bytes {
        None => buf.push(0),
        Some(b) => {
            buf.push(1);
            put_bytes(buf, b);
        }
    }
}

// An arm of `decode`, like `get_batch`: inlined, the cursor stays in registers.
#[inline(always)]
fn get_protocol(cur: &mut Cursor<'_>) -> Result<Frame, WireError> {
    let kind = u8::get(cur)?;
    let key = u64::get(cur)?;
    let ts = Timestamp::get(cur)?;
    let from = NodeId(u8::get(cur)?);
    let msg = match kind {
        0 => ProtocolMsg::Invalidation { key, ts, from },
        1 => ProtocolMsg::Ack { key, ts, from },
        2 => ProtocolMsg::Update {
            key,
            value: u64::get(cur)?,
            ts,
            from,
        },
        other => return Err(WireError::BadOpcode(other)),
    };
    let bytes = match u8::get(cur)? {
        0 => None,
        _ => Some(Vec::get(cur)?),
    };
    Ok(Frame::Protocol { msg, bytes })
}

fn put_batch(buf: &mut Vec<u8>, frames: &[Frame]) {
    buf.push(opcode::BATCH);
    (frames.len() as u32).put(buf);
    for frame in frames {
        debug_assert!(!matches!(frame, Frame::Batch { .. }), "batches cannot nest");
        encode_frame_into(buf, frame);
    }
}

#[inline(always)]
fn get_batch(cur: &mut Cursor<'_>) -> Result<Frame, WireError> {
    let count = u32::get(cur)? as usize;
    // Sized once, by what the bytes present could hold (a sub-frame is at
    // least its prefix and an opcode) — never by the count alone, which is
    // attacker-chosen.
    let mut frames = Vec::with_capacity(count.min((cur.data.len() - cur.pos) / 5));
    for _ in 0..count {
        let sub = cur.slice()?;
        if sub.first() == Some(&opcode::BATCH) {
            return Err(WireError::NestedBatch);
        }
        frames.push(Frame::decode(sub)?);
    }
    Ok(Frame::Batch { frames })
}

/// What a correlation envelope cannot wrap ([`WireError::NestedRpc`]).
const RPC_WRAPS_NO: [u8; 3] = [opcode::RPC_REQ, opcode::RPC_RESP, opcode::BATCH];

/// What a trace envelope cannot wrap ([`WireError::NestedTrace`]). Trace
/// context goes inside the correlation envelope (`RpcReq{Traced{..}}`),
/// never around it — allowing both would nest traced → rpc → traced
/// without bound.
const TRACED_WRAPS_NO: [u8; 4] = [
    opcode::TRACED,
    opcode::BATCH,
    opcode::RPC_REQ,
    opcode::RPC_RESP,
];

/// An envelope: its opcode, its id, then the wrapped frame's payload.
fn put_envelope(buf: &mut Vec<u8>, opcode: u8, id: u64, inner: &Frame, wraps_no: &[u8]) {
    buf.push(opcode);
    id.put(buf);
    let at = buf.len();
    inner.encode_into(buf);
    debug_assert!(
        !wraps_no.contains(&buf[at]),
        "envelope {opcode:#x} cannot wrap a frame of opcode {:#x}",
        buf[at]
    );
}

/// The frame an envelope wraps: what is left of the payload, unless its
/// opcode is one of `wraps_no`, which is `refused`.
fn get_inner(
    cur: &mut Cursor<'_>,
    wraps_no: &[u8],
    refused: WireError,
) -> Result<Box<Frame>, WireError> {
    let rest = cur.rest();
    if rest.first().is_some_and(|op| wraps_no.contains(op)) {
        return Err(refused);
    }
    Ok(Box::new(Frame::decode(rest)?))
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
                id.put(buf);
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
                count.put(out);
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
