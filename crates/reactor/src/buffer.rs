//! Growable read/write buffers for nonblocking connection state machines.

use std::io::{self, Read, Write};

/// How many bytes one readiness event reads at most before yielding back
/// to the event loop, so a firehose connection cannot starve its shard.
/// Also the scratch size event loops should pass to [`ReadBuf::fill_via`].
pub const READ_CHUNK: usize = 64 * 1024;

/// A growable receive buffer that a streaming decoder consumes from.
///
/// Bytes accumulate at the tail; the decoder consumes from the head.
/// Consumed space is reclaimed lazily (compaction only once the dead
/// prefix outweighs the live bytes), so per-event costs stay amortised
/// O(bytes moved).
#[derive(Debug, Default)]
pub struct ReadBuf {
    buf: Vec<u8>,
    head: usize,
}

impl ReadBuf {
    /// An empty buffer.
    pub fn new() -> ReadBuf {
        ReadBuf::default()
    }

    /// The unconsumed bytes.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Number of unconsumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Appends bytes (test harnesses and in-memory feeds).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Marks `n` bytes consumed from the head.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.head += n;
        // Compact when the dead prefix dominates; keeps the buffer from
        // growing without bound on a long-lived connection.
        if self.head > 4096 && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Reads once from `r` into the tail. Returns `Ok(Some(0))` on EOF,
    /// `Ok(None)` when the source has no bytes right now (`WouldBlock`),
    /// and the byte count otherwise. At most [`READ_CHUNK`] bytes per call.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<Option<usize>> {
        let mut scratch = [0u8; READ_CHUNK];
        self.fill_via(r, &mut scratch)
    }

    /// Like [`ReadBuf::fill_from`], but reads through a caller-owned
    /// scratch buffer. An event loop serving thousands of connections
    /// shares ONE scratch across all of them: the per-read cost is then a
    /// copy of the bytes that actually arrived, not a 64 KB zeroing of
    /// every connection's cold tail (which dominates at high connection
    /// counts — the scratch stays hot in cache, the per-connection
    /// buffers hold only real data).
    pub fn fill_via<R: Read>(
        &mut self,
        r: &mut R,
        scratch: &mut [u8],
    ) -> io::Result<Option<usize>> {
        match r.read(scratch) {
            Ok(n) => {
                self.buf.extend_from_slice(&scratch[..n]);
                Ok(Some(n))
            }
            // Interrupted reads retry on the next level-triggered
            // readiness event, same as an empty socket buffer.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// A pending-output buffer with nonblocking draining.
///
/// Frames are appended whole; [`WriteBuf::flush_to`] writes as much as the
/// socket accepts and keeps the rest for the next writability event. The
/// buffered byte count is the server's backpressure signal: a connection
/// whose peer stops reading accumulates here instead of blocking a thread.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    head: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Bytes queued and not yet accepted by the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Queues bytes for writing.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A sink implementing [`Write`] that appends to this buffer (frame
    /// encoders write straight in, no intermediate allocation: the
    /// server's are `cckvs_net::wire::encode_frame_into`, which takes
    /// exactly this `&mut Vec<u8>`, and `BatchBuilder::append_to`).
    pub fn writer(&mut self) -> &mut Vec<u8> {
        // Compaction first so the Vec hand-out cannot interleave with a
        // stale head offset.
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        &mut self.buf
    }

    /// Writes as much pending output to `w` as it accepts without
    /// blocking. Returns `true` when the buffer drained completely,
    /// `false` when bytes remain (the caller should await writability).
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }
}
