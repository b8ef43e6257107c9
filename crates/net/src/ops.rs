//! One client connection's op machine: the decoded-request queue and the
//! single request suspended mid-execution, with everything that decides
//! what a `Get`, a `Put`, a batch or an admin frame does next — probe the
//! cache, fall to the home shard, park on a commit or a miss-path RPC,
//! bounce off a hot-set transition and retry, give up.
//!
//! Like [`crate::link`] and [`crate::rpc`], nothing here owns a socket, a
//! thread, a lock, a timer or a clock. Inputs are [`ConnOps::push`] (a
//! decoded client frame), [`ConnOps::resume`] (a wake event) and
//! [`ConnOps::run`] (make what progress is possible, given the driver's
//! reading of the time); outputs are response frames in request order and a
//! [`Step`] naming the retry delay to arm, if any. The machine calls the
//! connection's [`CcNode`] directly; whatever else an operation touches
//! crosses the [`OpsHost`] trait. Two drivers implement it: the reactor
//! shard (`server.rs`, one `ConnOps` per client connection, wake events
//! routed by token) and `cckvs-modelcheck`'s `RackModel` (one per simulated
//! session, every event a scheduler choice).
//!
//! A connection has at most one request in flight and the rest wait in
//! arrival order, so responses leave in request order and a session's
//! program order is what the node executes.

use crate::wire::Frame;
use cckvs::node::{CachePut, CcNode, ColdPut, Outgoing};
pub use cckvs_trace::EventKind;
use cckvs_trace::NO_PEER;
use consistency::lamport::Timestamp;
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};
use symcache::{ReadOutcome, ReadProbe};

/// How long an operation keeps retrying while its key transitions into or
/// out of the hot set before giving up (transitions take milliseconds;
/// this bound only matters if the coordinator dies mid-reconfiguration).
pub const HOT_TRANSITION_RETRY: Duration = Duration::from_secs(5);

/// First bounce-retry delay for an op whose key is mid-transition
/// (stalled cache entry, `MissRetry` answer); doubles up to
/// [`RETRY_BACKOFF_MAX`] per attempt. Stalls are usually just a Lin
/// write's invalidation window (~100µs of ack wait), so the first
/// retries ride the timer wheel's 50µs fine slots — a read that lands
/// mid-write resumes with the update instead of idling a full coarse
/// tick (1 ms, the old floor, which put a millisecond into the batched
/// read tail every time one op of a batch grazed a write).
pub const RETRY_BACKOFF_START: Duration = Duration::from_micros(50);
/// Bounce-retry backoff cap.
pub const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(2);

/// A driver's notion of time. The reactor passes [`Instant`]s; a driver
/// that models no time passes `()`, whose deadlines never come.
pub trait Time: Copy + PartialEq + fmt::Debug {
    /// `self` moved `d` into the future.
    fn plus(self, d: Duration) -> Self;
    /// Whether `self` is at or past `deadline`.
    fn reached(self, deadline: Self) -> bool;
    /// The time from `earlier` to `self`.
    fn since(self, earlier: Self) -> Duration;
}

impl Time for Instant {
    fn plus(self, d: Duration) -> Self {
        self + d
    }
    fn reached(self, deadline: Self) -> bool {
        self >= deadline
    }
    fn since(self, earlier: Self) -> Duration {
        self.saturating_duration_since(earlier)
    }
}

impl Time for () {
    fn plus(self, _: Duration) {}
    fn reached(self, _: Self) -> bool {
        false
    }
    fn since(self, _: Self) -> Duration {
        Duration::ZERO
    }
}

/// A count or duration the machine reports as it serves; the driver maps
/// each onto its metrics (or ignores it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// A client batch of this many sub-requests was decoded.
    Batch(usize),
    /// A `Get` of this key began (once per logical op, however many
    /// retries follow).
    Get(u64),
    /// A `Put` of this key began (likewise once).
    Put(u64),
    /// The op was served by the symmetric cache (`true`) or the miss path.
    Cache(bool),
    /// A `Get` was answered from the cache without suspending.
    InlineGet,
    /// A cold read was answered by a remote home shard.
    RemoteRead,
    /// A cold write was applied by a remote home shard.
    RemoteWrite,
    /// A Lin write waited this long for its last acknowledgement.
    LinAckWait(Duration),
}

/// What a [`ConnOps`] needs from the process around it. Statically
/// dispatched; exactly two drivers implement it (see the module docs).
pub trait OpsHost {
    /// The node serving this connection.
    fn node(&self) -> &CcNode;
    /// The tag the next cache write of `value` travels under (protocol
    /// messages carry it in the value's stead; it is diagnostic).
    fn write_tag(&mut self, value: &[u8]) -> u64;
    /// Sends the miss-path `request` toward `home` and returns its
    /// correlation id; the answer comes back as [`ResumeEvent::Rpc`] or
    /// [`ResumeEvent::RpcFailed`] under that id. `None`: it could not be
    /// queued.
    fn issue_rpc(&mut self, home: usize, request: Frame) -> Option<u64>;
    /// Ships the protocol messages a cache write produced, under the op's
    /// trace id.
    fn ship(&mut self, outgoing: Vec<Outgoing>, trace: Option<u64>);
    /// Arranges for a [`ResumeEvent::Committed`] once the pending Lin
    /// write `(key, ts)` commits. Called before its invalidations ship.
    fn on_commit(&mut self, key: u64, ts: Timestamp);
    /// Serves a frame that is neither a `Get` nor a `Put`: liveness,
    /// diagnostics, cache-fill and home-shard admin on the spot, an
    /// `Evict` or `FlipEpoch` through a lane that may block on it.
    fn serve(&mut self, frame: Frame) -> Served;
    /// Books a count or duration.
    fn note(&mut self, note: Note);
    /// Records a trace event of the op travelling under `trace` (a no-op
    /// for an unsampled op).
    fn trace(&mut self, trace: Option<u64>, kind: EventKind, key: u64, peer: u8);
}

/// What [`OpsHost::serve`] did with a frame.
#[derive(Debug)]
pub enum Served {
    /// Answered it.
    Now(Frame),
    /// Handed it to another thread; [`ResumeEvent::Admin`] brings the
    /// answer.
    Later,
    /// The connection ends: a `Shutdown`, a frame no client may send, or
    /// nobody left to hand it to.
    Close,
}

/// What woke a suspended client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeEvent {
    /// The pending Lin write committed: whoever delivered the final
    /// acknowledgement fired the registered commit hook.
    Committed,
    /// The correlated miss-path RPC `corr` resolved with this response.
    Rpc { corr: u64, response: Frame },
    /// The correlated miss-path RPC `corr` failed (peer dead past the
    /// transport deadline, or server shutdown).
    RpcFailed { corr: u64, message: String },
    /// The off-shard admin lane finished the suspended admin frame;
    /// `None` if it failed.
    Admin { response: Option<Frame> },
}

/// What [`ConnOps::run`] asks of the driver beyond writing the responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Nothing: the connection is between requests, or parked on an event.
    Wait,
    /// The current op bounced off a hot-set transition: run again after
    /// this long (any earlier run retries too).
    Retry(Duration),
    /// Protocol violation or unrecoverable failure: close the connection.
    Close,
}

/// A client request parked mid-execution. This is the continuation that
/// replaced the worker-pool handoff: instead of a parked thread, the
/// suspended state is a few dozen bytes on the connection, and the event
/// that ends the wait (the final Lin ack, the RPC response frame, a retry
/// tick, the admin job's result) resumes it in place.
#[derive(Debug, Clone, PartialEq)]
struct Suspended<T> {
    /// Responses produced so far (request *k*'s response sits at
    /// position *k*; empty for a non-batch request).
    done: Vec<Frame>,
    /// A batch's sub-frames not yet started.
    rest: VecDeque<Frame>,
    /// The request arrived as a [`Frame::Batch`] (decides the response
    /// shape — one coalesced batch vs. a bare frame).
    batch: bool,
    /// Trace id of the sub-request currently in flight.
    trace: Option<u64>,
    /// The sub-request currently being served.
    op: PendingOp,
    /// What it is waiting for.
    wait: Wait<T>,
    /// Give-up deadline for hot-transition bounces of the current op.
    deadline: T,
    /// Next bounce-retry delay (doubles per bounce).
    backoff: Duration,
    /// The current op's one-per-logical-op notes (op count, popularity
    /// observation) have been made, however many retries follow.
    counted: bool,
    /// Miss-path reads of this batch whose [`Frame::MissGet`] RPCs were
    /// issued ahead of their turn, so cold reads overlap instead of
    /// paying one serialized peer round-trip each. Responses that arrive
    /// before their sub-request runs park here; the sub-request consumes
    /// them inline.
    prefetch: Vec<PrefetchSlot>,
}

/// One prefetched miss-path read of a batched request.
#[derive(Debug, Clone, PartialEq)]
struct PrefetchSlot {
    key: u64,
    corr: u64,
    state: PrefetchState,
}

#[derive(Debug, Clone, PartialEq)]
enum PrefetchState {
    /// The RPC is in flight; the sub-request parks on `corr` when it
    /// runs (no second RPC is issued).
    InFlight,
    /// The response landed before the sub-request ran.
    Arrived(Frame),
    /// The RPC failed past the redial budget; surfaced to the client as
    /// a protocol error exactly like the non-prefetched path.
    Failed(String),
}

/// The operation a [`Suspended`] request is executing.
#[derive(Debug, Clone, PartialEq)]
enum PendingOp {
    Get {
        key: u64,
    },
    Put {
        key: u64,
        value: Vec<u8>,
    },
    /// Any other frame: [`OpsHost::serve`]'s, handed over at first
    /// attempt.
    Other(Frame),
}

impl PendingOp {
    /// The key the op refers to, for trace annotation and error text.
    fn key(&self) -> u64 {
        match self {
            PendingOp::Get { key } | PendingOp::Put { key, .. } => *key,
            PendingOp::Other(_) => 0,
        }
    }
}

/// What a suspended request is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wait<T = Instant> {
    /// Nothing — attempt (or re-attempt) the op on the next run.
    Runnable,
    /// The Lin write at `ts` is collecting acks; whoever delivers the
    /// final one fires [`ResumeEvent::Committed`] through the registered
    /// commit hook.
    LinCommit { ts: Timestamp, started: T },
    /// A correlated miss-path RPC is in flight toward the key's home.
    Rpc { corr: u64 },
    /// A hot-transition bounce asked for a retry tick; re-attempt when it
    /// fires.
    Retry,
    /// An admin job (an `Evict`, a forced epoch flip) is running
    /// off-shard.
    Admin,
}

/// One attempt at a [`PendingOp`]: what the op did this probe.
enum Attempt<T> {
    /// Finished with this response.
    Respond(Frame),
    /// Parked; the wait's wake event re-enters the state machine.
    Park(Wait<T>),
    /// The key is mid-transition (stalled entry, busy home shard):
    /// bounce — retry after a tick, or give up past the deadline.
    Bounce,
    /// Protocol violation or unrecoverable failure: close the connection.
    Fail,
}

/// Splits a trace envelope off a frame (identity for untraced frames).
pub(crate) fn peel_trace(frame: Frame) -> (Option<u64>, Frame) {
    match frame {
        Frame::Traced { id, inner } => (Some(id), *inner),
        frame => (None, frame),
    }
}

/// The key a client frame refers to, for trace event annotation.
fn frame_key(frame: &Frame) -> u64 {
    match frame {
        Frame::Get { key } | Frame::Put { key, .. } => *key,
        _ => 0,
    }
}

/// Re-wraps a peeled frame in its trace envelope for a path that carries
/// frames, not `(trace, frame)` pairs.
fn rewrap_trace(trace: Option<u64>, frame: Frame) -> Frame {
    match trace {
        Some(id) => Frame::Traced {
            id,
            inner: Box::new(frame),
        },
        None => frame,
    }
}

/// One client connection's op machine; see the module docs.
#[derive(Clone)]
pub struct ConnOps<T = Instant> {
    /// Decoded requests waiting their turn (one request in flight at a
    /// time keeps responses in request order).
    pending: VecDeque<Frame>,
    /// Wake events not yet applied, in arrival order.
    resumes: VecDeque<ResumeEvent>,
    /// The connection's one request slot: allocated by its first request
    /// and kept for its lifetime, so its queues keep their capacity and
    /// answering a request builds nothing.
    slot: Option<Box<Suspended<T>>>,
    /// Whether `slot` holds a request in flight; between requests what it
    /// holds is stale and no observer sees it.
    in_flight: bool,
}

impl<T> Default for ConnOps<T> {
    fn default() -> Self {
        ConnOps {
            pending: VecDeque::new(),
            resumes: VecDeque::new(),
            slot: None,
            in_flight: false,
        }
    }
}

impl<T: Time> PartialEq for ConnOps<T> {
    fn eq(&self, other: &Self) -> bool {
        (&self.pending, &self.resumes, self.suspended())
            == (&other.pending, &other.resumes, other.suspended())
    }
}

impl<T: Time> fmt::Debug for ConnOps<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (&self.pending, &self.resumes, self.suspended()).fmt(f)
    }
}

impl<T: Time> ConnOps<T> {
    /// The request parked mid-execution, if any.
    fn suspended(&self) -> Option<&Suspended<T>> {
        self.slot.as_deref().filter(|_| self.in_flight)
    }

    /// Queues one decoded client frame behind those already waiting.
    pub fn push(&mut self, frame: Frame) {
        self.pending.push_back(frame);
    }

    /// Queues a wake event for the suspended request; the next
    /// [`ConnOps::run`] applies it. One that matches nothing the request
    /// waits for — or arrives between requests — is dropped there without
    /// effect (each wait resolves exactly once, so a leftover is stale by
    /// construction).
    pub fn resume(&mut self, event: ResumeEvent) {
        self.resumes.push_back(event);
    }

    /// Requests decoded and not yet started.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// What the request in flight is parked on; `None` between requests.
    pub fn wait(&self) -> Option<&Wait<T>> {
        self.suspended().map(|s| &s.wait)
    }

    /// Whether every request pushed so far has been answered.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && !self.in_flight
    }

    /// Serves as far as possible at time `now`: applies queued wake
    /// events to the suspended request, attempts (or re-attempts) what is
    /// runnable, and starts queued requests while none is in flight.
    /// Completed requests' responses are appended to `out` in request
    /// order — a batch of *n* is answered by a batch of *n*.
    pub fn run<H: OpsHost>(&mut self, host: &mut H, now: T, out: &mut Vec<Frame>) -> Step {
        let ConnOps {
            pending,
            resumes,
            slot,
            in_flight,
        } = self;
        loop {
            if !*in_flight {
                // Between requests: any event left over belongs to a
                // request that already ended (they resolve exactly
                // once, so nothing can still be waiting on one).
                resumes.clear();
                let Some(frame) = pending.pop_front() else {
                    return Step::Wait;
                };
                let (trace, frame) = peel_trace(frame);
                host.trace(trace, EventKind::Decode, frame_key(&frame), NO_PEER);
                let s = slot.get_or_insert_with(|| {
                    Box::new(Suspended {
                        done: Vec::new(),
                        rest: VecDeque::new(),
                        batch: false,
                        trace: None,
                        op: PendingOp::Other(Frame::Ping),
                        wait: Wait::Runnable,
                        deadline: now,
                        backoff: RETRY_BACKOFF_START,
                        counted: false,
                        prefetch: Vec::new(),
                    })
                });
                s.prefetch.clear();
                match frame {
                    Frame::Batch { frames } => {
                        host.note(Note::Batch(frames.len()));
                        s.batch = true;
                        s.done.reserve(frames.len());
                        s.rest = VecDeque::from(frames);
                        if s.start_sub(host, now) {
                            s.prefetch_batch_reads(host);
                            *in_flight = true;
                        } else {
                            // An empty batch: answer in kind.
                            out.push(Frame::Batch { frames: Vec::new() });
                        }
                    }
                    frame => {
                        s.batch = false;
                        s.start_op(now, trace, frame);
                        *in_flight = true;
                    }
                }
                continue;
            }
            let s = slot.as_deref_mut().expect("a request in flight has a slot");
            let step = if let Some(event) = resumes.pop_front() {
                match s.apply_resume(host, now, event) {
                    Some(step) => step,
                    // A stale event for a wait that already moved on:
                    // drop it.
                    None => continue,
                }
            } else if matches!(s.wait, Wait::Runnable | Wait::Retry) {
                s.attempt_op(host, now)
            } else {
                // Parked on an external event that has not arrived yet.
                return Step::Wait;
            };
            match step {
                Attempt::Respond(response) => {
                    if s.finish_sub(host, now, response, out) {
                        *in_flight = false;
                    }
                }
                Attempt::Park(wait) => {
                    s.wait = wait;
                    if resumes.is_empty() {
                        return Step::Wait;
                    }
                }
                Attempt::Bounce => {
                    if now.reached(s.deadline) {
                        let key = s.op.key();
                        let giveup = Frame::Error {
                            message: format!("hot-set transition of key {key} did not complete"),
                        };
                        if s.finish_sub(host, now, giveup, out) {
                            *in_flight = false;
                        }
                    } else {
                        let delay = s.backoff;
                        s.backoff = (s.backoff * 2).min(RETRY_BACKOFF_MAX);
                        s.wait = Wait::Retry;
                        return Step::Retry(delay);
                    }
                }
                Attempt::Fail => return Step::Close,
            }
        }
    }
}

impl<T: Time> Suspended<T> {
    /// Pops a batch's next sub-frame into the current-op slot. Returns
    /// `false` when no sub-frames remain.
    fn start_sub<H: OpsHost>(&mut self, host: &mut H, now: T) -> bool {
        let Some(sub) = self.rest.pop_front() else {
            return false;
        };
        // Sub-frames carry their own trace envelopes: a sampled op stays
        // causally linked through the client-side coalescing.
        let (trace, sub) = peel_trace(sub);
        host.trace(trace, EventKind::Decode, frame_key(&sub), NO_PEER);
        self.start_op(now, trace, sub);
        true
    }

    /// Makes `frame` the current op, resetting the per-op bookkeeping.
    fn start_op(&mut self, now: T, trace: Option<u64>, frame: Frame) {
        self.trace = trace;
        self.wait = Wait::Runnable;
        self.deadline = now.plus(HOT_TRANSITION_RETRY);
        self.backoff = RETRY_BACKOFF_START;
        self.counted = false;
        self.op = match frame {
            Frame::Get { key } => PendingOp::Get { key },
            Frame::Put { key, value } => PendingOp::Put { key, value },
            other => PendingOp::Other(other),
        };
    }

    /// Issues the miss-path [`Frame::MissGet`] RPCs for every cold read
    /// still queued in a freshly decoded batch, so their peer round-trips
    /// overlap instead of serializing one per sub-request. Only plain
    /// reads are pipelined, and only while batch order cannot observe the
    /// reordering: a read of a key the batch wrote earlier is skipped
    /// (it must see that write), and the scan stops at the first admin
    /// frame (hot-set transitions change where a key is served from).
    fn prefetch_batch_reads<H: OpsHost>(&mut self, host: &mut H) {
        let mut written: Vec<u64> = Vec::new();
        if let PendingOp::Put { key, .. } = &self.op {
            written.push(*key);
        }
        for sub in &self.rest {
            let (trace, frame) = match sub {
                Frame::Traced { id, inner } => (Some(*id), inner.as_ref()),
                other => (None, other),
            };
            match frame {
                Frame::Get { key } => {
                    let key = *key;
                    if written.contains(&key) || self.prefetch.iter().any(|p| p.key == key) {
                        continue;
                    }
                    let node = host.node();
                    let home = node.home_node(key);
                    if home == node.node() || node.cache().probe(key) != ReadProbe::Miss {
                        continue;
                    }
                    host.trace(trace, EventKind::MissRpc, key, home as u8);
                    let request = rewrap_trace(trace, Frame::MissGet { key });
                    if let Some(corr) = host.issue_rpc(home, request) {
                        self.prefetch.push(PrefetchSlot {
                            key,
                            corr,
                            state: PrefetchState::InFlight,
                        });
                    }
                }
                Frame::Put { key, .. } => written.push(*key),
                _ => break,
            }
        }
    }

    /// Records the finished sub-request's response and starts the next
    /// one. Returns `true` when the whole request completed (its response
    /// is in `out`).
    fn finish_sub<H: OpsHost>(
        &mut self,
        host: &mut H,
        now: T,
        response: Frame,
        out: &mut Vec<Frame>,
    ) -> bool {
        host.trace(self.trace, EventKind::Respond, self.op.key(), NO_PEER);
        if self.batch {
            self.done.push(response);
            if self.start_sub(host, now) {
                return false;
            }
            let frames = std::mem::take(&mut self.done);
            out.push(Frame::Batch { frames });
        } else {
            out.push(response);
        }
        true
    }

    /// Suspends the current op on a miss-path RPC to its key's `home`.
    fn miss_rpc<H: OpsHost>(
        host: &mut H,
        trace: Option<u64>,
        key: u64,
        home: usize,
        request: Frame,
    ) -> Attempt<T> {
        host.trace(trace, EventKind::MissRpc, key, home as u8);
        match host.issue_rpc(home, rewrap_trace(trace, request)) {
            Some(corr) => Attempt::Park(Wait::Rpc { corr }),
            None => Attempt::Fail,
        }
    }

    /// Answers a cold read with what its remote home returned (one
    /// logical miss, however many bounces came before).
    fn remote_read<H: OpsHost>(host: &mut H, value: Vec<u8>) -> Attempt<T> {
        host.note(Note::Cache(false));
        host.note(Note::RemoteRead);
        Attempt::Respond(Frame::GetResp {
            cached: false,
            ts: Timestamp::ZERO,
            value,
        })
    }

    /// One probe of the current op. Probes are idempotent: a bounced op
    /// re-runs the whole probe on its next tick (the key may have changed
    /// sides of the hot set in between).
    fn attempt_op<H: OpsHost>(&mut self, host: &mut H, now: T) -> Attempt<T> {
        match &mut self.op {
            PendingOp::Get { key } => {
                let key = *key;
                if !self.counted {
                    self.counted = true;
                    host.note(Note::Get(key));
                }
                match host.node().cache().read(key) {
                    ReadOutcome::Hit { value, ts } => {
                        host.note(Note::Cache(true));
                        host.note(Note::InlineGet);
                        Attempt::Respond(Frame::GetResp {
                            cached: true,
                            ts,
                            value,
                        })
                    }
                    // A stalled entry (invalidated under Lin) must not be
                    // awaited here — the update that resolves it arrives
                    // through this very driver. Bounce.
                    ReadOutcome::Stall => Attempt::Bounce,
                    ReadOutcome::Miss => {
                        // Cold path. Like cold writes, cold reads bounce
                        // while the key transitions into or out of the hot
                        // set: during an eviction the freshest value may
                        // still be in flight from a dirty replica.
                        let home = host.node().home_node(key);
                        if home == host.node().node() {
                            return match host.node().cold_get(key) {
                                Some(value) => {
                                    host.note(Note::Cache(false));
                                    Attempt::Respond(Frame::GetResp {
                                        cached: false,
                                        ts: Timestamp::ZERO,
                                        value,
                                    })
                                }
                                None => Attempt::Bounce,
                            };
                        }
                        // A batch prefetch may already have this key's
                        // MissGet in flight (park on it — no second
                        // RPC) or answered (consume it inline).
                        let Some(i) = self.prefetch.iter().position(|p| p.key == key) else {
                            return Self::miss_rpc(
                                host,
                                self.trace,
                                key,
                                home,
                                Frame::MissGet { key },
                            );
                        };
                        let slot = self.prefetch.swap_remove(i);
                        match slot.state {
                            PrefetchState::InFlight => Attempt::Park(Wait::Rpc { corr: slot.corr }),
                            PrefetchState::Arrived(Frame::MissGetResp { value }) => {
                                host.trace(self.trace, EventKind::ContinuationFire, key, NO_PEER);
                                Self::remote_read(host, value)
                            }
                            PrefetchState::Arrived(Frame::MissRetry) => Attempt::Bounce,
                            PrefetchState::Arrived(_) => Attempt::Fail,
                            PrefetchState::Failed(message) => {
                                Attempt::Respond(Frame::Error { message })
                            }
                        }
                    }
                }
            }
            PendingOp::Put { key, value } => {
                let key = *key;
                if !self.counted {
                    self.counted = true;
                    host.note(Note::Put(key));
                }
                let tag = host.write_tag(value);
                match host.node().try_cache_put(key, value, tag) {
                    Some(CachePut::Done { ts, outgoing }) => {
                        host.ship(outgoing, self.trace);
                        host.note(Note::Cache(true));
                        Attempt::Respond(Frame::PutResp { cached: true, ts })
                    }
                    Some(CachePut::Pending { ts, outgoing }) => {
                        host.trace(self.trace, EventKind::LinInitiate, key, NO_PEER);
                        // Register the commit continuation BEFORE the
                        // invalidations leave: the final ack can race back
                        // through another thread the moment they ship (and
                        // `on_committed` fires the hook immediately if the
                        // commit somehow already landed).
                        host.on_commit(key, ts);
                        host.ship(outgoing, self.trace);
                        host.note(Note::Cache(true));
                        Attempt::Park(Wait::LinCommit { ts, started: now })
                    }
                    // A stalled entry: bounce, exactly as for reads.
                    None => Attempt::Bounce,
                    Some(CachePut::Miss) => {
                        // Cold path: versions are assigned by the *home*
                        // shard on arrival ([`CcNode::cold_put`]); the tag
                        // on the wire is only a diagnostic hint.
                        let home = host.node().home_node(key);
                        let me = host.node().node() as u8;
                        if home != usize::from(me) {
                            let request = Frame::MissPut {
                                key,
                                tag: tag as u32,
                                writer: me,
                                value: value.clone(),
                            };
                            return Self::miss_rpc(host, self.trace, key, home, request);
                        }
                        match host.node().cold_put(key, value, me) {
                            ColdPut::Applied(ts) => {
                                host.note(Note::Cache(false));
                                Attempt::Respond(Frame::PutResp { cached: false, ts })
                            }
                            ColdPut::Busy => Attempt::Bounce,
                            ColdPut::Rejected(message) => {
                                Attempt::Respond(Frame::Error { message })
                            }
                        }
                    }
                }
            }
            PendingOp::Other(frame) => match host.serve(std::mem::replace(frame, Frame::Ping)) {
                Served::Now(response) => Attempt::Respond(response),
                Served::Later => Attempt::Park(Wait::Admin),
                Served::Close => Attempt::Fail,
            },
        }
    }

    /// Applies one wake event to the suspended request. Returns `None`
    /// for an event that no longer matches the current wait (each wait
    /// resolves exactly once, so a leftover is stale by construction);
    /// such an event changes nothing.
    fn apply_resume<H: OpsHost>(
        &mut self,
        host: &mut H,
        now: T,
        event: ResumeEvent,
    ) -> Option<Attempt<T>> {
        // A response for a prefetched batch read whose sub-request has not
        // run yet: park it in the slot for inline consumption. (If the
        // sub-request is already waiting on this corr, the normal resume
        // arms below handle it.)
        if let ResumeEvent::Rpc { corr, .. } | ResumeEvent::RpcFailed { corr, .. } = &event {
            let corr = *corr;
            let waiting_on = matches!(self.wait, Wait::Rpc { corr: expected } if expected == corr);
            if !waiting_on {
                if let Some(slot) = self
                    .prefetch
                    .iter_mut()
                    .find(|p| p.corr == corr && matches!(p.state, PrefetchState::InFlight))
                {
                    slot.state = match event {
                        ResumeEvent::Rpc { response, .. } => PrefetchState::Arrived(response),
                        ResumeEvent::RpcFailed { message, .. } => PrefetchState::Failed(message),
                        _ => unreachable!("matched above"),
                    };
                    return None;
                }
            }
        }
        let step = match (event, &self.wait) {
            (ResumeEvent::Committed, Wait::LinCommit { ts, started }) => {
                host.note(Note::LinAckWait(now.since(*started)));
                let ts = *ts;
                host.trace(self.trace, EventKind::CommitFire, self.op.key(), NO_PEER);
                Attempt::Respond(Frame::PutResp { cached: true, ts })
            }
            (ResumeEvent::Rpc { corr, response }, Wait::Rpc { corr: expected })
                if corr == *expected =>
            {
                match (&self.op, response) {
                    (PendingOp::Get { .. }, Frame::MissGetResp { value }) => {
                        Self::remote_read(host, value)
                    }
                    (PendingOp::Put { .. }, Frame::MissPutResp { ts }) => {
                        host.note(Note::Cache(false));
                        host.note(Note::RemoteWrite);
                        Attempt::Respond(Frame::PutResp { cached: false, ts })
                    }
                    (PendingOp::Get { .. } | PendingOp::Put { .. }, Frame::MissRetry) => {
                        Attempt::Bounce
                    }
                    // The home shard rejected the write: relay the
                    // reason to the client.
                    (PendingOp::Put { .. }, Frame::Error { message }) => {
                        Attempt::Respond(Frame::Error { message })
                    }
                    _ => Attempt::Fail,
                }
            }
            (ResumeEvent::RpcFailed { corr, message }, Wait::Rpc { corr: expected })
                if corr == *expected =>
            {
                // Transport failure past the redial budget: surfaced to the
                // client as a protocol error.
                Attempt::Respond(Frame::Error { message })
            }
            (ResumeEvent::Admin { response }, Wait::Admin) => match response {
                Some(response) => Attempt::Respond(response),
                None => Attempt::Fail,
            },
            _ => return None,
        };
        host.trace(
            self.trace,
            EventKind::ContinuationFire,
            self.op.key(),
            NO_PEER,
        );
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cckvs::node::NodeConfig;
    use consistency::lamport::NodeId;
    use consistency::messages::{ConsistencyModel, ProtocolMsg};
    use proptest::prelude::*;

    /// Nanoseconds since the test began.
    impl Time for u64 {
        fn plus(self, d: Duration) -> u64 {
            self + d.as_nanos() as u64
        }
        fn reached(self, deadline: u64) -> bool {
            self >= deadline
        }
        fn since(self, earlier: u64) -> Duration {
            Duration::from_nanos(self.saturating_sub(earlier))
        }
    }

    /// A scripted host: node 0 of a two-node Lin deployment with no rack
    /// around it. What the machine asks for is written down; the test
    /// plays the peer, the home shard and the admin lane.
    struct FakeHost {
        node: CcNode,
        next_corr: u64,
        tags: u64,
        /// Miss RPCs issued and not yet answered.
        rpcs: Vec<(u64, Frame)>,
        /// Lin writes whose commit wake-up was asked for.
        commits: Vec<(u64, Timestamp)>,
        /// Evictions handed to the admin lane and not yet answered.
        evictions: usize,
        /// Every call that reached the host, in order.
        log: Vec<String>,
    }

    /// A key the node caches, two it homes cold, and two homed at the peer.
    struct Keys {
        hot: u64,
        local: [u64; 2],
        remote: [u64; 2],
    }

    fn keys(node: &CcNode) -> Keys {
        let homed = |home: usize, skip: usize| {
            let mut at = (1..).filter(|k| node.home_node(*k) == home);
            at.nth(skip).expect("every node homes keys")
        };
        Keys {
            hot: homed(1, 0),
            local: [homed(0, 0), homed(0, 1)],
            remote: [homed(1, 1), homed(1, 2)],
        }
    }

    impl FakeHost {
        fn new() -> (FakeHost, Keys) {
            let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 0, 2));
            let keys = keys(&node);
            assert!(node.install_hot(keys.hot, &[7], Timestamp::ZERO));
            let host = FakeHost {
                node,
                next_corr: 1,
                tags: 0,
                rpcs: Vec::new(),
                commits: Vec::new(),
                evictions: 0,
                log: Vec::new(),
            };
            (host, keys)
        }
    }

    impl OpsHost for FakeHost {
        fn node(&self) -> &CcNode {
            &self.node
        }
        fn write_tag(&mut self, _value: &[u8]) -> u64 {
            self.tags += 1;
            self.tags
        }
        fn issue_rpc(&mut self, home: usize, request: Frame) -> Option<u64> {
            let corr = self.next_corr;
            self.next_corr += 1;
            self.log.push(format!("rpc#{corr} -> n{home} {request:?}"));
            self.rpcs.push((corr, request));
            Some(corr)
        }
        fn ship(&mut self, outgoing: Vec<Outgoing>, _trace: Option<u64>) {
            self.log.push(format!("ship x{}", outgoing.len()));
        }
        fn on_commit(&mut self, key: u64, ts: Timestamp) {
            self.log.push(format!("on_commit k{key} {ts}"));
            self.commits.push((key, ts));
        }
        fn serve(&mut self, frame: Frame) -> Served {
            self.log.push(format!("serve {frame:?}"));
            match frame {
                Frame::Ping => Served::Now(Frame::Pong),
                Frame::Evict { .. } => {
                    self.evictions += 1;
                    Served::Later
                }
                _ => Served::Close,
            }
        }
        fn note(&mut self, note: Note) {
            self.log.push(format!("{note:?}"));
        }
        fn trace(&mut self, _trace: Option<u64>, kind: EventKind, key: u64, _peer: u8) {
            self.log.push(format!("{kind:?} k{key}"));
        }
    }

    /// One machine, its host, the clock and everything sent and answered.
    struct World {
        ops: ConnOps<u64>,
        host: FakeHost,
        keys: Keys,
        now: u64,
        sent: Vec<Frame>,
        out: Vec<Frame>,
    }

    impl World {
        fn new() -> World {
            let (host, keys) = FakeHost::new();
            World {
                ops: ConnOps::default(),
                host,
                keys,
                now: 0,
                sent: Vec::new(),
                out: Vec::new(),
            }
        }

        fn run(&mut self) -> Step {
            let step = self.ops.run(&mut self.host, self.now, &mut self.out);
            assert_ne!(step, Step::Close, "nothing in these scripts is a violation");
            // Every request sent is answered, queued, or the one in flight.
            let in_flight = usize::from(self.ops.wait().is_some());
            assert_eq!(
                self.sent.len(),
                self.out.len() + self.ops.queued() + in_flight,
                "at most one request is suspended"
            );
            step
        }

        fn send(&mut self, frame: Frame) -> Step {
            self.ops.push(frame.clone());
            self.sent.push(frame);
            self.run()
        }

        fn tick(&mut self, dt: Duration) -> Step {
            self.now = self.now.plus(dt);
            self.run()
        }

        /// Queues the answer to outstanding miss RPC number `pick` (if
        /// any): a bounce, or what a home shard would say.
        fn answer_rpc(&mut self, pick: usize, bounce: bool) {
            if self.host.rpcs.is_empty() {
                return;
            }
            let at = pick % self.host.rpcs.len();
            let (corr, request) = self.host.rpcs.remove(at);
            let response = match request {
                _ if bounce => Frame::MissRetry,
                Frame::MissGet { .. } => Frame::MissGetResp {
                    value: corr.to_le_bytes().to_vec(),
                },
                Frame::MissPut { .. } => Frame::MissPutResp {
                    ts: Timestamp::new(corr as u32, NodeId(1)),
                },
                other => panic!("not a miss-path request: {other:?}"),
            };
            self.ops.resume(ResumeEvent::Rpc { corr, response });
        }

        /// The peer acknowledges the oldest pending Lin write (if any).
        fn commit(&mut self) {
            if self.host.commits.is_empty() {
                return;
            }
            let (key, ts) = self.host.commits.remove(0);
            let from = NodeId(1);
            let ack = ProtocolMsg::Ack { key, ts, from };
            self.host.node.deliver(&ack, None);
            self.ops.resume(ResumeEvent::Committed);
            self.run();
        }

        /// The admin lane finishes the eviction handed to it (if any).
        fn finish_eviction(&mut self) {
            if self.host.evictions == 0 {
                return;
            }
            self.host.evictions -= 1;
            let response = Some(Frame::EvictResp { existed: false });
            self.ops.resume(ResumeEvent::Admin { response });
            self.run();
        }

        /// An event that matches nothing the machine can be waiting for
        /// (correlation ids this high are never issued), or `None` if
        /// `pick` names one it is waiting for right now.
        fn stale_event(&self, pick: u64) -> Option<ResumeEvent> {
            let corr = (1 << 40) + pick;
            let event = match pick % 5 {
                0 => ResumeEvent::Committed,
                1 => ResumeEvent::Admin { response: None },
                2 => ResumeEvent::Admin {
                    response: Some(Frame::Pong),
                },
                3 => ResumeEvent::Rpc {
                    corr,
                    response: Frame::MissRetry,
                },
                _ => ResumeEvent::RpcFailed {
                    corr,
                    message: "late".to_string(),
                },
            };
            let awaited = matches!(
                (&event, self.ops.wait()),
                (ResumeEvent::Committed, Some(Wait::LinCommit { .. }))
                    | (ResumeEvent::Admin { .. }, Some(Wait::Admin))
            );
            (!awaited).then_some(event)
        }

        fn request(&self, pick: u64) -> Frame {
            let op = |r: u64| {
                let key = [
                    self.keys.hot,
                    self.keys.local[0],
                    self.keys.remote[0],
                    self.keys.remote[1],
                ][(r % 4) as usize];
                match (r / 4) % 8 {
                    0..=3 => Frame::Get { key },
                    4 | 5 => Frame::Put {
                        key,
                        value: r.to_le_bytes().to_vec(),
                    },
                    6 => Frame::Evict { key },
                    _ => Frame::Ping,
                }
            };
            match pick % 3 {
                0 => op(pick / 3),
                _ => Frame::Batch {
                    frames: (0..(pick / 3) % 6)
                        .map(|i| op(pick / 18 + i * 37))
                        .collect(),
                },
            }
        }

        /// One scripted step.
        fn act(&mut self, kind: u8, r: u64) {
            match kind {
                0 | 1 => {
                    let frame = self.request(r);
                    self.send(frame);
                }
                2 => {
                    let dt = [0, 50_000, 1_000_000, 3_000_000_000][(r % 4) as usize];
                    self.tick(Duration::from_nanos(dt));
                }
                3 => {
                    // Half the answers wait for a later step's run, so one
                    // run sees several events.
                    self.answer_rpc((r / 4) as usize, r & 1 == 0);
                    if r % 4 < 2 {
                        self.run();
                    }
                }
                4 => self.commit(),
                5 => self.finish_eviction(),
                _ => {
                    if let Some(event) = self.stale_event(r) {
                        self.ops.resume(event);
                        self.run();
                    }
                }
            }
        }

        /// Plays a well-behaved rack until every request is answered.
        fn settle(&mut self) {
            for _ in 0..10_000 {
                if self.ops.is_idle() {
                    return;
                }
                self.commit();
                self.answer_rpc(0, false);
                self.finish_eviction();
                self.tick(RETRY_BACKOFF_MAX);
            }
            panic!("the machine never settled: {:?}", self.ops);
        }
    }

    /// Whether `response` is an answer to `request`, position by position.
    fn answers(request: &Frame, response: &Frame) -> bool {
        match (request, response) {
            (Frame::Batch { frames: asked }, Frame::Batch { frames: got }) => {
                asked.len() == got.len() && asked.iter().zip(got).all(|(a, g)| answers(a, g))
            }
            (Frame::Get { .. }, Frame::GetResp { .. } | Frame::Error { .. }) => true,
            (Frame::Put { .. }, Frame::PutResp { .. } | Frame::Error { .. }) => true,
            (Frame::Evict { .. }, Frame::EvictResp { .. }) => true,
            (Frame::Ping, Frame::Pong) => true,
            _ => false,
        }
    }

    #[test]
    fn a_bounce_past_the_deadline_gives_up_at_its_own_batch_position() {
        let mut w = World::new();
        let [local, fenced] = w.keys.local;
        // A fenced home bounces cold reads until the fence lifts.
        w.host.node.hot_mark(fenced);
        let get = |key| Frame::Get { key };
        let batch = Frame::Batch {
            frames: vec![get(local), get(fenced), get(local)],
        };
        assert_eq!(w.send(batch), Step::Retry(RETRY_BACKOFF_START));
        assert_eq!(
            w.tick(Duration::from_millis(1)),
            Step::Retry(RETRY_BACKOFF_START * 2),
            "each bounce doubles the delay"
        );
        // The deadline was stamped from the clock reading the driver
        // passed when the sub-request started (0), not one taken inside.
        w.now = HOT_TRANSITION_RETRY.as_nanos() as u64 - 1;
        assert!(matches!(w.run(), Step::Retry(_)));
        assert!(w.out.is_empty());
        w.now += 1;
        assert_eq!(w.run(), Step::Wait);
        let [Frame::Batch { frames }] = &w.out[..] else {
            panic!("one batch answers one batch: {:?}", w.out);
        };
        let cold = |f: &Frame| matches!(f, Frame::GetResp { cached: false, .. });
        assert!(cold(&frames[0]) && cold(&frames[2]), "{frames:?}");
        let message = format!("hot-set transition of key {fenced} did not complete");
        assert_eq!(frames[1], Frame::Error { message });
        assert!(w.ops.is_idle());
    }

    #[test]
    fn an_event_queued_behind_a_bounce_is_kept_for_the_next_run() {
        let mut w = World::new();
        let [a, b] = w.keys.remote;
        let frames = vec![Frame::Get { key: a }, Frame::Get { key: b }];
        w.send(Frame::Batch { frames });
        // `b` was prefetched (rpc#1) before `a` asked for itself (rpc#2).
        let corrs: Vec<u64> = w.host.rpcs.iter().map(|(corr, _)| *corr).collect();
        assert_eq!(corrs, [1, 2]);
        assert_eq!(w.ops.wait(), Some(&Wait::Rpc { corr: 2 }));
        w.host.rpcs.clear();
        w.ops.resume(ResumeEvent::Rpc {
            corr: 2,
            response: Frame::MissRetry,
        });
        w.ops.resume(ResumeEvent::Rpc {
            corr: 1,
            response: Frame::MissGetResp { value: vec![1] },
        });
        assert!(matches!(w.run(), Step::Retry(_)));
        // The retry asks for `a` again; `b`'s answer is already in hand.
        w.tick(RETRY_BACKOFF_START);
        assert_eq!(w.ops.wait(), Some(&Wait::Rpc { corr: 3 }));
        w.answer_rpc(0, false);
        w.run();
        let value = |f: &Frame| match f {
            Frame::GetResp { value, .. } => value.clone(),
            other => panic!("not a read answer: {other:?}"),
        };
        let [Frame::Batch { frames }] = &w.out[..] else {
            panic!("one batch answers one batch: {:?}", w.out);
        };
        assert_eq!(value(&frames[0]), 3u64.to_le_bytes());
        assert_eq!(value(&frames[1]), [1]);
        assert!(w.host.rpcs.is_empty(), "no second request for `b`");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of requests, ticks, RPC answers and bounces,
        /// commits, admin answers and stale events: exactly one response
        /// per request comes out, in push order, a batch of n answered by
        /// a batch of n position by position — and (asserted after every
        /// run) at most one request is ever suspended.
        #[test]
        fn one_response_per_request_in_push_order(
            steps in prop::collection::vec((0u8..7, any::<u64>()), 1..120),
        ) {
            let mut w = World::new();
            for (kind, r) in steps {
                w.act(kind, r);
            }
            w.settle();
            prop_assert_eq!(w.out.len(), w.sent.len());
            for (request, response) in w.sent.iter().zip(&w.out) {
                prop_assert!(answers(request, response), "{request:?} answered by {response:?}");
            }
        }

        /// Reject ⇒ no state change: an event that matches nothing the
        /// machine waits for is indistinguishable from no event at all.
        /// Two identical worlds run the same script; one is then handed a
        /// stale event before its next run. Machines, answers and host
        /// calls stay equal — and where that run has nothing else to do
        /// (parked on an event, or between requests) the machine equals
        /// its pre-image and nothing comes out.
        #[test]
        fn a_rejected_event_changes_nothing(
            steps in prop::collection::vec((0u8..7, any::<u64>()), 0..60),
            pick in any::<u64>(),
        ) {
            let mut a = World::new();
            let mut b = World::new();
            for (kind, r) in steps {
                a.act(kind, r);
                b.act(kind, r);
            }
            // Apply whatever the script left queued, so the stale event is
            // the only one the next run finds.
            a.run();
            b.run();
            if let Some(stale) = a.stale_event(pick) {
                let before = (a.ops.clone(), a.out.len(), a.host.log.len());
                a.ops.resume(stale);
                a.run();
                b.run();
                prop_assert_eq!(&a.ops, &b.ops);
                prop_assert_eq!(&a.out, &b.out);
                prop_assert_eq!(&a.host.log, &b.host.log);
                if !matches!(before.0.wait(), Some(Wait::Retry)) {
                    prop_assert_eq!((a.ops, a.out.len(), a.host.log.len()), before);
                }
            }
        }
    }
}
