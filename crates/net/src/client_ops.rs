//! One client session's machine: the ops it has queued, the doorbell that
//! sends them out as one frame, the node each frame goes to, and what an
//! answer — or a lost connection — settles.
//!
//! Like [`crate::ops`], nothing here owns a socket, a thread or a clock.
//! Inputs are [`ClientOps::queue`] (a get or a put), [`ClientOps::flush`],
//! [`ClientOps::answer`] (a response from node k) and [`ClientOps::lost`]
//! (the connection to node k died), each with the driver's reading of the
//! time; outputs are the frames to send ([`ClientOps::poll_send`]), the
//! outcomes in queue order, and the next deadline ([`ClientOps::due`]).
//! What settles is recorded through [`ClientHost`]. Two drivers: the
//! blocking [`crate::client::Client`], which waits for each frame's answer
//! before it sends the next, and `cckvs-modelcheck`'s sessions, which may
//! send while earlier frames are unanswered. The rules:
//!
//! * A flush sends what is queued as one frame to one node, picked by the
//!   [`LoadBalancePolicy`]: the batch is the balancing unit, so session
//!   order is what the node executes. One op flushed alone travels bare.
//! * The doorbell rings at a [`BatchConfig`] bound (see there for the
//!   deadline mode, its AIMD doorbell and the write that travels alone).
//! * A node answers its frames in the order they were sent, a batch of *n*
//!   with a batch of *n*, position by position. A [`Frame::Error`] for the
//!   frame, or at position *i*, fails the frame from there on.
//! * A lost connection fails every frame unanswered on it. A put among
//!   them may have run: it is indeterminate ([`ClientHost::indeterminate`])
//!   and never sent again. A get fails, except a lone GET of an unpinned
//!   session: reads are idempotent, so it goes to the next node until
//!   every node was tried.
//! * A failure fails every op not yet sent with it: nothing queued behind
//!   a failed op leaves after it.

use crate::ops::{rewrap_trace, Time};
use crate::wire::Frame;
use consistency::history::value_tag_of;
use consistency::lamport::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::ops::Range;
use std::time::{Duration, Instant};
use workload::LoadBalancePolicy;

/// Client-side request-coalescing knobs (§6.3: requests travel the wire in
/// MTU-sized batches). The queue flushes — the *doorbell* — as soon as
/// either bound is reached, or when the driver flushes it.
///
/// With `max_delay` set the doorbell becomes latency-aware:
///
/// - No queued op waits past the deadline.
/// - The op-count doorbell adapts to the measured flush round-trip
///   time: it widens additively while flushes keep round-tripping inside
///   `max_delay`, and shrinks multiplicatively — in proportion to the
///   overrun — when they stop (clamped to `[1, max_ops]`).
/// - A queued *write* flushes immediately and travels alone: a Lin put
///   blocks on every sharer's ack, so coalescing reads behind one would tax
///   the whole batch's tail with the ack wait. Queued reads ship first as
///   their own batch, then the write as a bare frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum operations per batch.
    pub max_ops: usize,
    /// Maximum payload bytes queued before the batch is forced out.
    pub max_bytes: usize,
    /// Longest a queued op may wait for batch-mates before the queue is
    /// flushed anyway. `None` (the default) corks until a size bound or
    /// an explicit flush — the pre-deadline behaviour.
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

/// Initial op-count doorbell in deadline mode, before a flush was
/// measured: the first batches never owe a full-width cycle of latency.
const WARMUP_DOORBELL: usize = 8;

/// The completion of one queued operation, in queue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// A queued get completed.
    Get {
        /// The value read (empty if never written).
        value: Vec<u8>,
        /// Whether the symmetric cache served it.
        cached: bool,
    },
    /// A queued put completed.
    Put {
        /// Whether the write went through the symmetric cache.
        cached: bool,
        /// Timestamp of the write ([`Timestamp::ZERO`] only for cold
        /// writes against a node that predates versioned cold puts).
        ts: Timestamp,
    },
}

/// One queued operation, as [`ClientHost`] sees it settle.
#[derive(Debug, Clone)]
pub struct Op<T> {
    /// The key it reads or writes.
    pub key: u64,
    /// The [`value_tag_of`] a put writes; `None` for a get.
    pub put: Option<u64>,
    /// Its place in the session's program.
    pub seq: u64,
    /// The history's stamp the driver queued it with.
    pub invoked_at: u64,
    /// When it was queued.
    pub queued_at: T,
    /// Its position in the batch it travelled in; `None` if alone.
    pub slot: Option<usize>,
    trace: Option<u64>,
    /// The request, until it is sent.
    request: Option<Frame>,
    /// How it ended (`None` inside: failed), until the ops ahead of it have.
    settled: Option<Option<BatchOutcome>>,
}

/// Where a [`ClientOps`] records what settles. Statically dispatched;
/// exactly two drivers implement it (see the module docs).
pub trait ClientHost<T> {
    /// `op` completed with `outcome`, answered at version `ts`.
    fn completed(&mut self, op: &Op<T>, outcome: &BatchOutcome, ts: Timestamp, now: T);
    /// `op`, a put, was sent and will get no answer: it may or may not
    /// have taken effect.
    fn indeterminate(&mut self, op: &Op<T>);
}

/// One frame sent to `node`: the session's ops `first..first + len`.
#[derive(Debug, Clone)]
struct Flight<T> {
    node: usize,
    first: u64,
    len: usize,
    sent_at: T,
    /// Nodes it was sent to so far (a lone GET fails over).
    tries: usize,
    /// Off the wire: a lone GET failing over, until `poll_send` re-sends it.
    resend: bool,
}

/// One client session's machine; see the module docs.
#[derive(Debug, Clone)]
pub struct ClientOps<T = Instant> {
    nodes: usize,
    policy: LoadBalancePolicy,
    rr_next: usize,
    rng: StdRng,
    batching: BatchConfig,
    /// Adaptive op-count doorbell (`batching.max_ops` without a deadline).
    doorbell: usize,
    /// EWMA whole-flush round-trip time in ns (0 until the first adaptive
    /// flush), compared against `max_delay` to steer the doorbell.
    flush_rtt_ns: f64,
    /// Every op queued and not yet handed out, oldest first. The last
    /// `unsent` have not left: the last `open` of them wait for the
    /// doorbell, the others for `poll_send`, one frame per `sealed` entry.
    ops: VecDeque<Op<T>>,
    unsent: usize,
    sealed: VecDeque<usize>,
    open: usize,
    open_bytes: usize,
    flights: VecDeque<Flight<T>>,
    next_seq: u64,
}

impl<T: Time> ClientOps<T> {
    /// Session `session`'s machine against `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or a pinned policy points past it.
    pub fn new(
        nodes: usize,
        policy: LoadBalancePolicy,
        batching: BatchConfig,
        session: u32,
    ) -> Self {
        assert!(nodes > 0, "deployment must have at least one node");
        if let LoadBalancePolicy::Pinned(n) = policy {
            assert!(n < nodes, "pinned node {n} outside deployment");
        }
        ClientOps {
            nodes,
            policy,
            rr_next: session as usize % nodes,
            rng: StdRng::seed_from_u64(0x5EED_C11E_0000_0000 ^ u64::from(session)),
            batching,
            doorbell: match batching.max_delay {
                Some(_) => batching.max_ops.min(WARMUP_DOORBELL),
                None => batching.max_ops,
            },
            flush_rtt_ns: 0.0,
            ops: VecDeque::new(),
            unsent: 0,
            sealed: VecDeque::new(),
            open: 0,
            open_bytes: 0,
            flights: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Queues a get of `key` (`value` `None`) or a put of `value`, traced
    /// under `trace`, with the history's stamp `invoked_at`. A bound it
    /// reaches rings the doorbell.
    pub fn queue(
        &mut self,
        key: u64,
        value: Option<&[u8]>,
        trace: Option<u64>,
        invoked_at: u64,
        now: T,
    ) {
        let write_alone = value.is_some() && self.batching.max_delay.is_some();
        if write_alone {
            self.flush();
        }
        let request = match value {
            None => Frame::Get { key },
            Some(value) => Frame::Put {
                key,
                value: value.to_vec(),
            },
        };
        self.ops.push_back(Op {
            key,
            put: value.map(value_tag_of),
            seq: self.next_seq,
            invoked_at,
            queued_at: now,
            slot: None,
            trace,
            request: Some(rewrap_trace(trace, request)),
            settled: None,
        });
        self.next_seq += 1;
        (self.unsent, self.open) = (self.unsent + 1, self.open + 1);
        self.open_bytes += 16 + value.map_or(0, <[u8]>::len);
        if write_alone || self.open >= self.doorbell || self.open_bytes >= self.batching.max_bytes {
            self.flush();
        }
    }

    /// Rings the doorbell: what is queued leaves as one frame.
    pub fn flush(&mut self) {
        if self.open > 0 {
            self.sealed.push_back(self.open);
            (self.open, self.open_bytes) = (0, 0);
        }
    }

    /// Ops queued and not yet sent.
    pub fn queued(&self) -> usize {
        self.unsent
    }

    /// Whether every op queued so far has been handed out as an outcome.
    pub fn is_idle(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops sent and not yet answered, oldest first.
    pub fn unanswered(&self) -> impl Iterator<Item = &Op<T>> {
        let sent = self.ops.len() - self.unsent;
        self.ops.range(..sent).filter(|op| op.settled.is_none())
    }

    /// When the oldest op waiting for the doorbell leaves anyway (deadline
    /// mode only).
    pub fn due(&self) -> Option<T> {
        let delay = self.batching.max_delay?;
        let oldest = self.ops.get(self.ops.len() - self.open)?;
        Some(oldest.queued_at.plus(delay))
    }

    /// The next frame to send at `now`, and its node: a lone GET failing
    /// over, or the oldest batch the doorbell rang (an overdue deadline
    /// rings it first).
    pub fn poll_send(&mut self, now: T) -> Option<(usize, Frame)> {
        if self.due().is_some_and(|due| now.reached(due)) {
            self.flush();
        }
        if let Some(flight) = self.flights.iter_mut().find(|f| f.resend) {
            (flight.resend, flight.sent_at) = (false, now);
            let op = &self.ops[(flight.first - self.ops[0].seq) as usize];
            let get = rewrap_trace(op.trace, Frame::Get { key: op.key });
            return Some((flight.node, get));
        }
        let len = self.sealed.pop_front()?;
        let at = self.ops.len() - self.unsent;
        self.unsent -= len;
        let node = match self.policy {
            LoadBalancePolicy::Random => self.rng.gen_range(0..self.nodes),
            LoadBalancePolicy::RoundRobin => {
                let n = self.rr_next;
                self.rr_next = (n + 1) % self.nodes;
                n
            }
            LoadBalancePolicy::Pinned(n) => n,
        };
        self.flights.push_back(Flight {
            node,
            first: self.ops[at].seq,
            len,
            sent_at: now,
            tries: 1,
            resend: false,
        });
        let mut take = |slot| {
            let op = &mut self.ops[at + slot];
            op.slot = (len > 1).then_some(slot);
            op.request.take().expect("an unsent op holds its request")
        };
        let frame = match len {
            1 => take(0),
            _ => Frame::Batch {
                frames: (0..len).map(take).collect(),
            },
        };
        Some((node, frame))
    }

    /// Takes in `response`, node `node`'s answer to the oldest frame
    /// unanswered on that connection, and appends to `out` the outcomes
    /// now settled in queue order (`None`: failed). An error is the node's
    /// (`InvalidInput`) or an answer that does not fit (`InvalidData`).
    pub fn answer<H: ClientHost<T>>(
        &mut self,
        host: &mut H,
        node: usize,
        response: Frame,
        now: T,
        out: &mut Vec<Option<BatchOutcome>>,
    ) -> io::Result<()> {
        let Some(at) = (self.flights.iter()).position(|f| f.node == node && !f.resend) else {
            return Err(unfit(format!("{response:?} answers nothing")));
        };
        let flight = self.flights.remove(at).expect("found above");
        let first = (flight.first - self.ops[0].seq) as usize;
        let settled = match response {
            Frame::Error { message } => Err((0, refused(message))),
            response if flight.len == 1 => {
                self.steer(&flight, now);
                (self.settle(host, first, response, now)).map_err(|e| (0, e))
            }
            Frame::Batch { frames } if frames.len() == flight.len => {
                self.steer(&flight, now);
                let mut answers = frames.into_iter().enumerate();
                answers.try_for_each(|(i, response)| {
                    (self.settle(host, first + i, response, now)).map_err(|e| (i, e))
                })
            }
            other => Err((0, unfit(format!("{} ops answered {other:?}", flight.len)))),
        };
        if let Err((i, e)) = settled {
            self.fail(host, first + i..first + flight.len, out);
            return Err(e);
        }
        self.release(out);
        Ok(())
    }

    /// Latency-feedback doorbell: widen while whole flushes round-trip
    /// inside the delay budget (the server pipelines a batch's misses, so
    /// width is nearly free until it isn't), shrink in proportion the moment
    /// the smoothed round-trip overruns — the overrun IS the congestion
    /// signal. Flushes carrying a write are not measurements: their
    /// round-trip is dominated by the Lin ack wait, which the batch width
    /// cannot amortize.
    fn steer(&mut self, flight: &Flight<T>, now: T) {
        let Some(budget) = self.batching.max_delay else {
            return;
        };
        let first = (flight.first - self.ops[0].seq) as usize;
        if (self.ops.range(first..first + flight.len)).any(|op| op.put.is_some()) {
            return;
        }
        let rtt = now.since(flight.sent_at).as_nanos() as f64;
        self.flush_rtt_ns = if self.flush_rtt_ns > 0.0 {
            0.7 * self.flush_rtt_ns + 0.3 * rtt
        } else {
            rtt
        };
        let budget_ns = budget.as_nanos() as f64;
        let target = if self.flush_rtt_ns <= budget_ns {
            self.doorbell + 2
        } else {
            (self.doorbell as f64 * budget_ns / self.flush_rtt_ns) as usize
        };
        self.doorbell = target.clamp(1, self.batching.max_ops);
    }

    /// Settles `self.ops[at]` with `response`, its answer.
    fn settle<H: ClientHost<T>>(
        &mut self,
        host: &mut H,
        at: usize,
        response: Frame,
        now: T,
    ) -> io::Result<()> {
        let op = &mut self.ops[at];
        let (outcome, ts) = match (op.put, response) {
            (None, Frame::GetResp { cached, ts, value }) => {
                (BatchOutcome::Get { value, cached }, ts)
            }
            (Some(_), Frame::PutResp { cached, ts }) => (BatchOutcome::Put { cached, ts }, ts),
            (_, Frame::Error { message }) => return Err(refused(message)),
            (_, other) => return Err(unfit(format!("op {} answered {other:?}", op.seq))),
        };
        host.completed(op, &outcome, ts, now);
        op.settled = Some(Some(outcome));
        Ok(())
    }

    /// The connection to `node` died: every frame unanswered on it fails,
    /// but a lone GET of an unpinned session, which `poll_send` re-sends to
    /// the next node. Appends the outcomes now settled to `out`; returns
    /// whether anything failed.
    pub fn lost<H: ClientHost<T>>(
        &mut self,
        host: &mut H,
        node: usize,
        out: &mut Vec<Option<BatchOutcome>>,
    ) -> bool {
        let pinned = matches!(self.policy, LoadBalancePolicy::Pinned(_));
        let (mut failed, mut over) = (false, Vec::new());
        for mut flight in std::mem::take(&mut self.flights) {
            let first = (flight.first - self.ops[0].seq) as usize;
            let get = self.ops[first].put.is_none();
            if flight.node != node {
                self.flights.push_back(flight);
            } else if flight.len == 1 && get && !pinned && flight.tries < self.nodes {
                flight.node = (node + 1) % self.nodes;
                (flight.tries, flight.resend) = (flight.tries + 1, true);
                over.push(flight);
            } else {
                self.fail(host, first..first + flight.len, out);
                failed = true;
            }
        }
        // Behind the frames on the wire: a connection answers in the order
        // it was sent to.
        self.flights.extend(over);
        failed
    }

    /// Settles `ops` (sent; indexes into `self.ops`) as failed, and every
    /// op not yet sent with them.
    fn fail<H: ClientHost<T>>(
        &mut self,
        host: &mut H,
        ops: Range<usize>,
        out: &mut Vec<Option<BatchOutcome>>,
    ) {
        for op in self.ops.range_mut(ops) {
            if op.put.is_some() {
                host.indeterminate(op);
            }
            op.settled = Some(None);
        }
        let unsent = self.ops.len() - self.unsent..;
        self.ops
            .range_mut(unsent)
            .for_each(|op| op.settled = Some(None));
        (self.unsent, self.open, self.open_bytes) = (0, 0, 0);
        self.sealed.clear();
        self.release(out);
    }

    /// Hands out the settled ops at the front of the queue.
    fn release(&mut self, out: &mut Vec<Option<BatchOutcome>>) {
        while let Some(settled) = self.ops.front_mut().and_then(|op| op.settled.take()) {
            out.push(settled);
            self.ops.pop_front();
        }
    }
}

/// The node's own refusal: the connection is fine.
fn refused(message: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidInput, message)
}

/// An answer that does not fit what was sent: the connection is out of
/// step.
fn unfit(what: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A scripted clock, in microseconds.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Tick(u64);

    impl Time for Tick {
        fn plus(self, d: Duration) -> Tick {
            Tick(self.0 + d.as_micros() as u64)
        }
        fn reached(self, deadline: Tick) -> bool {
            self.0 >= deadline.0
        }
        fn since(self, earlier: Tick) -> Duration {
            Duration::from_micros(self.0.saturating_sub(earlier.0))
        }
    }

    /// What the host was told, by op (an op's key is its place in the
    /// program).
    #[derive(Default)]
    struct Told {
        completed: Vec<u64>,
        indeterminate: BTreeSet<u64>,
    }

    impl ClientHost<Tick> for Told {
        fn completed(&mut self, op: &Op<Tick>, _: &BatchOutcome, _: Timestamp, _: Tick) {
            assert_eq!(op.key, op.seq);
            self.completed.push(op.seq);
        }
        fn indeterminate(&mut self, op: &Op<Tick>) {
            assert!(op.put.is_some() && self.indeterminate.insert(op.seq));
        }
    }

    /// How an op must end, as far as the script knows.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        Answered,
        Indeterminate,
        Void,
    }

    /// A session over `nodes` scripted connections, driven as the blocking
    /// client drives it (everything due is sent after every input) except
    /// that frames stay unanswered until the script answers them. Every
    /// frame sent is checked against the rules as it leaves.
    struct World {
        ops: ClientOps<Tick>,
        told: Told,
        now: Tick,
        nodes: usize,
        pinned: bool,
        deadline: bool,
        /// Per op: whether it is a put, and how it must end once known.
        queued: Vec<(bool, Option<Expect>)>,
        /// Per node, the frames unanswered on it: their ops, in order.
        wire: Vec<VecDeque<Vec<u64>>>,
        /// Ops ever sent, and how many nodes each has been sent to.
        tries: Vec<usize>,
        /// Lone GETs the last lost connection must fail over.
        failing_over: BTreeSet<u64>,
        out: Vec<Option<BatchOutcome>>,
    }

    impl World {
        fn new(nodes: usize, pinned: bool, deadline: bool, max_ops: usize) -> World {
            let policy = match pinned {
                true => LoadBalancePolicy::Pinned(nodes - 1),
                false => LoadBalancePolicy::RoundRobin,
            };
            let batching = BatchConfig {
                max_ops,
                max_bytes: 400,
                max_delay: deadline.then_some(Duration::from_micros(500)),
            };
            World {
                ops: ClientOps::new(nodes, policy, batching, 7),
                told: Told::default(),
                now: Tick(0),
                nodes,
                pinned,
                deadline,
                queued: Vec::new(),
                wire: vec![VecDeque::new(); nodes],
                tries: Vec::new(),
                failing_over: BTreeSet::new(),
                out: Vec::new(),
            }
        }

        fn act(&mut self, kind: u8, r: u64) {
            let node = r as usize % self.nodes;
            match kind {
                0 | 1 => {
                    let seq = self.queued.len() as u64;
                    let value = (kind == 1).then(|| vec![7; r as usize % 100]);
                    self.ops.queue(seq, value.as_deref(), None, seq, self.now);
                    self.queued.push((kind == 1, None));
                    self.tries.push(0);
                }
                2 => {
                    let queued = self.ops.queued();
                    self.ops.flush();
                    let sent = self.send();
                    // One flush sends what was queued as one frame.
                    if queued > 0 {
                        assert_eq!(sent.len(), 1);
                        assert_eq!(sent[0].len(), queued);
                    }
                    return;
                }
                3 => self.answer(node, r.is_multiple_of(5)),
                4 => self.lose(node),
                _ => self.now = self.now.plus(Duration::from_micros(r % 700)),
            }
            self.send();
        }

        /// Sends what is due; returns the frames sent, as their ops.
        fn send(&mut self) -> Vec<Vec<u64>> {
            let mut sent = Vec::new();
            while let Some((node, frame)) = self.ops.poll_send(self.now) {
                let ops: Vec<u64> = match &frame {
                    Frame::Batch { frames } => {
                        assert!(frames.len() > 1, "a one-op frame travels bare");
                        frames.iter().map(key).collect()
                    }
                    frame => vec![key(frame)],
                };
                if ops.iter().any(|&op| self.tries[op as usize] > 0) {
                    // Only a lone GET goes out again, after its connection
                    // was lost, to the next node.
                    assert!(ops.len() == 1 && self.failing_over.remove(&ops[0]));
                } else {
                    // In queue order, after everything queued ahead.
                    let unsent = |&op: &usize| {
                        self.tries[op] == 0 && self.queued[op].1 != Some(Expect::Void)
                    };
                    assert_eq!(Some(ops[0] as usize), (0..self.tries.len()).find(unsent));
                    assert!(ops.windows(2).all(|w| w[1] == w[0] + 1));
                    if self.deadline && ops.iter().any(|&op| self.queued[op as usize].0) {
                        assert_eq!(ops.len(), 1, "a write travels alone");
                    }
                }
                for &op in &ops {
                    self.tries[op as usize] += 1;
                    assert!(self.tries[op as usize] <= self.nodes);
                }
                self.wire[node].push_back(ops.clone());
                sent.push(ops);
            }
            let doorbell = self.ops.doorbell;
            assert!((1..=self.ops.batching.max_ops).contains(&doorbell));
            sent
        }

        /// Node `node` answers its oldest frame: healthy, or refused.
        fn answer(&mut self, node: usize, refuse: bool) {
            let Some(ops) = self.wire[node].pop_front() else {
                return;
            };
            let answer = |&op: &u64| match self.queued[op as usize].0 {
                true => Frame::PutResp {
                    cached: true,
                    ts: Timestamp::ZERO,
                },
                false => Frame::GetResp {
                    cached: false,
                    ts: Timestamp::ZERO,
                    value: op.to_le_bytes().to_vec(),
                },
            };
            let response = match (refuse, ops.len()) {
                (true, _) => Frame::Error {
                    message: "no".into(),
                },
                (false, 1) => answer(&ops[0]),
                (false, _) => Frame::Batch {
                    frames: ops.iter().map(answer).collect(),
                },
            };
            let completed = self.told.completed.len();
            let answered = self
                .ops
                .answer(&mut self.told, node, response, self.now, &mut self.out);
            assert_eq!(answered.is_err(), refuse);
            if refuse {
                assert_eq!(self.told.completed.len(), completed);
                self.failed(&ops);
            } else {
                // The answer settles its whole frame.
                assert_eq!(self.told.completed[completed..], ops[..]);
                for op in ops {
                    self.queued[op as usize].1 = Some(Expect::Answered);
                }
            }
        }

        fn lose(&mut self, node: usize) {
            let lost: Vec<Vec<u64>> = self.wire[node].drain(..).collect();
            let fails_over = |ops: &Vec<u64>, tries: &[usize], queued: &[(bool, _)]| {
                ops.len() == 1 && !queued[ops[0] as usize].0 && tries[ops[0] as usize] < self.nodes
            };
            let (over, failed): (Vec<_>, Vec<_>) = lost
                .into_iter()
                .partition(|ops| !self.pinned && fails_over(ops, &self.tries, &self.queued));
            let any_failed = self.ops.lost(&mut self.told, node, &mut self.out);
            assert_eq!(any_failed, !failed.is_empty());
            self.failing_over.extend(over.into_iter().flatten());
            for ops in failed {
                self.failed(&ops);
            }
        }

        /// The ops of a failed frame: its puts may have run, its gets did
        /// not; and nothing queued behind them leaves.
        fn failed(&mut self, ops: &[u64]) {
            for &op in ops {
                let put = self.queued[op as usize].0;
                let expect = if put {
                    Expect::Indeterminate
                } else {
                    Expect::Void
                };
                self.queued[op as usize].1 = Some(expect);
            }
            for (op, tries) in self.tries.iter().enumerate() {
                if *tries == 0 {
                    self.queued[op].1 = Some(Expect::Void);
                }
            }
        }

        /// Answers everything, healthily, until the session is idle; then
        /// checks one outcome per op, in queue order, as expected.
        fn settle(mut self) {
            self.ops.flush();
            self.send();
            while let Some(node) = (0..self.nodes).find(|&n| !self.wire[n].is_empty()) {
                self.answer(node, false);
                self.send();
            }
            assert!(self.ops.is_idle());
            assert_eq!(self.out.len(), self.queued.len());
            for (op, (outcome, &(put, expect))) in self.out.iter().zip(&self.queued).enumerate() {
                let unsure = self.told.indeterminate.contains(&(op as u64));
                match (outcome, expect, unsure) {
                    (Some(BatchOutcome::Get { value, .. }), Some(Expect::Answered), false) => {
                        assert!(!put);
                        assert_eq!(value[..], (op as u64).to_le_bytes());
                    }
                    (Some(BatchOutcome::Put { .. }), Some(Expect::Answered), false) => assert!(put),
                    (None, Some(Expect::Indeterminate), true) => {
                        assert_eq!(self.tries[op], 1, "an indeterminate put is never re-sent");
                    }
                    (None, Some(Expect::Void), false) => {}
                    other => panic!("op {op} (put {put}) ended {other:?}"),
                }
            }
            let puts = self
                .queued
                .iter()
                .filter(|q| q.1 == Some(Expect::Indeterminate));
            assert_eq!(puts.count(), self.told.indeterminate.len());
        }
    }

    fn key(frame: &Frame) -> u64 {
        match frame {
            Frame::Get { key } | Frame::Put { key, .. } => *key,
            other => panic!("a client sends gets and puts, not {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any script of queued gets and puts, flushes, answers (healthy or
        /// refused), lost connections and clock ticks, in either batching
        /// mode, against one to three nodes: one outcome per op, in queue
        /// order; one flush, one frame, settled by one answer; a one-op
        /// frame bare; in deadline mode a write alone, after the reads
        /// queued ahead of it; the doorbell in `[1, max_ops]`; and after a
        /// lost connection every unanswered put indeterminate and never
        /// sent again, with only an unpinned lone GET failing over.
        #[test]
        fn every_op_settles_once_in_queue_order_by_the_rules(
            nodes in 1usize..4,
            pinned in any::<bool>(),
            deadline in any::<bool>(),
            max_ops in 1usize..9,
            steps in prop::collection::vec((0u8..7, any::<u64>()), 0..120),
        ) {
            let mut world = World::new(nodes, pinned, deadline, max_ops);
            for (kind, r) in steps {
                world.act(kind, r);
            }
            world.settle();
        }
    }
}
