//! The client sessions and admin connections of the rack under test. Each
//! node serves one session: the shipped client machine
//! ([`cckvs_net::client_ops::ClientOps`], pinned to the node) on one end of
//! its connection, the production op machine
//! ([`cckvs_net::ops::ConnOps`]; the reactor shard is its first driver) on
//! the other.
//!
//! `Action::Issue` queues a program step's ops and flushes them (a `Batch`
//! is one frame; a `Pipelined` step goes out while earlier frames are
//! unanswered), `Action::Reprobe` is the node's retry tick (offered once
//! the node has seen progress since the bounce), `RpcResp` deliveries and
//! commit hooks become `resume` calls, and the answers that come out settle
//! the client's ops, which [`Settled`] writes into the history. A cold
//! read's answer carries no version, so the harness notes one, god's-eye,
//! as each sub-request finishes: the local shard's, or the one the remote
//! home served the newest `MissGetResp` for that key at. A crash is the
//! client's lost connection, and a miss RPC the sweep expired answers its
//! op with an error: either way a put is indeterminate, a get fails, and
//! the program moves on.

use std::sync::Arc;

use cckvs::node::{CacheGet, CcNode, Outgoing};
use cckvs_net::churn::Flip;
use cckvs_net::client_ops::{BatchOutcome, ClientHost, Op};
use cckvs_net::node_ops::{self, RPC_EXPIRED};
use cckvs_net::ops::{EventKind, Note, OpsHost, ResumeEvent, Served, Step, Wait};
use cckvs_net::rpc::serve_node_frame;
use cckvs_net::wire::Frame;
use consistency::history::{OpRecord, RecordKind};
use consistency::{ConsistencyModel, Timestamp};

use super::{decode_value, RackModel};
use crate::scenario::{Hole, ProgOp, ProgStep};

/// The program op a client op is (values are their own tags).
fn prog_op(op: &Op<()>) -> ProgOp {
    match op.put {
        Some(value) => ProgOp::Put { key: op.key, value },
        None => ProgOp::Get { key: op.key },
    }
}

/// What settled in one call of a session's client machine, in order: the
/// ops answered, and the puts that failed and may have run.
#[derive(Default)]
struct Settled {
    done: Vec<(Op<()>, BatchOutcome, Timestamp)>,
    unsure: Vec<Op<()>>,
}

impl ClientHost<()> for Settled {
    fn completed(&mut self, op: &Op<()>, outcome: &BatchOutcome, ts: Timestamp, _: ()) {
        self.done.push((op.clone(), outcome.clone(), ts));
    }

    fn indeterminate(&mut self, op: &Op<()>) {
        self.unsure.push(op.clone());
    }
}

impl RackModel {
    /// The sub-request session `n`'s node is working on, if any.
    pub(super) fn current_op(&self, n: usize) -> Option<ProgOp> {
        let s = &self.nodes[n];
        s.client.unanswered().nth(s.noted.len()).map(prog_op)
    }

    /// Whether session `n` has a Lin write collecting acknowledgements.
    pub(super) fn awaits_commit(&self, n: usize) -> bool {
        matches!(self.nodes[n].ops.wait(), Some(Wait::LinCommit { .. }))
    }

    /// A session sends its next step once everything before it is
    /// answered — or at once, if the step is pipelined.
    pub(super) fn issue_enabled(&self, n: usize) -> bool {
        let s = &self.nodes[n];
        s.up && match s.program.front() {
            None => false,
            Some(ProgStep::Pipelined(_)) => true,
            Some(_) => s.client.is_idle(),
        }
    }

    pub(super) fn reprobe_enabled(&self, n: usize) -> bool {
        let s = &self.nodes[n];
        s.up && s
            .parked
            .is_some_and(|at| at != (s.deliveries, self.world_version))
    }

    /// `Action::Issue`: the session queues its next step's ops and flushes
    /// them onto its connection.
    pub(super) fn issue(&mut self, n: usize) {
        let step = self.nodes[n].program.pop_front();
        let step = step.expect("issue has a step");
        if let ProgStep::Batch(ops) = &step {
            self.log(format!("issue n{n} batch x{}", ops.len()));
        }
        let s = &mut self.nodes[n];
        for &op in step.ops() {
            let value = match op {
                ProgOp::Put { value, .. } => Some(value.to_le_bytes()),
                ProgOp::Get { .. } => None,
            };
            let value = value.as_ref().map(<[u8; 8]>::as_slice);
            s.client.queue(op.key(), value, None, self.clock, ());
        }
        s.client.flush();
        while let Some((_, frame)) = s.client.poll_send(()) {
            s.ops.push(frame);
        }
        self.run_session(n);
    }

    /// `Action::Reprobe`: the retry tick of the request in progress.
    pub(super) fn reprobe(&mut self, n: usize) {
        self.log(format!("reprobe n{n}"));
        self.run_session(n);
    }

    /// Runs session `n`'s op machine — a frame was pushed, an event queued,
    /// or its retry tick fired — and takes in what comes out.
    pub(super) fn run_session(&mut self, n: usize) {
        let mut ops = std::mem::take(&mut self.nodes[n].ops);
        // A bounce that ends the wait for a miss RPC is that RPC's.
        let awaited_rpc = matches!(ops.wait(), Some(Wait::Rpc { .. }));
        let mut answers = Vec::new();
        let step = ops.run(&mut self.host(n, false), (), &mut answers);
        self.nodes[n].ops = ops;
        for frame in answers {
            self.answer(n, frame);
        }
        self.nodes[n].parked = None;
        match step {
            Step::Wait => {}
            Step::Retry(_) => {
                let op = self.current_op(n);
                let op = op.expect("a bounced op is in progress");
                let cached = self.nodes[n].cc.try_cache_get(op.key());
                let cold = matches!(cached, Some(CacheGet::Miss));
                self.park(
                    n,
                    match op {
                        _ if awaited_rpc => "miss rpc bounced",
                        ProgOp::Get { .. } if !cold => "hot get stalled",
                        ProgOp::Put { .. } if !cold => "hot put stalled",
                        _ if self.home_of(op.key()) == n => "local cold op bounced",
                        _ => "miss rpc bounced",
                    },
                );
            }
            Step::Close => self.fail(format!("n{n} closed its session")),
        }
        self.drain_commits();
    }

    /// Runs node `n`'s admin connection — a churn call was pushed, its
    /// write-back answered, or its retry tick fired — and hands what comes
    /// out to the running transition.
    pub(super) fn run_admin(&mut self, n: usize) {
        let mut ops = std::mem::take(&mut self.nodes[n].admin);
        let mut answers = Vec::new();
        let step = ops.run(&mut self.host(n, true), (), &mut answers);
        self.nodes[n].admin = ops;
        self.admin_parked = None;
        match step {
            Step::Wait => {}
            Step::Retry(_) => {
                self.log(format!("park admin n{n} (a pending write)"));
                self.admin_parked = Some((self.nodes[n].deliveries, self.world_version));
            }
            Step::Close => self.fail(format!("n{n} closed its admin connection")),
        }
        for frame in answers {
            self.admin_answered(n, frame);
        }
        self.drain_commits();
    }

    /// The [`OpsHost`] of node `n`'s session or admin connection.
    fn host(&mut self, n: usize, admin: bool) -> SimHost<'_> {
        SimHost { m: self, n, admin }
    }

    /// Session `n`'s request in progress waits for its node to see
    /// progress before `Action::Reprobe` tries it again.
    fn park(&mut self, n: usize, why: &str) {
        let op = self.current_op(n);
        let key = op.expect("a parked op is in progress").key();
        self.log(format!("park n{n} k{key} ({why})"));
        self.nodes[n].parked = Some((self.nodes[n].deliveries, self.world_version));
    }

    /// Takes in one response frame of session `n`.
    fn answer(&mut self, n: usize, frame: Frame) {
        let sub_requests = match &frame {
            Frame::Batch { frames } => frames.len(),
            _ => 1,
        };
        let mut settled = Settled::default();
        let client = &mut self.nodes[n].client;
        let answered = client.answer(&mut settled, n, frame, (), &mut Vec::new());
        let failed = sub_requests - settled.done.len();
        let lin = self.spec.model == ConsistencyModel::Lin;
        let corr = self.nodes[n].resolved;
        for (op, outcome, ts) in settled.done {
            let (key, local) = (op.key, self.home_of(op.key) == n);
            let noted = self.nodes[n].noted.pop_front();
            let noted = noted.expect("noted as its sub-request finished");
            let (what, kind, cached, ts) = match outcome {
                BatchOutcome::Get { value, cached } => {
                    let (value, ts) = (decode_value(&value), if cached { ts } else { noted });
                    (format!("get k{key}"), RecordKind::Get { value }, cached, ts)
                }
                BatchOutcome::Put { cached, .. } => {
                    let value = op.put.expect("a put settles as a put");
                    self.nodes[n].kvs_dirty |= !cached && local;
                    (
                        format!("put k{key}={value}"),
                        RecordKind::Put { value },
                        cached,
                        ts,
                    )
                }
            };
            // A hot Lin put is answered by its commit, a cold op at a
            // remote home by the miss RPC answered last.
            self.log(match (op.slot, op.put, cached) {
                (Some(i), ..) => {
                    let side = if cached { "hot" } else { "cold" };
                    format!("n{n} batch[{i}] {what} {side} ts{ts}")
                }
                (_, None, true) => format!("issue n{n} {what} hot hit ts{ts} "),
                (_, Some(_), true) if lin => format!("commit n{n} {what} ts{ts}"),
                (_, Some(_), true) => format!("issue n{n} {what} done ts{ts}"),
                _ if local => format!("issue n{n} {what} cold local ts{ts}"),
                (_, None, false) => format!("n{n} rpc#{corr} get resolved ts{ts}"),
                (_, Some(_), false) => format!("n{n} rpc#{corr} put resolved ts{ts}"),
            });
            self.history.record(OpRecord {
                session: n as u32,
                key,
                kind,
                ts,
                invoked_at: op.invoked_at,
                completed_at: self.clock,
                session_seq: op.seq,
            });
        }
        // What the answer failed reached the node all the same.
        let noted = &mut self.nodes[n].noted;
        noted.drain(..failed.min(noted.len()));
        for op in settled.unsure {
            let value = op.put.expect("only puts are indeterminate");
            self.log(format!("n{n} put k{}={value} indeterminate", op.key));
            (self.history).record_indeterminate_put(op.key, value, op.invoked_at);
        }
        // A miss RPC the sweep expired fails its op, and the client says
        // so; any other refusal is a fault.
        match answered {
            Err(refusal) if refusal.to_string() == RPC_EXPIRED => {
                self.log(format!("n{n} answered: {refusal}"));
            }
            Err(refusal) => self.fail(format!("n{n}'s answer was refused: {refusal:?}")),
            Ok(()) => {}
        }
    }

    /// Resolves an RPC response arriving back at origin node `o`: an
    /// eviction's write-back resumes the admin connection, anything else the
    /// session. An id the process's table does not hold — a duplicate, a
    /// late answer the sweep gave up on, or an answer to a dead generation
    /// — is dropped.
    pub(super) fn resolve_rpc(&mut self, o: usize, corr: u64, response: Frame) {
        let Some(admin) = self.nodes[o].rpcs.resolve(corr) else {
            let dropped = format!("n{o} rpc#{corr} response without a waiter; dropped");
            return self.log(dropped);
        };
        let served = self.served.remove(&(o, corr));
        if admin {
            self.log(format!("n{o} rpc#{corr} writeback resolved"));
            self.nodes[o]
                .admin
                .resume(ResumeEvent::Rpc { corr, response });
            return self.run_admin(o);
        }
        let session = &mut self.nodes[o];
        let awaited = matches!(session.ops.wait(), Some(Wait::Rpc { corr: c }) if *c == corr);
        session.resolved = corr;
        match (&response, served) {
            (Frame::MissRetry, _) if awaited => {
                self.log(format!("n{o} rpc#{corr} bounced; parking for retry"));
            }
            // A prefetched read's bounce waits in its slot.
            (Frame::MissRetry, _) => self.log(format!("n{o} rpc#{corr} bounced ahead of its turn")),
            (Frame::MissGetResp { .. }, Some((key, ts))) => {
                session.cold_reads.insert(key, ts);
            }
            _ => {}
        }
        self.nodes[o]
            .ops
            .resume(ResumeEvent::Rpc { corr, response });
        self.run_session(o);
    }

    /// [`Action::Expire`](super::Action::Expire): node `n`'s clock reaches
    /// its earliest RPC deadline, and the shipped sweep
    /// ([`node_ops::expire`]) fails every request due and withdraws those
    /// no pack took ([`node_ops::withdraw`]); the connection waiting on
    /// each resumes with the failure, and its late answer will find no
    /// waiter.
    pub(super) fn expire(&mut self, n: usize) {
        self.expires_left -= 1;
        let rpcs = &mut self.nodes[n].rpcs;
        let now = rpcs.next_deadline().expect("an rpc is pending");
        let (failed, queued, _) = node_ops::expire(rpcs, now);
        for (peer, corr) in queued {
            if node_ops::withdraw(self.end(n, peer).0, corr) {
                self.log(format!(
                    "n{n} rpc#{corr} withdrawn from the link to n{peer}"
                ));
            }
        }
        for (admin, event) in failed {
            let ResumeEvent::RpcFailed { corr, .. } = event else {
                unreachable!("the sweep fails what it expires")
            };
            self.log(format!("n{n} rpc#{corr} expired"));
            self.served.remove(&(n, corr));
            if admin {
                self.nodes[n].admin.resume(event);
                self.run_admin(n);
            } else {
                self.nodes[n].ops.resume(event);
                self.run_session(n);
            }
        }
    }

    /// Resumes the sessions whose Lin commit hooks fired during a delivery
    /// (the hooks push onto the queue inline; this runs after every
    /// `deliver` and every session run).
    pub(super) fn drain_commits(&mut self) {
        loop {
            let fired = std::mem::take(&mut *self.commits.lock().expect("commit queue"));
            if fired.is_empty() {
                break;
            }
            for n in fired {
                self.nodes[n].ops.resume(ResumeEvent::Committed);
                self.run_session(n);
            }
        }
    }

    /// Node `n` crashed: its session's connection died with the process,
    /// and with it every request unanswered on it. The client reports the
    /// puts among them indeterminate and fails the gets; the program moves
    /// on. (A scenario that plants `Hole::ResendLost` instead sends them again
    /// after the restart and records only the answers.)
    pub(super) fn session_lost(&mut self, n: usize) {
        let s = &mut self.nodes[n];
        s.ops = Default::default();
        (s.parked, s.noted) = (None, Default::default());
        let lost: Vec<ProgOp> = s.client.unanswered().map(prog_op).collect();
        let mut settled = Settled::default();
        s.client.lost(&mut settled, n, &mut Vec::new());
        for op in &lost {
            self.log(match op {
                ProgOp::Put { key, value } => format!("n{n} lost put k{key}={value}"),
                ProgOp::Get { key } => format!("n{n} lost get k{key}"),
            });
        }
        if self.spec.hole == Some(Hole::ResendLost) {
            if !lost.is_empty() {
                self.nodes[n].program.push_front(ProgStep::Batch(lost));
            }
            return;
        }
        for op in settled.unsure {
            let value = op.put.expect("only puts are indeterminate");
            self.history
                .record_indeterminate_put(op.key, value, op.invoked_at);
        }
    }
}

/// [`OpsHost`] for node `n`'s session or admin connection: its op
/// machine's miss RPCs, protocol messages and commit hooks go where the
/// harness's own sends go — onto the scheduled links and the commit queue.
struct SimHost<'a> {
    m: &'a mut RackModel,
    n: usize,
    admin: bool,
}

impl OpsHost for SimHost<'_> {
    fn node(&self) -> &CcNode {
        &self.m.nodes[self.n].cc
    }

    /// Values are unique, so a value is its own tag in the event log.
    fn write_tag(&mut self, value: &[u8]) -> u64 {
        decode_value(value)
    }

    fn issue_rpc(&mut self, home: usize, request: Frame) -> Option<u64> {
        let (n, key) = (self.n, request.key());
        let who = if self.admin { "admin" } else { "issue" };
        let rpcs = &mut self.m.nodes[n].rpcs;
        let (corr, frame) = rpcs.issue(home, request, self.admin, self.m.clock);
        self.m
            .log(format!("{who} n{n} rpc#{corr} k{key} -> home n{home}"));
        self.m.send_frame(n, home, frame);
        Some(corr)
    }

    fn ship(&mut self, outgoing: Vec<Outgoing>, _trace: Option<u64>) {
        self.m.ship(self.n, outgoing);
    }

    fn on_commit(&mut self, key: u64, ts: Timestamp) {
        let n = self.n;
        let Some(ProgOp::Put { value, .. }) = self.m.current_op(n) else {
            unreachable!("a pending Lin write is the put in progress");
        };
        self.m
            .log(format!("issue n{n} put k{key}={value} pending ts{ts}"));
        let commits = Arc::clone(&self.m.commits);
        let hook = move || commits.lock().expect("commit queue").push(n);
        self.m.nodes[n].cc.on_committed(key, ts, Box::new(hook));
    }

    /// Sessions send reads and writes only; an admin connection also
    /// sends the churn frames, served as the reactor serves them
    /// ([`serve_node_frame`]).
    fn serve(&mut self, frame: Frame) -> Served {
        if !self.admin {
            return Served::Close;
        }
        serve_node_frame(&self.m.nodes[self.n].cc, frame).map_or(Served::Close, Served::Now)
    }

    /// A dirty copy an eviction wrote back into this home's own shard is
    /// data its crash would lose (crash gating).
    fn note(&mut self, note: Note) {
        let mut moving = self.m.flips.front().into_iter().flat_map(Flip::keys);
        if note == Note::WriteBack && moving.any(|key| self.node().is_home(key)) {
            self.m.nodes[self.n].kvs_dirty = true;
        }
    }

    /// `Respond` marks a sub-request finishing: note the version a cold
    /// read was served at while nothing else can have moved it.
    fn trace(&mut self, _trace: Option<u64>, kind: EventKind, key: u64, _peer: u8) {
        if kind != EventKind::Respond || self.admin {
            return;
        }
        let slot = &mut self.m.nodes[self.n];
        let version = match slot.cold_reads.get(&key) {
            _ if slot.cc.is_home(key) => slot.cc.kvs_get_versioned(key).1,
            noted => noted.copied().unwrap_or(Timestamp::ZERO),
        };
        slot.noted.push_back(version);
    }
}
