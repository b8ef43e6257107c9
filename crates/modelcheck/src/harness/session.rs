//! The client sessions and admin connections of the rack under test:
//! [`RackModel`] as the second driver of the production op machine
//! ([`cckvs_net::ops::ConnOps`]; the reactor shard is the first).
//!
//! Each node serves one session. `Action::Issue` pushes the client frame
//! a program step would be on the wire, `Action::Reprobe` is the retry
//! tick (offered once the node has seen progress since the bounce),
//! `RpcResp` deliveries and commit hooks become `resume` calls, and the
//! history is read off the `GetResp`/`PutResp` frames that come out. A cold
//! read's answer carries no version, so the harness notes one, god's-eye,
//! as each sub-request finishes: the local shard's, or the one the remote
//! home served the newest `MissGetResp` for that key at.

use std::sync::Arc;

use cckvs::node::{CacheGet, CcNode, Outgoing};
use cckvs_net::churn::Transition;
use cckvs_net::ops::{EventKind, Note, OpsHost, ResumeEvent, Served, Step, Wait};
use cckvs_net::rpc::serve_home_frame;
use cckvs_net::wire::Frame;
use consistency::history::{OpRecord, RecordKind};
use consistency::{ConsistencyModel, Timestamp};

use super::{decode_value, RackModel};
use crate::scenario::{ProgOp, ProgStep};

/// One request a session sent that has not been answered yet.
pub(super) struct Request {
    step: ProgStep,
    invoked_at: u64,
    /// The version noted as each sub-request finished; its length is the
    /// index of the one in progress.
    noted: Vec<Timestamp>,
}

impl Request {
    /// The request as the client puts it on the wire.
    fn frame(&self) -> Frame {
        let wire = |op: &ProgOp| match *op {
            ProgOp::Get { key } => Frame::Get { key },
            ProgOp::Put { key, value } => Frame::Put {
                key,
                value: value.to_le_bytes().to_vec(),
            },
        };
        match &self.step {
            ProgStep::Op(op) | ProgStep::Pipelined(op) => wire(op),
            ProgStep::Batch(ops) => Frame::Batch {
                frames: ops.iter().map(wire).collect(),
            },
        }
    }
}

impl RackModel {
    /// The sub-request session `n`'s op machine is working on, if any.
    pub(super) fn current_op(&self, n: usize) -> Option<ProgOp> {
        let mut unanswered = self.nodes[n].inflight.iter();
        unanswered.find_map(|r| r.step.ops().get(r.noted.len()).copied())
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
            Some(_) => s.inflight.is_empty(),
        }
    }

    pub(super) fn reprobe_enabled(&self, n: usize) -> bool {
        let s = &self.nodes[n];
        s.up && s
            .parked
            .is_some_and(|at| at != (s.deliveries, self.world_version))
    }

    /// `Action::Issue`: the session's next step goes on the wire.
    pub(super) fn issue(&mut self, n: usize) {
        let step = self.nodes[n].program.pop_front();
        let step = step.expect("issue has a step");
        if let ProgStep::Batch(ops) = &step {
            self.log(format!("issue n{n} batch x{}", ops.len()));
        }
        let request = Request {
            step,
            invoked_at: self.clock,
            noted: Vec::new(),
        };
        let session = &mut self.nodes[n];
        session.ops.push(request.frame());
        session.inflight.push_back(request);
        self.run_session(n);
    }

    /// `Action::Reprobe`: the retry tick of the request in progress.
    pub(super) fn reprobe(&mut self, n: usize) {
        self.log(format!("reprobe n{n}"));
        let session = &mut self.nodes[n];
        if session.ops.is_idle() {
            // The connection died with the process: the client sends what
            // was never answered again.
            for request in &mut session.inflight {
                request.noted.clear();
                session.ops.push(request.frame());
            }
        }
        self.run_session(n);
    }

    /// Runs session `n`'s op machine — a frame was pushed, an event queued,
    /// or its retry tick fired — and takes in what comes out.
    fn run_session(&mut self, n: usize) {
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

    /// Takes in one response frame of session `n`: it answers the oldest
    /// unanswered request, position by position.
    fn answer(&mut self, n: usize, frame: Frame) {
        let Some(req) = self.nodes[n].inflight.pop_front() else {
            return self.fail(format!("n{n} answered {frame:?} to no request"));
        };
        let (ops, batch) = (req.step.ops(), matches!(req.step, ProgStep::Batch(_)));
        let subs = match frame {
            Frame::Batch { frames } if batch && frames.len() == ops.len() => frames,
            frame if !batch => vec![frame],
            other => return self.fail(format!("n{n} answered a batch with {other:?}")),
        };
        let lin = self.spec.model == ConsistencyModel::Lin;
        let corr = self.nodes[n].resolved;
        for (i, ((&op, sub), &noted)) in ops.iter().zip(subs).zip(&req.noted).enumerate() {
            let key = op.key();
            let local = self.home_of(key) == n;
            let (what, value, cached, ts) = match (op, sub) {
                (ProgOp::Get { .. }, Frame::GetResp { cached, ts, value }) => {
                    let ts = if cached { ts } else { noted };
                    (format!("get k{key}"), decode_value(&value), cached, ts)
                }
                (ProgOp::Put { value, .. }, Frame::PutResp { cached, ts }) => {
                    self.nodes[n].kvs_dirty |= !cached && local;
                    (format!("put k{key}={value}"), value, cached, ts)
                }
                (_, other) => return self.fail(format!("n{n} k{key} answered with {other:?}")),
            };
            // A hot Lin put is answered by its commit, a cold op at a
            // remote home by the miss RPC answered last.
            self.log(match (op, cached) {
                _ if batch => {
                    let side = if cached { "hot" } else { "cold" };
                    format!("n{n} batch[{i}] {what} {side} ts{ts}")
                }
                (ProgOp::Get { .. }, true) => format!("issue n{n} {what} hot hit ts{ts} "),
                (ProgOp::Put { .. }, true) if lin => format!("commit n{n} {what} ts{ts}"),
                (ProgOp::Put { .. }, true) => format!("issue n{n} {what} done ts{ts}"),
                _ if local => format!("issue n{n} {what} cold local ts{ts}"),
                (ProgOp::Get { .. }, false) => format!("n{n} rpc#{corr} get resolved ts{ts}"),
                (ProgOp::Put { .. }, false) => format!("n{n} rpc#{corr} put resolved ts{ts}"),
            });
            self.record(n, op, req.invoked_at, value, ts);
        }
    }

    fn record(&mut self, n: usize, op: ProgOp, invoked_at: u64, value: u64, ts: Timestamp) {
        let kind = match op {
            ProgOp::Get { .. } => RecordKind::Get { value },
            ProgOp::Put { .. } => RecordKind::Put { value },
        };
        let session_seq = self.nodes[n].session_seq;
        self.nodes[n].session_seq += 1;
        self.history.record(OpRecord {
            session: n as u32,
            key: op.key(),
            kind,
            ts,
            invoked_at,
            completed_at: self.clock,
            session_seq,
        });
    }

    /// Miss RPC `corr` of session `o` was answered with `resp`, which the
    /// home served at `served` (key and version).
    pub(super) fn rpc_answered(
        &mut self,
        o: usize,
        corr: u64,
        resp: Frame,
        served: Option<(u64, Timestamp)>,
    ) {
        let session = &mut self.nodes[o];
        let awaited = matches!(session.ops.wait(), Some(Wait::Rpc { corr: c }) if *c == corr);
        session.resolved = corr;
        match (&resp, served) {
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
        let event = ResumeEvent::Rpc {
            corr,
            response: resp,
        };
        self.nodes[o].ops.resume(event);
        self.run_session(o);
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

    /// Node `n` crashed: its session's connection dies with the process,
    /// and with it the request in progress. A pending RPC goes with the
    /// process's table: an executed put happened (the home applied it)
    /// even though no response will ever arrive — record it so the history
    /// owns every observable write. Unexecuted requests died with the
    /// process; the client sends them again after the restart, as it does
    /// one that was parked on a bounce.
    pub(super) fn session_lost(&mut self, n: usize) {
        let ops = std::mem::take(&mut self.nodes[n].ops);
        let Some(op) = self.current_op(n) else {
            return;
        };
        match ops.wait() {
            Some(Wait::Rpc { corr }) => match (op, self.served.remove(&(n, *corr))) {
                (ProgOp::Put { value, .. }, Some((_, ts))) => {
                    self.log(format!("crash orphaned executed rpc#{corr}; recording put"));
                    let req = self.nodes[n].inflight.pop_front();
                    let invoked_at = req.expect("op in progress").invoked_at;
                    self.record(n, op, invoked_at, value, ts);
                }
                _ => {
                    self.log(format!("crash voided rpc#{corr}; op will retry"));
                    self.park(n, "rpc voided by crash");
                }
            },
            Some(Wait::LinCommit { ts, .. }) => {
                // Unacknowledged pending write: the client never got an
                // answer, so the history records nothing. Gated crashes
                // never allow this window (peers would wedge).
                let key = op.key();
                self.log(format!(
                    "crash voided pending put k{key}:{ts} (never acked)"
                ));
                self.nodes[n].inflight.pop_front();
            }
            _ => {}
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
        let n = self.n;
        let (Frame::MissGet { key } | Frame::MissPut { key, .. } | Frame::WriteBack { key, .. }) =
            request
        else {
            unreachable!("ops issue only miss-path reads, writes and write-backs");
        };
        let who = if self.admin { "admin" } else { "issue" };
        let (corr, frame) = self.m.nodes[n].rpcs.issue(home, request, (), ());
        self.m
            .log(format!("{who} n{n} rpc#{corr} k{key} -> home n{home}"));
        self.m.send_frame(n, home, &frame);
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
    /// sends the churn frames, served as the reactor serves them.
    fn serve(&mut self, frame: Frame) -> Served {
        let node = &self.m.nodes[self.n].cc;
        Served::Now(match frame {
            _ if !self.admin => return Served::Close,
            Frame::InstallHot {
                key,
                value,
                ts,
                warm,
            } => {
                let install = if warm {
                    CcNode::install_hot_warm
                } else {
                    CcNode::install_hot
                };
                let ok = install(node, key, &value, ts);
                Frame::InstallHotResp { ok }
            }
            Frame::ActivateHot { key } => {
                let ok = node.activate_hot(key);
                Frame::ActivateHotResp { ok }
            }
            frame => match serve_home_frame(node, frame) {
                Ok(response) => response,
                Err(_) => return Served::Close,
            },
        })
    }

    /// A dirty copy an eviction wrote back into this home's own shard is
    /// data its crash would lose (crash gating).
    fn note(&mut self, note: Note) {
        let evicting = self.m.transitions.front().map(Transition::key);
        if note == Note::WriteBack && evicting.is_some_and(|key| self.node().is_home(key)) {
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
        let mut unanswered = slot.inflight.iter_mut();
        let request = unanswered.find(|r| r.noted.len() < r.step.ops().len());
        request.expect("a request in progress").noted.push(version);
    }
}
