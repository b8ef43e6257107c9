//! The rack-under-test: real [`CcNode`]s over a network that is the
//! harness's own flight table, with every source of nondeterminism owned
//! by the schedule.
//!
//! One [`RackModel`] is one execution of a [`ScenarioSpec`]. All frames —
//! invalidations, acks, update broadcasts, miss RPCs, write-backs — travel
//! as real wire-encoded datagrams ([`Frame`]), each one entry of the flight
//! table until it lands; the scheduler picks which datagram is delivered,
//! dropped, or duplicated next, when retransmits and credit confirmations
//! happen, when nodes crash and restart, and when each client session's
//! next operation is issued. After the bounded exploration phase a
//! deterministic drain completes every outstanding operation (or reports a
//! deadlock), and the final state is checked:
//!
//! * the recorded history is per-key linearizable (or per-key SC,
//!   matching the scenario's model), with unique write timestamps;
//! * **zero lost acknowledged writes**: the newest acknowledged value of
//!   every key is present at the key's final location — in every replica's
//!   cache if the key ended hot, in the home shard if it ended cold.
//!
//! ## The link
//!
//! Each directed node pair is one [`cckvs_net::link`] — the very [`Outbox`]
//! the production peer mesh queues, numbers, retains and replays through,
//! and the [`RecvHalf`] the UDP transport receives with, not a model of
//! them. The harness drives the outbox as the reactor's peer pump does: a
//! frame is pushed and, while both ends are up, the link is pumped at
//! once, one datagram per item, as far as the scenario's credit window
//! admits (what it holds back logs a `stall`). The scheduler decides when a
//! retained frame is retransmitted and when the receiver's delivered count
//! is confirmed back ([`Action`]`::Confirm`, which pumps again), and —
//! across a crash — runs the `PeerHello`/`PeerResume` contract: the
//! restarted side's links start fresh (a new process generation), each
//! survivor requeues its unprocessed tail ahead of what it queued meanwhile
//! and pumps, the fresh receiver `resume`s at the survivor's confirmed
//! count, and invalidations with uncounted acks are reissued. Every link
//! must process frames in the order they were pushed — wire order is
//! enqueue order — which a god's-eye ordinal per frame checks.
//!
//! ## The miss path
//!
//! Both ends are the production code ([`cckvs_net::rpc`]). A home answers
//! `MissGet`/`MissPut`/`WriteBack` through [`serve_home_frame`] on its real
//! `CcNode`, whose fence set and cold-version counter decide bounces and
//! versions; a restart's fences are `hot_mark` calls on that node. Each
//! simulated process owns
//! one [`RpcTable`]: it is replaced with the process, so an answer
//! addressed to a dead generation finds no waiter, and on a peer's restart
//! the survivors ask their `in_doubt` requests again. The only thing the
//! harness keeps beside them is a god's-eye note of the version each
//! request was served at — the history needs a timestamp for a cold read
//! (`MissGetResp` carries none) and for a cold write whose origin died
//! before the answer arrived.
//!
//! ## The sessions
//!
//! Each node serves one client session through the production op machine
//! ([`cckvs_net::ops::ConnOps`]): the request queue, the one suspended
//! request, batch prefetch, the bounce policy and the request-order rule are
//! the code the reactor runs per connection. How the harness drives it is
//! the `session` module's.
//!
//! ## Churn
//!
//! Each node also serves an admin connection, a second `ConnOps`, through
//! which [`Transition`]s make their calls, one per [`Action::Admin`]: the
//! admin script's, as the epoch coordinator runs them, and a heal's
//! evictions, as the supervisor runs them.
//!
//! ## Crash gating
//!
//! Gated (default) crashes avoid the windows the production system is
//! *known* not to survive — in-memory cold data dies with its home
//! (ROADMAP: durable home shards), a committed value living only in the
//! dead writer's cache and its in-flight updates, and a dead writer
//! leaving peers wedged-invalid. [`RackModel`] blocks those crashes via
//! `can_crash` and documents each exclusion; the `ack-then-die` negative
//! scenario turns the gates off and asserts the checker *does* flag the
//! resulting histories, so the exclusions stay honest.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use cckvs::node::{CacheGet, CcNode, NodeConfig, Outgoing};
use cckvs_net::churn::{Next, Outcome, Transition};
use cckvs_net::link::{Accept, Outbox, RecvHalf};
use cckvs_net::ops::{ConnOps, ResumeEvent, Wait};
use cckvs_net::rpc::{serve_home_frame, RpcTable};
use cckvs_net::wire::{encode_frame_into, Frame};
use consistency::engine::Destination;
use consistency::history::{History, RecordKind};
use consistency::{NodeId, ProtocolMsg, Timestamp};

use crate::scenario::{AdminStep, ProgStep, ScenarioSpec};
use crate::sched::SplitMix64;
use session::Request;

mod session;

/// Iteration cap of the post-exploration drain; hitting it is reported as
/// a deadlock (healthy schedules quiesce orders of magnitude earlier).
const DRAIN_CAP: usize = 20_000;

/// One scheduler choice. The enabled set is enumerated in a fixed,
/// deterministic order each step; the schedule seed picks one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Issue session `node`'s next program operation.
    Issue(usize),
    /// Retry a parked operation after its node observed progress.
    Reprobe(usize),
    /// Deliver in-flight datagram `flight` to its receiver.
    Deliver(u64),
    /// Drop in-flight datagram `flight` (spends the drop budget).
    Drop(u64),
    /// Duplicate in-flight datagram `flight` (spends the dup budget).
    Dup(u64),
    /// Re-send the oldest retained-but-undelivered frame of link `(from,
    /// to)` (the sender's loss-repair timer, fired by the scheduler).
    Retransmit(usize, usize),
    /// Advance link `(from, to)`'s cumulative credit confirmation to the
    /// receiver's current processed sequence, pruning retained frames, and
    /// pump what the window now admits.
    Confirm(usize, usize),
    /// Crash `node` (spends the crash budget; gated unless the scenario
    /// sets `unsafe_crashes`).
    Crash(usize),
    /// Restart crashed `node`: fresh process, new generation, survivor
    /// replay + reissued invalidations.
    Restart(usize),
    /// Start re-establishing symmetric caching after a restart: one
    /// eviction per hot key, stepped by [`Action::Admin`].
    Heal,
    /// Make the running transition's next call, or fire the retry tick of
    /// one that bounced.
    Admin,
}

/// Result of one fully-run schedule.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// A violation description, or `None` for a clean schedule.
    pub violation: Option<String>,
    /// The deterministic event log (identical across replays of a seed).
    pub events: Vec<String>,
    /// Scheduler choices made in the exploration phase.
    pub steps: usize,
    /// FNV-1a fingerprint of the event log — the identity by which
    /// distinct schedules are counted.
    pub fingerprint: u64,
}

/// Runs one schedule of `spec` from `seed`: `depth` seeded scheduler
/// choices, then the deterministic drain and the final checks.
pub fn run_schedule(spec: &ScenarioSpec, seed: u64, depth: usize) -> RunOutcome {
    let mut m = RackModel::new(spec.clone());
    let mut rng = SplitMix64::new(seed);
    let mut steps = 0;
    while steps < depth && m.violation.is_none() {
        let actions = m.enabled_actions();
        if actions.is_empty() {
            break;
        }
        let action = actions[rng.pick(actions.len())];
        m.apply(action);
        steps += 1;
    }
    if m.violation.is_none() {
        m.drain();
    }
    if m.violation.is_none() {
        m.check_final();
    }
    let fingerprint = fingerprint(&m.events);
    RunOutcome {
        violation: m.violation,
        events: m.events,
        steps,
        fingerprint,
    }
}

/// FNV-1a over an event log; the distinct-schedule identity.
pub fn fingerprint(events: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for b in e.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0x0a;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One frame on a directed link's [`Outbox`], and what the scheduler
/// tracks about it.
struct LinkFrame {
    /// The encoded frame; its datagram is the link number, then these.
    encoded: Vec<u8>,
    /// A committed value's `Update` (crash gating asks for these).
    update: bool,
    /// An `RpcReq`'s id, for the origin's table when the frame is numbered.
    corr: Option<u64>,
    /// God's-eye enqueue order (see "The link").
    ordinal: u64,
}

impl LinkFrame {
    fn datagram(&self, seq: u64) -> Vec<u8> {
        [&seq.to_le_bytes()[..], &self.encoded].concat()
    }
}

/// One datagram on the wire: a copy of link `i → j`'s item `seq`, as
/// [`LinkFrame::datagram`] encodes it.
#[derive(Clone)]
struct Flight {
    i: usize,
    j: usize,
    seq: u64,
    datagram: Vec<u8>,
}

/// One rack node: the process (`CcNode` + pending-RPC table, replaced
/// together on restart) plus what the harness tracks around it.
struct NodeSlot {
    cc: CcNode,
    /// This process's miss-path RPCs in flight. The harness models no
    /// timeouts, so its time is `()`.
    rpcs: RpcTable<(), ()>,
    up: bool,
    gen: u64,
    session_seq: u64,
    /// Messages processed by this node — parked-op reprobe gating.
    deliveries: u64,
    /// Whether this node's in-memory shard holds data whose loss would be
    /// observable (executed cold writes / landed write-backs) — gated
    /// crashes refuse such nodes (ROADMAP: durable home shards).
    kvs_dirty: bool,
    program: VecDeque<ProgStep>,
    /// The session's connection into this process — the production op
    /// machine. It dies with the process.
    ops: ConnOps<()>,
    /// The admin connection into this process (see "Churn").
    admin: ConnOps<()>,
    /// Requests sent and not yet answered, oldest first.
    inflight: VecDeque<Request>,
    /// `(deliveries, world_version)` when the request in progress last
    /// bounced, or lost its connection to a crash: [`Action::Reprobe`] is
    /// offered once either has moved.
    parked: Option<(u64, u64)>,
    /// Per key, the shard version behind the newest `MissGetResp`
    /// delivered to this session.
    cold_reads: BTreeMap<u64, Timestamp>,
    /// The miss RPC answered to this session last (names it in the log).
    resolved: u64,
}

/// A fresh process of node `n` in generation `gen`. Generations number
/// their correlation ids apart, as the production generation stamp does.
fn spawn_process(spec: &ScenarioSpec, n: usize, gen: u64) -> (CcNode, RpcTable<(), ()>) {
    let mut cfg = NodeConfig::small(spec.model, n, spec.nodes);
    if spec.tiny_cache == Some(n) {
        cfg.cache_capacity = 1;
    }
    (CcNode::new(cfg), RpcTable::new(gen * 1_000_000 + 1))
}

/// The rack under test. See the module docs for the model.
pub struct RackModel {
    spec: ScenarioSpec,
    nodes: Vec<NodeSlot>,
    /// The network: every datagram on the wire, by flight id.
    flights: BTreeMap<u64, Flight>,
    /// Datagrams put on the wire so far: the last flight's id.
    launched: u64,
    outbox: BTreeMap<(usize, usize), Outbox<LinkFrame>>,
    recv: BTreeMap<(usize, usize), RecvHalf<Vec<u8>>>,
    /// Frames pushed so far, on any link: the next frame's ordinal.
    enqueued: u64,
    /// Per link, the ordinal of the frame its receiver processed last
    /// (forgotten when either end restarts).
    processed_ordinal: BTreeMap<(usize, usize), u64>,
    /// `(origin, corr)` → the key and version the home served that request
    /// at (see the module docs); cleared when the request resolves or its
    /// origin dies.
    served: BTreeMap<(usize, u64), (u64, Timestamp)>,
    /// Sessions whose Lin commit hook fired (pushed by `on_committed` hooks
    /// running inline on the delivery path), resumed after every delivery.
    commits: Arc<Mutex<Vec<usize>>>,
    history: History,
    events: Vec<String>,
    clock: u64,
    /// Bumped by restarts, heals and transition unmarks; parked operations
    /// reprobe when it moves.
    world_version: u64,
    drops_left: u32,
    dups_left: u32,
    crashes_left: u32,
    heal_needed: bool,
    /// Transitions not yet ended, in order: the admin script's, then a
    /// heal's. The front one runs; its call is in flight while its node's
    /// admin connection is busy.
    transitions: VecDeque<Transition>,
    /// `(deliveries, world_version)` when that call last bounced.
    admin_parked: Option<(u64, u64)>,
    /// Keys currently hot (installed and not yet evicted).
    hot_now: BTreeSet<u64>,
    violation: Option<String>,
}

impl RackModel {
    /// A fresh rack in the scenario's initial state (hot keys installed
    /// everywhere at `Timestamp::ZERO`, all links up, budgets full).
    pub fn new(spec: ScenarioSpec) -> Self {
        assert!(
            (2..=8).contains(&spec.nodes),
            "scenarios are small racks (2..=8 nodes)"
        );
        assert_eq!(spec.programs.len(), spec.nodes);
        let bare = |step: &ProgStep| matches!(step, ProgStep::Op(_));
        assert!(
            spec.crash_budget == 0 || spec.programs.iter().flatten().all(bare),
            "a crash's effect on a half-served batch or pipeline is not modelled"
        );
        let links = || {
            let n = spec.nodes;
            (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        };
        let nodes: Vec<NodeSlot> = (0..spec.nodes)
            .map(|n| {
                let (cc, rpcs) = spawn_process(&spec, n, 0);
                NodeSlot {
                    cc,
                    rpcs,
                    up: true,
                    gen: 0,
                    session_seq: 0,
                    deliveries: 0,
                    kvs_dirty: false,
                    program: spec.programs[n].iter().cloned().collect(),
                    ops: ConnOps::default(),
                    admin: ConnOps::default(),
                    inflight: VecDeque::new(),
                    parked: None,
                    cold_reads: BTreeMap::new(),
                    resolved: 0,
                }
            })
            .collect();
        let mut m = RackModel {
            nodes,
            flights: BTreeMap::new(),
            launched: 0,
            outbox: links().map(|l| (l, Outbox::default())).collect(),
            recv: links().map(|l| (l, RecvHalf::default())).collect(),
            enqueued: 0,
            processed_ordinal: BTreeMap::new(),
            served: BTreeMap::new(),
            commits: Arc::new(Mutex::new(Vec::new())),
            history: History::new(),
            events: Vec::new(),
            clock: 0,
            world_version: 0,
            drops_left: spec.drop_budget,
            dups_left: spec.dup_budget,
            crashes_left: spec.crash_budget,
            heal_needed: false,
            transitions: (spec.admin_script.iter())
                .map(|step| match *step {
                    AdminStep::Install(key) => Transition::install(key, spec.nodes),
                    AdminStep::Evict(key) => Transition::evict(key, spec.nodes),
                })
                .collect(),
            admin_parked: None,
            hot_now: BTreeSet::new(),
            violation: None,
            spec,
        };
        for k in m.spec.hot_keys.clone() {
            for n in 0..m.spec.nodes {
                assert!(
                    m.nodes[n].cc.install_hot(k, &[], Timestamp::ZERO),
                    "initial hot install fits"
                );
            }
            m.hot_now.insert(k);
        }
        m
    }

    /// The violation found so far, if any.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// The event log so far.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    fn log(&mut self, e: String) {
        self.events.push(e);
    }

    fn fail(&mut self, why: String) {
        if self.violation.is_none() {
            self.events.push(format!("VIOLATION {why}"));
            self.violation = Some(why);
        }
    }

    // ----- enabled-action enumeration ---------------------------------

    /// The currently enabled scheduler choices, in a fixed deterministic
    /// order (node-index, flight-id, link-key ascending).
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for n in 0..self.nodes.len() {
            if self.issue_enabled(n) {
                out.push(Action::Issue(n));
            }
        }
        for n in 0..self.nodes.len() {
            if self.reprobe_enabled(n) {
                out.push(Action::Reprobe(n));
            }
        }
        let flights: Vec<u64> = self.flights.keys().copied().collect();
        for &f in &flights {
            out.push(Action::Deliver(f));
        }
        if self.drops_left > 0 {
            for &f in &flights {
                out.push(Action::Drop(f));
            }
        }
        if self.dups_left > 0 {
            for &f in &flights {
                out.push(Action::Dup(f));
            }
        }
        for &(i, j) in self.outbox.keys() {
            if self.retransmit_enabled(i, j) {
                out.push(Action::Retransmit(i, j));
            }
        }
        for (&(i, j), ob) in &self.outbox {
            if self.nodes[i].up && ob.confirmed() < self.recv[&(i, j)].delivered() {
                out.push(Action::Confirm(i, j));
            }
        }
        for n in 0..self.nodes.len() {
            if self.can_crash(n) {
                out.push(Action::Crash(n));
            }
        }
        for n in 0..self.nodes.len() {
            if !self.nodes[n].up {
                out.push(Action::Restart(n));
            }
        }
        if self.heal_enabled() {
            out.push(Action::Heal);
        }
        if self.admin_enabled() {
            out.push(Action::Admin);
        }
        out
    }

    fn retransmit_enabled(&self, i: usize, j: usize) -> bool {
        if !self.nodes[i].up || !self.nodes[j].up {
            return false;
        }
        self.undelivered(i, j)
            .any(|(seq, _)| !self.on_wire(i, j, seq))
    }

    /// Whether a copy of link `i → j`'s item `seq` is in flight.
    fn on_wire(&self, i: usize, j: usize, seq: u64) -> bool {
        self.flights
            .values()
            .any(|f| (f.i, f.j, f.seq) == (i, j, seq))
    }

    /// Link `i → j`'s retained frames the receiver has not yet delivered.
    fn undelivered(&self, i: usize, j: usize) -> impl Iterator<Item = (u64, &LinkFrame)> {
        let delivered = self.recv[&(i, j)].delivered();
        self.outbox[&(i, j)]
            .retained()
            .filter(move |(seq, _)| *seq >= delivered)
    }

    /// Crash gating. Ungated when the scenario sets `unsafe_crashes`;
    /// otherwise a crash is only offered where the production system
    /// survives it:
    ///
    /// * not while the node's shard holds observable cold data (in-memory
    ///   shards lose it; durable homes are an open ROADMAP item);
    /// * not while the node has a pending uncommitted Lin write (its death
    ///   would leave peers wedged-invalid with no writer to commit);
    /// * not while a committed update from this node is still undelivered
    ///   or queued somewhere (the acked value would exist only in the dead
    ///   cache);
    /// * not during admin transitions, and one node down at a time.
    fn can_crash(&self, n: usize) -> bool {
        if self.crashes_left == 0 || !self.nodes[n].up {
            return false;
        }
        if self.nodes.iter().any(|s| !s.up) {
            return false;
        }
        let dirty_shard = self.nodes[n].kvs_dirty;
        let pending_commit = self.awaits_commit(n);
        let undelivered_update = (0..self.nodes.len()).filter(|&j| j != n).any(|j| {
            self.undelivered(n, j).any(|(_, r)| r.update)
                || self.outbox[&(n, j)].queued().any(|r| r.update)
        });
        if self.spec.unsafe_crashes {
            // The negative scenario crashes only *inside* the windows that
            // lose acknowledged data — a committed-but-unpropagated update
            // (ack-then-die) or an in-memory shard holding acked cold
            // writes (cold amnesia). Otherwise the single crash budget is
            // almost always spent at a survivable moment and the scenario
            // proves nothing. (A crash awaiting a commit is *survivable*
            // — the write was never acked, and restart reissue + heal
            // repair the wedged peers — so it is not targeted.)
            return dirty_shard || undelivered_update;
        }
        self.transitions.is_empty() && !dirty_shard && !pending_commit && !undelivered_update
    }

    fn heal_enabled(&self) -> bool {
        self.heal_needed && self.transitions.is_empty() && self.nodes.iter().all(|s| s.up)
    }

    /// A call can be made (its node is up), or the one in flight bounced
    /// and its node has seen progress since.
    fn admin_enabled(&self) -> bool {
        let Some(Next::Call(n, _)) = self.transitions.front().map(Transition::next) else {
            return false;
        };
        let s = &self.nodes[n];
        s.up && match self.admin_parked {
            Some(at) => at != (s.deliveries, self.world_version),
            None => s.admin.is_idle(),
        }
    }

    fn home_of(&self, key: u64) -> usize {
        self.nodes[0].cc.home_node(key)
    }

    // ----- action application -----------------------------------------

    /// Applies one scheduler choice.
    pub fn apply(&mut self, action: Action) {
        self.clock += 1;
        match action {
            Action::Issue(n) => self.issue(n),
            Action::Reprobe(n) => self.reprobe(n),
            Action::Deliver(f) => self.deliver_flight(f),
            Action::Drop(f) => {
                self.drops_left -= 1;
                let Flight { i, j, seq, .. } = self.flights.remove(&f).expect("live flight");
                self.log(format!("drop {i}->{j} #{seq}"));
            }
            Action::Dup(f) => {
                self.dups_left -= 1;
                let copy = self.flights[&f].clone();
                self.log(format!("dup {}->{} #{}", copy.i, copy.j, copy.seq));
                self.launch(copy);
            }
            Action::Retransmit(i, j) => self.retransmit(i, j),
            Action::Confirm(i, j) => {
                let processed = self.recv[&(i, j)].delivered();
                let ob = self.outbox.get_mut(&(i, j)).expect("link");
                ob.confirm(processed).expect("delivered implies sent");
                self.log(format!("confirm {i}->{j} cum{processed}"));
                self.pump(i, j);
            }
            Action::Crash(n) => self.crash(n),
            Action::Restart(n) => self.restart(n),
            Action::Heal => self.heal(),
            Action::Admin => self.admin_step(),
        }
    }

    // ----- frame transmission -----------------------------------------

    /// Puts one datagram on the wire under the next flight id.
    fn launch(&mut self, flight: Flight) {
        self.launched += 1;
        self.flights.insert(self.launched, flight);
    }

    /// Ships protocol messages produced by a node: resolves destinations
    /// (broadcast = every other replica) and queues each on the
    /// corresponding directed link.
    fn ship(&mut self, n: usize, outgoing: Vec<Outgoing>) {
        for out in outgoing {
            let targets: Vec<usize> = match out.dest {
                Destination::To(id) => vec![id.0 as usize],
                Destination::Broadcast => (0..self.nodes.len()).filter(|&t| t != n).collect(),
            };
            let frame = Frame::Protocol {
                msg: out.msg,
                bytes: out.bytes.as_ref().map(|b| b.to_vec()),
            };
            for t in targets {
                self.send_frame(n, t, &frame);
            }
        }
    }

    /// Queues one frame on the directed link `i → j` and pumps the link. A
    /// frame for a down peer stays queued; the restart pumps it.
    fn send_frame(&mut self, i: usize, j: usize, frame: &Frame) {
        let update = matches!(
            frame,
            Frame::Protocol {
                msg: ProtocolMsg::Update { .. },
                ..
            }
        );
        let corr = match frame {
            Frame::RpcReq { corr, .. } => Some(*corr),
            _ => None,
        };
        let mut encoded = Vec::with_capacity(56);
        encode_frame_into(&mut encoded, frame);
        self.enqueued += 1;
        self.outbox.get_mut(&(i, j)).expect("link").push(LinkFrame {
            encoded,
            update,
            corr,
            ordinal: self.enqueued,
        });
        self.pump(i, j);
    }

    /// The reactor's peer pump over link `i → j`, one datagram per item:
    /// while both ends are up, puts on the wire what the window admits,
    /// front first, and logs a `stall` if the window holds anything back.
    fn pump(&mut self, i: usize, j: usize) {
        if !(self.nodes[i].up && self.nodes[j].up) {
            return;
        }
        let window = self.spec.credit_window;
        while self.outbox[&(i, j)].sendable(window).is_some() {
            let ob = self.outbox.get_mut(&(i, j)).expect("link");
            let seq = ob.pack_front();
            let frame = ob.get_mut(seq).expect("just packed");
            let datagram = frame.datagram(seq);
            if let Some(corr) = frame.corr {
                self.nodes[i].rpcs.packed(corr, seq);
            }
            self.launch(Flight {
                i,
                j,
                seq,
                datagram,
            });
        }
        let queued = self.outbox[&(i, j)].queued().len();
        if queued > 0 {
            self.log(format!("stall {i}->{j} x{queued}"));
        }
    }

    fn retransmit(&mut self, i: usize, j: usize) {
        let Some((seq, datagram)) = self
            .undelivered(i, j)
            .find(|&(seq, _)| !self.on_wire(i, j, seq))
            .map(|(seq, r)| (seq, r.datagram(seq)))
        else {
            return;
        };
        self.launch(Flight {
            i,
            j,
            seq,
            datagram,
        });
        self.log(format!("retransmit {i}->{j} #{seq}"));
    }

    // ----- delivery and frame processing ------------------------------

    /// Lands flight `f`: its `[seq u64][len u32][frame]` datagram goes
    /// into link `i → j`'s receive half, and every frame that became
    /// deliverable is processed.
    fn deliver_flight(&mut self, f: u64) {
        let Flight { i, j, datagram, .. } = self.flights.remove(&f).expect("live flight");
        let seq = u64::from_le_bytes(datagram[0..8].try_into().expect("8 bytes"));
        self.log(format!("deliver {i}->{j} #{seq}"));
        let flen = u32::from_le_bytes(datagram[8..12].try_into().expect("4 bytes")) as usize;
        let payload = &datagram[12..];
        assert_eq!(payload.len(), flen, "one frame per datagram");
        let rl = self.recv.get_mut(&(i, j)).expect("link");
        let next = rl.delivered();
        match rl.accept(seq, payload.to_vec()) {
            Accept::Ready => {}
            Accept::Duplicate => self.log(format!("dedup {i}->{j} #{seq}")),
            Accept::Held => self.log(format!("hold {i}->{j} #{seq} (awaiting #{next})")),
            Accept::Refused => self.log(format!("refuse {i}->{j} #{seq}")),
        }
        while let Some(payload) = self.recv.get_mut(&(i, j)).expect("link").pop_ready() {
            let seq = self.recv[&(i, j)].delivered() - 1;
            let ordinal = (self.outbox[&(i, j)].retained())
                .find_map(|(s, f)| (s == seq).then_some(f.ordinal))
                .expect("retained until confirmed");
            let last = self.processed_ordinal.insert((i, j), ordinal);
            if let Some(last) = last.filter(|&last| last >= ordinal) {
                return self.fail(format!(
                    "link {i}->{j} processed #{seq} (enqueued {ordinal}) after one \
                     enqueued later ({last}): wire order is not enqueue order"
                ));
            }
            self.nodes[j].deliveries += 1;
            let frame = Frame::decode(&payload).expect("peer frames decode");
            self.process_frame(i, j, frame);
            if self.violation.is_some() {
                return;
            }
        }
    }

    /// Processes one in-sequence frame arriving at node `j` from node `i`.
    fn process_frame(&mut self, i: usize, j: usize, frame: Frame) {
        match frame {
            Frame::Protocol { msg, bytes } => {
                self.log(format!("n{j} <- {}", protocol_brief(&msg)));
                let out = self.nodes[j].cc.deliver(&msg, bytes.as_deref());
                self.ship(j, out);
                self.drain_commits();
            }
            Frame::RpcReq { corr, inner } => {
                let resp = self.serve_home(i, j, corr, *inner);
                let resp = Frame::RpcResp {
                    corr,
                    inner: Box::new(resp),
                };
                self.send_frame(j, i, &resp);
            }
            Frame::RpcResp { corr, inner } => self.resolve_rpc(j, corr, *inner),
            other => self.fail(format!("unexpected peer frame {other:?}")),
        }
    }

    /// Serves origin `o`'s miss-path request `corr` at home node `h`
    /// through the production [`serve_home_frame`], noting what the
    /// checker needs beside the answer: the version the request was served
    /// at, and that the shard now holds observable data.
    fn serve_home(&mut self, o: usize, h: usize, corr: u64, req: Frame) -> Frame {
        let (key, what) = match &req {
            Frame::MissGet { key } => (*key, format!("get k{key}")),
            Frame::MissPut { key, .. } => (*key, format!("put k{key}")),
            Frame::WriteBack { key, ts, .. } => (*key, format!("writeback k{key} ts{ts}")),
            other => {
                self.fail(format!("unexpected rpc request {other:?}"));
                return Frame::MissRetry;
            }
        };
        let home = &self.nodes[h].cc;
        let (_, stored) = home.kvs_get_versioned(key);
        let resp = serve_home_frame(home, req).expect("a home-shard frame");
        match &resp {
            Frame::MissRetry => self.log(format!("n{h} rpc#{corr} from n{o} {what} bounced")),
            Frame::MissGetResp { .. } => {
                self.served.insert((o, corr), (key, stored));
                self.log(format!("n{h} rpc#{corr} from n{o} {what} cold ts{stored}"));
            }
            Frame::MissPutResp { ts } => {
                self.nodes[h].kvs_dirty = true;
                self.served.insert((o, corr), (key, *ts));
                self.log(format!("n{h} rpc#{corr} from n{o} {what} cold ts{ts}"));
            }
            Frame::WriteBackResp { applied } => {
                self.nodes[h].kvs_dirty = true;
                self.log(format!(
                    "n{h} rpc#{corr} from n{o} {what} applied={applied}"
                ));
            }
            other => self.fail(format!("home n{h} answered rpc#{corr} with {other:?}")),
        }
        resp
    }

    /// Resolves an RPC response arriving back at origin node `o`. An id
    /// the process's table does not hold — a duplicate, or an answer to a
    /// dead generation — is dropped.
    fn resolve_rpc(&mut self, o: usize, corr: u64, response: Frame) {
        let Some(()) = self.nodes[o].rpcs.resolve(corr) else {
            self.log(format!(
                "n{o} rpc#{corr} response without a waiter; dropped"
            ));
            return;
        };
        let served = self.served.remove(&(o, corr));
        // The admin connection's only RPC is an eviction's write-back.
        if !matches!(self.nodes[o].admin.wait(), Some(Wait::Rpc { corr: c }) if *c == corr) {
            return self.rpc_answered(o, corr, response, served);
        }
        self.log(format!("n{o} rpc#{corr} writeback resolved"));
        let admin = &mut self.nodes[o].admin;
        admin.resume(ResumeEvent::Rpc { corr, response });
        self.run_admin(o);
    }

    // ----- crash, restart, heal ---------------------------------------

    fn crash(&mut self, n: usize) {
        self.crashes_left -= 1;
        self.log(format!("crash n{n}"));
        self.nodes[n].up = false;
        self.nodes[n].admin = ConnOps::default();
        // Every flight to or from the node evaporated with it; a survivor's
        // frame that lost its copies is a retransmit/replay candidate.
        self.flights.retain(|_, f| f.i != n && f.j != n);
        self.session_lost(n);
    }

    /// Restarts a crashed node: a fresh process (empty cache, empty
    /// in-memory shard, empty RPC table) in a new generation, started the
    /// way the supervisor starts one — cold-version counter raised to the
    /// dead process's (a perfectly current `VersionFloor` poll; production
    /// adds `--cold-floor` slack instead) and the hot keys it homes fenced
    /// until [`Action::Heal`] — then fresh links outward, and — per
    /// survivor — the retained replay (receiver resumes at the survivor's
    /// confirmed sequence), reissued invalidations for acks the survivor
    /// never counted, and the survivor's in-doubt miss RPCs asked again.
    fn restart(&mut self, n: usize) {
        let nodes = self.spec.nodes;
        let slot = &mut self.nodes[n];
        slot.gen += 1;
        let (cc, rpcs) = spawn_process(&self.spec, n, slot.gen);
        cc.raise_cold_version(slot.cc.cold_version());
        for &key in &self.hot_now {
            if cc.is_home(key) {
                cc.hot_mark(key);
            }
        }
        slot.cc = cc;
        slot.rpcs = rpcs;
        slot.up = true;
        slot.kvs_dirty = false;
        slot.deliveries += 1;
        self.heal_needed = true;
        self.world_version += 1;
        self.log(format!("restart n{n} gen{}", self.nodes[n].gen));
        for j in 0..nodes {
            if j == n {
                continue;
            }
            // Outbound links of the new process start a fresh numbering.
            self.outbox.insert((n, j), Outbox::default());
            self.recv.insert((n, j), RecvHalf::default());
            self.processed_ordinal.remove(&(n, j));
            self.processed_ordinal.remove(&(j, n));
            // Survivor → restarted: the fresh process reports nothing
            // processed, so the survivor requeues its tail from its last
            // confirmed count, ahead of what it queued while the peer was
            // down, and the receiver resumes there (PeerResume); frames
            // the dead process handled beyond it are re-handled vacuously
            // by the fresh cache.
            let ob = self.outbox.get_mut(&(j, n)).expect("link");
            let confirmed = ob.requeue_unprocessed(0, |_| {});
            let confirmed = confirmed.expect("zero is never beyond sent");
            let replayed = (ob.queued().len() as u64).min(self.spec.credit_window);
            self.recv.get_mut(&(j, n)).expect("link").resume(confirmed);
            if replayed > 0 {
                let last = confirmed + replayed - 1;
                self.log(format!("replay {j}->{n} #{confirmed}..#{last}"));
            }
            self.pump(j, n);
            // Invalidations whose acks were never counted: reissued toward
            // the fresh process, which acknowledges vacuously.
            let reissued = self.nodes[j].cc.reissue_invalidations(NodeId(n as u8));
            if !reissued.is_empty() {
                self.log(format!("reissue n{j} -> n{n} x{}", reissued.len()));
                self.ship(j, reissued);
            }
            // Requests the dead process confirmed and never answered: the
            // replay above cannot carry them (confirmation trimmed them).
            if !self.spec.skip_rpc_reissue {
                for (corr, frame) in self.nodes[j].rpcs.in_doubt(n, confirmed) {
                    self.log(format!("in-doubt n{j} rpc#{corr} -> home n{n}"));
                    self.send_frame(j, n, &frame);
                }
            }
        }
    }

    /// Post-restart recovery of symmetric caching, as the supervisor runs
    /// it: one [`Transition::evict`] per hot key, stepped like the admin
    /// script's; the keys end cold, the replacement's boot fence lifted.
    fn heal(&mut self) {
        self.log("heal".to_string());
        for &key in &self.hot_now {
            self.transitions
                .push_back(Transition::evict(key, self.nodes.len()));
        }
        self.heal_needed = false;
        self.world_version += 1;
    }

    // ----- admin connections -------------------------------------------

    /// [`Action::Admin`]: the retry tick of the call that bounced, or the
    /// running transition's next call pushed onto its node's admin
    /// connection.
    fn admin_step(&mut self) {
        let next = self.transitions.front().map(Transition::next);
        let Some(Next::Call(n, mut frame)) = next else {
            unreachable!("admin_enabled")
        };
        if !self.nodes[n].admin.is_idle() {
            self.log(format!("admin reprobe n{n}"));
            return self.run_admin(n);
        }
        if let Frame::InstallHot { warm, .. } = &mut frame {
            *warm &= !self.spec.unwarmed_install;
        }
        self.log(format!("admin n{n} <- {frame:?}"));
        // A frame the node serves is progress its parked ops retry on.
        self.nodes[n].deliveries += 1;
        self.nodes[n].admin.push(frame);
        self.run_admin(n);
    }

    /// The answer to the running call came out of node `n`'s admin
    /// connection: the transition takes it, and may be over.
    fn admin_answered(&mut self, n: usize, reply: Frame) {
        self.log(format!("admin n{n} -> {reply:?}"));
        let t = self.transitions.front_mut();
        let t = t.expect("a call has a transition");
        t.answer(Some(reply));
        let (key, Next::Done(outcome)) = (t.key(), t.next()) else {
            return;
        };
        self.transitions.pop_front();
        match outcome {
            Outcome::Installed => self.hot_now.insert(key),
            Outcome::Evicted => self.hot_now.remove(&key),
            Outcome::RolledBack => false,
            Outcome::Abandoned => return self.fail(format!("the transition of k{key} failed")),
        };
        self.world_version += 1;
        self.log(format!("admin k{key} {outcome:?}"));
    }

    // ----- drain and final checks -------------------------------------

    /// Whether the run has fully quiesced: every op completed, every node
    /// up and healed, the admin script finished, no datagram in flight,
    /// and every retained frame delivered (acknowledged writes are fully
    /// propagated — SC's eventual-delivery obligation).
    fn done(&self) -> bool {
        self.nodes
            .iter()
            .all(|s| s.up && s.program.is_empty() && s.inflight.is_empty())
            && !self.heal_needed
            && self.transitions.is_empty()
            && self.flights.is_empty()
            && self.outbox.iter().all(|(link, ob)| {
                let sent = ob.confirmed() + ob.outstanding();
                ob.queued().len() == 0 && sent <= self.recv[link].delivered()
            })
    }

    /// The deterministic completion phase: no faults, fixed priorities —
    /// restart, deliver (lowest flight), retransmit, admin, heal, reprobe,
    /// issue. Reports a deadlock if the rack cannot quiesce.
    fn drain(&mut self) {
        for _ in 0..DRAIN_CAP {
            if self.done() || self.violation.is_some() {
                return;
            }
            let Some(action) = self.drain_action() else {
                let stuck: Vec<String> = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.inflight.is_empty() || !s.program.is_empty())
                    .map(|(n, s)| {
                        format!(
                            "n{n}: {} queued, current {}",
                            s.program.len(),
                            match self.current_op(n) {
                                None => "none".to_string(),
                                Some(op) => format!(
                                    "k{} ({})",
                                    op.key(),
                                    match s.ops.wait() {
                                        Some(Wait::LinCommit { .. }) => "awaiting commit",
                                        Some(Wait::Rpc { .. }) => "awaiting rpc",
                                        _ => "parked",
                                    }
                                ),
                            }
                        )
                    })
                    .collect();
                self.fail(format!(
                    "deadlock: rack cannot quiesce [{}]",
                    stuck.join("; ")
                ));
                return;
            };
            self.apply(action);
        }
        self.fail(format!("drain did not quiesce within {DRAIN_CAP} steps"));
    }

    fn drain_action(&self) -> Option<Action> {
        for n in 0..self.nodes.len() {
            if !self.nodes[n].up {
                return Some(Action::Restart(n));
            }
        }
        if let Some(&f) = self.flights.keys().next() {
            return Some(Action::Deliver(f));
        }
        for &(i, j) in self.outbox.keys() {
            if self.retransmit_enabled(i, j) {
                return Some(Action::Retransmit(i, j));
            }
        }
        // A credit return, for a link whose window holds frames back (every
        // node is up by now).
        for (&(i, j), ob) in &self.outbox {
            let held_back = ob.queued().len() > 0 && ob.sendable(self.spec.credit_window).is_none();
            if held_back && ob.confirmed() < self.recv[&(i, j)].delivered() {
                return Some(Action::Confirm(i, j));
            }
        }
        if self.admin_enabled() {
            return Some(Action::Admin);
        }
        if self.heal_enabled() {
            return Some(Action::Heal);
        }
        // Unconditional parked-op retry: the production client's retry
        // timer. (Exploration gates reprobes on observed progress to keep
        // schedules distinct; the drain just needs liveness.)
        let parked = |n: &usize| self.nodes[*n].up && self.nodes[*n].parked.is_some();
        if let Some(n) = (0..self.nodes.len()).find(parked) {
            return Some(Action::Reprobe(n));
        }
        if self.admin_parked.is_some() {
            return Some(Action::Admin);
        }
        (0..self.nodes.len())
            .find(|&n| self.issue_enabled(n))
            .map(Action::Issue)
    }

    /// Checks the quiesced rack: the recorded history against the
    /// scenario's consistency model, then zero lost acknowledged writes —
    /// the newest acked value of every key must be present at the key's
    /// final location (every cache if hot, the home shard if cold).
    fn check_final(&mut self) {
        let model_check = match self.spec.model {
            consistency::ConsistencyModel::Lin => self.history.check_per_key_lin(),
            consistency::ConsistencyModel::Sc => self.history.check_per_key_sc(),
        };
        if let Err(v) = model_check {
            self.fail(format!("history check failed: {v}"));
            return;
        }
        let mut newest: BTreeMap<u64, (u64, Timestamp)> = BTreeMap::new();
        for op in self.history.ops() {
            if let RecordKind::Put { value } = op.kind {
                let e = newest.entry(op.key).or_insert((value, op.ts));
                if op.ts.is_newer_than(e.1) {
                    *e = (value, op.ts);
                }
            }
        }
        for (key, (value, ts)) in newest {
            if self.hot_now.contains(&key) {
                for n in 0..self.nodes.len() {
                    match self.nodes[n].cc.try_cache_get(key) {
                        Some(CacheGet::Hit { value: v, ts: t })
                            if t == ts && decode_value(&v) == value => {}
                        got => {
                            self.fail(format!(
                                "lost acked write: k{key}={value} ts{ts} missing from \
                                 n{n}'s cache (found {got:?})"
                            ));
                            return;
                        }
                    }
                }
            } else {
                let home = self.home_of(key);
                let (v, t) = self.nodes[home].cc.kvs_get_versioned(key);
                if t != ts || decode_value(&v) != value {
                    self.fail(format!(
                        "lost acked write: k{key}={value} ts{ts} not at home n{home} \
                         (shard holds value {} ts{t})",
                        decode_value(&v)
                    ));
                    return;
                }
            }
        }
        // Symmetric caches: every node caches exactly the keys that ended hot.
        let hot: Vec<u64> = self.hot_now.iter().copied().collect();
        for n in 0..self.nodes.len() {
            let mut keys = self.nodes[n].cc.cache().keys();
            keys.sort_unstable();
            if keys != hot {
                return self.fail(format!("n{n} caches {keys:?}, the hot set is {hot:?}"));
            }
        }
    }
}

/// Little-endian `u64` from a stored value (the harness writes all values
/// as 8-byte LE); an empty value (never written) decodes to 0.
fn decode_value(bytes: &[u8]) -> u64 {
    if bytes.len() >= 8 {
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
    } else {
        0
    }
}

fn protocol_brief(msg: &ProtocolMsg) -> String {
    match msg {
        ProtocolMsg::Invalidation { key, ts, from } => {
            format!("inv k{key} ts{ts} from n{}", from.0)
        }
        ProtocolMsg::Ack { key, ts, from } => format!("ack k{key} ts{ts} from n{}", from.0),
        ProtocolMsg::Update {
            key,
            value,
            ts,
            from,
        } => {
            format!("upd k{key}={value} ts{ts} from n{}", from.0)
        }
    }
}
