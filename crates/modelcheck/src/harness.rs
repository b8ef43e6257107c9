//! The rack-under-test: real [`CcNode`]s over the simnet-backed
//! [`SimNet`] fabric, with every source of nondeterminism owned by the
//! schedule.
//!
//! One [`RackModel`] is one execution of a [`ScenarioSpec`]. All frames —
//! invalidations, acks, update broadcasts, miss RPCs, write-backs — travel
//! as real wire-encoded datagrams ([`Frame`]) through real [`SimNet`]
//! connections; the scheduler picks which in-flight datagram is delivered,
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
//! Each directed node pair is one [`cckvs_net::link`] — the very
//! [`SendHalf`]/[`RecvHalf`] state machines the production peer mesh and
//! UDP transport run, not a model of them. The harness only *drives* it:
//! the scheduler decides when a retained frame is retransmitted, when the
//! receiver's delivered count is confirmed back ([`Action`]`::Confirm`),
//! and — across a crash — runs the `PeerHello`/`PeerResume` contract: the
//! restarted side's halves start fresh (a new process generation), each
//! survivor `reconcile`s at its confirmed count, the fresh receiver
//! `resume`s there, the tail re-ships under its original numbers, and
//! invalidations with uncounted acks are reissued.
//!
//! ## The miss path
//!
//! Both ends are the production code ([`cckvs_net::rpc`]). A home answers
//! `MissGet`/`MissPut`/`WriteBack` through [`serve_home_frame`] on its real
//! `CcNode`, whose fence set and cold-version counter decide bounces and
//! versions; hot-transition admin steps and restart fences are
//! `hot_mark`/`hot_unmark` calls on that node. Each simulated process owns
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
//! [`session`]'s.
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
use std::io::{ErrorKind, Read};
use std::sync::{Arc, Mutex};

use cckvs::node::{CacheGet, CcNode, EvictHot, NodeConfig, Outgoing};
use cckvs_net::link::{Accept, RecvHalf, SendHalf};
use cckvs_net::ops::{ConnOps, Wait};
use cckvs_net::rpc::{serve_home_frame, RpcTable};
use cckvs_net::sim::{SimConnection, SimNet};
use cckvs_net::wire::{encode_frame_into, Frame};
use consistency::engine::Destination;
use consistency::history::{History, RecordKind};
use consistency::{NodeId, ProtocolMsg, Timestamp};
use simnet::TrafficClass;

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
    /// receiver's current processed sequence, pruning retained frames.
    Confirm(usize, usize),
    /// Crash `node` (spends the crash budget; gated unless the scenario
    /// sets `unsafe_crashes`).
    Crash(usize),
    /// Restart crashed `node`: fresh process, new generation, survivor
    /// replay + reissued invalidations.
    Restart(usize),
    /// Re-establish symmetric caching after a restart: evict + write back
    /// the hot set, reinstall from the home shards, clear fences.
    Heal,
    /// Execute the next step of the scenario's admin script.
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

/// What the scheduler tracks about one frame its link retains.
struct SentFrame {
    datagram: Vec<u8>,
    inflight: u32,
    is_update: bool,
    class: TrafficClass,
}

/// One rack node: the process (`CcNode` + pending-RPC table, replaced
/// together on restart) plus what the harness tracks around it.
struct NodeSlot {
    cc: CcNode,
    /// This process's miss-path RPCs in flight. The harness models no
    /// timeouts, so its time is `()`.
    rpcs: RpcTable<RpcWaiter, ()>,
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

/// Who a pending miss-path RPC resolves to at its origin.
enum RpcWaiter {
    /// The session's op machine (`Wait::Rpc`, or a prefetch slot).
    Op,
    /// A dirty eviction's write-back (admin script).
    WriteBack,
}

/// A fresh process of node `n` in generation `gen`. Generations number
/// their correlation ids apart, as the production generation stamp does.
fn spawn_process(spec: &ScenarioSpec, n: usize, gen: u64) -> (CcNode, RpcTable<RpcWaiter, ()>) {
    (
        CcNode::new(NodeConfig::small(spec.model, n, spec.nodes)),
        RpcTable::new(gen * 1_000_000 + 1),
    )
}

/// The rack under test. See the module docs for the model.
pub struct RackModel {
    spec: ScenarioSpec,
    net: SimNet,
    nodes: Vec<NodeSlot>,
    /// `conns[(a, b)]` is node `a`'s half of the `a↔b` pair: `a` sends to
    /// `b` by writing it and receives `b`'s frames by reading it.
    conns: BTreeMap<(usize, usize), SimConnection>,
    send: BTreeMap<(usize, usize), SendHalf<SentFrame>>,
    recv: BTreeMap<(usize, usize), RecvHalf<Vec<u8>>>,
    /// Live flight → (from, to, link sequence).
    flight_meta: BTreeMap<u64, (usize, usize, u64)>,
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
    admin_cursor: usize,
    outstanding_writebacks: u32,
    /// Value+version snapshots taken by `MarkInstall`.
    install_snapshot: BTreeMap<u64, (Vec<u8>, Timestamp)>,
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
        let net = SimNet::new(spec.nodes);
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
                    inflight: VecDeque::new(),
                    parked: None,
                    cold_reads: BTreeMap::new(),
                    resolved: 0,
                }
            })
            .collect();
        let mut m = RackModel {
            net,
            nodes,
            conns: BTreeMap::new(),
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            flight_meta: BTreeMap::new(),
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
            admin_cursor: 0,
            outstanding_writebacks: 0,
            install_snapshot: BTreeMap::new(),
            hot_now: BTreeSet::new(),
            violation: None,
            spec,
        };
        for a in 0..m.spec.nodes {
            for b in (a + 1)..m.spec.nodes {
                m.open_link_pair(a, b);
            }
        }
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

    fn open_link_pair(&mut self, a: usize, b: usize) {
        let (ca, cb) = self.net.pair(a, b);
        self.conns.insert((a, b), ca);
        self.conns.insert((b, a), cb);
        self.send.insert((a, b), SendHalf::default());
        self.send.insert((b, a), SendHalf::default());
        self.recv.insert((a, b), RecvHalf::default());
        self.recv.insert((b, a), RecvHalf::default());
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
        let mut flights: Vec<u64> = self.flight_meta.keys().copied().collect();
        flights.sort_unstable();
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
        for &(i, j) in self.send.keys() {
            if self.retransmit_enabled(i, j) {
                out.push(Action::Retransmit(i, j));
            }
        }
        for (&(i, j), sl) in &self.send {
            if self.nodes[i].up && sl.confirmed() < self.recv[&(i, j)].delivered() {
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
        self.undelivered(i, j).any(|(_, r)| r.inflight == 0)
    }

    /// Link `i → j`'s retained frames the receiver has not yet delivered.
    fn undelivered(&self, i: usize, j: usize) -> impl Iterator<Item = (u64, &SentFrame)> {
        let delivered = self.recv[&(i, j)].delivered();
        self.send[&(i, j)]
            .iter()
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
    ///   somewhere (the acked value would exist only in the dead cache);
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
        let undelivered_update = (0..self.nodes.len())
            .filter(|&j| j != n)
            .any(|j| self.undelivered(n, j).any(|(_, r)| r.is_update));
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
        self.admin_cursor >= self.spec.admin_script.len()
            && !dirty_shard
            && !pending_commit
            && !undelivered_update
    }

    fn heal_enabled(&self) -> bool {
        self.heal_needed
            && self.admin_cursor >= self.spec.admin_script.len()
            && self.nodes.iter().all(|s| s.up)
            && !(0..self.nodes.len()).any(|n| self.awaits_commit(n))
    }

    fn admin_enabled(&self) -> bool {
        let Some(step) = self.spec.admin_script.get(self.admin_cursor) else {
            return false;
        };
        match *step {
            AdminStep::MarkEvict { key } | AdminStep::MarkInstall { key } => {
                self.nodes[self.home_of(key)].up
            }
            AdminStep::EvictAt { node, key } => {
                self.nodes[node].up
                    && !(self.awaits_commit(node)
                        && self.current_op(node).is_some_and(|op| op.key() == key))
            }
            AdminStep::UnmarkEvict { .. } => self.outstanding_writebacks == 0,
            AdminStep::WarmAt { node, .. } | AdminStep::ActivateAt { node, .. } => {
                self.nodes[node].up
            }
            AdminStep::UnmarkInstall { .. } => true,
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
                let (i, j, seq) = self.flight_meta.remove(&f).expect("live flight");
                self.net.drop_flight(f);
                self.dec_inflight(i, j, seq);
                self.log(format!("drop {i}->{j} #{seq}"));
            }
            Action::Dup(f) => {
                self.dups_left -= 1;
                let (i, j, seq) = *self.flight_meta.get(&f).expect("live flight");
                let copy = self.net.duplicate(f).expect("live flight duplicates");
                self.flight_meta.insert(copy, (i, j, seq));
                self.inc_inflight(i, j, seq);
                self.log(format!("dup {i}->{j} #{seq}"));
            }
            Action::Retransmit(i, j) => self.retransmit(i, j),
            Action::Confirm(i, j) => {
                let processed = self.recv[&(i, j)].delivered();
                let sl = self.send.get_mut(&(i, j)).expect("link");
                sl.confirm(processed).expect("delivered implies sent");
                self.log(format!("confirm {i}->{j} cum{processed}"));
            }
            Action::Crash(n) => self.crash(n),
            Action::Restart(n) => self.restart(n),
            Action::Heal => self.heal(),
            Action::Admin => self.admin_step(),
        }
    }

    fn dec_inflight(&mut self, i: usize, j: usize, seq: u64) {
        if let Some(r) = self.send.get_mut(&(i, j)).and_then(|sl| sl.get_mut(seq)) {
            r.inflight = r.inflight.saturating_sub(1);
        }
    }

    fn inc_inflight(&mut self, i: usize, j: usize, seq: u64) {
        if let Some(r) = self.send.get_mut(&(i, j)).and_then(|sl| sl.get_mut(seq)) {
            r.inflight += 1;
        }
    }

    // ----- frame transmission -----------------------------------------

    /// Ships protocol messages produced by a node: resolves destinations
    /// (broadcast = every other replica) and sends each as a sequenced,
    /// retained wire frame on the corresponding directed link.
    fn ship(&mut self, n: usize, outgoing: Vec<Outgoing>) {
        for out in outgoing {
            let targets: Vec<usize> = match out.dest {
                Destination::To(id) => vec![id.0 as usize],
                Destination::Broadcast => (0..self.nodes.len()).filter(|&t| t != n).collect(),
            };
            let class = match out.msg {
                ProtocolMsg::Invalidation { .. } => TrafficClass::Invalidation,
                ProtocolMsg::Ack { .. } => TrafficClass::Ack,
                ProtocolMsg::Update { .. } => TrafficClass::Update,
            };
            let frame = Frame::Protocol {
                msg: out.msg,
                bytes: out.bytes.as_ref().map(|b| b.to_vec()),
            };
            for t in targets {
                self.send_frame(n, t, &frame, class);
            }
        }
    }

    /// Sends one frame on the directed link `i → j`: assigns the link
    /// sequence, retains the datagram until confirmation, and — when both
    /// ends are up — puts it in flight through the sim fabric. A frame
    /// sent toward a down peer stays retained only; the restart replay
    /// re-ships it.
    fn send_frame(&mut self, i: usize, j: usize, frame: &Frame, class: TrafficClass) -> u64 {
        let seq = self.send[&(i, j)].next_seq();
        let mut datagram = Vec::with_capacity(64);
        datagram.extend_from_slice(&seq.to_le_bytes());
        encode_frame_into(&mut datagram, frame);
        let is_update = matches!(
            frame,
            Frame::Protocol {
                msg: ProtocolMsg::Update { .. },
                ..
            }
        );
        let mut inflight = 0;
        if self.nodes[i].up && self.nodes[j].up {
            let id = self.conns[&(i, j)]
                .write_datagram(&datagram, class)
                .expect("sim send")
                .expect("peer links are never loopback");
            self.flight_meta.insert(id, (i, j, seq));
            inflight = 1;
        }
        self.send.get_mut(&(i, j)).expect("link").push(SentFrame {
            datagram,
            inflight,
            is_update,
            class,
        })
    }

    /// Sends origin `o`'s request frame for `corr` toward `home` and tells
    /// `o`'s table the link number it went out under.
    fn send_rpc(&mut self, o: usize, home: usize, corr: u64, frame: &Frame) {
        let seq = self.send_frame(o, home, frame, TrafficClass::MissRequest);
        self.nodes[o].rpcs.packed(corr, seq);
    }

    fn retransmit(&mut self, i: usize, j: usize) {
        let Some((seq, datagram, class)) = self
            .undelivered(i, j)
            .find(|(_, r)| r.inflight == 0)
            .map(|(seq, r)| (seq, r.datagram.clone(), r.class))
        else {
            return;
        };
        let id = self.conns[&(i, j)]
            .write_datagram(&datagram, class)
            .expect("sim send")
            .expect("peer links are never loopback");
        self.flight_meta.insert(id, (i, j, seq));
        self.inc_inflight(i, j, seq);
        self.log(format!("retransmit {i}->{j} #{seq}"));
    }

    // ----- delivery and frame processing ------------------------------

    fn deliver_flight(&mut self, f: u64) {
        let (i, j, seq) = self.flight_meta.remove(&f).expect("live flight");
        assert!(self.net.deliver(f), "flight was live");
        self.dec_inflight(i, j, seq);
        self.log(format!("deliver {i}->{j} #{seq}"));
        self.pump_link(i, j);
    }

    /// Drains the receiving connection of link `i → j` into the link's
    /// receive half and processes every frame that became deliverable.
    fn pump_link(&mut self, i: usize, j: usize) {
        let mut fresh = Vec::new();
        {
            let conn = self.conns.get_mut(&(j, i)).expect("link");
            let mut tmp = [0u8; 4096];
            loop {
                match conn.read(&mut tmp) {
                    Ok(0) => break,
                    Ok(k) => fresh.extend_from_slice(&tmp[..k]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
                    Err(e) => panic!("sim read failed: {e}"),
                }
            }
        }
        // Split the bytes into [seq u64][len u32][frame payload] datagrams
        // (deposits are atomic per flight, so a partial one is only ever a
        // harness bug).
        let mut rest = fresh.as_slice();
        while !rest.is_empty() {
            let seq = u64::from_le_bytes(rest[0..8].try_into().expect("8 bytes"));
            let flen = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes")) as usize;
            let (payload, tail) = rest[12..].split_at(flen);
            rest = tail;
            let rl = self.recv.get_mut(&(i, j)).expect("link");
            let next = rl.delivered();
            match rl.accept(seq, payload.to_vec()) {
                Accept::Ready => {}
                Accept::Duplicate => self.log(format!("dedup {i}->{j} #{seq}")),
                Accept::Held => self.log(format!("hold {i}->{j} #{seq} (awaiting #{next})")),
                Accept::Refused => self.log(format!("refuse {i}->{j} #{seq}")),
            }
        }
        while let Some(payload) = self.recv.get_mut(&(i, j)).expect("link").pop_ready() {
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
                self.send_frame(
                    j,
                    i,
                    &Frame::RpcResp {
                        corr,
                        inner: Box::new(resp),
                    },
                    TrafficClass::MissResponse,
                );
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
    fn resolve_rpc(&mut self, o: usize, corr: u64, resp: Frame) {
        let Some(waiter) = self.nodes[o].rpcs.resolve(corr) else {
            self.log(format!(
                "n{o} rpc#{corr} response without a waiter; dropped"
            ));
            return;
        };
        let served = self.served.remove(&(o, corr));
        if matches!(waiter, RpcWaiter::WriteBack) {
            match resp {
                Frame::WriteBackResp { .. } => {
                    self.outstanding_writebacks -= 1;
                    self.log(format!("n{o} rpc#{corr} writeback resolved"));
                }
                other => self.fail(format!("write-back rpc got {other:?}")),
            }
            return;
        }
        self.rpc_answered(o, corr, resp, served);
    }

    // ----- crash, restart, heal ---------------------------------------

    fn crash(&mut self, n: usize) {
        self.crashes_left -= 1;
        self.log(format!("crash n{n}"));
        self.net.sever_node(n);
        self.nodes[n].up = false;
        // Every flight to or from the node evaporated with it.
        let dead: Vec<(u64, (usize, usize, u64))> = self
            .flight_meta
            .iter()
            .filter(|(_, (i, j, _))| *i == n || *j == n)
            .map(|(f, m)| (*f, *m))
            .collect();
        for (f, (i, j, seq)) in dead {
            self.flight_meta.remove(&f);
            if i != n {
                // Survivor-retained frames lose their in-flight copies and
                // become retransmit/replay candidates.
                self.dec_inflight(i, j, seq);
            }
        }
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
            // Fresh connection pair; the old halves (severed) drop here.
            let (cn, cj) = self.net.pair(n, j);
            self.conns.insert((n, j), cn);
            self.conns.insert((j, n), cj);
            // Outbound links of the new process start a fresh numbering.
            self.send.insert((n, j), SendHalf::default());
            self.recv.insert((n, j), RecvHalf::default());
            // Survivor → restarted: the fresh process reports nothing
            // processed, so the survivor replays from its last confirmed
            // count and the receiver resumes there (PeerResume); frames
            // the dead process handled beyond it are re-handled vacuously
            // by the fresh cache.
            let sl = self.send.get_mut(&(j, n)).expect("link");
            let tail = sl.reconcile(0).expect("zero is never beyond sent");
            let confirmed = sl.confirmed();
            self.recv.get_mut(&(j, n)).expect("link").resume(confirmed);
            if !tail.is_empty() {
                self.log(format!(
                    "replay {j}->{n} #{confirmed}..#{}",
                    confirmed + tail.len() as u64 - 1
                ));
            }
            for mut frame in tail {
                let id = self.conns[&(j, n)]
                    .write_datagram(&frame.datagram, frame.class)
                    .expect("sim send")
                    .expect("peer links are never loopback");
                frame.inflight = 1;
                let seq = self.send.get_mut(&(j, n)).expect("link").push(frame);
                self.flight_meta.insert(id, (j, n, seq));
            }
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
                    self.send_rpc(j, n, corr, &frame);
                }
            }
        }
    }

    /// Post-restart recovery of symmetric caching: evict the hot set
    /// everywhere, write the newest dirty copy back to each key's home,
    /// reinstall every replica from the home's value+version, and lift the
    /// supervisor fences. Runs atomically (the production epoch
    /// coordinator's job; its step-wise interleavings are exercised by the
    /// transition scenarios' admin scripts instead).
    fn heal(&mut self) {
        self.log("heal".to_string());
        for key in self.hot_now.clone() {
            let home = self.home_of(key);
            let mut best: Option<(Vec<u8>, Timestamp)> = None;
            for i in 0..self.nodes.len() {
                match self.nodes[i].cc.try_evict_hot(key) {
                    None => {
                        self.fail(format!(
                            "heal found a pending write on k{key} at n{i} despite gating"
                        ));
                        return;
                    }
                    Some(EvictHot::NotCached) | Some(EvictHot::Clean) => {}
                    Some(EvictHot::WrittenBack { .. }) => self.nodes[i].kvs_dirty = true,
                    Some(EvictHot::WriteBackRemote { value, ts }) => {
                        if best.as_ref().is_none_or(|(_, b)| ts.is_newer_than(*b)) {
                            best = Some((value, ts));
                        }
                    }
                }
            }
            if let Some((value, ts)) = best {
                self.nodes[home]
                    .cc
                    .write_back(key, &value, ts)
                    .expect("write-back fits");
                self.nodes[home].kvs_dirty = true;
            }
            let (value, ts) = self.nodes[home].cc.kvs_get_versioned(key);
            for i in 0..self.nodes.len() {
                assert!(
                    self.nodes[i].cc.install_hot(key, &value, ts),
                    "heal reinstall fits"
                );
            }
            self.nodes[home].cc.hot_unmark(key);
        }
        self.heal_needed = false;
        self.world_version += 1;
    }

    // ----- admin script -----------------------------------------------

    /// Executes the admin step at the cursor (callers check
    /// `admin_enabled` first, so the step's preconditions hold).
    fn admin_step(&mut self) {
        let step = self.spec.admin_script[self.admin_cursor];
        self.admin_cursor += 1;
        match step {
            AdminStep::MarkEvict { key } => {
                self.nodes[self.home_of(key)].cc.hot_mark(key);
                self.log(format!("admin mark-evict k{key}"));
            }
            AdminStep::MarkInstall { key } => {
                let (value, ts) = self.nodes[self.home_of(key)].cc.hot_mark(key);
                self.log(format!("admin mark-install k{key} snapshot ts{ts}"));
                self.install_snapshot.insert(key, (value, ts));
            }
            AdminStep::EvictAt { node, key } => {
                match self.nodes[node].cc.try_evict_hot(key) {
                    None => {
                        // Guarded against by admin_enabled; a race through
                        // an unexpected pending write retries the step.
                        self.admin_cursor -= 1;
                        self.log(format!("admin evict n{node} k{key} blocked"));
                    }
                    Some(EvictHot::NotCached) | Some(EvictHot::Clean) => {
                        self.log(format!("admin evict n{node} k{key} clean"));
                    }
                    Some(EvictHot::WrittenBack { ts }) => {
                        self.nodes[node].kvs_dirty = true;
                        self.log(format!("admin evict n{node} k{key} wrote back ts{ts}"));
                    }
                    Some(EvictHot::WriteBackRemote { value, ts }) => {
                        let home = self.home_of(key);
                        let (corr, frame) = self.nodes[node].rpcs.issue(
                            home,
                            Frame::WriteBack { key, value, ts },
                            RpcWaiter::WriteBack,
                            (),
                        );
                        self.outstanding_writebacks += 1;
                        self.log(format!(
                            "admin evict n{node} k{key} dirty ts{ts}; writeback rpc#{corr}"
                        ));
                        self.send_rpc(node, home, corr, &frame);
                    }
                }
            }
            AdminStep::UnmarkEvict { key } => {
                self.nodes[self.home_of(key)].cc.hot_unmark(key);
                self.hot_now.remove(&key);
                self.world_version += 1;
                self.log(format!("admin unmark-evict k{key}; key is cold"));
            }
            AdminStep::WarmAt { node, key } => {
                let (value, ts) = self.install_snapshot[&key].clone();
                assert!(
                    self.nodes[node].cc.install_hot_warm(key, &value, ts),
                    "warm install fits"
                );
                self.log(format!("admin warm n{node} k{key} ts{ts}"));
            }
            AdminStep::ActivateAt { node, key } => {
                assert!(self.nodes[node].cc.activate_hot(key), "warming key present");
                self.log(format!("admin activate n{node} k{key}"));
            }
            AdminStep::UnmarkInstall { key } => {
                self.nodes[self.home_of(key)].cc.hot_unmark(key);
                self.hot_now.insert(key);
                self.world_version += 1;
                self.log(format!("admin unmark-install k{key}; key is hot"));
            }
        }
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
            && self.admin_cursor >= self.spec.admin_script.len()
            && self.flight_meta.is_empty()
            && self
                .send
                .iter()
                .all(|(link, sl)| sl.next_seq() <= self.recv[link].delivered())
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
        if let Some(&f) = self.flight_meta.keys().next() {
            return Some(Action::Deliver(f));
        }
        for &(i, j) in self.send.keys() {
            if self.retransmit_enabled(i, j) {
                return Some(Action::Retransmit(i, j));
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
