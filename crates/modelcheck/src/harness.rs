//! The rack-under-test: real [`CcNode`]s over a network that is the
//! harness's own flight table, with every source of nondeterminism owned
//! by the schedule.
//!
//! One [`RackModel`] is one execution of a [`ScenarioSpec`]. All frames —
//! invalidations, acks, update broadcasts, miss RPCs, write-backs — travel
//! as real wire-encoded datagrams ([`Frame`]), each one entry of the flight
//! table until it lands; the scheduler picks which datagram is delivered,
//! dropped, or duplicated next, when retransmits and credit ticks happen,
//! when nodes crash and restart, and when each client session's
//! next operation is issued. After the bounded exploration phase a
//! deterministic drain completes every outstanding operation (or reports a
//! deadlock), and the final state is checked:
//!
//! * the recorded history is per-key linearizable (or per-key SC,
//!   matching the scenario's model), with unique write timestamps;
//! * **zero lost acknowledged writes**: every key's final copy — in every
//!   replica's cache if it ended hot, in the home shard if cold — is its
//!   newest acknowledged put, or a newer put among its indeterminate ones.
//!
//! ## The link
//!
//! Each node's end of each link is a [`cckvs_net::link::Peer`] — the very
//! end the production peer mesh queues, packs, takes in, numbers, retains
//! and replays through, not a model of it — and what a node does with it
//! between frames is the shipped [`cckvs_net::node_ops`]. Every action that
//! runs code at a node ends as a reactor lap does, with the shipped pump
//! of each of the node's links ([`node_ops::pump`]; what the credit window
//! holds back logs a `stall`). A pack is one flight: its items and the
//! processed count the credit policy announced riding them, or a lone
//! credit. The receiving side splits a flight into numbered items for the
//! link's [`RecvHalf`], which dedups and reorders, and its end takes each
//! in order ([`Peer::receive`]) for `rpc.rs`'s [`serve_peer`]. Credits are
//! the only confirmation; the scheduler picks when an armed credit tick
//! fires ([`Action`]`::CreditTick`) and when a lost flight is
//! retransmitted, as the UDP envelope does. A link is connected, at the
//! start and after a restart, by the shipped handshake in its three frames
//! ([`node_ops::hello`] and the steps beside it): a survivor replays its
//! unprocessed tail ahead of what it queued meanwhile, and runs the
//! restart rule. Every link must process frames in the order they were
//! pushed — wire order is enqueue order — which a god's-eye ordinal per
//! frame checks.
//!
//! ## The miss path
//!
//! Both ends are the production code ([`cckvs_net::rpc`]). A home answers
//! `MissGet`/`MissPut`/`WriteBack` through [`serve_home_frame`] on its real
//! `CcNode`, whose fence set and cold-version counter decide bounces and
//! versions; a restart's fences are `hot_mark` calls on that node. Each
//! simulated process owns one [`RpcTable`], replaced with the process, so
//! an answer addressed to a dead generation finds no waiter; the restart
//! rule asks the survivors' `in_doubt` requests again, and
//! [`Action::Expire`] runs the shipped deadline sweep
//! ([`node_ops::expire`]) on a logical clock, so a late answer finds no
//! waiter either. Beside them the harness keeps only a god's-eye note of
//! the version each read was served at — the history needs a timestamp for
//! a cold read, and `MissGetResp` carries none.
//!
//! ## The sessions
//!
//! Each node serves one client session: the shipped client machine
//! ([`cckvs_net::client_ops::ClientOps`]) sends it, and the production op
//! machine ([`cckvs_net::ops::ConnOps`]) serves it — the request queue, the
//! one suspended request, batch prefetch, the bounce policy and the
//! request-order rule are the code the reactor runs per connection. A crash
//! is the client's lost connection. How the harness drives both ends is the
//! `session` module's.
//!
//! ## Churn
//!
//! Each node also serves an admin connection, a second `ConnOps`, through
//! which [`Flip`]s make their calls, one per [`Action::Admin`]: the admin
//! script's, as the epoch coordinator runs them, and a heal's evictions,
//! as the supervisor runs them.
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
use cckvs_net::churn::{Flip, Outcome, Transition};
use cckvs_net::client::LoadBalancePolicy;
use cckvs_net::client_ops::{BatchConfig, ClientOps};
use cckvs_net::link::{Accept, Item, Pack, Peer, RecvHalf, PEER_BATCH_MAX_BYTES};
use cckvs_net::node_ops::{self, Handshake, NodeItem};
use cckvs_net::ops::{ConnOps, Wait};
use cckvs_net::rpc::{serve_home_frame, serve_peer, PeerHost, RpcTable};
use cckvs_net::wire::{BatchBuilder, Frame, FrameDecoder};
use consistency::history::{History, RecordKind};
use consistency::{ProtocolMsg, Timestamp};

use crate::scenario::{AdminStep, Hole, ProgStep, ScenarioSpec};
use crate::sched::SplitMix64;

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
    /// Re-send the oldest lost flight of link `(from, to)` (the sender's
    /// loss-repair timer, fired by the scheduler).
    Retransmit(usize, usize),
    /// Fire node `i`'s armed credit tick on its link to `j`: a processed
    /// count nothing announced since it was armed is due, and the link is
    /// pumped.
    CreditTick(usize, usize),
    /// Advance node `n`'s clock to its earliest miss-path RPC deadline and
    /// run the shipped sweep (spends the expiry budget).
    Expire(usize),
    /// Crash `node` (spends the crash budget; gated unless the scenario
    /// plants [`Hole::UnsafeCrashes`]).
    Crash(usize),
    /// Restart crashed `node`: fresh process, new generation, the shipped
    /// handshake at every survivor.
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

/// One item on a node's end of a link, and its god's-eye enqueue order
/// (see "The link").
struct LinkFrame {
    frame: Frame,
    ordinal: u64,
}

impl NodeItem for LinkFrame {
    fn request(&self) -> Option<u64> {
        self.frame.request()
    }
}

impl Item for LinkFrame {
    fn payload_len(&self) -> usize {
        self.frame.payload_len()
    }

    fn push_to(&self, batch: &mut BatchBuilder) {
        self.frame.push_to(batch);
    }
}

/// A committed value's `Update` (crash gating asks for these).
fn is_update(frame: &Frame) -> bool {
    let update = |msg: &ProtocolMsg| matches!(msg, ProtocolMsg::Update { .. });
    matches!(frame, Frame::Protocol { msg, .. } if update(msg))
}

/// One copy of one pack on the wire: link `i → j`'s [`Pack`] (the number
/// of its first item, among others) and the bytes [`Peer::pack`] emitted.
#[derive(Clone)]
struct Flight {
    i: usize,
    j: usize,
    pack: Pack,
    bytes: Vec<u8>,
}

impl Flight {
    /// `i->j`, the items' numbers and the credit riding them.
    fn brief(&self) -> String {
        let Pack { first, items, .. } = self.pack;
        let items = match items {
            0 => String::new(),
            1 => format!(" #{first}"),
            _ => format!(" #{first}..#{}", first + items - 1),
        };
        let credit = (self.pack.credit).map_or(String::new(), |cum| format!(" cum{cum}"));
        format!("{}->{}{items}{credit}", self.i, self.j)
    }
}

/// One rack node: the process (`CcNode` + pending-RPC table, replaced
/// together on restart) plus what the harness tracks around it.
struct NodeSlot {
    cc: CcNode,
    /// This process's miss-path RPCs in flight, each waited on by the
    /// session or (`true`) the admin connection, and due at the logical
    /// time (the action count) it was issued: [`Action::Expire`] fires the
    /// earliest.
    rpcs: RpcTable<bool, u64>,
    up: bool,
    gen: u64,
    /// Messages processed by this node — parked-op reprobe gating.
    deliveries: u64,
    /// Whether this node's in-memory shard holds data whose loss would be
    /// observable (executed cold writes / landed write-backs) — gated
    /// crashes refuse such nodes (ROADMAP: durable home shards).
    kvs_dirty: bool,
    program: VecDeque<ProgStep>,
    /// The session's client end: the shipped client machine, pinned here.
    client: ClientOps<()>,
    /// The session's connection into this process — the production op
    /// machine. It dies with the process.
    ops: ConnOps<()>,
    /// The admin connection into this process (see "Churn").
    admin: ConnOps<()>,
    /// The version each sub-request in progress was served at, noted as it
    /// finished; its length is the index of the one in progress.
    noted: VecDeque<Timestamp>,
    /// `(deliveries, world_version)` when the request in progress last
    /// bounced: [`Action::Reprobe`] is offered once either has moved.
    parked: Option<(u64, u64)>,
    /// Per key, the shard version behind the newest `MissGetResp`
    /// delivered to this session.
    cold_reads: BTreeMap<u64, Timestamp>,
    /// The miss RPC answered to this session last (names it in the log).
    resolved: u64,
}

/// A fresh process of node `n` in generation `gen`. Generations number
/// their correlation ids apart, as the production generation stamp does;
/// its link ends are stamped `gen + 1` (0 is "never connected").
fn spawn_process(spec: &ScenarioSpec, n: usize, gen: u64) -> (CcNode, RpcTable<bool, u64>) {
    let mut cfg = NodeConfig::small(spec.model, n, spec.nodes);
    if spec.tiny_cache == Some(n) {
        cfg.cache_capacity = 1;
    }
    let mut rpcs = RpcTable::new(gen * 1_000_000 + 1);
    if let Some(Hole::Mutant(mutant)) = spec.hole {
        rpcs.mutant = Some(mutant);
    }
    (CcNode::new(cfg), rpcs)
}

/// The rack under test. See the module docs for the model.
pub struct RackModel {
    spec: ScenarioSpec,
    nodes: Vec<NodeSlot>,
    /// The network: every datagram on the wire, by flight id.
    flights: BTreeMap<u64, Flight>,
    /// Datagrams put on the wire so far: the last flight's id.
    launched: u64,
    /// Dropped flights, oldest first, until retransmitted.
    lost: Vec<Flight>,
    /// `(i, j)`: node `i`'s end of its link with `j`.
    peers: BTreeMap<(usize, usize), Peer<LinkFrame>>,
    /// Link `i → j`'s items at `j`, put back in order.
    recv: BTreeMap<(usize, usize), RecvHalf<Frame>>,
    /// Ends whose credit tick is armed.
    ticks: BTreeSet<(usize, usize)>,
    /// Frames pushed so far, on any link: the next frame's ordinal.
    enqueued: u64,
    /// Per link, the ordinal of the frame its receiver processed last
    /// (forgotten when either end restarts).
    processed_ordinal: BTreeMap<(usize, usize), u64>,
    /// `(origin, corr)` → the key and version the home served that read at
    /// (see the module docs); cleared when the request resolves.
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
    expires_left: u32,
    crashes_left: u32,
    heal_needed: bool,
    /// Flips not yet ended, in order: the admin script's, then a heal's.
    /// The front one runs; its call is in flight while its node's admin
    /// connection is busy.
    flips: VecDeque<Flip>,
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
                    deliveries: 0,
                    kvs_dirty: false,
                    program: spec.programs[n].iter().cloned().collect(),
                    client: ClientOps::new(
                        spec.nodes,
                        LoadBalancePolicy::Pinned(n),
                        BatchConfig::default(),
                        n as u32,
                    ),
                    ops: ConnOps::default(),
                    admin: ConnOps::default(),
                    noted: VecDeque::new(),
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
            lost: Vec::new(),
            peers: links()
                .map(|l| (l, Peer::new(1, spec.credit_window)))
                .collect(),
            recv: links().map(|l| (l, RecvHalf::default())).collect(),
            ticks: BTreeSet::new(),
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
            expires_left: spec.expire_budget,
            crashes_left: spec.crash_budget,
            heal_needed: false,
            flips: (spec.admin_script.iter())
                .map(|step| {
                    let (keys, start): (_, fn(u64, usize) -> Transition) = match step {
                        AdminStep::Install(keys) => (keys, Transition::install),
                        AdminStep::Evict(keys) => (keys, Transition::evict),
                    };
                    Flip::new(keys.iter().map(|&key| start(key, spec.nodes)).collect())
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
        let nodes = m.spec.nodes;
        for (i, j) in (0..nodes).flat_map(|i| (i + 1..nodes).map(move |j| (i, j))) {
            m.connect(i, j).expect("two new processes");
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
        let each = |on: fn(&Self, usize) -> bool, act: fn(usize) -> Action| {
            (0..self.nodes.len()).filter(move |&n| on(self, n)).map(act)
        };
        let flights = || self.flights.keys().copied();
        let mut out: Vec<Action> = each(Self::issue_enabled, Action::Issue).collect();
        out.extend(each(Self::reprobe_enabled, Action::Reprobe));
        out.extend(flights().map(Action::Deliver));
        out.extend(flights().filter(|_| self.drops_left > 0).map(Action::Drop));
        out.extend(flights().filter(|_| self.dups_left > 0).map(Action::Dup));
        let lost = self
            .peers
            .keys()
            .filter(|&&(i, j)| self.retransmit_enabled(i, j));
        out.extend(lost.map(|&(i, j)| Action::Retransmit(i, j)));
        out.extend(self.ticks.iter().map(|&(i, j)| Action::CreditTick(i, j)));
        out.extend(each(Self::expire_enabled, Action::Expire));
        out.extend(each(Self::can_crash, Action::Crash));
        out.extend(each(|m, n| !m.nodes[n].up, Action::Restart));
        out.extend(self.heal_enabled().then_some(Action::Heal));
        out.extend(self.admin_enabled().then_some(Action::Admin));
        out
    }

    /// An RPC of node `n` is pending and the expiry budget is not spent.
    fn expire_enabled(&self, n: usize) -> bool {
        let s = &self.nodes[n];
        self.expires_left > 0 && s.up && s.rpcs.next_deadline().is_some()
    }

    fn retransmit_enabled(&self, i: usize, j: usize) -> bool {
        self.lost.iter().any(|f| (f.i, f.j) == (i, j))
    }

    /// Link `i → j`'s retained frames the receiver has not yet delivered.
    fn undelivered(&self, i: usize, j: usize) -> impl Iterator<Item = (u64, &LinkFrame)> {
        let delivered = self.recv[&(i, j)].delivered();
        (self.peers[&(i, j)].outbox.retained()).filter(move |(seq, _)| *seq >= delivered)
    }

    /// Crash gating. Ungated in a scenario that plants
    /// [`Hole::UnsafeCrashes`]; otherwise a crash is only offered where the
    /// production system survives it:
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
            let mut unsent = self.peers[&(n, j)].outbox.queued();
            self.undelivered(n, j).any(|(_, r)| is_update(&r.frame))
                || unsent.any(|r| is_update(&r.frame))
        });
        if self.spec.hole == Some(Hole::UnsafeCrashes) {
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
        self.flips.is_empty() && !dirty_shard && !pending_commit && !undelivered_update
    }

    fn heal_enabled(&self) -> bool {
        self.heal_needed && self.flips.is_empty() && self.nodes.iter().all(|s| s.up)
    }

    /// A call can be made (its node is up), or the one in flight bounced
    /// and its node has seen progress since.
    fn admin_enabled(&self) -> bool {
        let Some((n, _)) = self.flips.front().and_then(Flip::next) else {
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

    /// Applies one scheduler choice. One that runs code at a node ends
    /// as a reactor lap does: the node pumps its links (`end_lap`).
    pub fn apply(&mut self, action: Action) {
        self.clock += 1;
        let lap = match action {
            Action::Issue(n) | Action::Reprobe(n) | Action::Expire(n) => Some(n),
            Action::CreditTick(n, _) => Some(n),
            Action::Deliver(f) => Some(self.flights[&f].j),
            Action::Admin => self.flips.front().and_then(Flip::next).map(|(n, _)| n),
            _ => None,
        };
        match action {
            Action::Issue(n) => self.issue(n),
            Action::Reprobe(n) => self.reprobe(n),
            Action::Deliver(f) => self.deliver_flight(f),
            Action::Drop(f) => {
                self.drops_left -= 1;
                let flight = self.flights.remove(&f).expect("live flight");
                self.log(format!("drop {}", flight.brief()));
                self.lost.push(flight);
            }
            Action::Dup(f) => {
                self.dups_left -= 1;
                let copy = self.flights[&f].clone();
                self.log(format!("dup {}", copy.brief()));
                self.launch(copy);
            }
            Action::Retransmit(i, j) => {
                let at = self.lost.iter().position(|f| (f.i, f.j) == (i, j));
                let flight = self.lost.remove(at.expect("a lost flight"));
                self.log(format!("retransmit {}", flight.brief()));
                self.launch(flight);
            }
            Action::CreditTick(i, j) => {
                self.ticks.remove(&(i, j));
                self.log(format!("tick n{i} credit to n{j}"));
                self.peers.get_mut(&(i, j)).expect("link").tick();
            }
            Action::Expire(n) => self.expire(n),
            Action::Crash(n) => self.crash(n),
            Action::Restart(n) => self.restart(n),
            Action::Heal => self.heal(),
            Action::Admin => self.admin_step(),
        }
        if let Some(n) = lap {
            self.end_lap(n);
        }
    }

    // ----- frame transmission -----------------------------------------

    /// Puts one datagram on the wire under the next flight id.
    fn launch(&mut self, flight: Flight) {
        self.launched += 1;
        self.flights.insert(self.launched, flight);
    }

    /// Ships protocol messages produced by node `n` through the shipped
    /// destination rule, each onto its link.
    fn ship(&mut self, n: usize, outgoing: Vec<Outgoing>) {
        let mut frames = Vec::new();
        node_ops::ship(&self.nodes[n].cc, outgoing, |t, msg, bytes| {
            let bytes = bytes.map(|b| b.to_vec());
            frames.push((t, Frame::Protocol { msg, bytes }));
        });
        for (t, frame) in frames {
            self.send_frame(n, t, frame);
        }
    }

    /// Queues one frame on node `i`'s end of its link with `j`; the lap
    /// under way pumps it (a frame for a down peer stays queued, and the
    /// restart pumps it).
    fn send_frame(&mut self, i: usize, j: usize, frame: Frame) {
        self.enqueued += 1;
        let ordinal = self.enqueued;
        self.end(i, j).0.outbox.push(LinkFrame { frame, ordinal });
    }

    /// The end of a reactor lap at node `i`: the shipped pump of each of
    /// its link ends whose peer is up, one flight per pack; a credit debt
    /// left behind arms the end's tick, and a window holding anything back
    /// logs a `stall`.
    fn end_lap(&mut self, i: usize) {
        let (window, cap) = (self.spec.credit_window, PEER_BATCH_MAX_BYTES);
        for j in (0..self.nodes.len()).filter(|&j| j != i) {
            if !(self.nodes[i].up && self.nodes[j].up) {
                continue;
            }
            let end = self.peers.get_mut(&(i, j)).expect("link");
            let rpcs = &mut self.nodes[i].rpcs;
            let (flights, launched) = (&mut self.flights, &mut self.launched);
            let packed = |corr, seq| rpcs.packed(corr, seq);
            let launch = |pack, bytes: &mut Vec<u8>| {
                if !bytes.is_empty() {
                    let bytes = std::mem::take(bytes);
                    *launched += 1;
                    flights.insert(*launched, Flight { i, j, pack, bytes });
                }
            };
            let out = &mut Vec::new();
            let (arm, held) = node_ops::pump(end, window, cap, usize::MAX, out, packed, launch);
            if arm {
                self.ticks.insert((i, j));
            }
            if held > 0 {
                self.log(format!("stall {i}->{j} x{held}"));
            }
        }
    }

    // ----- delivery and frame processing ------------------------------

    /// Lands flight `f` at node `j`: its credits go straight to `j`'s end
    /// of the link, its items, numbered from the pack's first, into link
    /// `i → j`'s receive half, and every item that became deliverable is
    /// taken in and served.
    fn deliver_flight(&mut self, f: u64) {
        let flight = self.flights.remove(&f).expect("live flight");
        self.log(format!("deliver {}", flight.brief()));
        let Flight { i, j, pack, bytes } = flight;
        let (mut seq, mut decoder) = (pack.first, FrameDecoder::new());
        decoder.feed(&bytes);
        while let Some(message) = decoder.next_frame().expect("packs decode") {
            let frames = match message {
                Frame::Batch { frames } => frames,
                frame => vec![frame],
            };
            for frame in frames {
                if let Frame::Credit { .. } = frame {
                    self.receive(i, j, frame);
                    continue;
                }
                let rl = self.recv.get_mut(&(i, j)).expect("link");
                let next = rl.delivered();
                match rl.accept(seq, frame) {
                    Accept::Ready => {}
                    Accept::Duplicate => self.log(format!("dedup {i}->{j} #{seq}")),
                    Accept::Held => self.log(format!("hold {i}->{j} #{seq} (awaiting #{next})")),
                    Accept::Refused => self.log(format!("refuse {i}->{j} #{seq}")),
                }
                seq += 1;
            }
        }
        while let Some(frame) = self.recv.get_mut(&(i, j)).expect("link").pop_ready() {
            let seq = self.recv[&(i, j)].delivered() - 1;
            let ordinal = (self.peers[&(i, j)].outbox.retained())
                .find_map(|(s, f)| (s == seq).then_some(f.ordinal));
            let Some(ordinal) = ordinal else {
                return self.fail(format!(
                    "link {i}->{j} processed #{seq} after a credit confirmed it: \
                     a confirmation counted what its receiver had not processed"
                ));
            };
            let last = self.processed_ordinal.insert((i, j), ordinal);
            if let Some(last) = last.filter(|&last| last >= ordinal) {
                return self.fail(format!(
                    "link {i}->{j} processed #{seq} (enqueued {ordinal}) after one \
                     enqueued later ({last}): wire order is not enqueue order"
                ));
            }
            self.nodes[j].deliveries += 1;
            self.receive(i, j, frame);
            if self.violation.is_some() {
                return;
            }
        }
    }

    /// Node `j`'s end of its link with `i` takes in one frame from `i`, and
    /// the items it counted are served.
    fn receive(&mut self, i: usize, j: usize, frame: Frame) {
        let mut items = Vec::new();
        let received = (self.peers.get_mut(&(j, i)).expect("link")).receive(frame, &mut items);
        let mut host = LinkHost {
            m: self,
            from: i,
            at: j,
        };
        items
            .into_iter()
            .for_each(|item| serve_peer(&mut host, item));
        if let Err(frame) = received {
            self.fail(format!("unexpected peer frame {frame:?}"));
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

    // ----- crash, restart, heal ---------------------------------------

    fn crash(&mut self, n: usize) {
        self.crashes_left -= 1;
        self.log(format!("crash n{n}"));
        self.nodes[n].up = false;
        self.nodes[n].admin = ConnOps::default();
        // Every flight to or from the node evaporated with it, and its
        // connections' ticks; what a survivor retained is the replay's.
        self.flights.retain(|_, f| f.i != n && f.j != n);
        self.lost.retain(|f| f.i != n && f.j != n);
        self.ticks.retain(|&(i, j)| i != n && j != n);
        self.session_lost(n);
    }

    /// Restarts a crashed node: a fresh process (empty cache, empty
    /// in-memory shard, empty RPC table) in a new generation, started the
    /// way the supervisor starts one — cold-version counter raised to the
    /// dead process's (a perfectly current `VersionFloor` poll; production
    /// adds `--cold-floor` slack instead) and the hot keys it homes fenced
    /// until [`Action::Heal`] — then fresh link ends, each connected to its
    /// survivor ([`RackModel::connect`]): the survivor's side replays its
    /// unprocessed tail and runs the restart rule, the fresh side resumes
    /// where that replay starts. Every node then pumps its links.
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
        let gen = self.nodes[n].gen + 1;
        for j in (0..nodes).filter(|&j| j != n) {
            self.recv.insert((n, j), RecvHalf::default());
            self.processed_ordinal.remove(&(n, j));
            self.processed_ordinal.remove(&(j, n));
            // Frames the dead process handled beyond the survivor's
            // confirmed count are re-handled vacuously by the fresh cache.
            self.peers
                .insert((n, j), Peer::new(gen, self.spec.credit_window));
            let shake = self.connect(j, n).expect("a survivor and a new process");
            let confirmed = shake.confirmed;
            let queued = self.peers[&(j, n)].outbox.queued().len() as u64;
            let replayed = queued.min(self.spec.credit_window);
            self.recv.get_mut(&(j, n)).expect("link").resume(confirmed);
            if replayed > 0 {
                let last = confirmed + replayed - 1;
                self.log(format!("replay {j}->{n} #{confirmed}..#{last}"));
            }
            if !shake.reissue.is_empty() {
                self.log(format!("reissue n{j} -> n{n} x{}", shake.reissue.len()));
                self.ship(j, shake.reissue);
            }
            for (corr, request) in shake.asked_again {
                self.log(format!("in-doubt n{j} rpc#{corr} -> home n{n}"));
                self.send_frame(j, n, request);
            }
        }
        for j in 0..nodes {
            self.end_lap(j);
        }
    }

    /// Connects nodes `i` and `j` as two reactors do, through the shipped
    /// handshake's three frames: the lower id dials. Returns `i`'s side.
    fn connect(&mut self, i: usize, j: usize) -> Result<Handshake, String> {
        let (d, a) = (i.min(j), i.max(j));
        let hello = node_ops::hello(&self.peers[&(d, a)], d, self.nodes[d].gen + 1);
        let (end, s) = self.end(a, d);
        let (ack, answered) = node_ops::answer(end, &mut s.rpcs, &s.cc, s.gen + 1, hello)?;
        let (end, s) = self.end(d, a);
        let (resume, dialed) = node_ops::take_ack(end, &mut s.rpcs, &s.cc, a, ack)?;
        node_ops::take_resume(self.end(a, d).0, resume)?;
        Ok(if i == d { dialed } else { answered })
    }

    /// Node `i`'s end of its link with `j`, and its process.
    fn end(&mut self, i: usize, j: usize) -> (&mut Peer<LinkFrame>, &mut NodeSlot) {
        (
            self.peers.get_mut(&(i, j)).expect("link"),
            &mut self.nodes[i],
        )
    }

    /// Post-restart recovery of symmetric caching, as the supervisor runs
    /// it: one [`Flip`] of a [`Transition::evict`] per hot key, stepped like
    /// the admin script's; the keys end cold, the replacement's boot fence
    /// lifted.
    fn heal(&mut self) {
        self.log("heal".to_string());
        let nodes = self.nodes.len();
        if !self.hot_now.is_empty() {
            let evicts = self.hot_now.iter().map(|&k| Transition::evict(k, nodes));
            self.flips.push_back(Flip::new(evicts.collect()));
        }
        self.heal_needed = false;
        self.world_version += 1;
    }

    // ----- admin connections -------------------------------------------

    /// [`Action::Admin`]: the retry tick of the call that bounced, or the
    /// running flip's next call pushed onto its node's admin connection.
    fn admin_step(&mut self) {
        let next = self.flips.front().and_then(Flip::next);
        let Some((n, mut frame)) = next else {
            unreachable!("admin_enabled")
        };
        if !self.nodes[n].admin.is_idle() {
            self.log(format!("admin reprobe n{n}"));
            return self.run_admin(n);
        }
        let calls = match &mut frame {
            Frame::Batch { frames } => frames,
            call => std::slice::from_mut(call),
        };
        for call in calls {
            if let Frame::InstallHot { warm, .. } = call {
                *warm &= self.spec.hole != Some(Hole::UnwarmedInstall);
            }
        }
        self.log(format!("admin n{n} <- {frame:?}"));
        // A frame the node serves is progress its parked ops retry on.
        self.nodes[n].deliveries += 1;
        self.nodes[n].admin.push(frame);
        self.run_admin(n);
    }

    /// The answer to the running call came out of node `n`'s admin
    /// connection: the flip takes it, and the transitions it ended are over.
    fn admin_answered(&mut self, n: usize, reply: Frame) {
        self.log(format!("admin n{n} -> {reply:?}"));
        let flip = self.flips.front_mut().expect("a call has a flip");
        let ended = flip.answer(Some(reply));
        if flip.next().is_none() {
            self.flips.pop_front();
        }
        for (key, outcome) in ended {
            match outcome {
                Outcome::Installed => self.hot_now.insert(key),
                Outcome::Evicted => self.hot_now.remove(&key),
                Outcome::RolledBack => false,
                Outcome::Abandoned => return self.fail(format!("the transition of k{key} failed")),
            };
            self.world_version += 1;
            self.log(format!("admin k{key} {outcome:?}"));
        }
    }

    // ----- drain and final checks -------------------------------------

    /// Whether the run has fully quiesced: every op completed, every node
    /// up and healed, the admin script finished, no datagram in flight,
    /// and every frame sent and confirmed — acknowledged writes are fully
    /// propagated (SC's eventual-delivery obligation), and no credit debt
    /// outlived a tick.
    fn done(&self) -> bool {
        self.nodes
            .iter()
            .all(|s| s.up && s.program.is_empty() && s.client.is_idle())
            && !self.heal_needed
            && self.flips.is_empty()
            && self.flights.is_empty()
            && (self.peers.values()).all(|end| {
                let outbox = &end.outbox;
                outbox.queued().len() == 0 && outbox.outstanding() == 0
            })
    }

    /// The deterministic completion phase: no faults, fixed priorities —
    /// restart, deliver (lowest flight), retransmit, credit tick, admin,
    /// heal, reprobe, issue. Reports a deadlock if the rack cannot quiesce.
    fn drain(&mut self) {
        for _ in 0..DRAIN_CAP {
            if self.done() || self.violation.is_some() {
                return;
            }
            let Some(action) = self.drain_action() else {
                let stuck = (self.nodes.iter().enumerate())
                    .filter(|(_, s)| !s.client.is_idle() || !s.program.is_empty())
                    .map(|(n, s)| {
                        let wait = match s.ops.wait() {
                            Some(Wait::LinCommit { .. }) => "awaiting commit",
                            Some(Wait::Rpc { .. }) => "awaiting rpc",
                            _ => "parked",
                        };
                        let current = self.current_op(n);
                        let current =
                            current.map_or("none".into(), |op| format!("k{} ({wait})", op.key()));
                        format!("n{n}: {} queued, current {current}", s.program.len())
                    });
                let stuck: Vec<String> = stuck.collect();
                let unconfirmed: Vec<String> = (self.peers.iter())
                    .filter(|(_, end)| end.outbox.outstanding() > 0)
                    .map(|((i, j), end)| format!("{i}->{j} x{}", end.outbox.outstanding()))
                    .collect();
                let (stuck, unconfirmed) = (stuck.join("; "), unconfirmed.join(", "));
                return self.fail(format!(
                    "deadlock: rack cannot quiesce [{stuck}] unconfirmed [{unconfirmed}]"
                ));
            };
            self.apply(action);
        }
        self.fail(format!("drain did not quiesce within {DRAIN_CAP} steps"));
    }

    fn drain_action(&self) -> Option<Action> {
        if let Some(n) = (0..self.nodes.len()).find(|&n| !self.nodes[n].up) {
            return Some(Action::Restart(n));
        }
        if let Some(&f) = self.flights.keys().next() {
            return Some(Action::Deliver(f));
        }
        let lost = self
            .peers
            .keys()
            .find(|&&(i, j)| self.retransmit_enabled(i, j));
        if let Some(&(i, j)) = lost {
            return Some(Action::Retransmit(i, j));
        }
        if let Some(&(i, j)) = self.ticks.first() {
            return Some(Action::CreditTick(i, j));
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
    /// a key's final copy (every cache if hot, the home shard if cold) is
    /// its newest acked put, or a newer one among its indeterminate puts.
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
        let unsure = &self.history.indeterminate;
        let holds = |key: u64, (value, ts): (u64, Timestamp), v: &[u8], t: Timestamp| {
            let v = decode_value(v);
            (t == ts && v == value)
                || (t.is_newer_than(ts) && unsure.iter().any(|u| (u.0, u.1) == (key, v)))
        };
        for (key, (value, ts)) in newest {
            if self.hot_now.contains(&key) {
                for n in 0..self.nodes.len() {
                    match self.nodes[n].cc.try_cache_get(key) {
                        Some(CacheGet::Hit { value: v, ts: t })
                            if holds(key, (value, ts), &v, t) => {}
                        got => {
                            return self.fail(format!(
                                "lost acked write: k{key}={value} ts{ts} missing from \
                                 n{n}'s cache (found {got:?})"
                            ));
                        }
                    }
                }
            } else {
                let home = self.home_of(key);
                let (v, t) = self.nodes[home].cc.kvs_get_versioned(key);
                if !holds(key, (value, ts), &v, t) {
                    return self.fail(format!(
                        "lost acked write: k{key}={value} ts{ts} not at home n{home} \
                         (shard holds value {} ts{t})",
                        decode_value(&v)
                    ));
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

/// [`PeerHost`] for node `at`'s end of its link with `from`: what its
/// items reach beyond the node goes where the harness's own sends go, and
/// the checker notes what it needs on the way.
struct LinkHost<'a> {
    m: &'a mut RackModel,
    from: usize,
    at: usize,
}

impl PeerHost for LinkHost<'_> {
    fn node(&self) -> &CcNode {
        &self.m.nodes[self.at].cc
    }

    fn received(&mut self, msg: &ProtocolMsg, _trace: Option<u64>) {
        let at = self.at;
        self.m.log(format!("n{at} <- {}", protocol_brief(msg)));
    }

    fn ship(&mut self, outgoing: Vec<Outgoing>, _trace: Option<u64>) {
        self.m.ship(self.at, outgoing);
        self.m.drain_commits();
    }

    fn serve_home(&mut self, corr: u64, request: Frame) -> Frame {
        self.m.serve_home(self.from, self.at, corr, request)
    }

    fn answer(&mut self, response: Frame) {
        self.m.send_frame(self.at, self.from, response);
    }

    fn resolve(&mut self, corr: u64, response: Frame) {
        self.m.resolve_rpc(self.at, corr, response);
    }
}

fn protocol_brief(msg: &ProtocolMsg) -> String {
    let (key, from) = (msg.key(), msg.from().0);
    match msg {
        ProtocolMsg::Invalidation { ts, .. } => format!("inv k{key} ts{ts} from n{from}"),
        ProtocolMsg::Ack { ts, .. } => format!("ack k{key} ts{ts} from n{from}"),
        ProtocolMsg::Update { value, ts, .. } => format!("upd k{key}={value} ts{ts} from n{from}"),
    }
}
