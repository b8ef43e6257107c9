//! The process supervisor: one `cckvs-node` OS process per topology node,
//! kept alive.
//!
//! The supervisor's contract with the node binary is its exit code:
//!
//! * **0** — deliberate stop (wire `Shutdown`, or SIGTERM after the
//!   graceful write-back drain): *not restarted*;
//! * **3** (`EXIT_BIND`) — the listen port is taken: restarting would flap
//!   forever against the owning process, so the node is marked failed;
//! * anything else, including death by signal — a crash: restarted with
//!   exponential backoff (reset after a stable uptime).
//!
//! Readiness is probed over the wire: a node answers `Ping` only once its
//! peer mesh is up (connections are parked until then), so `Pong` means
//! "fully serving", not just "listening". The spawned node also gets a
//! `--ready-fd` pipe — kept open by the supervisor so the readiness write
//! never raises SIGPIPE — for supervisors that prefer fd signalling.

use crate::topology::Topology;
use cckvs_net::churn::{Flip, Outcome, Transition};
use cckvs_net::transport::{Transport, TransportConfig};
use cckvs_net::wire::{read_frame, write_frame, Frame};
use std::fs::File;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `cckvs-node` exit code for a failed bind ("port taken, don't
/// retry") — must match the binary.
const EXIT_BIND: i32 = 3;

/// Slack added to the last polled cold-version counter when restarting a
/// crashed node: covers every version the dead process can have assigned
/// since the last poll. 2^24 assignments within one [`FLOOR_POLL_EVERY`]
/// would need ~33M cold writes per second — orders of magnitude past what
/// a node serves — so the restarted floor provably exceeds anything the
/// predecessor handed out.
const COLD_FLOOR_SLACK: u32 = 1 << 24;

/// How often a ready node's cold-version counter is polled.
const FLOOR_POLL_EVERY: Duration = Duration::from_millis(500);

/// Supervisor knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Path to the `cckvs-node` binary.
    pub node_bin: PathBuf,
    /// How long a (re)started node may take to answer `Ping` before it is
    /// killed and counted as a crash.
    pub ready_timeout: Duration,
    /// First restart delay after a crash.
    pub backoff_start: Duration,
    /// Restart delay cap.
    pub backoff_max: Duration,
    /// A node continuously ready this long gets its backoff reset.
    pub stable_uptime: Duration,
    /// When set, each node's stderr goes to `<log_dir>/node-<id>.log`
    /// (appended across restarts); otherwise stderr is inherited.
    pub log_dir: Option<PathBuf>,
}

impl SupervisorConfig {
    /// Defaults around `node_bin`: 30 s readiness, 200 ms → 5 s backoff,
    /// 10 s stable uptime, inherited stderr.
    pub fn new(node_bin: PathBuf) -> Self {
        Self {
            node_bin,
            ready_timeout: Duration::from_secs(30),
            backoff_start: Duration::from_millis(200),
            backoff_max: Duration::from_secs(5),
            stable_uptime: Duration::from_secs(10),
            log_dir: None,
        }
    }
}

/// A node's lifecycle state as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Process spawned, not yet answering `Ping`.
    Starting,
    /// Fully serving (peer mesh up).
    Ready,
    /// Crashed; a restart is scheduled.
    Backoff,
    /// Exited cleanly (code 0) — a deliberate stop, not restarted.
    Stopped,
    /// Gave up (bind failure: the port belongs to someone else).
    Failed,
}

#[derive(Clone, Copy)]
enum Phase {
    Starting { deadline: Instant },
    Ready { since: Instant, backoff_reset: bool },
    Backoff { until: Instant },
    Stopped,
    Failed,
}

struct NodeState {
    child: Option<Child>,
    /// Read end of the node's `--ready-fd` pipe. Held open (never read)
    /// so the child's readiness write cannot SIGPIPE; readiness itself is
    /// probed over the wire.
    ready_pipe: Option<File>,
    phase: Phase,
    backoff: Duration,
    /// Highest cold-version counter polled from the node (see
    /// [`cckvs_net::wire::Frame::VersionFloor`]): the supervisor is the
    /// durable memory an in-memory shard lacks. A restarted replacement
    /// gets this plus [`COLD_FLOOR_SLACK`] via `--cold-floor`, so
    /// home-assigned versions never regress across the crash.
    version_floor: u32,
    /// When the floor was last polled.
    last_floor_poll: Option<Instant>,
}

struct Shared {
    topology: Topology,
    /// The rack's fabric (from the topology): readiness probes,
    /// version-floor polls and admin heals all dial it.
    transport: Arc<dyn Transport>,
    cfg: SupervisorConfig,
    running: AtomicBool,
    nodes: Vec<Mutex<NodeState>>,
    restarts: Vec<AtomicU64>,
}

/// A running supervised rack.
pub struct Supervisor {
    shared: Arc<Shared>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns every node of `topology` and starts the monitor thread.
    pub fn launch(topology: Topology, cfg: SupervisorConfig) -> io::Result<Supervisor> {
        if let Some(dir) = &cfg.log_dir {
            std::fs::create_dir_all(dir)?;
        }
        let count = topology.nodes.len();
        let transport = TransportConfig {
            kind: topology.transport_kind(),
            faults: None,
        }
        .build();
        let shared = Arc::new(Shared {
            topology,
            transport,
            cfg,
            running: AtomicBool::new(true),
            nodes: (0..count)
                .map(|_| {
                    Mutex::new(NodeState {
                        child: None,
                        ready_pipe: None,
                        phase: Phase::Stopped,
                        backoff: Duration::ZERO,
                        version_floor: 0,
                        last_floor_poll: None,
                    })
                })
                .collect(),
            restarts: (0..count).map(|_| AtomicU64::new(0)).collect(),
        });
        for id in 0..count {
            let mut state = shared.nodes[id].lock().expect("supervisor state");
            state.backoff = shared.cfg.backoff_start;
            spawn_into(&shared, id, &mut state)?;
        }
        let monitor_shared = Arc::clone(&shared);
        let monitor = std::thread::Builder::new()
            .name("cckvs-rack-monitor".to_string())
            .spawn(move || monitor_loop(monitor_shared))?;
        Ok(Supervisor {
            shared,
            monitor: Some(monitor),
        })
    }

    /// The supervised topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// The client-facing address of every node.
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        self.shared.topology.client_addrs()
    }

    /// A node's current lifecycle status.
    pub fn status(&self, node: usize) -> NodeStatus {
        match self.shared.nodes[node]
            .lock()
            .expect("supervisor state")
            .phase
        {
            Phase::Starting { .. } => NodeStatus::Starting,
            Phase::Ready { .. } => NodeStatus::Ready,
            Phase::Backoff { .. } => NodeStatus::Backoff,
            Phase::Stopped => NodeStatus::Stopped,
            Phase::Failed => NodeStatus::Failed,
        }
    }

    /// Every node's status, indexed by node id.
    pub fn statuses(&self) -> Vec<NodeStatus> {
        (0..self.shared.nodes.len())
            .map(|n| self.status(n))
            .collect()
    }

    /// How many times `node` has been restarted after a crash.
    pub fn restarts(&self, node: usize) -> u64 {
        self.shared.restarts[node].load(Ordering::Relaxed)
    }

    /// The OS pid of `node`'s current process, if one is running.
    pub fn pid(&self, node: usize) -> Option<u32> {
        self.shared.nodes[node]
            .lock()
            .expect("supervisor state")
            .child
            .as_ref()
            .map(Child::id)
    }

    /// Blocks until every node is `Ready` (or `timeout` passes).
    pub fn wait_ready(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let statuses = self.statuses();
            if statuses.iter().all(|s| *s == NodeStatus::Ready) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("rack not ready within {timeout:?}: {statuses:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Blocks until `node` has been restarted and is `Ready` again (or
    /// `timeout` passes). A node the supervisor gave up on fails at once,
    /// naming the address its restart could not bind.
    pub fn wait_restarted(&self, node: usize, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let (status, restarts) = (self.status(node), self.restarts(node));
            let (kind, what) = match status {
                NodeStatus::Ready if restarts >= 1 => return Ok(()),
                NodeStatus::Failed => {
                    let addr = self.shared.topology.nodes[node].listen;
                    let what = format!("could not bind {addr} on restart, the port is taken");
                    (io::ErrorKind::AddrInUse, what)
                }
                _ if Instant::now() >= deadline => {
                    (io::ErrorKind::TimedOut, "not restarted in time".to_string())
                }
                _ => {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
            };
            let message = format!("node {node} {what}: status {status:?}, restarts {restarts}");
            return Err(io::Error::new(kind, message));
        }
    }

    /// SIGKILLs `node`'s process (crash injection). The monitor observes
    /// the death and restarts the node with backoff.
    pub fn kill_node(&self, node: usize) -> io::Result<()> {
        let mut state = self.shared.nodes[node].lock().expect("supervisor state");
        match &mut state.child {
            Some(child) => child.kill(),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("node {node} has no running process"),
            )),
        }
    }

    /// SIGTERMs `node`'s process: it drains dirty write-backs and exits 0,
    /// which the monitor records as a deliberate stop (no restart).
    pub fn terminate_node(&self, node: usize) -> io::Result<()> {
        let pid = self.pid(node).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("node {node} has no running process"),
            )
        })?;
        reactor::send_signal(pid, reactor::SIGTERM)
    }

    /// Fetches every node's trace buffer over the wire (`TraceDump` on
    /// the client port): per node, the count of span events dropped at
    /// ring overflow and the retained events — or `None` when the node
    /// did not answer (down or mid-restart). Feed the per-node dumps to
    /// [`cckvs_trace::assemble`] for one op's cross-node timeline.
    pub fn collect_traces(&self) -> Vec<Option<(u64, Vec<cckvs_trace::Event>)>> {
        self.shared
            .topology
            .nodes
            .iter()
            .map(|node| {
                match admin_call(
                    &*self.shared.transport,
                    node.listen,
                    &Frame::TraceDump,
                    Duration::from_secs(5),
                ) {
                    Some(Frame::TraceDumpResp { dropped, events }) => Some((dropped, events)),
                    _ => None,
                }
            })
            .collect()
    }

    /// Stops supervising, gracefully terminates every node (SIGTERM, then
    /// SIGKILL for stragglers) and reaps the processes.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
        // Graceful first: SIGTERM runs the nodes' write-back drain.
        for state in &self.shared.nodes {
            let state = state.lock().expect("supervisor state");
            if let Some(child) = &state.child {
                let _ = reactor::send_signal(child.id(), reactor::SIGTERM);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for state in &self.shared.nodes {
            let mut state = state.lock().expect("supervisor state");
            let Some(child) = &mut state.child else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                    Err(_) => break,
                }
            }
            state.child = None;
            state.ready_pipe = None;
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Spawns node `id`'s process into `state` (phase `Starting`).
fn spawn_into(shared: &Shared, id: usize, state: &mut NodeState) -> io::Result<()> {
    let mut cmd = Command::new(&shared.cfg.node_bin);
    cmd.args(shared.topology.node_args(id));
    cmd.stdin(Stdio::null());
    cmd.stdout(Stdio::null());
    if let Some(dir) = &shared.cfg.log_dir {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("node-{id}.log")))?;
        cmd.stderr(Stdio::from(log));
    }
    let (ready_rx, ready_wr) = reactor::inheritable_pipe()?;
    cmd.arg("--ready-fd").arg(ready_wr.to_string());
    if state.version_floor > 0 {
        cmd.arg("--cold-floor").arg(state.version_floor.to_string());
    }
    // A crash replacement boots with the deployment's hot set fenced at
    // its home shard: the keys are still live in the survivors' caches,
    // and the empty replacement must not serve them from its cold path.
    // The fence lifts when `heal_cache_symmetry` finishes.
    if shared.restarts[id].load(Ordering::Relaxed) > 0 {
        match query_hot_set(shared, id) {
            Some(keys) if !keys.is_empty() => {
                let list = keys
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                cmd.arg("--hot-fence").arg(list);
            }
            Some(_) => {}
            None => eprintln!(
                "cckvs-rack: WARNING: no survivor answered CacheKeys; node {id} restarts \
                 unfenced (hot keys homed there may serve stale cold values until healed)"
            ),
        }
    }
    let spawned = cmd.spawn();
    // The child holds its own copy of the write end now (or never will).
    reactor::close_raw_fd(ready_wr);
    let child = spawned?;
    eprintln!(
        "cckvs-rack: node {id} spawned as pid {} ({})",
        child.id(),
        shared.topology.nodes[id].listen
    );
    state.child = Some(child);
    state.ready_pipe = Some(ready_rx);
    state.phase = Phase::Starting {
        deadline: Instant::now() + shared.cfg.ready_timeout,
    };
    Ok(())
}

/// One wire readiness probe: `Ping` answered with `Pong` means the node's
/// peer mesh is up (connections are parked until then, so a booting node
/// simply never answers).
fn probe_ready(transport: &dyn Transport, addr: SocketAddr) -> bool {
    matches!(
        admin_call(transport, addr, &Frame::Ping, Duration::from_millis(500)),
        Some(Frame::Pong)
    )
}

/// One admin request over a fresh client connection. `read_timeout` is
/// per-call: queries issued from the monitor thread
/// (which holds a node's state lock) must stay short, while the heal
/// thread's `Evict` calls legitimately wait out write-back redials.
fn admin_call(
    transport: &dyn Transport,
    addr: SocketAddr,
    request: &Frame,
    read_timeout: Duration,
) -> Option<Frame> {
    let mut stream = transport.dial(addr, Duration::from_millis(250)).ok()?;
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Frame::ClientHello).expect("vec write");
    write_frame(&mut bytes, request).expect("vec write");
    stream.write_all(&bytes).ok()?;
    read_frame(&mut stream).ok().flatten()
}

/// The deployment's hot set, as witnessed by any live node other than
/// `except` (symmetric caches hold identical key sets).
fn query_hot_set(shared: &Shared, except: usize) -> Option<Vec<u64>> {
    for (id, node) in shared.topology.nodes.iter().enumerate() {
        if id == except {
            continue;
        }
        // Short timeout: this runs on the monitor thread during a respawn
        // (under the restarting node's state lock) — a slow survivor must
        // not stall crash detection for the rest of the rack.
        if let Some(Frame::CacheKeysResp { keys }) = admin_call(
            &*shared.transport,
            node.listen,
            &Frame::CacheKeys,
            Duration::from_secs(1),
        ) {
            return Some(keys);
        }
    }
    None
}

/// Restores the symmetric-cache invariant after a crash replacement came
/// up empty: every hot key moves *cold* rack-wide in one [`Flip`] of the
/// epoch coordinator's own [`Transition::evict`]s — fence the home, evict
/// every replica (dirty copies write back first), lift the fence (the
/// replacement's boot fence with it). Live traffic rides it out: cached ops
/// serve until their replica is evicted, cold ops bounce until the fence
/// lifts. A key whose eviction fails keeps its fence for the next heal;
/// every other key still moves cold.
fn heal_cache_symmetry(shared: &Shared, restarted: usize) {
    let Some(keys) = query_hot_set(shared, restarted) else {
        eprintln!("cckvs-rack: heal after node {restarted} restart: no survivor answered");
        return;
    };
    if keys.is_empty() {
        return;
    }
    eprintln!(
        "cckvs-rack: healing cache symmetry after node {restarted} restart \
         ({} hot keys move cold, dirty copies write back)",
        keys.len()
    );
    let addrs = shared.topology.client_addrs();
    // The heal runs on its own thread, so evictions may wait out
    // write-back redials and pending-write commits.
    let patient = Duration::from_secs(15);
    let nodes = addrs.len();
    let evicts = keys.iter().map(|&k| Transition::evict(k, nodes)).collect();
    let ended = Flip::new(evicts).run(|n, f| admin_call(&*shared.transport, addrs[n], f, patient));
    for (key, outcome) in ended.iter().filter(|(_, o)| *o != Outcome::Evicted) {
        eprintln!("cckvs-rack: heal: eviction of key {key} ended {outcome:?}");
    }
    let healed = ended.iter().filter(|(_, o)| *o == Outcome::Evicted).count();
    eprintln!("cckvs-rack: heal complete ({healed}/{} keys)", keys.len());
}

/// Polls a serving node's cold-version counter (the durable-floor memory).
fn poll_version_floor(transport: &dyn Transport, addr: SocketAddr) -> Option<u32> {
    match admin_call(
        transport,
        addr,
        &Frame::VersionFloor,
        Duration::from_millis(500),
    ) {
        Some(Frame::VersionFloorResp { clock }) => Some(clock),
        _ => None,
    }
}

fn monitor_loop(shared: Arc<Shared>) {
    while shared.running.load(Ordering::SeqCst) {
        for id in 0..shared.nodes.len() {
            let mut state = shared.nodes[id].lock().expect("supervisor state");
            tick_node(&shared, id, &mut state);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Advances one node's lifecycle: reap exits, classify them, probe
/// readiness, and execute scheduled restarts.
fn tick_node(shared: &Arc<Shared>, id: usize, state: &mut NodeState) {
    let now = Instant::now();
    // Reap and classify an exited child.
    if let Some(child) = &mut state.child {
        match child.try_wait() {
            Ok(Some(status)) => {
                state.child = None;
                state.ready_pipe = None;
                match status.code() {
                    Some(0) => {
                        eprintln!("cckvs-rack: node {id} stopped cleanly");
                        state.phase = Phase::Stopped;
                    }
                    Some(EXIT_BIND) => {
                        eprintln!(
                            "cckvs-rack: node {id} could not bind {} — the port is taken; \
                             giving up on this node",
                            shared.topology.nodes[id].listen
                        );
                        state.phase = Phase::Failed;
                    }
                    code => {
                        shared.restarts[id].fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "cckvs-rack: node {id} died ({}); restarting in {:?}",
                            match code {
                                Some(code) => format!("exit code {code}"),
                                None => "killed by signal".to_string(),
                            },
                            state.backoff
                        );
                        // The dead process may have assigned versions past
                        // the last poll; the slack provably covers them.
                        state.version_floor = state.version_floor.saturating_add(COLD_FLOOR_SLACK);
                        state.phase = Phase::Backoff {
                            until: now + state.backoff,
                        };
                        state.backoff = (state.backoff * 2).min(shared.cfg.backoff_max);
                    }
                }
                return;
            }
            Ok(None) => {}
            Err(_) => return,
        }
    }
    match state.phase {
        Phase::Starting { deadline } => {
            if probe_ready(&*shared.transport, shared.topology.nodes[id].listen) {
                eprintln!("cckvs-rack: node {id} ready");
                state.phase = Phase::Ready {
                    since: now,
                    backoff_reset: false,
                };
                // A crash replacement came up with an empty cache while
                // its peers still serve the hot set: restore symmetry in
                // the background (the boot fence protects the interim).
                if shared.restarts[id].load(Ordering::Relaxed) > 0
                    && shared.running.load(Ordering::SeqCst)
                {
                    let heal_shared = Arc::clone(shared);
                    let _ = std::thread::Builder::new()
                        .name(format!("cckvs-rack-heal-{id}"))
                        .spawn(move || heal_cache_symmetry(&heal_shared, id));
                }
            } else if now >= deadline {
                // Never became ready: kill it; the next tick reaps the
                // death and schedules the backoff restart.
                eprintln!("cckvs-rack: node {id} missed its readiness deadline; killing");
                if let Some(child) = &mut state.child {
                    let _ = child.kill();
                }
            }
        }
        Phase::Ready {
            since,
            backoff_reset,
        } => {
            if !backoff_reset && now.duration_since(since) >= shared.cfg.stable_uptime {
                state.backoff = shared.cfg.backoff_start;
                state.phase = Phase::Ready {
                    since,
                    backoff_reset: true,
                };
            }
            // Keep the durable version-floor memory fresh.
            if state
                .last_floor_poll
                .is_none_or(|at| now.duration_since(at) >= FLOOR_POLL_EVERY)
            {
                state.last_floor_poll = Some(now);
                if let Some(clock) =
                    poll_version_floor(&*shared.transport, shared.topology.nodes[id].listen)
                {
                    state.version_floor = state.version_floor.max(clock);
                }
            }
        }
        Phase::Backoff { until } => {
            if now >= until && shared.running.load(Ordering::SeqCst) {
                if let Err(e) = spawn_into(shared, id, state) {
                    eprintln!("cckvs-rack: respawn of node {id} failed: {e}");
                    shared.restarts[id].fetch_add(1, Ordering::Relaxed);
                    state.phase = Phase::Backoff {
                        until: now + state.backoff,
                    };
                    state.backoff = (state.backoff * 2).min(shared.cfg.backoff_max);
                }
            }
        }
        Phase::Stopped | Phase::Failed => {}
    }
}
