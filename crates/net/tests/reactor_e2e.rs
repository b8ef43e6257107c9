//! Connection-scaling end-to-end tests of the epoll reactor: a 3-node
//! rack must serve thousands of concurrent client connections per node
//! with a thread count that depends on the reactor topology, never on the
//! connection count — while the per-key Lin guarantee holds and teardown
//! stays clean. The last five tests pin the lap itself: work a shard
//! produces for itself leaves in the lap that produced it, a credit return
//! costs no message while traffic flows, and a connection that says
//! nothing — or has said all it will — costs no laps.
//!
//! Both ends of every connection live in this test process, so the
//! 5k-connections-per-node target costs ~10k fds here (the soft limit is
//! raised toward what the run needs; the assertion scales down only if
//! the hard limit genuinely cannot cover it).

use cckvs::node::NodeConfig;
use cckvs_net::client::{BatchConfig, Client, SharedHistory};
use cckvs_net::link::CREDIT_RETURN_DIVISOR;
use cckvs_net::metrics::Metrics;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::server::{
    FlowConfig, NodeServer, NodeServerConfig, ReactorConfig, CREDIT_RETURN_TICK,
};
use cckvs_net::wire::{read_frame, write_frame, Frame};
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;
use workload::{AccessDistribution, Dataset, Mix, OpKind, WorkloadGen};

/// The census of node threads is shared by every test of this binary, and
/// every one of them starts a rack: the tests that assert on the census
/// hold this exclusively, the others share it.
static THREAD_CENSUS: RwLock<()> = RwLock::new(());

/// The names of this process's node threads, sorted, from
/// /proc/self/task/*/comm (the kernel keeps a name's first 15 bytes). A
/// redial thread, which a lost peer link starts and outlives its server by
/// up to one backoff, is not one.
fn node_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task on Linux")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("cckvs-") && !name.starts_with("cckvs-redial-"))
        .collect();
    names.sort();
    names
}

/// The acceptance workload: ≥5k concurrent connections held open against
/// one node of a 3-node rack (the per-node capacity claim — driving all
/// three nodes at 5k each would only multiply fds in this shared
/// process), a Zipf Lin workload spread over every connection, the
/// history checker-clean, and the thread count flat as connections grow
/// from a handful to thousands.
#[test]
fn five_thousand_connections_per_node_serve_lin_checked_workload() {
    let _alone = THREAD_CENSUS.write().unwrap_or_else(|e| e.into_inner());
    const TARGET_CONNS: usize = 5_000;
    const DRIVERS: usize = 8;
    const OPS_PER_CONN: u64 = 4;

    // Both socket ends live here: ~2 fds per connection plus slack.
    let wanted = 2 * TARGET_CONNS as u64 + 1024;
    let limit = reactor::raise_nofile_limit(wanted).expect("query fd limit");
    let conns = if limit >= wanted {
        TARGET_CONNS
    } else {
        // Hard-capped environment: scale to what physically fits, keeping
        // the shape of the test (still thousands when the limit allows).
        (((limit.saturating_sub(1024)) / 2) as usize).max(256)
    };

    let mut cfg = RackConfig::small(ConsistencyModel::Lin, 3);
    cfg.cache_capacity = 128;
    cfg.metrics = false;
    cfg.reactor = ReactorConfig { shards: 2 };
    let rack = Rack::launch(cfg).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    rack.install_hot_set(&dataset.hot_entries(128))
        .expect("install hot set");
    let target = rack.client_addrs()[0];
    // By name: a node's threads are its shards, plus an epoch applier on
    // a coordinator (this rack has none) and nothing else.
    let shards: Vec<String> = (0..3)
        .flat_map(|node| vec![format!("cckvs-shard-n{node}-"); 2])
        .collect();
    assert_eq!(node_threads(), shards);

    let history = Arc::new(SharedHistory::new());
    let metrics = Arc::new(Metrics::new());
    let handles: Vec<_> = (0..DRIVERS)
        .map(|driver| {
            let history = Arc::clone(&history);
            let metrics = Arc::clone(&metrics);
            let mut gen = WorkloadGen::new(
                &dataset,
                AccessDistribution::Zipfian { exponent: 0.99 },
                Mix::with_write_ratio(0.05),
                0xE2E ^ driver as u64,
            );
            std::thread::spawn(move || {
                // This driver's share of the connection pool, all held
                // open concurrently against node 0.
                let mut clients: Vec<Client> = (0..conns)
                    .filter(|i| i % DRIVERS == driver)
                    .map(|i| {
                        Client::builder(&[target])
                            .session(u32::try_from(i).expect("connection index fits"))
                            .policy(LoadBalancePolicy::Pinned(0))
                            .history(Arc::clone(&history))
                            .metrics(Arc::clone(&metrics))
                            .batching(BatchConfig {
                                max_ops: 4,
                                ..BatchConfig::default()
                            })
                            .connect()
                            .expect("connect")
                    })
                    .collect();
                // Every connection serves ops (round-robin), so all of
                // them are demonstrably live, not just open.
                for n in 0..(OPS_PER_CONN * clients.len() as u64) {
                    let op = gen.next_op();
                    let slot = n as usize % clients.len();
                    let client = &mut clients[slot];
                    match op.kind {
                        OpKind::Get => client.queue_get(op.key.0).expect("queue get"),
                        OpKind::Put => client
                            .queue_put(op.key.0, &op.value_bytes(driver as u32, 40))
                            .expect("queue put"),
                    }
                    if client.queued() == 0 {
                        client.flush().expect("drain outcomes");
                    }
                }
                let threads_at_peak = node_threads();
                for client in &mut clients {
                    client.flush().expect("final flush");
                }
                threads_at_peak
            })
        })
        .collect();
    let censuses: Vec<Vec<String>> = handles
        .into_iter()
        .map(|handle| handle.join().expect("driver thread"))
        .collect();

    assert!(
        conns >= 5_000 || reactor::raise_nofile_limit(wanted).unwrap_or(0) < wanted,
        "ran {conns} connections without an fd-limit excuse"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gets + snap.puts,
        OPS_PER_CONN * conns as u64,
        "every connection served its ops"
    );
    // O(reactor shards) threads, not O(connections): holding `conns`
    // connections adds NO thread to the rack's fixed topology.
    for threads_at_peak in censuses {
        assert_eq!(
            threads_at_peak, shards,
            "the rack's threads moved with {conns} connections"
        );
    }

    let history = history.snapshot();
    assert!(
        history.len() as u64 >= OPS_PER_CONN * conns as u64 / 4,
        "too few cached-key ops recorded ({})",
        history.len()
    );
    history
        .check_per_key_sc()
        .expect("per-key SC must hold across thousands of connections");
    history
        .check_per_key_lin()
        .expect("per-key Lin must hold across thousands of connections");
    rack.shutdown();
}

/// Connections that sit idle (no hello, or hello then silence) must cost
/// the reactor nothing but memory: the rack keeps serving a checked
/// workload around 2k of them, and closes them all on teardown.
#[test]
fn idle_and_mute_connections_do_not_starve_serving() {
    let _shared = THREAD_CENSUS.read().unwrap_or_else(|e| e.into_inner());
    let wanted = 2 * 2_000 + 1024;
    let _ = reactor::raise_nofile_limit(wanted);
    let mut cfg = RackConfig::small(ConsistencyModel::Lin, 3);
    cfg.metrics = false;
    let rack = Rack::launch(cfg).expect("launch rack");
    let dataset = Dataset::new(1_000, 40);
    rack.install_hot_set(&dataset.hot_entries(64))
        .expect("install hot set");
    let addrs = rack.client_addrs();

    // 1k sockets that never speak (no hello) and 1k real client sessions
    // that go mute after connecting.
    let mute: Vec<std::net::TcpStream> = (0..1_000)
        .map(|i| std::net::TcpStream::connect(addrs[i % addrs.len()]).expect("connect mute"))
        .collect();
    let idle: Vec<Client> = (0..1_000)
        .map(|i| {
            Client::connect(
                &[addrs[i % addrs.len()]],
                10_000 + i as u32,
                LoadBalancePolicy::Pinned(0),
            )
            .expect("connect idle")
        })
        .collect();

    // A live session still gets served promptly through the noise.
    let history = Arc::new(SharedHistory::new());
    let mut client = Client::builder(&addrs)
        .session(1)
        .policy(LoadBalancePolicy::RoundRobin)
        .history(Arc::clone(&history))
        .connect()
        .expect("connect live");
    let mut gen = WorkloadGen::new(
        &dataset,
        AccessDistribution::Zipfian { exponent: 0.99 },
        Mix::with_write_ratio(0.2),
        42,
    );
    for _ in 0..2_000 {
        let op = gen.next_op();
        match op.kind {
            OpKind::Get => {
                client.get(op.key.0).expect("get");
            }
            OpKind::Put => {
                client.put(op.key.0, &op.value_bytes(1, 40)).expect("put");
            }
        }
    }
    history
        .snapshot()
        .check_per_key_lin()
        .expect("per-key Lin holds with 2k idle connections attached");
    drop(idle);
    drop(mute);
    rack.shutdown();
}

/// Reactor laps the whole rack has run so far.
fn rack_laps(rack: &Rack) -> u64 {
    (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().loop_lap_count)
        .sum()
}

/// A quiet 3-node Lin TCP rack for the lap and credit counts below: 64 hot
/// keys installed, 50 cold keys homed on nodes 1 and 2 preloaded with
/// `[7; 40]`, and one history-recording session pinned to node 0.
struct PinnedRack {
    rack: Rack,
    hot: Vec<u64>,
    cold: Vec<u64>,
    client: Client,
    history: Arc<SharedHistory>,
}

impl PinnedRack {
    fn launch(shards: usize) -> PinnedRack {
        Self::launch_on(RackConfig::small(ConsistencyModel::Lin, 3), shards)
    }

    /// The same rack on `cfg`'s fabric.
    fn launch_on(mut cfg: RackConfig, shards: usize) -> PinnedRack {
        cfg.metrics = false;
        cfg.reactor = ReactorConfig { shards };
        let rack = Rack::launch(cfg).expect("launch rack");
        let entries = Dataset::new(10_000, 40).hot_entries(64);
        rack.install_hot_set(&entries).expect("install hot set");
        let hot: Vec<u64> = entries.iter().map(|(key, _)| *key).collect();
        let node0 = rack.server(0).node();
        let cold: Vec<u64> = (5_000..6_000u64)
            .filter(|&k| node0.home_node(k) != 0 && !hot.contains(&k))
            .take(50)
            .collect();
        let history = Arc::new(SharedHistory::new());
        let mut client = rack
            .client()
            .session(1)
            .policy(LoadBalancePolicy::Pinned(0))
            .history(Arc::clone(&history))
            .connect()
            .expect("connect");
        for &key in &cold {
            client.put(key, &[7u8; 40]).expect("preload cold key");
        }
        PinnedRack {
            rack,
            hot,
            cold,
            client,
            history,
        }
    }

    /// `n` Lin PUTs round the hot keys.
    fn lin_puts(&mut self, n: u64) {
        for i in 0..n {
            let key = self.hot[i as usize % self.hot.len()];
            self.client.put(key, &i.to_le_bytes()).expect("lin put");
        }
    }

    /// `n` GETs round the cold keys, each a miss RPC to another node.
    fn remote_misses(&mut self, n: u64) {
        for i in 0..n {
            let key = self.cold[i as usize % self.cold.len()];
            assert_eq!(self.client.get(key).expect("miss get"), [7u8; 40]);
        }
    }

    /// One more session recording into the rack's history, pinned to
    /// `node`.
    fn session(&self, session: u32, node: usize) -> Client {
        self.rack
            .client()
            .session(session)
            .policy(LoadBalancePolicy::Pinned(node))
            .history(Arc::clone(&self.history))
            .connect()
            .expect("connect")
    }

    /// Checks the recorded history and stops the rack.
    fn finish(self) {
        let history = self.history.snapshot();
        history.check_per_key_sc().expect("per-key SC holds");
        history.check_per_key_lin().expect("per-key Lin holds");
        self.rack.shutdown();
    }
}

/// 1 000 Lin PUTs on hot keys, then 1 000 GETs of cold keys homed on
/// another node, from one session pinned to node 0 of a 3-node TCP rack.
/// Returns the reactor laps the whole rack ran per PUT and per GET; the
/// history must be Lin-clean.
fn laps_per_lin_put_and_per_remote_miss(shards: usize) -> (f64, f64) {
    let _shared = THREAD_CENSUS.read().unwrap_or_else(|e| e.into_inner());
    const OPS_PER_KIND: u64 = 1_000;
    let mut pinned = PinnedRack::launch(shards);
    let before = rack_laps(&pinned.rack);
    pinned.lin_puts(OPS_PER_KIND);
    let between = rack_laps(&pinned.rack);
    pinned.remote_misses(OPS_PER_KIND);
    let after = rack_laps(&pinned.rack);
    pinned.finish();
    (
        (between - before) as f64 / OPS_PER_KIND as f64,
        (after - between) as f64 / OPS_PER_KIND as f64,
    )
}

/// With one shard per node every wake is the shard's own: invalidations,
/// acks, miss RPCs, their responses and the `Resume` continuations all
/// leave in the lap that produced them, and a credit return waits for a
/// message that is leaving anyway. So an op costs the laps its own hops
/// do and no more: a remote miss three (request in at node 0, served at
/// the home, answer back through node 0), a Lin PUT at most seven (request
/// in, the invalidation at each sharer, up to two laps of acks at the
/// writer, the update at each sharer; the scheduler may fold two of those
/// into one). When every processed peer frame was answered with a `Credit`
/// message of its own — one more lap at its receiver — the parent commit,
/// 89efbcb, ran 3.84 – 4.00 laps per miss and 5.95 – 8.68 per PUT (twelve
/// runs, release and debug; 4.86 – 6.34 per op overall where this commit
/// runs 4.0 – 4.8); when each hop also cost an eventfd round and a second
/// lap (9ef0e9c), 9.2 – 9.4 per op.
#[test]
fn frames_a_lap_produces_leave_in_that_lap() {
    let (per_put, per_get) = laps_per_lin_put_and_per_remote_miss(1);
    assert!(per_get <= 3.1, "{per_get:.2} laps per remote miss");
    assert!(per_put <= 7.1, "{per_put:.2} laps per Lin PUT");
}

/// Two shards per node: connections and peer links sit on different
/// threads, so commits and RPC responses cross shards — those wakes must
/// still go through the eventfd, or a writer would hang.
#[test]
fn cross_shard_wakes_still_fire() {
    laps_per_lin_put_and_per_remote_miss(2);
}

/// What `cckvs-node --shards 2` runs: two threads on one `CcNode` (§6.2,
/// CRCW). Two sessions whose connections sit on the two shards of node 0
/// write the same four hot keys under Lin — each PUT that finds the
/// other's pending bounces and retries on its own shard while a third
/// party, the shard holding the peer link, delivers the acks — and two
/// more sessions read those keys through nodes 1 and 2. The merged history
/// is per-key SC and per-key Lin: every update left node 0 with its own
/// write's bytes. Fabric from `CCKVS_TRANSPORT`.
#[test]
fn two_shards_of_one_node_write_the_same_hot_key() {
    let _shared = THREAD_CENSUS.read().unwrap_or_else(|e| e.into_inner());
    const PUTS: u64 = 2_000;
    let cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    let pinned = PinnedRack::launch_on(cfg, 2);
    let keys = <[u64; 4]>::try_from(&pinned.hot[..4]).expect("four hot keys");

    // Accepts go round the shards in turn, so two consecutive ones on a
    // two-shard node land on different shards: nothing else may connect
    // to node 0 between the writers.
    let node0 = pinned.rack.server(0).metrics();
    let before = node0.snapshot();
    assert_eq!(before.reactor_shards, 2);
    let mut writers = Vec::new();
    for session in [2u32, 3] {
        let mut writer = pinned.session(session, 0);
        // Answered, so accepted and counted.
        writer.get(keys[0]).expect("get");
        writers.push(writer);
        let accepted = node0.snapshot().conns_accepted - before.conns_accepted;
        assert_eq!(accepted, writers.len() as u64, "consecutive accepts");
    }

    let writing = Arc::new(AtomicUsize::new(writers.len()));
    let mut threads = Vec::new();
    for mut writer in writers {
        let writing = Arc::clone(&writing);
        threads.push(std::thread::spawn(move || {
            for i in 0..PUTS {
                let value = u64::from(writer.session()) << 32 | i;
                let key = keys[i as usize % keys.len()];
                writer.put(key, &value.to_le_bytes()).expect("lin put");
            }
            writing.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for (session, node) in [(4u32, 1), (5, 2)] {
        let mut reader = pinned.session(session, node);
        let writing = Arc::clone(&writing);
        threads.push(std::thread::spawn(move || {
            let mut i = 0;
            while writing.load(Ordering::SeqCst) != 0 {
                reader.get(keys[i % keys.len()]).expect("get");
                i += 1;
            }
        }));
    }
    for thread in threads {
        thread.join().expect("session thread");
    }
    pinned.finish();
}

/// `Credit` frames each node has sent so far: (stand-alone, piggybacked).
fn credit_frames(rack: &Rack) -> Vec<(u64, u64)> {
    (0..rack.nodes())
        .map(|n| {
            let snap = rack.server(n).metrics().snapshot();
            (
                snap.credit_frames_standalone,
                snap.credit_frames_piggybacked,
            )
        })
        .collect()
}

/// Waits until no node has sent a `Credit` frame for three return ticks —
/// every debt that was going to be returned has been — and reads the
/// counts.
fn credit_frames_once_quiet(rack: &Rack) -> Vec<(u64, u64)> {
    let mut seen = credit_frames(rack);
    let mut quiet_since = std::time::Instant::now();
    while quiet_since.elapsed() < 3 * CREDIT_RETURN_TICK {
        std::thread::sleep(CREDIT_RETURN_TICK / 4);
        let now = credit_frames(rack);
        if now != seen {
            seen = now;
            quiet_since = std::time::Instant::now();
        }
    }
    seen
}

/// Credits cost no peer messages while traffic flows (§6.4): over 1 000
/// sequential remote-miss GETs and then 1 000 Lin PUTs through node 0 of a
/// quiet one-shard rack, every processed count goes back on a request, an
/// ack or an update that was leaving anyway — stand-alone `Credit` frames
/// stay within one per quarter window of ops plus one tick pass per link.
/// (The parent commit, 89efbcb, with this counter patched into its pump,
/// sent 2 314 – 3 915 of them over the same 2 000 ops, ten runs; this
/// commit sends 2, the idle tail's.) An idle tail returns each owed count
/// exactly once — after one more PUT, the two sharers that processed its
/// update and had nothing left to say — and then the mesh is silent
/// (three ticks without a `Credit` frame end each count).
#[test]
fn credits_ride_traffic_that_is_leaving_anyway() {
    const OPS_PER_KIND: u64 = 1_000;
    let _alone = THREAD_CENSUS.write().unwrap_or_else(|e| e.into_inner());
    let mut pinned = PinnedRack::launch(1);
    let standalone = |counts: &[(u64, u64)]| counts.iter().map(|c| c.0).sum::<u64>();
    let before = credit_frames_once_quiet(&pinned.rack);
    pinned.remote_misses(OPS_PER_KIND);
    pinned.lin_puts(OPS_PER_KIND);
    let after = credit_frames_once_quiet(&pinned.rack);
    let nodes = pinned.rack.nodes() as u64;
    let threshold = FlowConfig::default().credit_window / CREDIT_RETURN_DIVISOR;
    let allowed = OPS_PER_KIND / threshold + nodes * (nodes - 1);
    let sent = standalone(&after) - standalone(&before);
    assert!(
        sent <= allowed,
        "{sent} stand-alone credits over {} ops, {allowed} allowed",
        2 * OPS_PER_KIND
    );
    let rode: u64 = after.iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
    assert!(
        rode >= 2 * OPS_PER_KIND,
        "only {rode} credits rode a batch over {} ops",
        2 * OPS_PER_KIND
    );

    pinned.lin_puts(1);
    let tail = credit_frames_once_quiet(&pinned.rack);
    let owed: Vec<u64> = tail.iter().zip(&after).map(|(t, a)| t.0 - a.0).collect();
    assert_eq!(owed, [0, 1, 1], "stand-alone credits after one last PUT");
    pinned.finish();
}

/// Holding connections open costs the reactor neither threads nor laps:
/// the same 2 000-op stream through one session runs the same number of
/// laps per op whether 64 or 4 096 other sessions sit connected and
/// silent on the rack, on the same threads. (The throughput ratio this
/// replaces compared wall clocks; a lap only happens when something woke
/// the shard, so counting them asks the question directly.)
#[test]
fn idle_connections_cost_no_laps() {
    const OPS: u64 = 2_000;
    const FEW: usize = 64;
    const MANY: usize = 4_096;
    let _alone = THREAD_CENSUS.write().unwrap_or_else(|e| e.into_inner());
    let wanted = 2 * MANY as u64 + 1024;
    let limit = reactor::raise_nofile_limit(wanted).expect("query fd limit");
    // A hard-capped environment holds what physically fits.
    let many = if limit >= wanted {
        MANY
    } else {
        ((limit.saturating_sub(1024)) / 2) as usize
    };
    assert!(many >= 8 * FEW, "fd limit {limit} leaves no contrast");

    let mut cfg = RackConfig::small(ConsistencyModel::Lin, 3);
    cfg.metrics = false;
    cfg.reactor = ReactorConfig { shards: 2 };
    let rack = Rack::launch(cfg).expect("launch rack");
    let dataset = Dataset::new(1_000, 40);
    rack.install_hot_set(&dataset.hot_entries(64))
        .expect("install hot set");
    let addrs = rack.client_addrs();
    let stream = WorkloadGen::new(
        &dataset,
        AccessDistribution::Zipfian { exponent: 0.99 },
        Mix::with_write_ratio(0.2),
        0x1D7E,
    );
    let history = Arc::new(SharedHistory::new());
    // The live session connects first and serves both passes: which shard
    // a connection lands on decides how many of its wakes cross shards,
    // and that must not differ between the passes.
    let mut client = Client::builder(&addrs)
        .session(1)
        .policy(LoadBalancePolicy::RoundRobin)
        .history(Arc::clone(&history))
        .connect()
        .expect("connect live");
    let mut idle: Vec<Client> = Vec::new();

    // Tops the idle pool up to `held` sessions (each answered one ping, so
    // its hello is behind it), then runs the stream through the live
    // session: laps the rack ran per op, and the rack's threads by name.
    // `pass` keeps the two passes' written values apart for the checker.
    let mut measure = |held: usize, pass: u32| -> (f64, Vec<String>) {
        while idle.len() < held {
            let i = idle.len();
            let mut client = Client::connect(
                &[addrs[i % addrs.len()]],
                10_000 + i as u32,
                LoadBalancePolicy::Pinned(0),
            )
            .expect("connect idle");
            assert_eq!(client.ping_all(), 1, "idle session's ping");
            idle.push(client);
        }
        let mut gen = stream.clone();
        let before = rack_laps(&rack);
        for _ in 0..OPS {
            let op = gen.next_op();
            match op.kind {
                OpKind::Get => {
                    client.get(op.key.0).expect("get");
                }
                OpKind::Put => {
                    client
                        .put(op.key.0, &op.value_bytes(pass, 40))
                        .expect("put");
                }
            }
        }
        let per_op = (rack_laps(&rack) - before) as f64 / OPS as f64;
        (per_op, node_threads())
    };
    let (laps_few, threads_few) = measure(FEW, 1);
    let (laps_many, threads_many) = measure(many, 2);
    let open: u64 = (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().conns_open)
        .sum();
    assert!(open >= many as u64, "{open} connections open, held {many}");

    assert_eq!(
        threads_many, threads_few,
        "thread count moved with {FEW} -> {many} held connections"
    );
    // The second pass runs about 3 % more laps whatever is held beside it
    // (64 then 64 reads 3.20 then 3.30, as 64 then 4 096 does).
    let (lo, hi) = (laps_few.min(laps_many), laps_few.max(laps_many));
    assert!(
        hi <= 1.1 * lo,
        "{laps_few:.2} laps per op beside {FEW} idle connections, \
         {laps_many:.2} beside {many}"
    );
    history
        .snapshot()
        .check_per_key_lin()
        .expect("per-key Lin holds beside thousands of idle connections");
    drop(idle);
    rack.shutdown();
}

/// One node of a two-node Lin deployment, one shard, no metrics endpoint.
fn lone_node(node: usize) -> NodeServerConfig {
    NodeServerConfig {
        metrics_listen: None,
        reactor: ReactorConfig { shards: 1 },
        rpc_retry: HALF_CLOSED_RPC_RETRY,
        ..NodeServerConfig::loopback(NodeConfig::small(ConsistencyModel::Lin, node, 2))
    }
}

/// How long a miss RPC to a stopped home stays suspended below.
const HALF_CLOSED_RPC_RETRY: Duration = Duration::from_millis(300);

/// A connection the shard is not reading wakes nobody once its client
/// half-closes. Two such connections: one parked on a node whose mesh never
/// comes up, one suspended on a miss RPC to a home that stopped. Both
/// clients send their request and shut their write side; from then until
/// the suspended read is answered — one wheel fire, the pending-RPC
/// deadline — the two shards run a handful of laps. A shard that kept read
/// interest on a socket at end-of-file would be woken by it every lap for
/// the whole budget.
#[test]
fn half_closed_connections_the_shard_is_not_reading_cost_no_laps() {
    let _shared = THREAD_CENSUS.read().unwrap_or_else(|e| e.into_inner());
    let unwired = NodeServer::start(lone_node(1)).expect("start unwired node");
    let mut a = NodeServer::start(lone_node(0)).expect("start A");
    let mut b = NodeServer::start(lone_node(1)).expect("start B");
    let addrs = [a.addr(), b.addr()];
    for server in [&mut a, &mut b] {
        server
            .connect_peers(&addrs, Duration::from_secs(5))
            .expect("wire");
    }
    let key = (0u64..)
        .find(|&k| a.node().home_node(k) == 1)
        .expect("a key homed at B");
    b.shutdown();

    let laps = || {
        [&unwired, &a]
            .map(|server| server.metrics().snapshot().loop_lap_count)
            .iter()
            .sum::<u64>()
    };
    let half_closed = |addr, request: &Frame| {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write_frame(&mut conn, &Frame::ClientHello).expect("hello");
        write_frame(&mut conn, request).expect("request");
        conn.shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        conn
    };
    let before = laps();
    let _parked = half_closed(unwired.addr(), &Frame::Ping);
    let mut suspended = half_closed(addrs[0], &Frame::Get { key });
    suspended
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let answer = read_frame(&mut suspended).expect("answered");
    assert!(matches!(answer, Some(Frame::Error { .. })), "{answer:?}");
    let ran = laps() - before;
    println!("half-closed: {ran} laps while one read was suspended for {HALF_CLOSED_RPC_RETRY:?}");
    assert!(ran <= 20, "{ran} laps");
    a.shutdown();
    unwired.shutdown();
}
