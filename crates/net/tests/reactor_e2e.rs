//! Connection-scaling end-to-end tests of the epoll reactor: a 3-node
//! rack must serve thousands of concurrent client connections per node
//! with a thread count that depends on the reactor topology, never on the
//! connection count — while the per-key Lin guarantee holds and teardown
//! stays clean. The last three tests pin the lap itself: work a shard
//! produces for itself leaves in the lap that produced it, and a
//! connection that says nothing costs no laps.
//!
//! Both ends of every connection live in this test process, so the
//! 5k-connections-per-node target costs ~10k fds here (the soft limit is
//! raised toward what the run needs; the assertion scales down only if
//! the hard limit genuinely cannot cover it).

use cckvs_net::client::{BatchConfig, Client, SharedHistory};
use cckvs_net::metrics::Metrics;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::server::ReactorConfig;
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::sync::{Arc, RwLock};
use workload::{AccessDistribution, Dataset, Mix, OpKind, WorkloadGen};

/// The process's thread count is shared by every test of this binary, and
/// every one of them starts a rack: the tests that assert on the count
/// hold this exclusively, the others share it.
static THREAD_CENSUS: RwLock<()> = RwLock::new(());

/// Threads currently in this process, from /proc/self/status.
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .expect("/proc/self/status has a Threads line on Linux")
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

    let threads_before = process_threads();
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
                let threads_at_peak = process_threads();
                for client in &mut clients {
                    client.flush().expect("final flush");
                }
                threads_at_peak
            })
        })
        .collect();
    let mut threads_at_peak = 0u64;
    for handle in handles {
        threads_at_peak = threads_at_peak.max(handle.join().expect("driver thread"));
    }

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
    // O(reactor shards) threads, not O(connections): beyond the driver
    // threads this test spawned itself, holding `conns` connections adds
    // NO server threads over the rack's fixed topology.
    let driver_threads = DRIVERS as u64;
    assert!(
        threads_at_peak <= threads_before + driver_threads,
        "thread count grew with connections: {threads_before} before, \
         {threads_at_peak} at peak with {conns} connections ({driver_threads} drivers)"
    );

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

/// 1 000 Lin PUTs on hot keys, then 1 000 GETs of cold keys homed on
/// another node, from one session pinned to node 0 of a 3-node TCP rack.
/// Returns the reactor laps the whole rack ran per op; the history must
/// be Lin-clean.
fn laps_per_op_of_lin_puts_and_remote_misses(shards: usize) -> f64 {
    let _shared = THREAD_CENSUS.read().unwrap_or_else(|e| e.into_inner());
    const OPS_PER_KIND: u64 = 1_000;
    let mut cfg = RackConfig::small(ConsistencyModel::Lin, 3);
    cfg.metrics = false;
    cfg.reactor = ReactorConfig { shards };
    let rack = Rack::launch(cfg).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    let hot = dataset.hot_entries(64);
    rack.install_hot_set(&hot).expect("install hot set");
    let node0 = rack.server(0).node();
    let cold: Vec<u64> = (5_000..6_000u64)
        .filter(|&k| node0.home_node(k) != 0 && hot.iter().all(|(h, _)| *h != k))
        .take(50)
        .collect();
    let history = Arc::new(SharedHistory::new());
    let mut client = Client::builder(&rack.client_addrs())
        .session(1)
        .policy(LoadBalancePolicy::Pinned(0))
        .history(Arc::clone(&history))
        .connect()
        .expect("connect");
    for &key in &cold {
        client.put(key, &[7u8; 40]).expect("preload cold key");
    }

    let before = rack_laps(&rack);
    for i in 0..OPS_PER_KIND {
        let (key, _) = hot[i as usize % hot.len()];
        client.put(key, &i.to_le_bytes()).expect("lin put");
    }
    for i in 0..OPS_PER_KIND {
        let got = client.get(cold[i as usize % cold.len()]).expect("miss get");
        assert_eq!(got, [7u8; 40]);
    }
    let per_op = (rack_laps(&rack) - before) as f64 / (2 * OPS_PER_KIND) as f64;
    history
        .snapshot()
        .check_per_key_lin()
        .expect("per-key Lin holds");
    rack.shutdown();
    per_op
}

/// With one shard per node every wake is the shard's own: invalidations,
/// acks, miss RPCs, their responses and the `Resume` continuations all
/// leave in the lap that produced them. When each of those cost an eventfd
/// round and a second lap, this same test measured 9.18 / 9.26 / 9.44 laps
/// per op (three runs at the parent commit, 9ef0e9c, with a lap counter
/// patched into its metrics); it now measures 4.8.
#[test]
fn frames_a_lap_produces_leave_in_that_lap() {
    const PARENT_LAPS_PER_OP: f64 = 9.18;
    let per_op = laps_per_op_of_lin_puts_and_remote_misses(1);
    assert!(
        per_op <= 0.75 * PARENT_LAPS_PER_OP,
        "{per_op:.2} laps per op, the parent ran {PARENT_LAPS_PER_OP}"
    );
}

/// Two shards per node: connections and peer links sit on different
/// threads, so commits and RPC responses cross shards — those wakes must
/// still go through the eventfd, or a writer would hang.
#[test]
fn cross_shard_wakes_still_fire() {
    laps_per_op_of_lin_puts_and_remote_misses(2);
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
    // session: laps the rack ran per op, and the process's threads.
    // `pass` keeps the two passes' written values apart for the checker.
    let mut measure = |held: usize, pass: u32| -> (f64, u64) {
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
        (per_op, process_threads())
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
