//! End-to-end consistency of the networked rack.
//!
//! Boots real 3-node racks on loopback (TCP by default; set
//! `CCKVS_TRANSPORT=udp` to run the identical matrix over the recovering
//! datagram transport), drives mixed Zipfian workloads
//! through the load-balanced [`Client`], and feeds the observed operation
//! history to the consistency checkers: per-key SC must hold under both
//! models, per-key Lin additionally under Lin — exactly the guarantees the
//! model checker validates in-process, now across sockets.

use cckvs_net::client::{BatchConfig, BatchOutcome, SharedHistory};
use cckvs_net::metrics::Metrics;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::server::FlowConfig;
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{AccessDistribution, Dataset, Mix, OpKind, WorkloadGen};

const SESSIONS: u32 = 4;
const OPS_PER_SESSION: u64 = 2_000;
const HOT_KEYS: u64 = 128;

fn run_rack(
    model: ConsistencyModel,
) -> (cckvs_net::MetricsSnapshot, consistency::history::History) {
    let rack = Rack::launch(RackConfig::small_from_env(model, 3)).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    let hot: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS)
        .map(|rank| (dataset.key_of_rank(rank).0, vec![0u8; 40]))
        .collect();
    rack.install_hot_set(&hot).expect("install hot set");

    let history = Arc::new(SharedHistory::new());
    let metrics = Arc::new(Metrics::new());
    let addrs = rack.client_addrs();
    let base = rack.client();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let addrs = addrs.clone();
            let base = base.clone();
            let history = Arc::clone(&history);
            let metrics = Arc::clone(&metrics);
            let mut gen = WorkloadGen::new(
                &dataset,
                AccessDistribution::Zipfian { exponent: 0.99 },
                Mix::with_write_ratio(0.05),
                7 ^ u64::from(session),
            );
            std::thread::spawn(move || {
                // SC sessions stay sticky to one replica; Lin sessions
                // spread across nodes (see the client module docs).
                let policy = match model {
                    ConsistencyModel::Sc => {
                        LoadBalancePolicy::Pinned(session as usize % addrs.len())
                    }
                    ConsistencyModel::Lin => LoadBalancePolicy::RoundRobin,
                };
                let mut client = base
                    .session(session)
                    .policy(policy)
                    .history(history)
                    .metrics(metrics)
                    .connect()
                    .expect("connect");
                for _ in 0..OPS_PER_SESSION {
                    let op = gen.next_op();
                    match op.kind {
                        OpKind::Get => {
                            client.get(op.key.0).expect("get");
                        }
                        OpKind::Put => {
                            client
                                .put(op.key.0, &op.value_bytes(session, 40))
                                .expect("put");
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("session thread");
    }
    let snapshot = metrics.snapshot();
    let history = history.snapshot();
    rack.shutdown();
    (snapshot, history)
}

#[test]
fn lin_rack_history_is_per_key_linearizable() {
    let (metrics, history) = run_rack(ConsistencyModel::Lin);
    assert_eq!(
        metrics.gets + metrics.puts,
        u64::from(SESSIONS) * OPS_PER_SESSION
    );
    // Zipf-0.99 with the hottest 128 of 10k keys cached: a large fraction
    // of traffic must hit, and some must miss (cold keys exist).
    assert!(
        metrics.hit_rate() > 0.25,
        "hit rate {:.3} too low",
        metrics.hit_rate()
    );
    assert!(metrics.cache_misses > 0, "workload never left the hot set");
    assert!(history.len() > 1_000, "too few cached-key ops recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated over TCP: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated over TCP: {v}"));
}

#[test]
fn sc_rack_history_is_per_key_sequentially_consistent() {
    let (metrics, history) = run_rack(ConsistencyModel::Sc);
    assert!(history.len() > 1_000, "too few cached-key ops recorded");
    assert!(metrics.hit_rate() > 0.25);
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated over TCP: {v}"));
}

#[test]
fn batched_lin_rack_history_is_per_key_linearizable() {
    // The same Lin rack + Zipf mix as the unbatched test, but every
    // session coalesces requests into wire batches (queue + doorbell
    // flush). Batching must change the framing and nothing else: the
    // recorded history still passes the per-key SC and Lin checkers, and
    // every queued op completes with a response in queue order.
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    rack.install_hot_set(&dataset.hot_entries(HOT_KEYS as usize))
        .expect("install hot set");

    let history = Arc::new(SharedHistory::new());
    let metrics = Arc::new(Metrics::new());
    let base = rack.client();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let base = base.clone();
            let history = Arc::clone(&history);
            let metrics = Arc::clone(&metrics);
            let mut gen = WorkloadGen::new(
                &dataset,
                AccessDistribution::Zipfian { exponent: 0.99 },
                Mix::with_write_ratio(0.05),
                101 ^ u64::from(session),
            );
            std::thread::spawn(move || {
                let mut client = base
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .metrics(metrics)
                    .batching(BatchConfig {
                        max_ops: 8,
                        ..BatchConfig::default()
                    })
                    .connect()
                    .expect("connect");
                let mut queued = 0usize;
                let mut completed = 0usize;
                for _ in 0..OPS_PER_SESSION {
                    let op = gen.next_op();
                    match op.kind {
                        OpKind::Get => client.queue_get(op.key.0).expect("queue get"),
                        OpKind::Put => client
                            .queue_put(op.key.0, &op.value_bytes(session, 40))
                            .expect("queue put"),
                    }
                    queued += 1;
                    // Collect outcomes at an off-boundary cadence so some
                    // flushes are doorbell-driven (full batch) and some
                    // explicit (partial batch).
                    if queued.is_multiple_of(21) {
                        completed += client.flush().expect("flush").len();
                    }
                }
                completed += client.flush().expect("final flush").len();
                assert_eq!(completed, queued, "every queued op completes exactly once");
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("session thread");
    }
    let snapshot = metrics.snapshot();
    let history = history.snapshot();
    rack.shutdown();

    assert_eq!(
        snapshot.gets + snapshot.puts,
        u64::from(SESSIONS) * OPS_PER_SESSION
    );
    assert!(
        snapshot.batches > 0,
        "no coalesced batches left the clients"
    );
    assert!(snapshot.hit_rate() > 0.25);
    assert!(history.len() > 1_000, "too few cached-key ops recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated on the batched path: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated on the batched path: {v}"));
}

#[test]
fn batched_writes_are_durable_and_read_back_in_order() {
    // Zero lost updates on the batched path: a session queues interleaved
    // puts and gets of one hot key and one cold key; outcomes arrive in
    // queue order, the final values are the last writes.
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .batching(BatchConfig {
            max_ops: 4,
            ..BatchConfig::default()
        })
        .connect()
        .expect("connect");
    rack.install_hot_set(&[(7, b"seed0000".to_vec())])
        .expect("install");
    let cold_key = 9_999u64;
    for round in 0..8u64 {
        client
            .queue_put(7, format!("hot-{round:04}").as_bytes())
            .expect("queue hot put");
        client
            .queue_put(cold_key, format!("cold{round:04}").as_bytes())
            .expect("queue cold put");
        client.queue_get(7).expect("queue hot get");
    }
    let outcomes = client.flush().expect("flush");
    assert_eq!(outcomes.len(), 24);
    // Every third outcome is the hot get; it must observe its session's
    // immediately preceding hot put (same batch or an earlier one).
    for (round, chunk) in outcomes.chunks(3).enumerate() {
        assert!(matches!(chunk[0], BatchOutcome::Put { cached: true, .. }));
        assert!(matches!(chunk[1], BatchOutcome::Put { cached: false, .. }));
        let BatchOutcome::Get {
            value,
            cached: true,
        } = &chunk[2]
        else {
            panic!("expected cached get outcome, got {:?}", chunk[2]);
        };
        assert_eq!(value, format!("hot-{round:04}").as_bytes());
    }
    assert_eq!(client.get(7).expect("get"), b"hot-0007");
    assert_eq!(client.get(cold_key).expect("get"), b"cold0007");
    // Mixing the APIs preserves program order: a plain get() must drain
    // the queued-but-unsent put first, not jump past it (regression: it
    // used to bypass the queue and read the stale value).
    client.queue_put(7, b"mixed-up").expect("queue put");
    assert_eq!(client.queued(), 1, "put still queued below the doorbell");
    assert_eq!(client.get(7).expect("get"), b"mixed-up");
    assert_eq!(client.flush().expect("flush").len(), 1);
    rack.shutdown();
}

#[test]
fn deadline_flushes_a_singleton_without_the_doorbell() {
    // A queued op with no batch-mates must leave on the max_delay
    // deadline — not sit corked until the op-count doorbell (which would
    // never fire) or an explicit flush. Generous deadline so the timing
    // assertions hold on a loaded CI box.
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    rack.install_hot_set(&[(7, b"seed".to_vec())])
        .expect("install");
    let max_delay = Duration::from_millis(100);
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .batching(BatchConfig {
            max_ops: 64,
            max_delay: Some(max_delay),
            ..BatchConfig::default()
        })
        .connect()
        .expect("connect");
    let started = Instant::now();
    client.queue_get(7).expect("queue get");
    assert_eq!(
        client.queued(),
        1,
        "a singleton read must cork, not flush eagerly"
    );
    while client.queued() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline flush never fired"
        );
        let due = client.due_in().unwrap_or(Duration::ZERO);
        std::thread::sleep(due.min(Duration::from_millis(5)));
        client.pump().expect("pump");
    }
    let waited = started.elapsed();
    assert!(
        waited >= max_delay,
        "flushed after {waited:?}, before the {max_delay:?} cork deadline"
    );
    assert!(
        waited < max_delay * 2,
        "flushed after {waited:?}, far past the {max_delay:?} cork deadline"
    );
    assert_eq!(client.flush().expect("outcomes").len(), 1);
    // A queued *write* is a synchronization point: it ships immediately
    // (with any corked reads ahead of it) instead of corking a Lin ack
    // wait behind the deadline — the bound that keeps at most one ack
    // wait per wire batch.
    client.queue_put(7, b"deadline").expect("queue put");
    assert_eq!(
        client.queued(),
        0,
        "a queued write must flush its batch at once"
    );
    assert_eq!(client.flush().expect("outcomes").len(), 1);
    assert_eq!(client.get(7).expect("get"), b"deadline");
    rack.shutdown();
}

/// Reactor laps the whole rack has run so far.
fn rack_laps(rack: &Rack) -> u64 {
    (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().loop_lap_count)
        .sum()
}

/// What wire batching is for, in counts instead of a throughput ratio:
/// the same seeded 6 400-op Zipf-0.99 5 %-write stream, once one frame
/// per op and once through 32-op batches, on one Lin rack. Batching must
/// cut the request frames the client sends to at most 1/8 per op, and
/// the reactor laps the rack runs to at most 0.75 of the unbatched figure
/// per op. Measured at the parent commit (d60caf1, four runs; this
/// change leaves the path alone and reads the same): 1/32 of the frames;
/// 2.60 → 0.53 laps per op on TCP (ratio 0.20–0.21), 2.77 → 0.58 on UDP
/// (0.21). With the doorbell forced to one op the batched pass *is* the
/// unbatched one: a frame per op.
#[test]
fn batching_cuts_frames_and_laps_per_op() {
    const OPS: u64 = 6_400;
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    rack.install_hot_set(&dataset.hot_entries(HOT_KEYS as usize))
        .expect("install hot set");
    let stream = WorkloadGen::new(
        &dataset,
        AccessDistribution::Zipfian { exponent: 0.99 },
        Mix::with_write_ratio(0.05),
        0xBA7C,
    );
    let history = Arc::new(SharedHistory::new());

    // One pass of the stream through a fresh session; returns the request
    // frames the client sent and the laps the rack ran, both per op.
    let pass = |session: u32, max_ops: usize| -> (f64, f64) {
        let metrics = Arc::new(Metrics::new());
        let mut client = rack
            .client()
            .session(session)
            .policy(LoadBalancePolicy::RoundRobin)
            .history(Arc::clone(&history))
            .metrics(Arc::clone(&metrics))
            .batching(BatchConfig {
                max_ops,
                ..BatchConfig::default()
            })
            .connect()
            .expect("connect");
        let mut gen = stream.clone();
        let laps_before = rack_laps(&rack);
        for _ in 0..OPS {
            let op = gen.next_op();
            match op.kind {
                OpKind::Get => client.queue_get(op.key.0).expect("queue get"),
                OpKind::Put => client
                    .queue_put(op.key.0, &op.value_bytes(session, 40))
                    .expect("queue put"),
            }
            if client.queued() == 0 {
                client.flush().expect("drain outcomes");
            }
        }
        client.flush().expect("final flush");
        let laps = rack_laps(&rack) - laps_before;
        let snap = metrics.snapshot();
        assert_eq!(snap.gets + snap.puts, OPS);
        // A multi-op flush is one frame; every other op travelled bare.
        let frames = snap.batches + (OPS - snap.batched_ops);
        (frames as f64 / OPS as f64, laps as f64 / OPS as f64)
    };
    let (frames_unbatched, laps_unbatched) = pass(0, 1);
    let (frames_batched, laps_batched) = pass(1, 32);
    rack.shutdown();

    assert_eq!(frames_unbatched, 1.0, "unbatched is one frame per op");
    assert!(
        frames_batched <= frames_unbatched / 8.0,
        "{frames_batched:.3} request frames per op batched"
    );
    assert!(
        laps_batched <= 0.75 * laps_unbatched,
        "{laps_batched:.2} laps per op batched, {laps_unbatched:.2} unbatched"
    );
    let history = history.snapshot();
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated: {v}"));
}

/// Deadline mode treats a write as a synchronisation point: the reads
/// queued ahead of it leave as their own batch and the write follows as a
/// bare frame, so no read ever waits out a write's acks. Counted on the
/// serving side. Every key is cold and homed on the entry node, which
/// keeps the peer mesh silent — its coalesced frames count into the same
/// `batches` counters.
#[test]
fn deadline_mode_sends_writes_alone() {
    const ROUNDS: u64 = 50;
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let node0 = rack.server(0).node();
    let keys: Vec<u64> = (0..1_000u64)
        .filter(|&k| node0.home_node(k) == 0)
        .take(4)
        .collect();
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .batching(BatchConfig {
            max_ops: 32,
            max_delay: Some(Duration::from_secs(1)),
            ..BatchConfig::default()
        })
        .connect()
        .expect("connect");
    // Rack-summed `[batches, batched_ops, gets, puts]`.
    let served = |rack: &Rack| -> [u64; 4] {
        (0..rack.nodes())
            .map(|n| rack.server(n).metrics().snapshot())
            .fold([0; 4], |t, s| {
                [
                    t[0] + s.batches,
                    t[1] + s.batched_ops,
                    t[2] + s.gets,
                    t[3] + s.puts,
                ]
            })
    };
    let before = served(&rack);
    for round in 0..ROUNDS {
        for &key in &keys[..3] {
            client.queue_get(key).expect("queue get");
        }
        client
            .queue_put(keys[3], &round.to_le_bytes())
            .expect("queue put");
        assert_eq!(client.queued(), 0, "the write shipped at once");
    }
    let outcomes = client.flush().expect("outcomes");
    let after = served(&rack);
    let delta: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        delta,
        [ROUNDS, 3 * ROUNDS, 3 * ROUNDS, ROUNDS],
        "[batches, batched ops, gets, puts]: each round is one 3-read batch and one bare PUT"
    );
    assert_eq!(outcomes.len() as u64, 4 * ROUNDS);
    for round in outcomes.chunks(4) {
        assert!(round[..3]
            .iter()
            .all(|o| matches!(o, BatchOutcome::Get { .. })));
        assert!(matches!(round[3], BatchOutcome::Put { .. }));
    }
    assert_eq!(
        client.get(keys[3]).expect("get"),
        (ROUNDS - 1).to_le_bytes()
    );
    rack.shutdown();
}

#[test]
fn tiny_credit_window_stalls_writers_but_loses_nothing() {
    // Squeeze the peer-mesh credit window down to 2 messages so a Lin
    // write burst *must* exhaust it: the writer threads stall and resume
    // off piggybacked credit returns, the protocol stays live (every op
    // completes), the history stays linearizable, and the stalls are
    // visible in the metrics — proof the flow control engages rather than
    // sitting dormant at its default window.
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.flow = FlowConfig { credit_window: 2 };
    let rack = Rack::launch(cfg).expect("launch rack");
    let dataset = Dataset::new(10_000, 40);
    rack.install_hot_set(&dataset.hot_entries(HOT_KEYS as usize))
        .expect("install hot set");

    let history = Arc::new(SharedHistory::new());
    let base = rack.client();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let base = base.clone();
            let history = Arc::clone(&history);
            let mut gen = WorkloadGen::new(
                &dataset,
                AccessDistribution::Zipfian { exponent: 0.99 },
                // Write-heavy: every cached write costs an invalidation
                // round plus an update broadcast through the throttled
                // mesh.
                Mix::with_write_ratio(0.5),
                55 ^ u64::from(session),
            );
            std::thread::spawn(move || {
                let mut client = base
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .connect()
                    .expect("connect");
                for _ in 0..OPS_PER_SESSION / 2 {
                    let op = gen.next_op();
                    match op.kind {
                        OpKind::Get => {
                            client.get(op.key.0).expect("get");
                        }
                        OpKind::Put => {
                            client
                                .put(op.key.0, &op.value_bytes(session, 40))
                                .expect("put");
                        }
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("session thread");
    }
    let history = history.snapshot();
    let stalls: u64 = (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().credit_stalls)
        .sum();
    rack.shutdown();

    assert!(
        stalls > 0,
        "a 2-message window under a write-heavy Lin mix never stalled — \
         flow control is not engaging"
    );
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated under credit pressure: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated under credit pressure: {v}"));
}

#[test]
fn rack_serves_cold_keys_through_remote_home_shards() {
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    // Nothing is cached: every op takes the miss path, usually remotely.
    for key in 0..60u64 {
        assert!(client.put(key, &key.to_le_bytes()).expect("put").is_none());
    }
    for key in 0..60u64 {
        assert_eq!(client.get(key).expect("get"), key.to_le_bytes());
    }
    // With 3 nodes and round-robin clients, ~2/3 of misses are remote.
    let remote: u64 = (0..rack.nodes())
        .map(|n| {
            let snap = rack.server(n).metrics().snapshot();
            snap.remote_reads + snap.remote_writes
        })
        .sum();
    assert!(remote > 0, "no miss-path RPCs observed");
    rack.shutdown();
}

#[test]
fn cold_key_overwrites_win_regardless_of_entry_node() {
    // Regression: miss-path writes used to carry the *sender's* tag
    // counter to the home shard's put_if_newer; a write entering through a
    // node with a lower counter was silently discarded. Versions are now
    // assigned by the home shard on arrival, so the last write always
    // wins no matter which node served it.
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let mut via_node0 = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .connect()
        .expect("connect");
    let mut via_node1 = rack
        .client()
        .session(1)
        .policy(LoadBalancePolicy::Pinned(1))
        .connect()
        .expect("connect");
    // Pump node 0's counters far ahead of node 1's.
    for key in 10_000..10_050u64 {
        via_node0.put(key, b"filler").expect("put");
    }
    via_node0.put(77, b"first").expect("put");
    via_node1.put(77, b"second").expect("put");
    for client in [&mut via_node0, &mut via_node1] {
        assert_eq!(client.get(77).expect("get"), b"second");
    }
    rack.shutdown();
}

#[test]
fn install_that_dies_midway_leaves_no_node_holding_the_key() {
    // Regression: only a *refused* install rolled the key back off the
    // nodes that had already taken it; a node that died (or answered
    // garbage) midway returned early and left the key cached on the nodes
    // before it — asymmetric caches, the one state the admin path must
    // never leave behind.
    use cckvs_net::wire::{read_frame, Frame};
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 2)).expect("launch rack");
    let transport = rack.transport().build();
    // A third "node" that takes the hello, reads its first InstallHot and
    // hangs up without answering.
    let mut listener = transport
        .listen("127.0.0.1:0".parse().expect("static addr"))
        .expect("listen");
    let stub_addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conn = loop {
            if let Some(conn) = listener.accept().expect("accept") {
                break conn;
            }
            assert!(Instant::now() < deadline, "nobody dialed the stub");
            std::thread::sleep(Duration::from_millis(1));
        };
        conn.set_nonblocking(false).expect("blocking stub");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let hello = read_frame(&mut conn).expect("hello");
        assert_eq!(hello, Some(Frame::ClientHello));
        let first = read_frame(&mut conn).expect("first request");
        assert!(matches!(first, Some(Frame::InstallHot { key: 7, .. })));
    });
    let mut addrs = rack.client_addrs();
    addrs.push(stub_addr);
    let result = cckvs_net::install_hot_set_via(&*transport, &addrs, &[(7, b"hot".to_vec())]);
    stub.join().expect("stub thread");
    assert!(result.is_err(), "the dead third node must fail the install");
    for n in 0..rack.nodes() {
        assert!(
            !rack.server(n).node().cache().keys().contains(&7),
            "node {n} still caches key 7 after the failed install"
        );
    }
    // The key is plain cold again: a Lin put completes through its home.
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    assert!(
        client.put(7, b"cold").expect("put").is_none(),
        "served cold"
    );
    assert_eq!(client.get(7).expect("get"), b"cold");
    rack.shutdown();
}

#[test]
fn metrics_endpoints_are_scrapable_while_serving() {
    use std::io::{Read, Write};
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Sc, 2)).expect("launch rack");
    rack.install_hot_set(&[(1, b"x".to_vec())])
        .expect("install");
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .connect()
        .expect("connect");
    client.get(1).expect("get");
    let metrics_addr = rack.metrics_addrs()[0].expect("metrics enabled");
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("response");
    assert!(
        body.contains("cckvs_cache_hits_total{node=\"n0\"} 1"),
        "unexpected body:\n{body}"
    );
    rack.shutdown();
}
