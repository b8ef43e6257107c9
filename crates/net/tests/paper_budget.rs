//! The paper's claims, as counts on the rack.
//!
//! The evaluation rests on three mechanisms, and each is a count the
//! running rack keeps (`MetricsSnapshot`), so it is checked here against
//! its equation instead of against a model of the rack:
//!
//! * a write costs 3(N − 1) protocol messages under per-key Lin
//!   (invalidations, acks, updates) and N − 1 under per-key SC (updates;
//!   figs. 10, 11);
//! * a cache miss goes to a remote home with share (N − 1)/N, so the
//!   remote-miss share per op is (1 − h)(N − 1)/N (§8.7, Equation 1);
//! * symmetric caches flatten skew: the requests each node serves, as
//!   max ÷ mean, follow `workload::normalized_server_load` with the hot set
//!   served wherever it lands and without it (figs. 1, 8), and the hit rate
//!   follows `symcache::expected_hit_rate` (fig. 3).
//!
//! Every test boots an in-process `Rack`, drives seeded keys through it
//! and reads no clock. Each count is printed as `paper_budget <name>
//! <value>` beside its model before anything is asserted, so a run
//! against another commit reports its numbers too.

use cckvs_net::{LoadBalancePolicy, MetricsSnapshot, Rack, RackConfig, ReactorConfig};
use consistency::messages::ConsistencyModel;
use std::thread;
use std::time::Duration;
use symcache::expected_hit_rate;
use workload::{
    normalized_server_load, AccessDistribution, Dataset, Mix, OpKind, ShardMap, WorkloadGen,
};

/// The paper's operating point, as rackbench runs it: Zipf 0.99 over
/// 200 000 keys with the 2 048 hottest cached, a hit rate of ≈ 65 %.
const KEYS: u64 = 200_000;
const HOT_KEYS: usize = 2_048;
const ZIPF: f64 = 0.99;
const VALUE_BYTES: usize = 40;
/// Share of the skewed stream's ops that are writes.
const WRITE_SHARE: f64 = 0.05;
/// Ops in the skewed stream each node's session replays.
const STREAM_OPS: u64 = 4_000;
/// Writes per protocol-count run.
const WRITES: u64 = 300;

/// Counts beside their models: each is printed as it is taken, and all
/// are checked only once every one has been printed.
#[derive(Default)]
struct Budget(Vec<(String, f64, f64, f64)>);

impl Budget {
    /// Prints `name` and `name_model` and keeps them to check that they
    /// differ by at most `tolerance`.
    fn count(&mut self, name: String, measured: f64, model: f64, tolerance: f64) {
        println!("paper_budget {name} {measured:.4}");
        println!("paper_budget {name}_model {model:.4}");
        self.0.push((name, measured, model, tolerance));
    }

    fn check(self) {
        for (name, measured, model, tolerance) in self.0 {
            assert!(
                (measured - model).abs() <= tolerance,
                "{name}: {measured} against the model's {model}, tolerance {tolerance}"
            );
        }
    }
}

fn rack(model: ConsistencyModel, nodes: usize) -> Rack {
    let mut cfg = RackConfig::small_from_env(model, nodes);
    cfg.metrics = false;
    cfg.reactor = ReactorConfig { shards: 1 };
    cfg.cache_capacity = HOT_KEYS;
    cfg.kvs_capacity = 16 * 1024;
    Rack::launch(cfg).expect("launch rack")
}

/// What every node counted between two snapshots.
fn deltas(before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> Vec<MetricsSnapshot> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| MetricsSnapshot {
            gets: a.gets - b.gets,
            puts: a.puts - b.puts,
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            remote_reads: a.remote_reads - b.remote_reads,
            remote_writes: a.remote_writes - b.remote_writes,
            protocol_in: a.protocol_in - b.protocol_in,
            protocol_out: a.protocol_out - b.protocol_out,
            ..MetricsSnapshot::default()
        })
        .collect()
}

/// One counter summed over the rack.
fn total(snaps: &[MetricsSnapshot], field: fn(&MetricsSnapshot) -> u64) -> u64 {
    snaps.iter().map(field).sum()
}

fn snapshots(rack: &Rack) -> Vec<MetricsSnapshot> {
    (0..rack.nodes())
        .map(|node| rack.server(node).metrics().snapshot())
        .collect()
}

/// The rack's counts once every protocol message sent has been received:
/// a write answers its client at its commit, and its updates may still be
/// on the wire then.
fn settled(rack: &Rack) -> Vec<MetricsSnapshot> {
    for _ in 0..5_000 {
        let snaps = snapshots(rack);
        if total(&snaps, |s| s.protocol_in) == total(&snaps, |s| s.protocol_out) {
            return snaps;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("protocol messages sent were never all received");
}

/// Protocol messages sent and received per write, summed over the rack,
/// for `WRITES` puts to hot keys issued round-robin from every node.
fn protocol_msgs_per_write(model: ConsistencyModel, nodes: usize) -> (f64, f64) {
    let rack = rack(model, nodes);
    let hot: Vec<u64> = (1..=8).collect();
    let entries: Vec<_> = hot.iter().map(|key| (*key, vec![0; VALUE_BYTES])).collect();
    rack.install_hot_set(&entries).expect("install");
    let mut client = (rack.client())
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    let before = settled(&rack);
    for (i, key) in (0..WRITES).zip(hot.iter().cycle()) {
        client.put(*key, &i.to_le_bytes()).expect("hot put");
    }
    drop(client);
    let spent = deltas(&before, &settled(&rack));
    rack.shutdown();
    let per_write = |field| total(&spent, field) as f64 / WRITES as f64;
    (per_write(|s| s.protocol_out), per_write(|s| s.protocol_in))
}

#[test]
fn a_write_costs_three_rounds_under_lin_and_one_under_sc() {
    let mut budget = Budget::default();
    for nodes in [3, 5] {
        for (model, rounds) in [(ConsistencyModel::Lin, 3), (ConsistencyModel::Sc, 1)] {
            let (out, into) = protocol_msgs_per_write(model, nodes);
            let model_msgs = (rounds * (nodes - 1)) as f64;
            let name = format!("{model:?}_n{nodes}").to_lowercase();
            // Tolerance 0: every write is one round per peer and nothing
            // else in these runs sends a protocol message.
            budget.count(
                format!("{name}_protocol_out_per_write"),
                out,
                model_msgs,
                0.0,
            );
            budget.count(
                format!("{name}_protocol_in_per_write"),
                into,
                model_msgs,
                0.0,
            );
        }
    }
    budget.check();
}

/// One skewed run: a rack of `nodes` nodes, with the `hot` hottest keys
/// installed, and one session pinned to each node replaying the same
/// seeded Zipf stream. Returns each node's counts over the stream.
fn skewed_run(nodes: usize, hot: usize) -> Vec<MetricsSnapshot> {
    let rack = rack(ConsistencyModel::Lin, nodes);
    let dataset = Dataset::new(KEYS, VALUE_BYTES);
    if hot > 0 {
        rack.install_hot_set(&dataset.hot_entries(hot))
            .expect("install hot set");
    }
    let zipf = AccessDistribution::Zipfian { exponent: ZIPF };
    let stream = WorkloadGen::new(&dataset, zipf, Mix::with_write_ratio(WRITE_SHARE), 7)
        .batch(STREAM_OPS as usize);
    let before = snapshots(&rack);
    thread::scope(|scope| {
        for node in 0..nodes {
            let mut client = (rack.client())
                .session(node as u32)
                .policy(LoadBalancePolicy::Pinned(node))
                .connect()
                .expect("connect");
            let stream = &stream;
            scope.spawn(move || {
                for op in stream {
                    match op.kind {
                        OpKind::Get => drop(client.get(op.key.0).expect("get")),
                        OpKind::Put => drop(client.put(op.key.0, &[1; 8]).expect("put")),
                    }
                }
            });
        }
    });
    let spent = deltas(&before, &snapshots(&rack));
    rack.shutdown();
    spent
}

/// The requests each node serves itself: its cache hits, and every miss
/// homed on it. A node runs its own local misses (`cache_misses` less
/// what it forwarded), and, because every node replays the same stream,
/// each of the other N − 1 nodes forwards it exactly as many.
fn served_per_node(spent: &[MetricsSnapshot]) -> Vec<f64> {
    let nodes = spent.len() as u64;
    (spent.iter())
        .map(|s| {
            let local_misses = s.cache_misses - s.remote_reads - s.remote_writes;
            (s.cache_hits + nodes * local_misses) as f64
        })
        .collect()
}

fn max_over_mean(load: &[f64]) -> f64 {
    let mean = load.iter().sum::<f64>() / load.len() as f64;
    load.iter().copied().fold(0.0, f64::max) / mean
}

#[test]
fn symmetric_caches_flatten_the_skew_and_misses_go_remote_at_the_model_share() {
    const NODES: usize = 5;
    let dataset = Dataset::new(KEYS, VALUE_BYTES);
    let shards = ShardMap::new(NODES, 1);
    let mut budget = Budget::default();
    let mut runs = Vec::new();
    for hot in [0, HOT_KEYS] {
        let spent = skewed_run(NODES, hot);
        let ops = total(&spent, |s| s.gets + s.puts) as f64;
        let hit_rate = total(&spent, |s| s.cache_hits) as f64 / ops;
        let remote_share = total(&spent, |s| s.remote_reads + s.remote_writes) as f64 / ops;
        let served = max_over_mean(&served_per_node(&spent));
        let name = format!("hot{hot}_n{NODES}");
        // Tolerance 0.03: four standard errors of a hit rate near 0.65
        // sampled over the stream's 4 000 ops.
        let hit_model = expected_hit_rate(KEYS, hot as u64, ZIPF);
        budget.count(format!("{name}_hit_rate"), hit_rate, hit_model, 0.03);
        // Tolerance 0 up to rounding: with one stream on every node, a miss
        // goes remote exactly when the node it reached is not its home.
        let remote_model = (1.0 - hit_rate) * (NODES - 1) as f64 / NODES as f64;
        budget.count(
            format!("{name}_remote_miss_share"),
            remote_share,
            remote_model,
            1e-9,
        );
        // Tolerance 0.1: three standard errors of the busiest node's share
        // of the stream's misses (5 · √(0.25 · 0.75 / 4 000) ≈ 0.034).
        let served_model =
            normalized_server_load(&dataset, &shards, ZIPF, hot as u64, KEYS).max_load();
        budget.count(
            format!("{name}_served_max_over_mean"),
            served,
            served_model,
            0.1,
        );
        runs.push((name, spent));
    }
    // Every op reached one node and was counted there once.
    for (name, spent) in runs {
        for node in spent {
            assert_eq!(node.gets + node.puts, STREAM_OPS, "{name}: ops per node");
            assert_eq!(node.cache_hits + node.cache_misses, STREAM_OPS);
        }
    }
    budget.check();
}
