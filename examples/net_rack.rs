//! A real networked ccKVS rack on loopback TCP.
//!
//! Boots a 3-node rack (real sockets, full peer mesh, per-key Lin),
//! installs the coordinator's hot set, serves 100k operations of the
//! paper's headline skewed workload (Zipf 0.99, 5% writes) from four
//! load-balanced client sessions, then:
//!
//! * reports throughput, cache hit rate and latency percentiles from the
//!   metrics registry,
//! * scrapes one node's plain-text HTTP metrics endpoint, and
//! * feeds the observed operation history to the per-key linearizability
//!   checker.
//!
//! Run with: `cargo run --release --example net_rack`

use scale_out_ccnuma::prelude::*;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use cckvs_net::client::SharedHistory;
use cckvs_net::metrics::Metrics;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::LoadBalancePolicy;

const NODES: usize = 3;
const SESSIONS: u32 = 4;
const TOTAL_OPS: u64 = 100_000;
const HOT_KEYS: u64 = 256;
const DATASET_KEYS: u64 = 100_000;
const VALUE_SIZE: usize = 40;

fn main() {
    println!("=== ccKVS networked rack (per-key Lin over loopback TCP) ===\n");

    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, NODES);
    cfg.cache_capacity = HOT_KEYS as usize;
    let rack = Rack::launch(cfg).expect("launch rack");
    println!(
        "rack up: {} nodes at {:?}",
        rack.nodes(),
        rack.client_addrs()
    );

    // The epoch coordinator's hot set: the globally hottest ranks (§4).
    let dataset = Dataset::new(DATASET_KEYS, VALUE_SIZE);
    let hot: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS)
        .map(|rank| (dataset.key_of_rank(rank).0, vec![0u8; VALUE_SIZE]))
        .collect();
    rack.install_hot_set(&hot).expect("install hot set");
    let expected = expected_hit_rate(DATASET_KEYS, HOT_KEYS, 0.99);
    println!(
        "installed {HOT_KEYS} hot keys (analytic hit rate {:.1}%)\n",
        expected * 100.0
    );

    let history = Arc::new(SharedHistory::new());
    let metrics = Arc::new(Metrics::new());
    let base = rack.client();
    let started = Instant::now();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let base = base.clone();
            let history = Arc::clone(&history);
            let metrics = Arc::clone(&metrics);
            let mut gen = WorkloadGen::new(
                &dataset,
                AccessDistribution::Zipfian { exponent: 0.99 },
                Mix::with_write_ratio(0.05),
                42 ^ u64::from(session),
            );
            std::thread::spawn(move || {
                let mut client = base
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .metrics(metrics)
                    .connect()
                    .expect("connect");
                for _ in 0..TOTAL_OPS / u64::from(SESSIONS) {
                    let op = gen.next_op();
                    match op.kind {
                        OpKind::Get => {
                            client.get(op.key.0).expect("get");
                        }
                        OpKind::Put => {
                            client
                                .put(op.key.0, &op.value_bytes(session, VALUE_SIZE))
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
    let elapsed = started.elapsed();

    let snap = metrics.snapshot();
    let total = snap.gets + snap.puts;
    println!(
        "served {total} ops in {:.3}s  ({:.0} ops/s across {SESSIONS} sessions)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "  gets {} | puts {} ({:.1}% writes)",
        snap.gets,
        snap.puts,
        snap.puts as f64 / total as f64 * 100.0
    );
    println!(
        "  cache hit rate {:.2}% (analytic {:.2}%)",
        snap.hit_rate() * 100.0,
        expected * 100.0
    );
    println!(
        "  latency p50 {:.1}µs | p99 {:.1}µs | mean {:.1}µs",
        snap.latency_p50_ns as f64 / 1_000.0,
        snap.latency_p99_ns as f64 / 1_000.0,
        snap.latency_mean_ns / 1_000.0
    );

    // No fault plan, no loss: acks must beat their datagrams' retransmission
    // timers (all zeros on TCP). Zero is the normal reading; a host that
    // freezes the process past the 20 ms timer shows one burst of a few
    // dozen, while an ack policy that starved senders would show one
    // retransmission per handful of datagrams.
    // Each node counts its own transport's datagrams; the rack's census
    // is their sum (client-side datagrams are the sessions' own). One
    // layer up the same bookkeeping question has the same answer: peer-link
    // credits ride batches that were leaving anyway.
    let mut census = [0u64; 4];
    let (mut credits_rode, mut credits_alone) = (0u64, 0u64);
    // And one layer down, on TCP: a reply leaves on the connection its
    // request came in on, so the kernel's ACK rides it too (counts as of
    // each shard's last look, at most a second old; zeros on UDP).
    let (mut segments, mut pure_acks) = (0u64, 0u64);
    for node in 0..rack.nodes() {
        let snap = rack.server(node).metrics().snapshot();
        for (total, (_, count)) in census.iter_mut().zip(snap.udp_datagrams) {
            *total += count;
        }
        credits_rode += snap.credit_frames_piggybacked;
        credits_alone += snap.credit_frames_standalone;
        for (data, ack) in snap.peer_tcp_segments.values() {
            segments += data;
            pure_acks += ack;
        }
    }
    println!("  peer credits (nodes): {credits_rode} piggybacked | {credits_alone} stand-alone");
    println!("  peer tcp segments (nodes): {segments} data | {pure_acks} pure ACKs");
    let [data, acks, piggybacked, retransmits] = census;
    println!(
        "  udp datagrams (nodes): {data} data | {acks} stand-alone acks | {piggybacked} acks piggybacked | {retransmits} retransmits"
    );
    assert!(
        retransmits * 1_000 <= data,
        "UDP senders retransmit on a clean link: acks are arriving late"
    );

    // Scrape one node's metrics endpoint, as a Prometheus scraper would.
    if let Some(addr) = rack.metrics_addrs()[0] {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let interesting: Vec<&str> = response
            .lines()
            .filter(|l| l.starts_with("cckvs_") && !l.contains("latency"))
            .collect();
        println!("\nnode 0 metrics endpoint (http://{addr}/metrics):");
        for line in interesting {
            println!("  {line}");
        }
    }

    // Per-key linearizability of the observed history (§5.1).
    let history = history.snapshot();
    println!(
        "\nchecking {} cached-key operations against per-key Lin...",
        history.len()
    );
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated: {v}"));
    println!("per-key SC: OK\nper-key Lin: OK");

    rack.shutdown();
    println!("\nrack shut down cleanly");
}
