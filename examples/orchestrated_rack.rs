//! Orchestration acceptance example (mirrors the CI `orchestration` job):
//! a supervised 3-process rack — real `cckvs-node` OS processes — survives
//! a SIGKILL of one node under live write traffic.
//!
//! ```text
//! cargo build --release -p cckvs-net --bins
//! cargo run --release --example orchestrated_rack
//! ```
//!
//! Per-node stderr logs land in `./orchestration-logs/` (uploaded as CI
//! artifacts when the job fails). The example exits nonzero on any
//! violated assertion.

use cckvs_net::client::{install_hot_set_via, Client, SharedHistory};
use cckvs_net::transport::TcpTransport;
use cckvs_net::LoadBalancePolicy;
use cckvs_orchestrate::{
    sibling_binary, NodeSpec, NodeStatus, RackSpec, Supervisor, SupervisorConfig, Topology,
};
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{KeyId, ShardMap};

const HOT_KEYS: u64 = 64;
const COLD_KEYS: u64 = 2048;
const SESSIONS: u32 = 2;

fn main() {
    let node_bin = sibling_binary("cckvs-node")
        .expect("cckvs-node not found — build it first: cargo build --release -p cckvs-net --bins");
    let ports: Vec<u16> = (0..3)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .expect("probe port")
                .local_addr()
                .expect("addr")
                .port()
        })
        .collect();
    let topology = Topology {
        rack: RackSpec {
            model: "lin".to_string(),
            cache_capacity: Some(256),
            kvs_capacity: Some(8192),
            value_capacity: Some(48),
            peer_timeout_secs: Some(20),
            shards: None,
            transport: None,
        },
        nodes: ports
            .iter()
            .map(|&port| NodeSpec {
                listen: format!("127.0.0.1:{port}").parse().expect("addr"),
                metrics: None,
                epoch_hot_set: None,
            })
            .collect(),
    };
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.backoff_start = Duration::from_millis(100);
    cfg.log_dir = Some("orchestration-logs".into());
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();
    println!("orchestrated_rack: 3 cckvs-node processes serving on {addrs:?}");

    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    // Checker traffic drives the two surviving nodes (a write acknowledged
    // by the dying process in its final instant is unrecoverable with
    // in-memory storage; see the orchestrate crate docs).
    let shards = ShardMap::new(3, cckvs::node::DEFAULT_KVS_THREADS);
    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let ops_done = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let survivors = vec![addrs[1], addrs[2]];
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            let ops_done = Arc::clone(&ops_done);
            std::thread::spawn(move || {
                let mut client = Client::builder(&survivors)
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .connect()
                    .expect("connect");
                let mut last_written: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let candidate = if !seq.is_multiple_of(5) {
                        (seq * u64::from(SESSIONS) + u64::from(session)) % HOT_KEYS
                    } else {
                        HOT_KEYS + (seq * u64::from(SESSIONS) + u64::from(session)) % COLD_KEYS
                    };
                    let writable = candidate < HOT_KEYS || shards.home_node(KeyId(candidate)) != 0;
                    if seq.is_multiple_of(3) && writable {
                        let mut value = Vec::with_capacity(12);
                        value.extend_from_slice(&session.to_le_bytes());
                        value.extend_from_slice(&seq.to_le_bytes());
                        client.put(candidate, &value).expect("put across the crash");
                        last_written.insert(candidate, value);
                    } else {
                        client.get(candidate).expect("get across the crash");
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                }
                last_written
            })
        })
        .collect();

    // A chaos client talks to ALL three nodes (reads fail over; its dead
    // connection to the killed node redials lazily) — the client-side
    // recovery counters the loadgen's --json exposes the same way.
    let chaos_stop = Arc::clone(&stop);
    let chaos_addrs = addrs.clone();
    let chaos = std::thread::spawn(move || {
        let mut client = Client::connect(&chaos_addrs, SESSIONS + 7, LoadBalancePolicy::RoundRobin)
            .expect("connect");
        let mut errors = 0u64;
        let mut seq = 0u64;
        while !chaos_stop.load(Ordering::Relaxed) {
            seq += 1;
            if client.get(seq % HOT_KEYS).is_err() {
                errors += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (client.reconnects(), client.node_errors().to_vec(), errors)
    });

    std::thread::sleep(Duration::from_millis(400));
    let old_pid = supervisor.pid(0).expect("node 0 running");
    println!("orchestrated_rack: SIGKILL node 0 (pid {old_pid}) under live traffic");
    supervisor.kill_node(0).expect("SIGKILL node 0");

    let deadline = Instant::now() + Duration::from_secs(30);
    while !(supervisor.restarts(0) >= 1 && supervisor.status(0) == NodeStatus::Ready) {
        assert!(
            Instant::now() < deadline,
            "node 0 not restarted+ready in time: {:?}, restarts {}",
            supervisor.status(0),
            supervisor.restarts(0)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let new_pid = supervisor.pid(0).expect("node 0 restarted");
    assert_ne!(old_pid, new_pid, "a fresh process must have been spawned");
    println!(
        "orchestrated_rack: node 0 restarted as pid {new_pid} ({} restart(s))",
        supervisor.restarts(0)
    );

    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for writer in writers {
        expected.extend(writer.join().expect("writer survived the crash"));
    }
    let (chaos_reconnects, chaos_node_errors, chaos_errors) = chaos.join().expect("chaos client");
    assert!(!expected.is_empty(), "writers made no progress");
    assert!(
        chaos_reconnects >= 1,
        "the chaos client never redialed the killed node"
    );

    let history = history.snapshot();
    assert!(history.len() > 200, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated across the crash: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated across the crash: {v}"));

    let survivors = vec![addrs[1], addrs[2]];
    let mut sweeper =
        Client::connect(&survivors, SESSIONS + 1, LoadBalancePolicy::RoundRobin).expect("connect");
    let mut lost = 0;
    for (&key, value) in &expected {
        if &sweeper.get(key).expect("sweep get") != value {
            lost += 1;
            eprintln!("lost update: key {key}");
        }
    }
    assert_eq!(
        lost,
        0,
        "{lost}/{} keys lost their last write",
        expected.len()
    );

    println!(
        "orchestrated_rack: PASS — {} ops across the crash, {} recorded (Lin-checked), \
         {} writes swept with zero lost updates; chaos client: {} reconnects, \
         {} failed ops, per-node errors {:?}",
        ops_done.load(Ordering::Relaxed),
        history.len(),
        expected.len(),
        chaos_reconnects,
        chaos_errors,
        chaos_node_errors,
    );
    supervisor.shutdown();
}
