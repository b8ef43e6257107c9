//! Tracing acceptance example (mirrors the CI `tracing` job): a supervised
//! 3-process rack — real `cckvs-node` OS processes — serves one traced Lin
//! write, and the per-node trace dumps assemble into a single cross-node
//! timeline with the complete span chain: initiate, one invalidation per
//! peer, one ack arrival per peer, commit fire.
//!
//! ```text
//! cargo build --release -p cckvs-net --bins
//! cargo run --release --example traced_rack
//! ```
//!
//! The dumped timeline is written to `./trace-dump/lin_put_timeline.txt`
//! (uploaded as a CI artifact). Exits nonzero on any violated assertion.

use cckvs_net::client::{install_hot_set_via, Client};
use cckvs_net::transport::TcpTransport;
use cckvs_net::LoadBalancePolicy;
use cckvs_orchestrate::{
    sibling_binary, NodeSpec, RackSpec, Supervisor, SupervisorConfig, Topology,
};
use cckvs_trace::{assemble, Event, EventKind, NO_PEER, SHARED_LANE};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::TcpListener;
use std::time::Duration;

const NODES: usize = 3;
const HOT_KEY: u64 = 7;

fn main() {
    let node_bin = sibling_binary("cckvs-node")
        .expect("cckvs-node not found — build it first: cargo build --release -p cckvs-net --bins");
    let ports: Vec<u16> = (0..NODES)
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
    cfg.log_dir = Some("trace-dump".into());
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();
    println!("traced_rack: {NODES} cckvs-node processes serving on {addrs:?}");

    install_hot_set_via(&TcpTransport, &addrs, &[(HOT_KEY, b"seed".to_vec())])
        .expect("install hot set");

    // One traced Lin write: the trace id travels inside the frame, fans
    // out to every peer with the invalidations, and rides the acks back.
    let mut client = Client::connect(&addrs, 0, LoadBalancePolicy::Pinned(0)).expect("connect");
    let trace_id = client.trace_next();
    client.put(HOT_KEY, b"traced-write").expect("traced put");
    println!("traced_rack: traced put of key {HOT_KEY} as trace {trace_id:#x}");

    // Collect every node's buffer through the supervisor and assemble.
    let dumps = supervisor.collect_traces();
    let mut events: Vec<Vec<Event>> = Vec::with_capacity(NODES);
    for (node, dump) in dumps.into_iter().enumerate() {
        let (dropped, dump) = dump.unwrap_or_else(|| panic!("node {node} answered no TraceDump"));
        assert_eq!(dropped, 0, "node {node} dropped span events");
        println!("traced_rack: node {node} dumped {} span events", dump.len());
        events.push(dump);
    }
    let timeline = assemble(&events, trace_id);
    assert!(!timeline.is_empty(), "no events for trace {trace_id:#x}");

    // The complete Lin span chain: initiate → N-1 invalidations → N-1
    // acks → commit, across all three processes.
    let count = |kind: EventKind| timeline.iter().filter(|ev| ev.kind == kind).count();
    assert_eq!(count(EventKind::LinInitiate), 1, "initiate: {timeline:#?}");
    assert_eq!(
        count(EventKind::InvSend),
        NODES - 1,
        "one invalidation per peer: {timeline:#?}"
    );
    assert_eq!(
        count(EventKind::AckRecv),
        NODES - 1,
        "one ack arrival per peer: {timeline:#?}"
    );
    assert!(count(EventKind::CommitFire) >= 1, "commit: {timeline:#?}");
    let nodes_seen: BTreeSet<u8> = timeline.iter().map(|ev| ev.node).collect();
    assert_eq!(
        nodes_seen.len(),
        NODES,
        "the trace should span every process: {nodes_seen:?}"
    );

    // Render the timeline; CI uploads it as an artifact.
    let t0 = timeline[0].t_ns;
    let mut rendered = format!(
        "trace {trace_id:#x} — Lin PUT of key {HOT_KEY} across {NODES} processes\n\
         {:>10}  {:<4} {:<5} {:<16} detail\n",
        "t(µs)", "node", "shard", "event"
    );
    for ev in &timeline {
        let _ = writeln!(
            rendered,
            "{:>10.1}  n{:<3} {:<5} {:<16} key={} peer={}",
            (ev.t_ns - t0) as f64 / 1_000.0,
            ev.node,
            if ev.shard == SHARED_LANE {
                "-".to_string()
            } else {
                ev.shard.to_string()
            },
            ev.kind.name(),
            ev.key,
            if ev.peer == NO_PEER {
                "-".to_string()
            } else {
                format!("n{}", ev.peer)
            }
        );
    }
    std::fs::create_dir_all("trace-dump").expect("mkdir trace-dump");
    std::fs::write("trace-dump/lin_put_timeline.txt", &rendered).expect("write timeline");
    print!("{rendered}");

    println!(
        "traced_rack: PASS — {} span events across {} processes assembled into one timeline \
         (initiate -> {} invalidations -> {} acks -> commit)",
        timeline.len(),
        nodes_seen.len(),
        NODES - 1,
        NODES - 1
    );
    supervisor.shutdown();
}
