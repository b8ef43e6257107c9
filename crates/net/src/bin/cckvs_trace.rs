//! `cckvs-trace` — assembles cross-node span dumps into per-op timelines.
//!
//! Every node records sampled span events (decode, miss RPCs, Lin
//! initiate, per-peer invalidation send, ack arrival, commit fire, credit
//! stalls, replay) into a bounded in-memory buffer, queryable over the
//! client port via `Frame::TraceDump`. This tool fetches those buffers and
//! reconstructs what one operation did across the whole rack:
//!
//! ```text
//! # Drive one traced Lin PUT and print its cross-node timeline:
//! cckvs-trace put --servers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --key 7 --value hello
//!
//! # Dump the raw trace buffers (optionally one trace id only):
//! cckvs-trace dump --servers 127.0.0.1:7000,127.0.0.1:7001 [--trace ID]
//! ```
//!
//! `--transport tcp|udp` names the fabric the deployment listens on
//! (`cckvs-node --transport`; default tcp).
//!
//! Timelines are printed with per-phase durations: decode → invalidation
//! fan-out → per-peer ack wait → commit fire (the queued response
//! resuming on-shard) → respond.

use cckvs_net::client::{collect_traces_via, Client};
use cckvs_net::transport::{TransportConfig, TransportKind};
use cckvs_net::LoadBalancePolicy;
use cckvs_trace::{assemble, Event, EventKind, NO_PEER};
use std::collections::BTreeSet;
use std::net::SocketAddr;

fn usage() -> ! {
    eprintln!(
        "usage:\n\
         cckvs-trace put  --servers A,B,... [--transport tcp|udp] [--key K] [--value S]\n\
         cckvs-trace dump --servers A,B,... [--transport tcp|udp] [--trace ID]\n\
         \n\
         --transport must match the deployment's fabric (cckvs-node\n\
         --transport; default tcp).\n\
         put:  drives one traced PUT through the deployment, then fetches\n\
         every node's trace buffer and prints the op's assembled cross-node\n\
         timeline with per-phase durations.\n\
         dump: fetches the raw buffers; with --trace ID prints that op's\n\
         assembled timeline, otherwise lists the trace ids present."
    );
    std::process::exit(2);
}

struct Args {
    mode: String,
    servers: Vec<SocketAddr>,
    transport: TransportKind,
    key: u64,
    value: Vec<u8>,
    trace: Option<u64>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage());
    if mode != "put" && mode != "dump" {
        usage();
    }
    let mut args = Args {
        mode,
        servers: Vec::new(),
        transport: TransportKind::Tcp,
        key: 7,
        value: b"traced".to_vec(),
        trace: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--servers" => {
                args.servers = value("--servers")
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--transport" => {
                args.transport = value("--transport").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--key" => args.key = value("--key").parse().unwrap_or_else(|_| usage()),
            "--value" => args.value = value("--value").into_bytes(),
            "--trace" => args.trace = Some(value("--trace").parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.servers.is_empty() {
        eprintln!("--servers is required");
        usage();
    }
    args
}

fn main() {
    // Timelines get piped into `head`/`grep`; die quietly on a closed
    // pipe instead of panicking on the first print.
    reactor::reset_sigpipe();
    let args = parse_args();
    let transport = TransportConfig {
        kind: args.transport,
        faults: None,
    };
    let traced_id = if args.mode == "put" {
        let mut client = Client::builder(&args.servers)
            .session(u32::MAX - 1)
            .policy(LoadBalancePolicy::Pinned(0))
            .transport(transport)
            .connect()
            .unwrap_or_else(|e| {
                eprintln!("cckvs-trace: cannot reach the deployment: {e}");
                std::process::exit(1);
            });
        let id = client.trace_next();
        if let Err(e) = client.put(args.key, &args.value) {
            eprintln!("cckvs-trace: traced put failed: {e}");
            std::process::exit(1);
        }
        println!(
            "traced put key={} ({} bytes) as trace {id:#x}",
            args.key,
            args.value.len()
        );
        Some(id)
    } else {
        args.trace
    };

    let dumps = match collect_traces_via(&*transport.build(), &args.servers) {
        Ok(dumps) => dumps,
        Err(e) => {
            eprintln!("cckvs-trace: trace dump failed: {e}");
            std::process::exit(1);
        }
    };
    let mut events: Vec<Vec<Event>> = Vec::with_capacity(dumps.len());
    for (node, (dropped, dump)) in dumps.into_iter().enumerate() {
        println!(
            "node {node} ({}): {} span events ({dropped} dropped at ring overflow)",
            args.servers[node],
            dump.len()
        );
        events.push(dump);
    }

    match traced_id {
        Some(id) => {
            let timeline = assemble(&events, id);
            if timeline.is_empty() {
                eprintln!("cckvs-trace: no events recorded for trace {id:#x}");
                std::process::exit(1);
            }
            print_timeline(id, &timeline);
        }
        None => {
            // No specific op: list what the buffers hold so the caller can
            // re-run with --trace ID.
            let ids: BTreeSet<u64> = events
                .iter()
                .flat_map(|d| d.iter())
                .map(|ev| ev.trace_id)
                .collect();
            println!("{} distinct trace ids:", ids.len());
            for id in ids {
                let n: usize = events
                    .iter()
                    .flat_map(|d| d.iter())
                    .filter(|ev| ev.trace_id == id)
                    .count();
                println!("  {id:#x}  ({n} events)");
            }
        }
    }
}

/// Prints one op's time-ordered cross-node event list, then the derived
/// per-phase durations.
fn print_timeline(id: u64, timeline: &[Event]) {
    let t0 = timeline[0].t_ns;
    println!("trace {id:#x}: {} events", timeline.len());
    println!(
        "  {:>10}  {:<4} {:<5} {:<16} detail",
        "t(µs)", "node", "shard", "event"
    );
    for ev in timeline {
        let detail = match ev.kind {
            EventKind::CreditStall => format!("stalled {}ns", ev.key),
            EventKind::CorkWait => format!("corked {}ns", ev.key),
            _ if ev.peer != NO_PEER => format!("key={} peer=n{}", ev.key, ev.peer),
            _ => format!("key={}", ev.key),
        };
        println!(
            "  {:>10.1}  n{:<3} {:<5} {:<16} {}",
            (ev.t_ns - t0) as f64 / 1_000.0,
            ev.node,
            if ev.shard == cckvs_trace::SHARED_LANE {
                "-".to_string()
            } else {
                ev.shard.to_string()
            },
            ev.kind.name(),
            detail
        );
    }

    // Per-phase durations, from the first event of each phase boundary.
    let first = |kind: EventKind| timeline.iter().find(|ev| ev.kind == kind);
    let last = |kind: EventKind| timeline.iter().rev().find(|ev| ev.kind == kind);
    let span = |a: Option<&Event>, b: Option<&Event>| -> Option<u64> {
        match (a, b) {
            (Some(a), Some(b)) if b.t_ns >= a.t_ns => Some(b.t_ns - a.t_ns),
            _ => None,
        }
    };
    println!("phases:");
    let phase = |name: &str, ns: Option<u64>| {
        if let Some(ns) = ns {
            println!("  {name:<22} {:>10.1}µs", ns as f64 / 1_000.0);
        }
    };
    let decode = first(EventKind::Decode);
    let initiate = first(EventKind::LinInitiate);
    phase("decode -> initiate", span(decode, initiate));
    phase(
        "fan-out (inv sends)",
        span(initiate, last(EventKind::InvSend)),
    );
    // Per-peer ack wait: invalidation send to that peer's ack arrival.
    let peers: BTreeSet<u8> = timeline
        .iter()
        .filter(|ev| ev.kind == EventKind::InvSend)
        .map(|ev| ev.peer)
        .collect();
    for peer in peers {
        let sent = timeline
            .iter()
            .find(|ev| ev.kind == EventKind::InvSend && ev.peer == peer);
        let acked = timeline
            .iter()
            .find(|ev| ev.kind == EventKind::AckRecv && ev.peer == peer);
        phase(&format!("ack wait (peer n{peer})"), span(sent, acked));
    }
    phase(
        "initiate -> commit",
        span(initiate, first(EventKind::CommitFire)),
    );
    // Cross-shard resume delivery: the last ack commits the write, the
    // owning shard fires the suspended op's continuation.
    phase(
        "resume (commit -> fire)",
        span(
            first(EventKind::CommitFire),
            first(EventKind::ContinuationFire),
        ),
    );
    // Adaptive-batch cork time: CorkWait events carry the wait in `key`.
    let corked: u64 = timeline
        .iter()
        .filter(|ev| ev.kind == EventKind::CorkWait)
        .map(|ev| ev.key)
        .sum();
    if corked > 0 {
        phase("cork wait (sum)", Some(corked));
    }
    phase("total (-> respond)", span(decode, last(EventKind::Respond)));
}
