//! `cckvs-loadgen` — workload driver for a networked ccKVS deployment.
//!
//! Installs the hot set, then drives a Zipfian (or uniform) read/write mix
//! through load-balanced [`cckvs_net::Client`] sessions, and reports
//! throughput, cache hit rate, latency percentiles and — when every
//! operation on cached keys is recorded — the verdict of the per-key SC /
//! per-key Lin history checkers:
//!
//! ```text
//! cckvs-loadgen --servers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --ops 100000 --sessions 4 --zipf 0.99 --write-ratio 0.05 \
//!     --model lin --install-hot 256
//! ```

use cckvs_net::client::{install_hot_set_via, BatchConfig, Client, SharedHistory};
use cckvs_net::metrics::{AtomicHistogram, Metrics};
use cckvs_net::transport::{TransportConfig, TransportKind};
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use workload::{AccessDistribution, Dataset, Mix, OpKind, WorkloadGen};

/// Per-connection latency record from a `--connections` run.
struct ConnStats {
    /// Global connection index.
    conn: usize,
    /// Server node the connection is pinned to.
    node: usize,
    /// Operations driven through the connection.
    ops: u64,
    /// Percentiles as bucket upper edges, at most 1/16 above the exact
    /// sample (the rule `latency_hist` follows).
    p50_us: f64,
    p99_us: f64,
}

/// What one session thread reports back.
struct SessionOut {
    stats: Vec<ConnStats>,
    /// Dead connections successfully redialed by this session's clients.
    reconnects: u64,
    /// Transport failures per server node (summed over this session's
    /// clients).
    node_errors: Vec<u64>,
    /// Operations that failed (only non-zero under --tolerate-errors;
    /// without it the first failure aborts the run).
    op_errors: u64,
}

struct Args {
    servers: Vec<SocketAddr>,
    ops: u64,
    sessions: u32,
    zipf: f64,
    write_ratio: f64,
    keys: u64,
    value_size: usize,
    model: ConsistencyModel,
    install_hot: usize,
    batch: usize,
    connections: usize,
    check: bool,
    json: bool,
    shutdown: bool,
    tolerate_errors: bool,
    trace_every: u64,
    transport: TransportKind,
}

fn usage() -> ! {
    eprintln!(
        "usage: cckvs-loadgen --servers A,B,... [--ops N] [--sessions N] \
         [--zipf THETA|uniform] [--write-ratio F] [--keys N] [--value-size B] \
         [--model sc|lin] [--install-hot N] [--batch N] [--connections N] \
         [--no-check] [--json] [--shutdown] [--tolerate-errors] \
         [--trace-every N] [--transport tcp|udp]\n\
         --transport must match the deployment's fabric (cckvs-node\n\
         --transport; default tcp).\n\
         --trace-every N samples one in every N ops into the rack-wide\n\
         tracing subsystem (span events queryable via cckvs-trace; 0 = off).\n\
         --connections N opens N concurrent single-node client connections\n\
         (round-robin across servers and across connections per op; each\n\
         session thread drives its share) and reports per-connection\n\
         latency in --json output.\n\
         --tolerate-errors keeps driving when individual operations fail\n\
         (a node crashing and being restarted under traffic): failed ops\n\
         are counted, connections redial, and --json reports `errors`,\n\
         `reconnects` and per-node `node_errors` so orchestration harnesses\n\
         can assert recovery quantitatively."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        servers: Vec::new(),
        ops: 100_000,
        sessions: 4,
        zipf: 0.99,
        write_ratio: 0.05,
        keys: 100_000,
        value_size: 40,
        model: ConsistencyModel::Lin,
        install_hot: 256,
        batch: 1,
        connections: 0,
        check: true,
        json: false,
        shutdown: false,
        tolerate_errors: false,
        trace_every: 0,
        transport: TransportKind::Tcp,
    };
    let mut it = std::env::args().skip(1);
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
            "--ops" => args.ops = value("--ops").parse().unwrap_or_else(|_| usage()),
            "--sessions" => args.sessions = value("--sessions").parse().unwrap_or_else(|_| usage()),
            "--zipf" => {
                let v = value("--zipf");
                args.zipf = if v == "uniform" {
                    0.0
                } else {
                    v.parse().unwrap_or_else(|_| usage())
                }
            }
            "--write-ratio" => {
                args.write_ratio = value("--write-ratio").parse().unwrap_or_else(|_| usage())
            }
            "--keys" => args.keys = value("--keys").parse().unwrap_or_else(|_| usage()),
            "--value-size" => {
                args.value_size = value("--value-size").parse().unwrap_or_else(|_| usage())
            }
            "--model" => {
                args.model = match value("--model").as_str() {
                    "sc" => ConsistencyModel::Sc,
                    "lin" => ConsistencyModel::Lin,
                    _ => usage(),
                }
            }
            "--install-hot" => {
                args.install_hot = value("--install-hot").parse().unwrap_or_else(|_| usage())
            }
            "--batch" => args.batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--connections" => {
                args.connections = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--trace-every" => {
                args.trace_every = value("--trace-every").parse().unwrap_or_else(|_| usage())
            }
            "--transport" => {
                args.transport = value("--transport").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--no-check" => args.check = false,
            "--json" => args.json = true,
            "--shutdown" => args.shutdown = true,
            "--tolerate-errors" => args.tolerate_errors = true,
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
    if args.batch == 0 {
        eprintln!("--batch must be at least 1 (1 = unbatched)");
        usage();
    }
    assert!(args.value_size >= 8, "value size must hold the 8-byte tag");
    args
}

fn main() {
    // `--json` output gets piped; die quietly on a closed pipe instead
    // of panicking on the first print.
    reactor::reset_sigpipe();
    let args = parse_args();
    // Preflight: reach every node before spawning sessions, so an
    // unreachable deployment is one clean error instead of thread panics.
    let transport = TransportConfig {
        kind: args.transport,
        faults: None,
    };
    let mut admin = match Client::builder(&args.servers)
        .session(u32::MAX)
        .policy(LoadBalancePolicy::RoundRobin)
        .transport(transport)
        .connect()
    {
        Ok(admin) => admin,
        Err(e) => {
            eprintln!("cckvs-loadgen: cannot reach the deployment: {e}");
            std::process::exit(1);
        }
    };
    if args.shutdown {
        admin.shutdown_deployment().expect("send shutdown");
        eprintln!(
            "cckvs-loadgen: shutdown sent to {} nodes",
            args.servers.len()
        );
        return;
    }
    let alive = admin.ping_all();
    if alive != args.servers.len() {
        eprintln!(
            "cckvs-loadgen: only {alive} of {} nodes answered ping",
            args.servers.len()
        );
        std::process::exit(1);
    }
    drop(admin);

    let dataset = Dataset::new(args.keys, args.value_size);
    let distribution = if args.zipf > 0.0 {
        AccessDistribution::Zipfian {
            exponent: args.zipf,
        }
    } else {
        AccessDistribution::Uniform
    };

    // Install the hot set: the globally hottest ranks, as the coordinator
    // of §4 would publish them at epoch start.
    let install_hot = args.install_hot.min(args.keys as usize);
    if install_hot < args.install_hot {
        eprintln!(
            "cckvs-loadgen: clamping --install-hot {} to the {} dataset keys",
            args.install_hot, args.keys
        );
    }
    if install_hot > 0 {
        let entries = dataset.hot_entries(install_hot);
        if let Err(e) = install_hot_set_via(&*transport.build(), &args.servers, &entries) {
            eprintln!("cckvs-loadgen: hot-set install failed: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "cckvs-loadgen: installed {install_hot} hot keys on {} nodes",
            args.servers.len()
        );
    }

    let history = args.check.then(|| Arc::new(SharedHistory::new()));
    let metrics = Arc::new(Metrics::new());
    // `--connections N` opens N concurrent single-node client connections
    // (round-robin across servers); each session thread drives its share,
    // cycling ops round-robin across them, so N is bounded by fds, not by
    // driver threads. 0 = classic mode: one multiplexed client per session.
    if args.connections > 0 {
        let wanted = 2 * args.connections as u64 + 512;
        if let Ok(now) = reactor::raise_nofile_limit(wanted) {
            if now < wanted {
                eprintln!(
                    "cckvs-loadgen: fd limit {now} may be too low for {} connections",
                    args.connections
                );
            }
        }
    }
    let ops_per_session = args.ops / u64::from(args.sessions.max(1));
    let started = Instant::now();
    let handles: Vec<std::thread::JoinHandle<SessionOut>> = (0..args.sessions)
        .map(|session| {
            let servers = args.servers.clone();
            let history = history.clone();
            let metrics = Arc::clone(&metrics);
            let model = args.model;
            let value_size = args.value_size;
            let batch = args.batch;
            let connections = args.connections;
            let sessions = args.sessions;
            let tolerate = args.tolerate_errors;
            let trace_every = args.trace_every;
            let mut gen = WorkloadGen::new(
                &dataset,
                distribution,
                Mix::with_write_ratio(args.write_ratio),
                0xC11E_5EED ^ u64::from(session),
            );
            std::thread::spawn(move || {
                let fail = |what: &str, e: &dyn std::fmt::Display| -> ! {
                    eprintln!("cckvs-loadgen: session {session}: {what}: {e}");
                    std::process::exit(1);
                };
                let batching = BatchConfig {
                    max_ops: batch,
                    ..BatchConfig::default()
                };
                // This session's connections: global indexes i with
                // i % sessions == session. Each is one socket to one
                // server (node i % servers), its own checker session.
                let mut clients: Vec<(usize, Client, AtomicHistogram)> = if connections > 0 {
                    (0..connections)
                        .filter(|i| i % sessions as usize == session as usize)
                        .map(|i| {
                            let addr = servers[i % servers.len()];
                            let mut builder = Client::builder(&[addr])
                                // Sessions the admin preflight never uses.
                                .session(u32::try_from(i).expect("connection index fits"))
                                .policy(LoadBalancePolicy::Pinned(0))
                                .transport(transport)
                                .metrics(Arc::clone(&metrics))
                                .batching(batching)
                                .trace_sampling(trace_every);
                            if let Some(history) = &history {
                                builder = builder.history(Arc::clone(history));
                            }
                            let client = builder.connect().unwrap_or_else(|e| fail("connect", &e));
                            (i, client, AtomicHistogram::new())
                        })
                        .collect()
                } else {
                    // Classic mode: one client multiplexing every node.
                    // SC sessions stay sticky to one replica (per-session
                    // guarantee); Lin sessions spread (real-time
                    // guarantee).
                    let policy = match model {
                        ConsistencyModel::Sc => {
                            LoadBalancePolicy::Pinned(session as usize % servers.len())
                        }
                        ConsistencyModel::Lin => LoadBalancePolicy::RoundRobin,
                    };
                    let mut builder = Client::builder(&servers)
                        .session(session)
                        .policy(policy)
                        .transport(transport)
                        .metrics(Arc::clone(&metrics))
                        .batching(batching)
                        .trace_sampling(trace_every);
                    if let Some(history) = &history {
                        builder = builder.history(Arc::clone(history));
                    }
                    let client = builder.connect().unwrap_or_else(|e| fail("connect", &e));
                    vec![(usize::MAX, client, AtomicHistogram::new())]
                };
                if clients.is_empty() {
                    return SessionOut {
                        stats: Vec::new(),
                        reconnects: 0,
                        node_errors: vec![0; servers.len()],
                        op_errors: 0,
                    };
                }
                let mut op_errors = 0u64;
                for n in 0..ops_per_session {
                    let op = gen.next_op();
                    // Round-robin ops across this session's connections.
                    let slot = n as usize % clients.len();
                    let (_, client, latency) = &mut clients[slot];
                    let op_started = Instant::now();
                    // Batched sessions coalesce requests on the wire (the
                    // queue flushes itself at the --batch bound); batch=1
                    // is the classic one-frame-per-op path.
                    let result = if batch > 1 {
                        match op.kind {
                            OpKind::Get => client.queue_get(op.key.0),
                            OpKind::Put => {
                                client.queue_put(op.key.0, &op.value_bytes(session, value_size))
                            }
                        }
                    } else {
                        match op.kind {
                            OpKind::Get => client.get(op.key.0).map(|_| ()),
                            OpKind::Put => client
                                .put(op.key.0, &op.value_bytes(session, value_size))
                                .map(|_| ()),
                        }
                    };
                    if let Err(e) = result {
                        if !tolerate {
                            eprintln!(
                                "cckvs-loadgen: session {session}: {:?} of key {} failed: {e}",
                                op.kind, op.key.0
                            );
                            std::process::exit(1);
                        }
                        // A node died under us (and is presumably being
                        // restarted): count it and keep driving — the
                        // client redials lazily. A failed op was never
                        // acknowledged, so it carries no history
                        // obligation.
                        op_errors += 1;
                        if op_errors <= 3 {
                            eprintln!(
                                "cckvs-loadgen: session {session}: {:?} of key {} failed: {e} \
                                 (tolerated)",
                                op.kind, op.key.0
                            );
                        }
                    }
                    // Drain completed outcomes at every batch boundary
                    // (no wire traffic: the queue is empty right after a
                    // doorbell flush) — otherwise a long run retains one
                    // outcome per op for its whole duration.
                    if batch > 1 && client.queued() == 0 {
                        if let Err(e) = client.flush() {
                            if !tolerate {
                                fail("flush", &e);
                            }
                            op_errors += 1;
                        }
                    }
                    // Driver-side latency, attributed to the connection
                    // (includes client-side queueing under --batch).
                    latency.record(op_started.elapsed().as_nanos() as u64);
                }
                let mut stats = Vec::new();
                let mut reconnects = 0u64;
                let mut node_errors = vec![0u64; servers.len()];
                for (conn, mut client, latency) in clients {
                    if let Err(e) = client.flush() {
                        if !tolerate {
                            fail("final flush", &e);
                        }
                        op_errors += 1;
                    }
                    reconnects += client.reconnects();
                    if conn == usize::MAX {
                        // Classic mode: the client's error vector is
                        // already indexed by node id.
                        for (node, errs) in client.node_errors().iter().enumerate() {
                            node_errors[node] += errs;
                        }
                    } else {
                        // Connection mode: one single-node client.
                        node_errors[conn % servers.len()] += client.node_errors()[0];
                        let latency = latency.snapshot();
                        stats.push(ConnStats {
                            conn,
                            node: conn % servers.len(),
                            ops: latency.count,
                            p50_us: latency.percentile(50.0) as f64 / 1_000.0,
                            p99_us: latency.percentile(99.0) as f64 / 1_000.0,
                        });
                    }
                }
                SessionOut {
                    stats,
                    reconnects,
                    node_errors,
                    op_errors,
                }
            })
        })
        .collect();
    let mut conn_stats: Vec<ConnStats> = Vec::new();
    let mut reconnects = 0u64;
    let mut op_errors = 0u64;
    let mut node_errors = vec![0u64; args.servers.len()];
    for handle in handles {
        let out = handle.join().expect("session thread");
        conn_stats.extend(out.stats);
        reconnects += out.reconnects;
        op_errors += out.op_errors;
        for (node, errs) in out.node_errors.iter().enumerate() {
            node_errors[node] += errs;
        }
    }
    conn_stats.sort_by_key(|s| s.conn);
    let elapsed = started.elapsed();

    let snap = metrics.snapshot();
    let total_ops = snap.gets + snap.puts;
    let secs = elapsed.as_secs_f64();
    // Human-readable report: stdout normally, stderr under --json (stdout
    // then carries exactly one machine-readable object).
    let report = |line: String| {
        if args.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    report(format!(
        "cckvs-loadgen: {} ops in {:.3}s ({:.0} ops/s)",
        total_ops,
        secs,
        total_ops as f64 / secs
    ));
    report(format!(
        "  gets {} | puts {} | hit rate {:.2}% | p50 {:.1}µs | p99 {:.1}µs{}",
        snap.gets,
        snap.puts,
        snap.hit_rate() * 100.0,
        snap.latency_p50_ns as f64 / 1_000.0,
        snap.latency_p99_ns as f64 / 1_000.0,
        if args.batch > 1 {
            format!(" | {} wire batches", snap.batches)
        } else {
            String::new()
        }
    ));
    if reconnects > 0 || op_errors > 0 {
        report(format!(
            "  {op_errors} failed ops | {reconnects} reconnects | per-node errors {node_errors:?}"
        ));
    }
    if !conn_stats.is_empty() {
        let mut p99s: Vec<f64> = conn_stats.iter().map(|s| s.p99_us).collect();
        p99s.sort_by(f64::total_cmp);
        report(format!(
            "  {} connections | per-conn p99 min {:.1}µs / median {:.1}µs / max {:.1}µs",
            conn_stats.len(),
            p99s.first().copied().unwrap_or(0.0),
            p99s.get(p99s.len() / 2).copied().unwrap_or(0.0),
            p99s.last().copied().unwrap_or(0.0),
        ));
    }

    let mut per_key_sc = None;
    let mut per_key_lin = None;
    if let Some(history) = history {
        let history = history.snapshot();
        report(format!("  recorded {} cached-key ops", history.len()));
        // The history checks are sound only when this run observed every
        // write to the cached keys — i.e. against a freshly booted rack.
        // Reads of values written by an earlier run look like violations.
        let warm_rack_hint = "note: checking assumes a fresh rack (all writes observed); \
             re-running against a warm deployment reports false violations — use --no-check there";
        match history.check_per_key_sc() {
            Ok(()) => {
                per_key_sc = Some(true);
                report("  per-key SC: OK".to_string());
            }
            Err(v) => {
                eprintln!("  per-key SC: VIOLATED: {v}\n  {warm_rack_hint}");
                std::process::exit(1);
            }
        }
        if args.model == ConsistencyModel::Lin {
            match history.check_per_key_lin() {
                Ok(()) => {
                    per_key_lin = Some(true);
                    report("  per-key Lin: OK".to_string());
                }
                Err(v) => {
                    eprintln!("  per-key Lin: VIOLATED: {v}\n  {warm_rack_hint}");
                    std::process::exit(1);
                }
            }
        }
    }

    if args.json {
        let mut extra = String::new();
        extra.push_str(&format!(
            ", \"errors\": {op_errors}, \"reconnects\": {reconnects}, \"node_errors\": [{}]",
            node_errors
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if let Some(ok) = per_key_sc {
            extra.push_str(&format!(", \"per_key_sc\": {ok}"));
        }
        if let Some(ok) = per_key_lin {
            extra.push_str(&format!(", \"per_key_lin\": {ok}"));
        }
        if !conn_stats.is_empty() {
            extra.push_str(&format!(", \"connections\": {}", conn_stats.len()));
            extra.push_str(", \"per_connection\": [");
            for (i, s) in conn_stats.iter().enumerate() {
                extra.push_str(&format!(
                    "{}{{\"conn\": {}, \"node\": {}, \"ops\": {}, \"p50_us\": {:.1}, \
                     \"p99_us\": {:.1}}}",
                    if i > 0 { ", " } else { "" },
                    s.conn,
                    s.node,
                    s.ops,
                    s.p50_us,
                    s.p99_us
                ));
            }
            extra.push(']');
        }
        // Full driver-observed latency distribution: parallel arrays of
        // bucket upper edges (ns) and sample counts, zero buckets elided.
        // Consumers rebuild any percentile instead of settling for the two
        // we print.
        let hist = metrics.latency_histogram();
        let buckets = hist.nonzero_buckets();
        extra.push_str(&format!(
            ", \"latency_hist\": {{\"count\": {}, \"sum_ns\": {}, \"bucket_upper_ns\": [{}], \
             \"bucket_counts\": [{}]}}",
            hist.count,
            hist.sum,
            buckets
                .iter()
                .map(|(edge, _)| edge.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            buckets
                .iter()
                .map(|(_, n)| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        println!(
            "{{\"ops\": {}, \"secs\": {:.3}, \"ops_per_sec\": {:.0}, \"hit_rate\": {:.4}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"batch\": {}{}}}",
            total_ops,
            secs,
            total_ops as f64 / secs,
            snap.hit_rate(),
            snap.latency_p50_ns as f64 / 1_000.0,
            snap.latency_p99_ns as f64 / 1_000.0,
            hist.percentile(99.9) as f64 / 1_000.0,
            args.batch,
            extra
        );
    }
}
