//! End-to-end tracing: a sampled op's trace context travels on the wire,
//! every node records causally-linked span events, and the per-node dumps
//! assemble into one cross-node timeline.
//!
//! Covers the three propagation paths that carry a trace id somewhere a
//! naive implementation would lose it: the Lin write fan-out (id crosses
//! to every peer and rides the acks back), coalesced `Frame::Batch`
//! sub-frames (each op wrapped individually inside the batch), and the
//! peer-link replay path (a severed link's unconfirmed tail is replayed
//! with the original ids, exactly once).

use cckvs::node::NodeConfig;
use cckvs_net::client::{collect_traces_via, install_hot_set_via, Client, SharedHistory};
use cckvs_net::metrics::Metrics;
use cckvs_net::server::{FlowConfig, NodeServer, NodeServerConfig};
use cckvs_net::transport::TcpTransport;
use cckvs_net::{LoadBalancePolicy, Rack, RackConfig};
use cckvs_trace::{assemble, EventKind, DEFAULT_STORE_CAPACITY};
use consistency::messages::ConsistencyModel;
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The tentpole acceptance bar: one sampled Lin PUT on a 3-node rack
/// yields a single assembled cross-node timeline with the complete span
/// chain — initiate, one invalidation send and one ack arrival per peer,
/// commit fire — plus decode and respond bracketing it.
#[test]
fn traced_lin_put_assembles_a_complete_cross_node_span_chain() {
    const NODES: usize = 3;
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, NODES)).expect("launch");
    rack.install_hot_set(&[(7, b"seed".to_vec())])
        .expect("install hot set");

    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .connect()
        .expect("connect");
    let trace_id = client.trace_next();
    client.put(7, b"traced-write").expect("traced put");
    // The put response only returns after commit, so every span event is
    // already recorded (the dump drains the rings itself).
    let dumps =
        collect_traces_via(&*rack.transport().build(), &rack.client_addrs()).expect("trace dump");
    for (node, (dropped, _)) in dumps.iter().enumerate() {
        assert_eq!(*dropped, 0, "node {node} dropped span events");
    }
    let events: Vec<_> = dumps.into_iter().map(|(_, events)| events).collect();
    let timeline = assemble(&events, trace_id);
    assert!(!timeline.is_empty(), "no events for trace {trace_id:#x}");

    let count = |kind: EventKind| timeline.iter().filter(|ev| ev.kind == kind).count();
    assert_eq!(count(EventKind::Decode), 1, "decode: {timeline:#?}");
    assert_eq!(count(EventKind::LinInitiate), 1, "initiate: {timeline:#?}");
    assert_eq!(
        count(EventKind::InvSend),
        NODES - 1,
        "one invalidation per peer: {timeline:#?}"
    );
    assert_eq!(
        count(EventKind::AckRecv),
        NODES - 1,
        "one ack per peer: {timeline:#?}"
    );
    assert!(count(EventKind::CommitFire) >= 1, "commit: {timeline:#?}");
    assert!(count(EventKind::Respond) >= 1, "respond: {timeline:#?}");
    // Causally linked across nodes: the peers recorded the id too (their
    // invalidation/update arrivals), not just the serving node.
    let nodes_seen: BTreeSet<u8> = timeline.iter().map(|ev| ev.node).collect();
    assert_eq!(
        nodes_seen.len(),
        NODES,
        "the trace should span every node: {nodes_seen:?}"
    );
    // Each peer acked after the send to it (the timeline is causally
    // ordered, not just merged).
    for peer in timeline
        .iter()
        .filter(|ev| ev.kind == EventKind::InvSend)
        .map(|ev| ev.peer)
    {
        let sent = timeline
            .iter()
            .find(|ev| ev.kind == EventKind::InvSend && ev.peer == peer)
            .expect("send");
        let acked = timeline
            .iter()
            .find(|ev| ev.kind == EventKind::AckRecv && ev.peer == peer)
            .unwrap_or_else(|| panic!("no ack arrival from peer {peer}"));
        assert!(
            acked.t_ns >= sent.t_ns,
            "ack from peer {peer} before its invalidation was sent"
        );
    }
    rack.shutdown();
}

/// The `cckvs-trace` binary itself, against a rack on whichever fabric
/// `CCKVS_TRANSPORT` picked: `put` drives one traced Lin PUT and prints its
/// assembled timeline, `dump --trace` finds the same op again. Both used to
/// dial TCP whatever the rack listened on.
#[test]
fn cckvs_trace_bin_reaches_the_rack_on_its_own_fabric() {
    let rack = Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch");
    rack.install_hot_set(&[(7, b"seed".to_vec())])
        .expect("install hot set");
    let servers = rack
        .client_addrs()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let run = |args: &[&str]| -> String {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cckvs-trace"))
            .args(args)
            .args(["--servers", &servers])
            .args(["--transport", rack.transport().kind.label()])
            .output()
            .expect("run cckvs-trace");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "cckvs-trace {args:?} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };

    let put = run(&["put", "--key", "7", "--value", "from-the-bin"]);
    for phase in [
        "ack wait (peer n1)",
        "ack wait (peer n2)",
        "initiate -> commit",
    ] {
        assert!(put.contains(phase), "no `{phase}` phase in:\n{put}");
    }
    let id = put
        .split_whitespace()
        .find(|word| word.starts_with("0x"))
        .expect("the put names its trace id");
    let id = u64::from_str_radix(&id[2..], 16).expect("hex trace id");
    let dump = run(&["dump", "--trace", &id.to_string()]);
    assert!(
        dump.contains("initiate -> commit"),
        "dump lost the op:\n{dump}"
    );
    rack.shutdown();
}

/// Satellite: trace context propagates through `Frame::Batch` — each
/// queued op is wrapped individually, so every sub-frame keeps its own id
/// across the wire and the server records distinct span chains for ops
/// that shared one wire batch.
#[test]
fn batch_sub_frames_keep_their_individual_trace_ids() {
    const OPS: usize = 4;
    let rack = Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 2)).expect("launch");
    let entries: Vec<(u64, Vec<u8>)> = (0..OPS as u64).map(|k| (k, b"seed".to_vec())).collect();
    rack.install_hot_set(&entries).expect("install hot set");

    let metrics = Arc::new(Metrics::new());
    let batching = cckvs_net::BatchConfig {
        max_ops: OPS,
        ..cckvs_net::BatchConfig::default()
    };
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .batching(batching)
        .metrics(Arc::clone(&metrics))
        .connect()
        .expect("connect");
    let mut ids = Vec::new();
    for k in 0..OPS as u64 {
        ids.push(client.trace_next());
        client.queue_put(k, b"batched-write").expect("queue");
    }
    let outcomes = client.flush().expect("flush");
    assert_eq!(outcomes.len(), OPS);
    // The ops genuinely traveled as one coalesced wire batch.
    assert!(
        metrics.snapshot().batches >= 1,
        "ops did not coalesce into a wire batch"
    );
    assert_eq!(
        ids.iter().collect::<BTreeSet<_>>().len(),
        OPS,
        "trace ids must be distinct"
    );

    let dumps =
        collect_traces_via(&*rack.transport().build(), &rack.client_addrs()).expect("trace dump");
    let events: Vec<_> = dumps.into_iter().map(|(_, events)| events).collect();
    for (k, &id) in ids.iter().enumerate() {
        let timeline = assemble(&events, id);
        let count = |kind: EventKind| timeline.iter().filter(|ev| ev.kind == kind).count();
        assert_eq!(
            count(EventKind::Decode),
            1,
            "sub-frame {k} lost its trace context in the batch: {timeline:#?}"
        );
        assert_eq!(count(EventKind::LinInitiate), 1, "sub-frame {k} initiate");
        assert_eq!(count(EventKind::InvSend), 1, "sub-frame {k} fan-out");
        assert_eq!(count(EventKind::AckRecv), 1, "sub-frame {k} ack");
        assert!(count(EventKind::CommitFire) >= 1, "sub-frame {k} commit");
        // And the events carry the right key, proving ids didn't cross
        // wires between sub-frames.
        let initiate = timeline
            .iter()
            .find(|ev| ev.kind == EventKind::LinInitiate)
            .expect("initiate");
        assert_eq!(initiate.key, k as u64, "trace {id:#x} tagged wrong key");
    }
    rack.shutdown();
}

/// A byte-forwarding TCP proxy whose live connections can be severed on
/// demand (same fault injector as `reconnect_e2e`).
struct Proxy {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Proxy {
    fn start(target: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let running = Arc::new(AtomicBool::new(true));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_running = Arc::clone(&running);
        let accept_conns = Arc::clone(&conns);
        std::thread::spawn(move || {
            while accept_running.load(Ordering::SeqCst) {
                let Ok((client, _)) = listener.accept() else {
                    return;
                };
                let Ok(upstream) = TcpStream::connect(target) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                {
                    let mut conns = accept_conns.lock().expect("proxy conns");
                    conns.push(client.try_clone().expect("clone"));
                    conns.push(upstream.try_clone().expect("clone"));
                }
                let (mut c2u_r, mut c2u_w) = (
                    client.try_clone().expect("clone"),
                    upstream.try_clone().expect("clone"),
                );
                std::thread::spawn(move || copy_until_error(&mut c2u_r, &mut c2u_w));
                let (mut u2c_r, mut u2c_w) = (upstream, client);
                std::thread::spawn(move || copy_until_error(&mut u2c_r, &mut u2c_w));
            }
        });
        Proxy {
            addr,
            running,
            conns,
        }
    }

    fn sever_all(&self) -> usize {
        let mut conns = self.conns.lock().expect("proxy conns");
        let severed = conns.len() / 2;
        for conn in conns.drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        severed
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.sever_all();
        let _ = TcpStream::connect(self.addr);
    }
}

fn copy_until_error(from: &mut TcpStream, to: &mut TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    let _ = from.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Satellite: frames replayed after a peer-link reconnect keep their
/// original trace id (the `Replay` span event records it), and the peer
/// still processes each traced message exactly once — the replayed tail
/// never re-delivers a message the peer had already confirmed.
#[test]
fn replayed_frames_keep_their_original_trace_id_exactly_once() {
    const HOT_KEYS: u64 = 8;

    let node_cfg = |node: usize| NodeConfig {
        model: ConsistencyModel::Lin,
        node,
        nodes: 2,
        cache_capacity: 128,
        kvs_capacity: 4096,
        value_capacity: 32,
        kvs_threads: cckvs::node::DEFAULT_KVS_THREADS,
    };
    // Tiny credit window so severs land with traffic in flight.
    let flow = FlowConfig { credit_window: 4 };
    let mut cfg_a = NodeServerConfig::loopback(node_cfg(0));
    cfg_a.flow = flow;
    cfg_a.metrics_listen = None;
    let mut cfg_b = NodeServerConfig::loopback(node_cfg(1));
    cfg_b.flow = flow;
    cfg_b.metrics_listen = None;
    let mut server_a = NodeServer::start(cfg_a).expect("start A");
    let mut server_b = NodeServer::start(cfg_b).expect("start B");
    let addr_a = server_a.addr();
    let addr_b = server_b.addr();
    let proxy = Proxy::start(addr_b);
    server_a
        .connect_peers(&[addr_a, proxy.addr], Duration::from_secs(5))
        .expect("wire A");
    server_b
        .connect_peers(&[addr_a, addr_b], Duration::from_secs(5))
        .expect("wire B");

    let addrs = vec![addr_a, addr_b];
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    // One writer pinned to A, every op traced with a known id, PUTS per
    // round; the main thread cuts the A→B link halfway through each round,
    // so some traced invalidations land in the replayed unconfirmed tail.
    // These nodes run without a metrics thread, so nothing drains their
    // trace rings but this test: it does so between rounds, and a round's
    // events (about ten per put across both nodes) stay far below one
    // ring's capacity — an overflow would void the exactly-once accounting.
    const PUTS: usize = 64;
    const MAX_ROUNDS: usize = 60;
    let sinks = [server_a.trace_sink(), server_b.trace_sink()];
    let (go, go_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done) = std::sync::mpsc::channel::<()>();
    let issued = Arc::new(AtomicUsize::new(0));
    let history = Arc::new(SharedHistory::new());
    let writer_issued = Arc::clone(&issued);
    let writer_history = Arc::clone(&history);
    let writer_addrs = addrs.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::builder(&writer_addrs)
            .policy(LoadBalancePolicy::Pinned(0))
            .history(writer_history)
            .connect()
            .expect("connect");
        let mut minted: BTreeSet<u64> = BTreeSet::new();
        let mut seq = 0u64;
        while go_rx.recv().is_ok() {
            for _ in 0..PUTS {
                seq += 1;
                minted.insert(client.trace_next());
                client
                    .put(seq % HOT_KEYS, &seq.to_le_bytes())
                    .expect("put under link chaos");
                writer_issued.fetch_add(1, Ordering::Relaxed);
            }
            done_tx.send(()).expect("main thread waits for the round");
        }
        minted
    });
    // Sever until a reconnect actually replayed something (at least 8
    // rounds): a fixed round count can miss the in-flight window when the
    // host is loaded and the writer runs slowly.
    let mut severed = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let halfway = rounds * PUTS - PUTS / 2;
        go.send(()).expect("writer alive");
        while issued.load(Ordering::Relaxed) < halfway && !writer.is_finished() {
            std::thread::sleep(Duration::from_micros(200));
        }
        severed += proxy.sever_all();
        done.recv().expect("writer finished its round");
        for sink in &sinks {
            sink.drain();
        }
        if rounds >= 8 && server_a.metrics().snapshot().peer_replayed > 0 {
            break;
        }
        assert!(
            rounds < MAX_ROUNDS,
            "no replay after {rounds} sever rounds ({severed} severed)"
        );
    }
    assert!(severed > 0, "the proxy never had a link to sever");
    drop(go);
    let minted = writer.join().expect("writer survived link chaos");
    drop(proxy);
    // The store evicts its oldest events without counting them, which
    // would hide a double delivery as surely as a ring overflow.
    for sink in &sinks {
        sink.drain();
        assert!(
            sink.stored() < DEFAULT_STORE_CAPACITY,
            "trace store wrapped"
        );
    }

    let dumps = collect_traces_via(&TcpTransport, &addrs).expect("trace dump");
    for (node, (dropped, _)) in dumps.iter().enumerate() {
        assert_eq!(*dropped, 0, "node {node} dropped span events");
    }
    let events_a = &dumps[0].1;
    let events_b = &dumps[1].1;

    // Replayed frames carried trace context: A recorded Replay events,
    // and each one's id is an id this client actually minted (the
    // original id, not a remint).
    let replayed: Vec<u64> = events_a
        .iter()
        .filter(|ev| ev.kind == EventKind::Replay)
        .map(|ev| ev.trace_id)
        .collect();
    assert!(
        !replayed.is_empty(),
        "no traced frame was ever replayed ({severed} severs) — \
         widen the sever window"
    );
    for id in &replayed {
        assert!(
            minted.contains(id),
            "replayed frame carries unknown trace id {id:#x}"
        );
    }

    // Exactly once: for every traced id, B's protocol arrivals are at
    // most two (the invalidation and the commit update) — a replayed
    // tail that re-delivered confirmed messages would show up as extra
    // arrivals for the replayed ids.
    let mut arrivals: HashMap<u64, usize> = HashMap::new();
    for ev in events_b
        .iter()
        .filter(|ev| ev.kind == EventKind::ProtocolRecv)
    {
        *arrivals.entry(ev.trace_id).or_default() += 1;
    }
    for (&id, &n) in &arrivals {
        assert!(
            minted.contains(&id),
            "B saw protocol traffic with unknown trace id {id:#x}"
        );
        assert!(
            n <= 2,
            "trace {id:#x}: {n} protocol arrivals at B (replay double-delivered?)"
        );
    }

    // And the run stayed consistent throughout.
    let history = history.snapshot();
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated: {v}"));

    server_a.shutdown();
    server_b.shutdown();
}
