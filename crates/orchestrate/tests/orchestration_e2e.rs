//! Crash recovery of a real multi-process rack.
//!
//! These tests spawn actual `cckvs-node` OS processes (the binary built by
//! this workspace), SIGKILL one mid-write-traffic, and verify the whole
//! recovery chain: the supervisor restarts the process with backoff, the
//! survivors' serving layers redial and replay, reissued invalidations
//! unblock writers stranded by the dead process, and the recorded history
//! stays per-key linearizable with zero lost acknowledged writes.
//!
//! Scope note: writers drive the two *surviving* nodes. A write initiated
//! at the crashing node itself can be acknowledged in the instant before
//! SIGKILL with its update broadcast still in the dead process's buffers —
//! in-memory storage cannot close that window (the ROADMAP's UDP/RDMA
//! transport work picks it up). Cold keys homed at the killed node lose
//! their in-memory shard with it, so the workload writes only keys that
//! are cached (surviving in every peer's cache) or homed at a survivor.

use cckvs_net::client::{install_hot_set_via, Client, SharedHistory};
use cckvs_net::transport::TcpTransport;
use cckvs_net::LoadBalancePolicy;
use cckvs_orchestrate::{
    sibling_binary, NodeSpec, NodeStatus, RackSpec, Supervisor, SupervisorConfig, Topology,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{KeyId, ShardMap};

const HOT_KEYS: u64 = 64;
const COLD_KEYS: u64 = 2048;
const SESSIONS: u32 = 2;

fn free_ports(n: usize) -> Vec<u16> {
    // Bind-then-drop; the node listeners set SO_REUSEADDR, so immediate
    // reuse is safe.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("probe port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr").port())
        .collect()
}

fn test_topology(ports: &[u16], metrics_ports: &[u16]) -> Topology {
    Topology {
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
            .zip(metrics_ports)
            .map(|(&port, &metrics_port)| NodeSpec {
                listen: format!("127.0.0.1:{port}").parse().expect("addr"),
                metrics: Some(format!("127.0.0.1:{metrics_port}").parse().expect("addr")),
                epoch_hot_set: None,
            })
            .collect(),
    }
}

fn scrape_counter(metrics: SocketAddr, name: &str) -> Option<u64> {
    let stream = TcpStream::connect_timeout(&metrics, Duration::from_secs(2)).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    (&stream).write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut body = String::new();
    let _ = (&stream).take(1 << 20).read_to_string(&mut body);
    body.lines()
        .find(|line| line.starts_with(&format!("cckvs_{name}")))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

/// The acceptance bar: a 3-process rack under live zipf-flavoured
/// writes survives a SIGKILL of one node — the supervisor restarts it,
/// peers reconnect within the backoff budget, and the recorded history
/// passes the Lin checker with zero lost updates.
#[test]
fn three_process_rack_survives_sigkill_under_write_traffic() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let ports = free_ports(6);
    let topology = test_topology(&ports[..3], &ports[3..]);
    let metrics_addrs: Vec<SocketAddr> = topology
        .nodes
        .iter()
        .map(|n| n.metrics.expect("metrics configured"))
        .collect();
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.backoff_start = Duration::from_millis(100);
    cfg.log_dir = Some(std::env::temp_dir().join(format!("cckvs-orch-{}", std::process::id())));
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();

    // Hot set installed over the wire: these keys are cached on every
    // node, so their values survive any single crash.
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    // Writers drive the two surviving nodes; keys homed at node 0 are
    // written only if hot (see module docs).
    let shards = ShardMap::new(3, cckvs::node::DEFAULT_KVS_THREADS);
    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let survivors = vec![addrs[1], addrs[2]];
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
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
                    // Hot-skewed mix: mostly cached keys (where crash
                    // recovery is interesting), some survivor-homed cold
                    // keys. Write-partitioned across sessions.
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
                        client
                            .put(candidate, &value)
                            .expect("put while a peer crashes and recovers");
                        last_written.insert(candidate, value);
                    } else {
                        client
                            .get(candidate)
                            .expect("get while a peer crashes and recovers");
                    }
                }
                last_written
            })
        })
        .collect();

    // Let traffic establish, then murder node 0.
    std::thread::sleep(Duration::from_millis(400));
    let old_pid = supervisor.pid(0).expect("node 0 running");
    supervisor.kill_node(0).expect("SIGKILL node 0");

    // The supervisor must bring it back within the backoff budget.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if supervisor.restarts(0) >= 1 && supervisor.status(0) == NodeStatus::Ready {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "node 0 not restarted+ready in time: status {:?}, restarts {}",
            supervisor.status(0),
            supervisor.restarts(0)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let new_pid = supervisor.pid(0).expect("node 0 restarted");
    assert_ne!(old_pid, new_pid, "a fresh process must have been spawned");

    // Keep writing against the recovered rack, then stop.
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut total_ops = 0;
    for writer in writers {
        let last_written = writer.join().expect("writer survived the crash");
        total_ops += last_written.len();
        expected.extend(last_written);
    }
    assert!(total_ops > 0, "writers made no progress");

    // The survivors demonstrably reconnected and replayed.
    for &metrics in &metrics_addrs[1..] {
        let reconnects = scrape_counter(metrics, "peer_reconnects_total").unwrap_or(0);
        assert!(
            reconnects >= 1,
            "survivor at {metrics} never reconnected to the restarted node"
        );
    }

    // Consistency of everything the clients observed, across the crash.
    let history = history.snapshot();
    assert!(history.len() > 200, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated across the crash: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated across the crash: {v}"));

    // Zero lost updates: every acknowledged write is still readable.
    let survivors = vec![addrs[1], addrs[2]];
    let mut sweeper =
        Client::connect(&survivors, SESSIONS + 1, LoadBalancePolicy::RoundRobin).expect("connect");
    let mut lost = 0;
    for (&key, value) in &expected {
        let read = sweeper.get(key).expect("sweep get");
        if &read != value {
            lost += 1;
            eprintln!("lost update: key {key} holds {read:?}, expected {value:?}");
        }
    }
    assert_eq!(
        lost,
        0,
        "{lost}/{} keys lost their last write",
        expected.len()
    );

    // Epilogue: SIGTERM is a *clean stop* — the node drains and exits 0,
    // and the supervisor must NOT restart it.
    let restarts_before = supervisor.restarts(0);
    supervisor.terminate_node(0).expect("SIGTERM node 0");
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if supervisor.status(0) == NodeStatus::Stopped {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "SIGTERM did not produce a clean stop: {:?}",
            supervisor.status(0)
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        supervisor.restarts(0),
        restarts_before,
        "a deliberate stop must not be restarted"
    );
    supervisor.shutdown();
}

/// Unrestricted chaos traffic: sessions drive ALL three nodes (including
/// the one that gets SIGKILLed) with failed ops tolerated, and the
/// recorded history must still check clean. This is the regression test
/// for serving hot keys after a crash: the empty-cached replacement must
/// not serve them from its cold path while the survivors serve them
/// cached (the `--hot-fence` boot fence, the home-shard is-cached bounce
/// and the supervisor's symmetry heal close every such window), and
/// home-assigned cold versions must not regress (`--cold-floor`).
#[test]
fn whole_rack_chaos_traffic_stays_checker_clean_across_a_crash() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let ports = free_ports(6);
    let topology = test_topology(&ports[..3], &ports[3..]);
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.backoff_start = Duration::from_millis(100);
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u32)
        .map(|session| {
            let addrs = addrs.clone();
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::builder(&addrs)
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .connect()
                    .expect("connect");
                let mut failed = 0u64;
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    // Hot and cold keys alike, through every node: ops that
                    // die with the killed connection (or bounce past the
                    // retry budget mid-heal) are tolerated — an
                    // unacknowledged op carries no checker obligation.
                    let key = if !seq.is_multiple_of(4) {
                        (seq * 3 + u64::from(session)) % HOT_KEYS
                    } else {
                        HOT_KEYS + (seq * 3 + u64::from(session)) % COLD_KEYS
                    };
                    let result = if seq.is_multiple_of(3) {
                        let mut value = Vec::with_capacity(12);
                        value.extend_from_slice(&session.to_le_bytes());
                        value.extend_from_slice(&seq.to_le_bytes());
                        client.put(key, &value).map(|_| ())
                    } else {
                        client.get(key).map(|_| ())
                    };
                    if result.is_err() {
                        failed += 1;
                    }
                }
                (client.reconnects(), failed)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    supervisor.kill_node(0).expect("SIGKILL node 0");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(supervisor.restarts(0) >= 1 && supervisor.status(0) == NodeStatus::Ready) {
        assert!(Instant::now() < deadline, "node 0 not restarted in time");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Keep the chaos going while the supervisor heals, then wind down.
    std::thread::sleep(Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    let mut reconnects = 0;
    for writer in writers {
        let (r, _failed) = writer.join().expect("writer survived");
        reconnects += r;
    }
    assert!(reconnects >= 1, "no session ever redialed the killed node");

    let history = history.snapshot();
    assert!(history.len() > 500, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated by whole-rack chaos traffic: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated by whole-rack chaos traffic: {v}"));
    supervisor.shutdown();
}

/// The acceptance test for the continuation satellite: a Lin writer whose
/// commit is pending when a peer is SIGKILLed must NOT strand. Its queued
/// response is parked on the serving shard waiting for the dead peer's
/// ack; when the supervisor's replacement process redials, the survivor
/// reissues the pending invalidations, collects the vacuous acks, and the
/// final ack fires the parked continuation — the client gets its response
/// with no worker thread ever involved. The observable bar: every put
/// issued across the crash window completes, at least one survivor
/// demonstrably reissued invalidations for pending writes, the live rack
/// reports zero reactor worker threads, and the history checks Lin-clean.
#[test]
fn pending_lin_writer_resumes_via_vacuous_acks_after_peer_sigkill() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let ports = free_ports(6);
    let topology = test_topology(&ports[..3], &ports[3..]);
    let metrics_addrs: Vec<SocketAddr> = topology
        .nodes
        .iter()
        .map(|n| n.metrics.expect("metrics configured"))
        .collect();
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.backoff_start = Duration::from_millis(100);
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    // Writers pinned to the survivors hammer hot puts back to back: a hot
    // Lin put broadcasts an invalidation to every peer and its response
    // stays parked until the last ack — so at SIGKILL time some put is
    // all but certainly waiting on the doomed node, and every put issued
    // during the dead window parks behind the downed link.
    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let survivors = vec![addrs[1], addrs[2]];
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::builder(&survivors)
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .connect()
                    .expect("connect");
                let mut seq = 0u64;
                let mut slowest = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let key = (seq * u64::from(SESSIONS) + u64::from(session)) % HOT_KEYS;
                    let mut value = Vec::with_capacity(12);
                    value.extend_from_slice(&session.to_le_bytes());
                    value.extend_from_slice(&seq.to_le_bytes());
                    let started = Instant::now();
                    client
                        .put(key, &value)
                        .expect("pending Lin put must resume, not strand");
                    slowest = slowest.max(started.elapsed());
                }
                slowest
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    supervisor.kill_node(0).expect("SIGKILL node 0");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(supervisor.restarts(0) >= 1 && supervisor.status(0) == NodeStatus::Ready) {
        assert!(Instant::now() < deadline, "node 0 not restarted in time");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Let the reissue/vacuous-ack round complete under traffic.
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    let mut slowest = Duration::ZERO;
    for writer in writers {
        // A stranded writer would hang this join (and time the test out);
        // completion IS the no-stranded-client assertion.
        slowest = slowest.max(writer.join().expect("writer survived the crash"));
    }
    assert!(
        slowest < Duration::from_secs(30),
        "a put took {slowest:?} — response fired far later than the recovery path allows"
    );

    // The resume path demonstrably ran: a survivor reissued invalidations
    // for writes that were pending when the replacement process redialed,
    // and the parked continuations fired on-shard.
    let mut reissued = 0;
    for &metrics in &metrics_addrs[1..] {
        reissued += scrape_counter(metrics, "reissued_invalidations_total").unwrap_or(0);
        let fired = scrape_counter(metrics, "continuation_fire_count").unwrap_or(0);
        assert!(
            fired > 0,
            "survivor at {metrics} served Lin puts without firing continuations"
        );
    }
    assert!(
        reissued >= 1,
        "no survivor reissued invalidations — no writer was actually pending across the crash"
    );

    let history = history.snapshot();
    assert!(history.len() > 100, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated across the mid-commit crash: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated across the mid-commit crash: {v}"));
    supervisor.shutdown();
}

/// Cold-version continuity across a crash: the supervisor polls each
/// node's version counter and hands the restarted replacement a slacked
/// floor, so home-assigned versions for cold writes never regress — a
/// fresh counter would reuse `(clock, writer)` pairs its predecessor
/// already acknowledged to clients, making cross-crash histories
/// ambiguous (two different puts sharing one timestamp).
#[test]
fn cold_versions_stay_monotone_across_a_crash_restart() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let ports = free_ports(6);
    let topology = test_topology(&ports[..3], &ports[3..]);
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.backoff_start = Duration::from_millis(100);
    let supervisor = Supervisor::launch(topology, cfg).expect("launch rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("rack ready");
    let addrs = supervisor.client_addrs();

    // A cold (never-installed) key homed at node 0, written through node 1.
    let shards = ShardMap::new(3, cckvs::node::DEFAULT_KVS_THREADS);
    let key = (HOT_KEYS..HOT_KEYS + COLD_KEYS)
        .find(|&k| shards.home_node(KeyId(k)) == 0)
        .expect("some key homed at node 0");
    let history = Arc::new(SharedHistory::new());
    let mut client = Client::builder(&[addrs[1]])
        .policy(LoadBalancePolicy::Pinned(0))
        .history(Arc::clone(&history))
        .connect()
        .expect("connect");
    for seq in 0..50u64 {
        client.put(key, &seq.to_le_bytes()).expect("pre-crash put");
    }
    // Give the supervisor a poll cycle to observe the counter, then crash
    // the home.
    std::thread::sleep(Duration::from_millis(700));
    supervisor.kill_node(0).expect("SIGKILL node 0");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(supervisor.restarts(0) >= 1 && supervisor.status(0) == NodeStatus::Ready) {
        assert!(Instant::now() < deadline, "node 0 not restarted in time");
        std::thread::sleep(Duration::from_millis(25));
    }
    for seq in 50..100u64 {
        client.put(key, &seq.to_le_bytes()).expect("post-crash put");
    }
    // Without the floor the restarted home reuses version numbers and the
    // history becomes ambiguous; with it, the checker stays clean.
    let history = history.snapshot();
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("cold versions regressed across the crash: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("cold versions broke Lin across the crash: {v}"));
    supervisor.shutdown();
}

/// `--ready-fd`: the spawned node writes `ready\n` to the inherited fd
/// once its peer mesh is up (a single-node deployment is ready as soon as
/// it serves).
#[test]
fn ready_fd_reports_readiness() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let port = free_ports(1)[0];
    let (mut ready_rx, ready_wr) = reactor::inheritable_pipe().expect("pipe");
    let mut child = std::process::Command::new(node_bin)
        .args([
            "--node",
            "0",
            "--nodes",
            "1",
            "--listen",
            &format!("127.0.0.1:{port}"),
            "--peers",
            &format!("127.0.0.1:{port}"),
            "--ready-fd",
            &ready_wr.to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cckvs-node");
    reactor::close_raw_fd(ready_wr);
    let mut line = [0u8; 6];
    ready_rx
        .read_exact(&mut line)
        .expect("readiness byte before node exit");
    assert_eq!(&line, b"ready\n");
    // SIGTERM → graceful drain → exit 0.
    reactor::send_signal(child.id(), reactor::SIGTERM).expect("SIGTERM");
    let status = child.wait().expect("reap");
    assert_eq!(status.code(), Some(0), "SIGTERM must exit cleanly");
}

/// Exit-code contract: a taken port is `3` ("don't retry"), unreachable
/// peers are `4` ("retry") — what lets the supervisor distinguish
/// permanent config errors from transient boot races.
#[test]
fn exit_codes_distinguish_bind_failure_from_peer_timeout() {
    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    // Occupy a port, then ask a node to bind it.
    let squatter = TcpListener::bind("127.0.0.1:0").expect("squat");
    let taken = squatter.local_addr().expect("addr");
    let status = std::process::Command::new(&node_bin)
        .args([
            "--node",
            "0",
            "--nodes",
            "1",
            "--listen",
            &taken.to_string(),
            "--peers",
            &taken.to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run cckvs-node");
    assert_eq!(status.code(), Some(3), "bind failure must exit 3");

    // A 2-node deployment whose peer never comes up: peer-connect timeout.
    let ports = free_ports(2);
    let status = std::process::Command::new(&node_bin)
        .args([
            "--node",
            "0",
            "--nodes",
            "2",
            "--listen",
            &format!("127.0.0.1:{}", ports[0]),
            "--peers",
            &format!("127.0.0.1:{},127.0.0.1:{}", ports[0], ports[1]),
            "--peer-timeout",
            "1",
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run cckvs-node");
    assert_eq!(status.code(), Some(4), "peer timeout must exit 4");
}

/// A supervised multi-process rack on the UDP datagram transport: the
/// supervisor passes `--transport udp` to every node, probes readiness
/// over UDP, and a UDP client serves checked traffic — the whole
/// orchestration chain (spawn, ready-probe, admin dial, serve) on the
/// datagram fabric.
#[test]
fn supervised_rack_serves_over_udp_transport() {
    use cckvs_net::transport::{TransportConfig, TransportKind};

    let node_bin = sibling_binary("cckvs-node").expect("cckvs-node built next to the tests");
    let ports = free_ports(4);
    let mut topology = test_topology(&ports[..2], &ports[2..]);
    topology.rack.transport = Some(TransportKind::Udp);
    let mut cfg = SupervisorConfig::new(node_bin);
    cfg.log_dir = Some(std::env::temp_dir().join(format!("cckvs-orch-udp-{}", std::process::id())));
    let supervisor = Supervisor::launch(topology, cfg).expect("launch udp rack");
    supervisor
        .wait_ready(Duration::from_secs(60))
        .expect("udp rack ready");
    let addrs = supervisor.client_addrs();

    let udp = TransportConfig::udp();
    let entries: Vec<(u64, Vec<u8>)> = (0..16u64).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&*udp.build(), &addrs, &entries).expect("install hot set over udp");

    let history = Arc::new(SharedHistory::new());
    let mut client = Client::builder(&addrs)
        .policy(LoadBalancePolicy::RoundRobin)
        .transport(udp)
        .history(Arc::clone(&history))
        .connect()
        .expect("connect over udp");
    for seq in 0..200u64 {
        let key = seq % 16;
        client
            .put(key, &seq.to_le_bytes())
            .expect("put over udp rack");
        assert_eq!(
            client.get(key).expect("get over udp rack"),
            seq.to_le_bytes(),
            "read-your-write broken over supervised udp"
        );
    }
    let history = history.snapshot();
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated on supervised udp rack: {v}"));
    for (node, status) in supervisor.statuses().into_iter().enumerate() {
        assert_eq!(
            status,
            NodeStatus::Ready,
            "node {node} should still be ready"
        );
    }
    supervisor.shutdown();
}
