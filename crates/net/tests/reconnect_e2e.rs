//! Peer-link failure and recovery, end to end — without killing a process.
//!
//! A TCP proxy sits on the A→B peer-link path of a live 2-node rack and
//! repeatedly severs the connection mid-traffic (mid-batch, with a tiny
//! credit window so the cut lands in every interesting flow-control
//! state). The serving layer must redial through the proxy, reset the
//! credit window via the cumulative-confirmation handshake, and replay
//! exactly the unprocessed tail: dropped invalidations would hang Lin
//! writers forever, double-delivered ones would double-count acks (masked
//! only by the per-node bitmask), and leaked window would stall the link
//! for good. The observable bar: every write completes, the recorded
//! history stays per-key SC + Lin, no acknowledged write is lost, and the
//! reconnect/replay counters prove the machinery actually ran.

use cckvs::node::NodeConfig;
use cckvs_net::client::{install_hot_set_via, Client, SharedHistory};
use cckvs_net::server::{FlowConfig, NodeServer, NodeServerConfig};
use cckvs_net::transport::TcpTransport;
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A byte-forwarding TCP proxy whose live connections can be severed on
/// demand — the network fault injector.
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

    /// Severs every live proxied connection (both legs), wherever in a
    /// frame or batch the byte stream happens to be.
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
        // Unblock the accept loop.
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

/// The acceptance test for the reconnect satellite: a peer link severed
/// mid-batch resets the credit window on redial and never double-delivers
/// or drops an invalidation.
#[test]
fn severed_peer_link_replays_exactly_once_and_resets_the_window() {
    const SESSIONS: u32 = 3;
    const HOT_KEYS: u64 = 32;
    const SEVER_ROUNDS: usize = 8;

    let node_cfg = |node: usize| NodeConfig {
        model: ConsistencyModel::Lin,
        node,
        nodes: 2,
        cache_capacity: 128,
        kvs_capacity: 4096,
        value_capacity: 32,
        kvs_threads: cckvs::node::DEFAULT_KVS_THREADS,
    };
    // Tiny credit window: severs land while the window is part-consumed,
    // part-confirmed, and often mid-batch.
    let flow = FlowConfig {
        credit_window: 4,
        peer_batch_ops: 4,
        ..FlowConfig::default()
    };
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
    // A reaches B only through the proxy (peer link AND miss-path RPCs);
    // every other path is direct.
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

    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..SESSIONS)
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
                let mut last_written: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    // Write-partitioned hot keys so "last acknowledged
                    // write" is well defined; interleaved reads keep the
                    // checker honest.
                    let key = (seq * u64::from(SESSIONS) + u64::from(session)) % HOT_KEYS;
                    let mut value = Vec::with_capacity(16);
                    value.extend_from_slice(&session.to_le_bytes());
                    value.extend_from_slice(&seq.to_le_bytes());
                    client.put(key, &value).expect("put under link chaos");
                    last_written.insert(key, value);
                    client.get(seq % HOT_KEYS).expect("get under link chaos");
                }
                last_written
            })
        })
        .collect();

    // Sever the A→B link repeatedly while the writers hammer the rack.
    let mut severed_total = 0;
    for _ in 0..SEVER_ROUNDS {
        std::thread::sleep(Duration::from_millis(60));
        severed_total += proxy.sever_all();
    }
    assert!(severed_total > 0, "the proxy never had a link to sever");
    // Let the last reconnect settle under traffic, then stop.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for writer in writers {
        expected.extend(writer.join().expect("writer survived link chaos"));
    }
    assert!(!expected.is_empty(), "writers made no progress");

    // The recovery machinery demonstrably ran.
    let snap_a = server_a.metrics().snapshot();
    assert!(
        snap_a.peer_reconnects >= 1,
        "A never redialed: {} reconnects",
        snap_a.peer_reconnects
    );

    // Window-leak probe: after the final recovery, far more messages than
    // the window must flow A→B. A leaked (unreset) window would stall the
    // pump forever and hang these writes.
    let mut prober =
        Client::connect(&addrs, SESSIONS + 1, LoadBalancePolicy::Pinned(0)).expect("connect");
    let started = Instant::now();
    for seq in 0..100u64 {
        let key = seq % HOT_KEYS;
        prober
            .put(key, &seq.to_le_bytes())
            .expect("post-recovery write");
        expected.insert(key, seq.to_le_bytes().to_vec());
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "post-recovery burst took suspiciously long (leaked credit window?)"
    );

    // No acknowledged write was lost, wherever it lives now.
    let mut sweeper =
        Client::connect(&addrs, SESSIONS + 2, LoadBalancePolicy::RoundRobin).expect("connect");
    for (&key, value) in &expected {
        assert_eq!(
            &sweeper.get(key).expect("sweep get"),
            value,
            "key {key} lost its last acknowledged write across link severs"
        );
    }

    // And everything the clients observed was consistent throughout.
    let history = history.snapshot();
    assert!(history.len() > 100, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated across link severs: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated across link severs: {v}"));

    server_a.shutdown();
    server_b.shutdown();
}

/// The acceptance test for the correlated miss-RPC satellite: cold-key
/// operations from A against keys homed at B travel as correlated
/// request/response frames on the same crash-surviving peer link as the
/// coherence traffic. Severing that link mid-RPC must resolve every
/// in-flight RPC exactly once — the unacked tail (request possibly already
/// served at B) is replayed on redial, B may serve it twice, and the
/// duplicate response's correlation id no longer resolves at A. The
/// observable bar: every cold op completes with its correct value, the
/// history stays per-key SC + Lin, and the pending-RPC table drains to
/// zero.
#[test]
fn correlated_miss_rpcs_survive_link_severs_exactly_once() {
    const SESSIONS: u32 = 3;
    const HOT_KEYS: u64 = 8;
    const COLD_KEYS_PER_SESSION: usize = 8;
    const SEVER_ROUNDS: usize = 8;

    let node_cfg = |node: usize| NodeConfig {
        model: ConsistencyModel::Lin,
        node,
        nodes: 2,
        cache_capacity: 64,
        kvs_capacity: 4096,
        value_capacity: 32,
        kvs_threads: cckvs::node::DEFAULT_KVS_THREADS,
    };
    // Tiny credit window again: the peer link severs while part-consumed,
    // so RPC sub-frames land in every flow-control state.
    let flow = FlowConfig {
        credit_window: 4,
        peer_batch_ops: 4,
        ..FlowConfig::default()
    };
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
    // A reaches B only through the proxy — miss-path RPCs ride the same
    // peer link as invalidations, so severing it cuts both.
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

    // Cold keys homed at B, partitioned per writer session so "last
    // acknowledged write" is well defined per key.
    let cold: Vec<u64> = (HOT_KEYS..)
        .filter(|&k| server_a.node().home_node(k) == 1)
        .take(COLD_KEYS_PER_SESSION * SESSIONS as usize)
        .collect();

    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            let addrs = addrs.clone();
            let mine: Vec<u64> = cold
                .iter()
                .skip(session as usize * COLD_KEYS_PER_SESSION)
                .take(COLD_KEYS_PER_SESSION)
                .copied()
                .collect();
            std::thread::spawn(move || {
                // Pinned to A: every op on these B-homed keys is a
                // correlated RPC across the severed link.
                let mut client = Client::builder(&addrs)
                    .session(session)
                    .policy(LoadBalancePolicy::Pinned(0))
                    .history(history)
                    .connect()
                    .expect("connect");
                let mut last_written: HashMap<u64, Vec<u8>> = HashMap::new();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let key = mine[(seq as usize) % mine.len()];
                    let mut value = Vec::with_capacity(16);
                    value.extend_from_slice(&session.to_le_bytes());
                    value.extend_from_slice(&seq.to_le_bytes());
                    client.put(key, &value).expect("cold put under link chaos");
                    last_written.insert(key, value.clone());
                    // Read-your-write through the miss path: cold ops
                    // serialize at the home shard, and this key has a
                    // single writer.
                    let read = client.get(key).expect("cold get under link chaos");
                    assert_eq!(
                        read, value,
                        "cold key {key} lost or reordered its own write mid-sever"
                    );
                }
                last_written
            })
        })
        .collect();

    // Sever the A→B link repeatedly while every in-flight op is an RPC.
    let mut severed_total = 0;
    for _ in 0..SEVER_ROUNDS {
        std::thread::sleep(Duration::from_millis(60));
        severed_total += proxy.sever_all();
    }
    assert!(severed_total > 0, "the proxy never had a link to sever");
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for writer in writers {
        expected.extend(writer.join().expect("writer survived link chaos"));
    }
    assert!(!expected.is_empty(), "writers made no progress");

    let snap_a = server_a.metrics().snapshot();
    assert!(
        snap_a.peer_reconnects >= 1,
        "A never redialed: {} reconnects",
        snap_a.peer_reconnects
    );
    // Exactly-once resolution: every writer got exactly one response per
    // op (a duplicate response would desync the synchronous client and
    // fail the asserts above), and nothing is left in flight.
    assert_eq!(
        snap_a.pending_rpcs, 0,
        "pending-RPC table did not drain: {} entries stranded",
        snap_a.pending_rpcs
    );

    // No acknowledged cold write was lost — sweep through the same
    // RPC path and directly at the home node.
    for (probe, policy) in [
        (0usize, LoadBalancePolicy::Pinned(0)),
        (1, LoadBalancePolicy::Pinned(1)),
    ] {
        let mut sweeper =
            Client::connect(&addrs, SESSIONS + 1 + probe as u32, policy).expect("connect sweeper");
        for (&key, value) in &expected {
            assert_eq!(
                &sweeper.get(key).expect("sweep get"),
                value,
                "cold key {key} lost its last acknowledged write (probe via node {probe})"
            );
        }
    }

    let history = history.snapshot();
    assert!(history.len() > 50, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated across RPC severs: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated across RPC severs: {v}"));

    server_a.shutdown();
    server_b.shutdown();
}
