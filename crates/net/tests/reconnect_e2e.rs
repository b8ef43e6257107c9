//! Peer-link failure and recovery, end to end — without killing a process.
//!
//! A TCP proxy sits on the one duplex peer link of a live 2-node rack (A,
//! the lower node id, dials B through it) and repeatedly severs the
//! connection mid-traffic (mid-batch, with a tiny credit window so the cut
//! lands in every interesting flow-control state). A must redial through
//! the proxy — B cannot dial, it parks its traffic until A is back — and
//! the one handshake must reset both credit windows and replay exactly the
//! unprocessed tail of *both* directions: dropped invalidations would hang Lin
//! writers forever, double-delivered ones would double-count acks (masked
//! only by the per-node bitmask), and leaked window would stall the link
//! for good. The observable bar: every write completes, the recorded
//! history stays per-key SC + Lin, no acknowledged write is lost, and the
//! reconnect/replay counters prove the machinery actually ran. Further
//! down: either node dying and coming back at its address, handshake
//! frames that must be refused without effect, and both directions
//! saturated at once.

use cckvs::node::NodeConfig;
use cckvs_net::client::{install_hot_set_via, Client, SharedHistory};
use cckvs_net::server::{FlowConfig, NodeServer, NodeServerConfig};
use cckvs_net::transport::TcpTransport;
use cckvs_net::wire::{read_frame, write_frame, Frame};
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
    /// Forwards to `target`; with `socket_buffers`, through kernel buffers
    /// of that many bytes per socket (a narrow pipe).
    fn start(target: SocketAddr, socket_buffers: Option<usize>) -> Proxy {
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
                if let Some(bytes) = socket_buffers {
                    use std::os::fd::AsRawFd;
                    for socket in [&client, &upstream] {
                        reactor::set_socket_buffers(socket.as_raw_fd(), bytes).expect("buffers");
                    }
                }
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

fn node_cfg(node: usize, listen: Option<SocketAddr>, flow: FlowConfig) -> NodeServerConfig {
    let mut cfg = NodeServerConfig::loopback(NodeConfig {
        model: ConsistencyModel::Lin,
        node,
        nodes: 2,
        cache_capacity: 128,
        kvs_capacity: 4096,
        value_capacity: 32,
        kvs_threads: cckvs::node::DEFAULT_KVS_THREADS,
    });
    cfg.flow = flow;
    cfg.metrics_listen = None;
    if let Some(listen) = listen {
        cfg.listen = listen;
    }
    cfg
}

/// A two-node Lin rack, A = node 0 and B = node 1, wired directly.
fn pair(flow: FlowConfig) -> (NodeServer, NodeServer, Vec<SocketAddr>) {
    let mut server_a = NodeServer::start(node_cfg(0, None, flow)).expect("start A");
    let mut server_b = NodeServer::start(node_cfg(1, None, flow)).expect("start B");
    let addrs = vec![server_a.addr(), server_b.addr()];
    for server in [&mut server_a, &mut server_b] {
        server
            .connect_peers(&addrs, Duration::from_secs(5))
            .expect("wire");
    }
    (server_a, server_b, addrs)
}

/// [`pair`], with the one peer link — A dials it, being the lower id —
/// running through a proxy; every other path is direct.
fn proxied_pair(
    flow: FlowConfig,
    socket_buffers: Option<usize>,
) -> (NodeServer, NodeServer, Proxy, Vec<SocketAddr>) {
    let mut server_a = NodeServer::start(node_cfg(0, None, flow)).expect("start A");
    let mut server_b = NodeServer::start(node_cfg(1, None, flow)).expect("start B");
    let addrs = vec![server_a.addr(), server_b.addr()];
    let proxy = Proxy::start(addrs[1], socket_buffers);
    server_a
        .connect_peers(&[addrs[0], proxy.addr], Duration::from_secs(5))
        .expect("wire A");
    server_b
        .connect_peers(&addrs, Duration::from_secs(5))
        .expect("wire B");
    (server_a, server_b, proxy, addrs)
}

/// Tiny credit window: severs land while the window is part-consumed,
/// part-confirmed, and often mid-batch.
const TINY_WINDOW: FlowConfig = FlowConfig {
    credit_window: 4,
    peer_batch_ops: 4,
    max_delay: Duration::from_micros(200),
};

/// The recovery machinery demonstrably ran, in both directions of the one
/// link: A redialed, B accepted it back, and each side replayed a retained
/// tail the other had not processed.
fn assert_both_directions_recovered(server_a: &NodeServer, server_b: &NodeServer) {
    let (snap_a, snap_b) = (server_a.metrics().snapshot(), server_b.metrics().snapshot());
    assert!(snap_a.peer_reconnects >= 1, "A never redialed");
    assert!(snap_b.peer_reconnects >= 1, "B never took A back");
    assert!(snap_a.peer_replayed > 0, "nothing replayed A → B");
    assert!(snap_b.peer_replayed > 0, "nothing replayed B → A");
}

/// The acceptance test for the reconnect satellite: a peer link severed
/// mid-batch resets both credit windows on redial and never double-delivers
/// or drops an invalidation in either direction.
#[test]
fn severed_peer_link_replays_exactly_once_and_resets_the_window() {
    const SESSIONS: u32 = 3;
    const HOT_KEYS: u64 = 32;
    const SEVER_ROUNDS: usize = 8;

    let (server_a, server_b, proxy, addrs) = proxied_pair(TINY_WINDOW, None);
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

    // Sever the link repeatedly while the writers hammer the rack.
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

    assert_both_directions_recovered(&server_a, &server_b);

    // Window-leak probe: after the final recovery, far more messages than
    // the window must flow each way. A leaked (unreset) window would stall
    // a pump forever and hang these writes.
    let mut prober =
        Client::connect(&addrs, SESSIONS + 1, LoadBalancePolicy::RoundRobin).expect("connect");
    let started = Instant::now();
    for seq in 0..200u64 {
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
/// operations against keys homed at the *other* node — from A against B
/// and from B against A at once — travel as correlated request/response
/// frames on the same crash-surviving peer link as the coherence traffic.
/// Severing that link mid-RPC must resolve every in-flight RPC exactly
/// once in both directions — the unacked tail (request possibly already
/// served) is replayed on redial, the home may serve it twice, and the
/// duplicate response's correlation id no longer resolves. The
/// observable bar: every cold op completes with its correct value, the
/// history stays per-key SC + Lin, and both pending-RPC tables drain to
/// zero.
#[test]
fn correlated_miss_rpcs_survive_link_severs_exactly_once() {
    const SESSIONS: u32 = 4;
    const HOT_KEYS: u64 = 8;
    const COLD_KEYS_PER_SESSION: usize = 8;
    const SEVER_ROUNDS: usize = 8;

    let (server_a, server_b, proxy, addrs) = proxied_pair(TINY_WINDOW, None);
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    // Session `s` is pinned to node `s % 2` and owns cold keys homed at
    // the other one, so "last acknowledged write" is well defined per key
    // and every op is a correlated RPC across the severed link.
    let cold_homed_at = |home: usize, nth: usize| -> Vec<u64> {
        (HOT_KEYS..)
            .filter(|&k| server_a.node().home_node(k) == home)
            .skip(nth * COLD_KEYS_PER_SESSION)
            .take(COLD_KEYS_PER_SESSION)
            .collect()
    };

    let history = Arc::new(SharedHistory::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let history = Arc::clone(&history);
            let stop = Arc::clone(&stop);
            let addrs = addrs.clone();
            let via = session as usize % 2;
            let mine = cold_homed_at(1 - via, session as usize / 2);
            std::thread::spawn(move || {
                let mut client = Client::builder(&addrs)
                    .session(session)
                    .policy(LoadBalancePolicy::Pinned(via))
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

    // Sever the link repeatedly while every in-flight op is an RPC.
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

    assert_both_directions_recovered(&server_a, &server_b);
    // Exactly-once resolution: every writer got exactly one response per
    // op (a duplicate response would desync the synchronous client and
    // fail the asserts above), and nothing is left in flight.
    for server in [&server_a, &server_b] {
        let pending = server.metrics().snapshot().pending_rpcs;
        assert_eq!(pending, 0, "pending-RPC table did not drain");
    }

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

/// Sixteen cold keys homed at `home`, each with the value a test expects
/// to find there.
fn cold_keys(server: &NodeServer, home: usize) -> Vec<(u64, Vec<u8>)> {
    (1000u64..)
        .filter(|&key| server.node().home_node(key) == home)
        .take(16)
        .map(|key| (key, key.to_le_bytes().to_vec()))
        .collect()
}

/// Writes then reads back `keys` through node `via` — homed at the other
/// node, every op crosses the peer link as an `RpcReq` and its `RpcResp`.
fn cross_link_round_trip(addrs: &[SocketAddr], session: u32, via: usize, keys: &[(u64, Vec<u8>)]) {
    let mut client =
        Client::connect(addrs, session, LoadBalancePolicy::Pinned(via)).expect("connect");
    for (key, value) in keys {
        client.put(*key, value).expect("cross-link put");
        assert_eq!(&client.get(*key).expect("cross-link get"), value);
    }
}

/// The higher node id of a pair cannot dial. When its process dies and a
/// new one takes its address, it waits: the lower side's redial thread,
/// backing off since the link died, reaches the new listener within
/// `REDIAL_BACKOFF_MAX`, and only then does the newcomer serve (its client
/// connections are parked until every link is up).
#[test]
fn a_restarted_higher_node_is_brought_back_by_the_lower_sides_redial() {
    let (server_a, server_b, addrs) = pair(FlowConfig::default());
    let homed_at_a = cold_keys(&server_a, 0);
    let homed_at_b = cold_keys(&server_a, 1);
    cross_link_round_trip(&addrs, 1, 1, &homed_at_a);

    server_b.shutdown();
    let restarted = Instant::now();
    let mut server_b =
        NodeServer::start(node_cfg(1, Some(addrs[1]), FlowConfig::default())).expect("restart B");
    // Nobody to dial: returns at once, with the link still down.
    server_b
        .connect_peers(&addrs, Duration::from_secs(5))
        .expect("wire B'");

    // What A's shard holds survived B's death; B' reads it over the link
    // A redialed, and A reaches the (empty) shard B' now homes.
    let mut via_b = Client::connect(&addrs, 2, LoadBalancePolicy::Pinned(1)).expect("connect");
    for (key, value) in &homed_at_a {
        assert_eq!(&via_b.get(*key).expect("get through B'"), value);
    }
    assert!(
        restarted.elapsed() < Duration::from_secs(5),
        "B' waited {:?} to be dialed",
        restarted.elapsed()
    );
    cross_link_round_trip(&addrs, 3, 0, &homed_at_b);
    // A reconnected; to the newcomer it was a first connection.
    assert!(server_a.metrics().snapshot().peer_reconnects >= 1);
    assert_eq!(server_b.metrics().snapshot().peer_reconnects, 0);

    server_a.shutdown();
    server_b.shutdown();
}

/// The lower node id dials on boot, so a replacement process brings the
/// link back itself; the higher side recognises the new generation, drops
/// what it held for the dead one and serves both directions again.
#[test]
fn a_restarted_lower_node_dials_on_boot() {
    let (server_a, server_b, addrs) = pair(FlowConfig::default());
    let homed_at_a = cold_keys(&server_a, 0);
    let homed_at_b = cold_keys(&server_a, 1);
    cross_link_round_trip(&addrs, 1, 0, &homed_at_b);

    server_a.shutdown();
    let mut server_a =
        NodeServer::start(node_cfg(0, Some(addrs[0]), FlowConfig::default())).expect("restart A");
    server_a
        .connect_peers(&addrs, Duration::from_secs(5))
        .expect("wire A'");

    let mut via_a = Client::connect(&addrs, 2, LoadBalancePolicy::Pinned(0)).expect("connect");
    for (key, value) in &homed_at_b {
        assert_eq!(&via_a.get(*key).expect("get through A'"), value);
    }
    cross_link_round_trip(&addrs, 3, 1, &homed_at_a);
    // To the newcomer it was a first connection; B took a peer back.
    assert_eq!(server_a.metrics().snapshot().peer_reconnects, 0);
    assert_eq!(server_b.metrics().snapshot().peer_reconnects, 1);

    server_a.shutdown();
    server_b.shutdown();
}

fn refused(conn: &mut TcpStream) -> bool {
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    !matches!(read_frame(conn), Ok(Some(_)))
}

/// Reject ⇒ no state change, on the accepting side: a hello from the
/// peer's dead predecessor (a lower generation), from a node that should
/// be dialed rather than dial, or from no node at all is refused without
/// an answer, and the live link it would have replaced carries on —
/// nothing was torn down, nothing redialed.
#[test]
fn a_stale_or_misdirected_hello_changes_nothing() {
    let (server_a, server_b, addrs) = pair(FlowConfig::default());
    let homed_at_b = cold_keys(&server_a, 1);
    cross_link_round_trip(&addrs, 1, 0, &homed_at_b);
    for (to, from, gen) in [
        (1, 0, 1),
        (0, 1, u64::MAX),
        (1, 1, u64::MAX),
        (1, 9, u64::MAX),
    ] {
        let mut conn = TcpStream::connect(addrs[to]).expect("connect");
        let hello = Frame::PeerHello {
            from,
            gen,
            processed: 0,
            peer_gen: 0,
        };
        write_frame(&mut conn, &hello).expect("hello");
        assert!(refused(&mut conn), "node {to} answered {hello:?}");
    }
    cross_link_round_trip(&addrs, 2, 0, &homed_at_b);
    cross_link_round_trip(&addrs, 3, 1, &cold_keys(&server_a, 0));
    for server in [&server_a, &server_b] {
        let snap = server.metrics().snapshot();
        assert_eq!((snap.peer_reconnects, snap.peer_replayed), (0, 0));
    }
    server_a.shutdown();
    server_b.shutdown();
}

/// Reject ⇒ no state change, on the dialing side: a `PeerHelloAck` that
/// claims more messages processed than were ever sent (or names no
/// generation, or no resume point) fails the handshake, and the next
/// attempt's hello is the first one again — the generation and counts the
/// bad acks carried were not recorded.
#[test]
fn a_hello_ack_claiming_more_than_was_sent_changes_nothing() {
    let fake_b = TcpListener::bind("127.0.0.1:0").expect("bind fake B");
    let mut server_a =
        NodeServer::start(node_cfg(0, None, FlowConfig::default())).expect("start A");
    let addrs = [server_a.addr(), fake_b.local_addr().expect("addr")];
    let dialing = std::thread::spawn(move || {
        server_a
            .connect_peers(&addrs, Duration::from_secs(10))
            .expect("the honest ack completes the handshake");
        server_a
    });
    let bad_acks = [(1_000_000, 5, 1), (0, 0, 1), (0, 6, 0)];
    let mut hellos = Vec::new();
    for (processed, gen, start_seq) in bad_acks.into_iter().chain([(0, 7, 1)]) {
        let (mut conn, _) = fake_b.accept().expect("A dials");
        hellos.push(read_frame(&mut conn).expect("read").expect("hello"));
        let ack = Frame::PeerHelloAck {
            processed,
            gen,
            start_seq,
        };
        write_frame(&mut conn, &ack).expect("ack");
        if gen == 7 {
            let resume = read_frame(&mut conn).expect("read");
            assert_eq!(resume, Some(Frame::PeerResume { start_seq: 1 }));
            let server_a = dialing.join().expect("dialer");
            server_a.shutdown();
            break;
        }
        assert!(refused(&mut conn), "A resumed after {ack:?}");
    }
    assert!(
        matches!(hellos[0], Frame::PeerHello { from: 0, processed: 0, peer_gen: 0, gen } if gen > 0)
    );
    assert!(hellos.iter().all(|hello| *hello == hellos[0]), "{hellos:?}");
}

/// A peer connection never stops reading because its own writes are backed
/// up. Both nodes blast Lin writes at each other through a narrow pipe
/// (4 KB socket buffers, a window of 4): if each end stopped reading while
/// its output waited — harmless on a one-way link — neither would drain
/// the other and both would hang. Both drain, the history stays per-key
/// Lin, and the window did close along the way.
#[test]
fn both_directions_saturated_at_once_both_drain() {
    const SESSIONS_PER_NODE: u32 = 4;
    const PUTS_PER_SESSION: u64 = 2_500;
    const HOT_KEYS: u64 = 16;
    let (server_a, server_b, _proxy, addrs) = proxied_pair(TINY_WINDOW, Some(4096));
    let entries: Vec<(u64, Vec<u8>)> = (0..HOT_KEYS).map(|k| (k, vec![0u8; 16])).collect();
    install_hot_set_via(&TcpTransport, &addrs, &entries).expect("install hot set");

    let history = Arc::new(SharedHistory::new());
    let writers: Vec<_> = (0..2 * SESSIONS_PER_NODE)
        .map(|session| {
            let addrs = addrs.clone();
            let history = Arc::clone(&history);
            std::thread::spawn(move || {
                let mut client = Client::builder(&addrs)
                    .session(session)
                    .policy(LoadBalancePolicy::Pinned(session as usize % 2))
                    .history(history)
                    .connect()
                    .expect("connect");
                for seq in 0..PUTS_PER_SESSION {
                    let mut value = session.to_le_bytes().to_vec();
                    value.extend_from_slice(&seq.to_le_bytes());
                    client
                        .queue_put((seq + u64::from(session)) % HOT_KEYS, &value)
                        .expect("queue put");
                }
                client.flush().expect("flush").len()
            })
        })
        .collect();
    for writer in writers {
        let answered = writer.join().expect("writer drained");
        assert_eq!(answered as u64, PUTS_PER_SESSION);
    }
    history
        .snapshot()
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated under saturation: {v}"));
    let stalls = |server: &NodeServer| server.metrics().snapshot().credit_stalls;
    assert!(stalls(&server_a) > 0 && stalls(&server_b) > 0);
    server_a.shutdown();
    server_b.shutdown();
}

/// `Ping` is answered only once every link has been up, and a connection
/// parked until then is released by the lap that brings the last link up —
/// on a one-shard node that lap is the parked connection's own shard's, its
/// wake to itself is a no-op, and nothing else will ever arrive to run
/// another.
#[test]
fn a_client_parked_before_the_mesh_is_up_is_released_by_the_last_link() {
    let one_shard = |node| {
        let mut cfg = node_cfg(node, None, FlowConfig::default());
        cfg.reactor = cckvs_net::ReactorConfig { shards: 1 };
        cfg
    };
    let mut server_a = NodeServer::start(one_shard(0)).expect("start A");
    let mut server_b = NodeServer::start(one_shard(1)).expect("start B");
    let addrs = [server_a.addr(), server_b.addr()];
    let mut early = TcpStream::connect(addrs[1]).expect("connect");
    write_frame(&mut early, &Frame::ClientHello).expect("hello");
    write_frame(&mut early, &Frame::Ping).expect("ping");
    early
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    assert!(read_frame(&mut early).is_err(), "B served before its mesh");
    // B's addresses first: its one link, accepted, is then the last thing
    // missing, and it comes up on B's only shard.
    for server in [&mut server_b, &mut server_a] {
        server
            .connect_peers(&addrs, Duration::from_secs(5))
            .expect("wire");
    }
    early
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(read_frame(&mut early).expect("pong"), Some(Frame::Pong));
    server_a.shutdown();
    server_b.shutdown();
}
