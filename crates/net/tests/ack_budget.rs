//! The acknowledgement budget of the peer mesh, as counts.
//!
//! A peer message should cost the fabric one packet. The transport under
//! it acknowledges what it receives, and an acknowledgement that finds no
//! reverse traffic to ride leaves as a packet of its own that no `send`
//! asked for: a pure-ACK TCP segment, a stand-alone UDP `ACK` datagram. A
//! reply — the Lin ack answering an invalidation, the `RpcResp` answering
//! an `RpcReq` — is reverse traffic exactly when it leaves on the
//! connection its request came in on, which is what one duplex link per
//! node pair arranges. This suite holds that with no clock involved: it
//! reads the kernel's own segment counts (`getsockopt(TCP_INFO)`, booked
//! per link as `cckvs_peer_link_tcp_segments_total` when a connection
//! closes) and the UDP transport's datagram census.
//!
//! Beside them it prints what the link's own acknowledgement costs: the
//! `Credit` frames (`cckvs_credit_frames_total{kind}`) per peer message,
//! piggybacked on a pack and alone.
//!
//! Each count is printed as `ack_budget <name> <value>` before anything is
//! asserted, so a run against another commit reports its numbers too.

use cckvs_net::transport::UDP_ACK_EVERY;
use cckvs_net::{LoadBalancePolicy, Rack, RackConfig, ReactorConfig, TransportKind};
use consistency::messages::ConsistencyModel;

const OPS: u64 = 1_000;

/// Stand-alone `ACK` datagrams per peer datagram at the parent of the
/// duplex mesh, where a peer link's datagrams all flowed one way (every
/// 16th one and every pacer pass acknowledged alone): Lin PUTs,
/// remote-miss GETs; medians of five debug-build runs, printed beside
/// this commit's.
const PARENT_UDP_ACKS_PER_PEER_DATAGRAM: [f64; 2] = [0.086, 0.084];

/// Pure ACKs per peer message for Lin PUTs on TCP while the outbox had a
/// bulk cork, which mostly held each update for the next PUT's, so the
/// pair rode a segment the next invalidation's ack acknowledged. Median of
/// seven debug-build runs (they spread over 0.017 – 0.163), printed beside
/// this commit's.
const PARENT_TCP_LIN_PURE_ACKS_PER_PEER_MSG: f64 = 0.032;

/// What the same Lin PUTs cost with one FIFO per link and no cork: the
/// update leaves at once and is acknowledged alone (1/3), plus the
/// handshake and close segments.
const TCP_LIN_PURE_ACKS_PER_PEER_MSG: f64 = 0.34;

fn report(name: &str, value: f64) {
    println!("ack_budget {name} {value:.3}");
}

/// What the peer mesh spent on a run, summed over the nodes.
struct Spent {
    /// Packets carrying peer messages.
    msgs: u64,
    /// Packets carrying only an acknowledgement.
    acks: u64,
    /// Peer messages: protocol messages, and a request and a response per
    /// remote miss.
    peer_msgs: u64,
    /// `Credit` frames that rode a pack, and that left alone.
    credits: (u64, u64),
}

/// Boots the rack `cfg` describes, runs `OPS` closed-loop ops through node 0 — Lin PUTs to one hot key
/// (invalidation → ack → update with each of the two peers), or GETs of
/// cold keys homed elsewhere (`RpcReq` → `RpcResp` with the home) — and
/// returns what the peer mesh spent on them, summed over the three nodes
/// after they shut down.
fn peer_packets_of(cfg: RackConfig, remote_misses: bool) -> Spent {
    let rack = Rack::launch(cfg).expect("launch rack");
    let hot = 1u64;
    rack.install_hot_set(&[(hot, vec![7; 40])])
        .expect("install");
    let node = rack.server(0).node();
    let remote: Vec<u64> = (2u64..)
        .filter(|key| node.home_node(*key) != 0)
        .take(8)
        .collect();
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .connect()
        .expect("connect");
    for (i, key) in (0..OPS).zip(remote.iter().cycle()) {
        if remote_misses {
            client.get(*key).expect("remote miss get");
        } else {
            client.put(hot, &i.to_le_bytes()).expect("lin put");
        }
    }
    drop(client);
    let metrics: Vec<_> = (0..rack.nodes())
        .map(|node| rack.server(node).metrics())
        .collect();
    rack.shutdown();
    let snaps: Vec<_> = metrics.iter().map(|m| m.snapshot()).collect();
    let sum = |field: fn(&cckvs_net::MetricsSnapshot) -> u64| snaps.iter().map(field).sum::<u64>();
    let peer_msgs = sum(|s| s.protocol_out) + 2 * sum(|s| s.remote_reads);
    let credits = (
        sum(|s| s.credit_frames_piggybacked),
        sum(|s| s.credit_frames_standalone),
    );
    let (msgs, acks) = if cfg.transport.kind == TransportKind::Udp {
        let kind = |kind: &str| -> u64 {
            (snaps.iter().flat_map(|snap| snap.udp_datagrams))
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| n)
                .sum()
        };
        // Node 0's transport also answered the client: one datagram per op.
        (kind("data").saturating_sub(OPS), kind("ack"))
    } else {
        let links = || {
            snaps
                .iter()
                .flat_map(|snap| snap.peer_tcp_segments.values())
        };
        (
            links().map(|(data, _)| data).sum(),
            links().map(|(_, ack)| ack).sum(),
        )
    };
    Spent {
        msgs,
        acks,
        peer_msgs,
        credits,
    }
}

#[test]
fn a_reply_carries_the_acknowledgement() {
    // A 3-node Lin rack on the fabric `CCKVS_TRANSPORT` names.
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.metrics = false;
    cfg.reactor = ReactorConfig { shards: 1 };
    let (lin_run, miss_run) = (peer_packets_of(cfg, false), peer_packets_of(cfg, true));
    for (name, run) in [("lin_put", &lin_run), ("remote_miss", &miss_run)] {
        let per_msg = |n: u64| n as f64 / run.peer_msgs as f64;
        report(
            &format!("{name}_credits_piggybacked_per_peer_msg"),
            per_msg(run.credits.0),
        );
        report(
            &format!("{name}_credits_standalone_per_peer_msg"),
            per_msg(run.credits.1),
        );
    }
    let (lin_msgs, miss_msgs) = (lin_run.msgs, miss_run.msgs);
    let lin = lin_run.acks as f64 / lin_msgs as f64;
    let miss = miss_run.acks as f64 / miss_msgs as f64;
    if cfg.transport.kind == TransportKind::Udp {
        let [parent_lin, parent_miss] = PARENT_UDP_ACKS_PER_PEER_DATAGRAM;
        report("lin_put_standalone_acks_per_peer_datagram", lin);
        report(
            "lin_put_standalone_acks_per_peer_datagram_parent",
            parent_lin,
        );
        report("remote_miss_standalone_acks_per_peer_datagram", miss);
        report(
            "remote_miss_standalone_acks_per_peer_datagram_parent",
            parent_miss,
        );
        assert!(lin_msgs >= 4 * OPS && miss_msgs >= 2 * OPS);
        // A pacer pass acknowledges alone only what was already owed at the
        // pass before, so a pass between a message and its reply just marks
        // the debt and the reply carries it; what is left is traffic nobody
        // answers within a pass. Held below what `UDP_ACK_EVERY` alone
        // costs a one-way link.
        let one_way_floor = 1.0 / f64::from(UDP_ACK_EVERY);
        assert!(lin < one_way_floor && miss < one_way_floor);
    } else {
        report("lin_put_pure_acks_per_peer_msg", lin);
        report(
            "lin_put_pure_acks_per_peer_msg_parent",
            PARENT_TCP_LIN_PURE_ACKS_PER_PEER_MSG,
        );
        report("remote_miss_pure_acks_per_peer_msg", miss);
        assert!(lin_msgs >= 4 * OPS && miss_msgs >= 2 * OPS);
        // Of inv → ack → update only the update, which nobody answers, is
        // acknowledged alone: one pure ACK per three peer messages.
        assert!(
            lin <= TCP_LIN_PURE_ACKS_PER_PEER_MSG,
            "more than the update is acknowledged alone"
        );
        assert!(
            miss <= 0.1,
            "a request and its response acknowledge each other"
        );
    }
}
