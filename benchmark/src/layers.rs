//! Group A: single-threaded timing loops around each layer's public
//! functions. No sockets except the two transport echoes; no rack.
//!
//! Every number is the median of [`REPS`] repetitions, in ns per call
//! (µs per round trip for the transport echoes).

use crate::drive::{HOT_KEYS, NODES, VALUE_BYTES};
use crate::stats::median;
use cckvs::node::{CachePut, CcNode, NodeConfig, Outgoing, DEFAULT_KVS_THREADS};
use cckvs_net::wire::{encode_frame_into, Frame, FrameDecoder};
use cckvs_net::{Transport, TransportConfig};
use cckvs_trace::{Event, EventKind, TraceSink, NO_PEER};
use consistency::engine::{Destination, NodeEngine, ProtocolEngine};
use consistency::{ConsistencyModel, NodeId, ProtocolMsg, Timestamp};
use kvstore::{ConcurrencyModel, NodeKvs};
use reactor::{TimerWheel, Token};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use symcache::SymmetricCache;
use workload::{AccessDistribution, Dataset, Mix, WorkloadGen};

const REPS: usize = 9;
/// Keys a single node's shard holds in the rack workloads (200 000 / 3).
const SHARD_KEYS: u64 = 66_667;

/// Median over [`REPS`] repetitions of the mean time of `iters` calls.
fn time_ns(iters: u32, mut call: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                call();
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&reps)
}

/// The frames one rack op puts on the wire, by class: client request and
/// response for a read and a write, and the Lin round's control and
/// data messages.
fn representative_frames() -> Vec<Frame> {
    let ts = Timestamp::new(7, NodeId(1));
    vec![
        Frame::Get { key: 42 },
        Frame::GetResp {
            cached: true,
            ts,
            value: vec![7; VALUE_BYTES],
        },
        Frame::Put {
            key: 42,
            value: vec![7; VALUE_BYTES],
        },
        Frame::PutResp { cached: true, ts },
        Frame::Protocol {
            msg: ProtocolMsg::Invalidation {
                key: 42,
                ts,
                from: NodeId(1),
            },
            bytes: None,
        },
        Frame::Protocol {
            msg: ProtocolMsg::Update {
                key: 42,
                value: 9,
                ts,
                from: NodeId(1),
            },
            bytes: Some(vec![7; VALUE_BYTES]),
        },
    ]
}

/// Encode and decode cost of `frames`, each in ns per frame.
fn codec(frames: &[Frame]) -> (f64, f64) {
    let scale = 1.0 / frames.len() as f64;
    let mut buf = Vec::with_capacity(4096);
    let encode = time_ns(20_000, || {
        buf.clear();
        for frame in frames {
            encode_frame_into(&mut buf, black_box(frame));
        }
        black_box(&buf);
    });
    let mut decoder = FrameDecoder::new();
    let decode = time_ns(20_000, || {
        decoder.feed(black_box(&buf));
        while let Some(frame) = decoder.next_frame().expect("frames encoded above") {
            black_box(frame);
        }
    });
    (encode * scale, decode * scale)
}

/// Strides through `0..n` so that successive keys share no cache line.
fn stride(k: &mut u64, n: u64) -> u64 {
    *k = (*k + 7_919) % n;
    *k
}

fn kvstore() -> (f64, f64) {
    let kvs = NodeKvs::with_value_capacity(
        ConcurrencyModel::Crcw,
        DEFAULT_KVS_THREADS,
        SHARD_KEYS as usize * 2,
        64,
    );
    let value = [7u8; VALUE_BYTES];
    for key in 0..SHARD_KEYS {
        kvs.put(key, &value, 1).expect("capacity reserved above");
    }
    let mut k = 0;
    let get = time_ns(50_000, || {
        black_box(kvs.get(black_box(stride(&mut k, SHARD_KEYS))));
    });
    let put = time_ns(50_000, || {
        kvs.put(black_box(stride(&mut k, SHARD_KEYS)), &value, 2)
            .expect("overwrite");
    });
    (get, put)
}

fn symcache() -> (f64, f64) {
    // A single-replica Lin cache commits a write at once, so the loop
    // times the write path through the store without a peer round.
    let cache = SymmetricCache::new(ConsistencyModel::Lin, NodeId(0), 1, HOT_KEYS, 64);
    let value = [7u8; VALUE_BYTES];
    for key in 0..HOT_KEYS as u64 {
        assert!(cache.fill(key, &value, 0));
    }
    let mut k = 0;
    let read = time_ns(100_000, || {
        black_box(cache.read(black_box(stride(&mut k, HOT_KEYS as u64))));
    });
    let mut tag = 0;
    let write = time_ns(100_000, || {
        tag += 1;
        black_box(cache.write(black_box(stride(&mut k, HOT_KEYS as u64)), &value, tag));
    });
    (read, write)
}

/// The protocol engine alone: a local write, its N−1 acks and the commit
/// for Lin; a local write for SC.
fn consistency() -> (f64, f64) {
    let mut lin = NodeEngine::new(ConsistencyModel::Lin, NodeId(0), NODES);
    let mut sc = NodeEngine::new(ConsistencyModel::Sc, NodeId(0), NODES);
    for key in 0..HOT_KEYS as u64 {
        lin.seed(key, 0);
        sc.seed(key, 0);
    }
    let mut k = 0;
    let mut value = 0;
    let lin_round = time_ns(50_000, || {
        let key = stride(&mut k, HOT_KEYS as u64);
        value += 1;
        let out = lin.client_put(key, value);
        let Some((_, ProtocolMsg::Invalidation { ts, .. })) = out.outgoing.first() else {
            panic!("a Lin write on {NODES} replicas starts with invalidations");
        };
        for peer in 1..NODES as u8 {
            black_box(lin.deliver(ProtocolMsg::Ack {
                key,
                ts: *ts,
                from: NodeId(peer),
            }));
        }
    });
    let sc_write = time_ns(100_000, || {
        value += 1;
        black_box(sc.client_put(stride(&mut k, HOT_KEYS as u64), value));
    });
    (lin_round, sc_write)
}

/// Three in-process nodes, messages handed over by function call: what
/// the serving layer's node logic costs with no socket in the way.
fn core_nodes() -> (f64, f64, f64) {
    let nodes: Vec<CcNode> = (0..NODES)
        .map(|node| {
            CcNode::new(NodeConfig {
                model: ConsistencyModel::Lin,
                node,
                nodes: NODES,
                cache_capacity: HOT_KEYS,
                kvs_capacity: SHARD_KEYS as usize * 2,
                value_capacity: 64,
                kvs_threads: DEFAULT_KVS_THREADS,
            })
        })
        .collect();
    let value = [7u8; VALUE_BYTES];
    for key in 0..HOT_KEYS as u64 {
        for node in &nodes {
            assert!(node.install_hot(key, &value, Timestamp::ZERO));
        }
    }
    let cold = HOT_KEYS as u64..HOT_KEYS as u64 + SHARD_KEYS;
    for key in cold.clone() {
        nodes[0]
            .kvs_put(key, &value, 1, 0)
            .expect("capacity reserved above");
    }
    let mut k = 0;
    let cache_get = time_ns(100_000, || {
        black_box(nodes[0].cache_get(black_box(stride(&mut k, HOT_KEYS as u64))));
    });
    let kvs_get = time_ns(50_000, || {
        black_box(nodes[0].kvs_get(black_box(cold.start + stride(&mut k, SHARD_KEYS))));
    });
    let mut tag = 0;
    let mut wire: VecDeque<(usize, Outgoing)> = VecDeque::new();
    let lin_put_round = time_ns(10_000, || {
        let key = stride(&mut k, HOT_KEYS as u64);
        tag += 1;
        let CachePut::Pending { ts, outgoing } = nodes[0].cache_put(key, &value, tag) else {
            panic!("a Lin write to an installed key on {NODES} nodes must wait for acks");
        };
        wire.extend(outgoing.into_iter().map(|out| (0, out)));
        // inv → ack → (commit) → update, until the rack is quiet.
        while let Some((from, out)) = wire.pop_front() {
            let to = match out.dest {
                Destination::Broadcast => (0..NODES).filter(|&n| n != from).collect::<Vec<_>>(),
                Destination::To(node) => vec![usize::from(node.0)],
            };
            for node in to {
                let replies = nodes[node].deliver(&out.msg, out.bytes.as_deref());
                wire.extend(replies.into_iter().map(|reply| (node, reply)));
            }
        }
        nodes[0].wait_committed(key, ts);
    });
    (cache_get, kvs_get, lin_put_round)
}

fn timer_lap() -> f64 {
    let mut wheel = TimerWheel::new();
    time_ns(100_000, || {
        wheel.schedule(Token(1), Duration::from_micros(120));
        black_box(wheel.expired());
    })
}

/// Round trip of a 64-byte message to an echo thread and back, in µs.
fn echo_rtt_us(transport: &dyn Transport) -> f64 {
    const MESSAGE: usize = 64;
    const ROUND_TRIPS: u32 = 500;
    let mut listener = transport
        .listen("127.0.0.1:0".parse().expect("static addr"))
        .expect("listen on loopback");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut conn = loop {
                if let Some(conn) = listener.accept().expect("accept") {
                    break conn;
                }
                assert!(Instant::now() < deadline, "echo accept timed out");
                std::thread::sleep(Duration::from_micros(200));
            };
            conn.set_nonblocking(false).expect("blocking echo");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut buf = [0u8; MESSAGE];
            // Echo until the dialer hangs up.
            while conn.read_exact(&mut buf).is_ok() {
                if conn.write_all(&buf).and_then(|()| conn.flush()).is_err() {
                    break;
                }
            }
        });
        let mut conn = transport
            .dial(addr, Duration::from_secs(5))
            .expect("dial echo");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut buf = [7u8; MESSAGE];
        time_ns(ROUND_TRIPS, || {
            conn.write_all(&buf).expect("echo write");
            conn.flush().expect("echo flush");
            conn.read_exact(&mut buf).expect("echo read");
        }) / 1_000.0
    })
}

fn trace_record() -> f64 {
    const ITERS: u32 = 50_000;
    // One repetition fits the ring; the drain between repetitions is
    // outside the timed loop.
    let sink = TraceSink::with_capacity(1, ITERS as usize, 16);
    let event = Event {
        trace_id: 1,
        t_ns: 0,
        key: 42,
        node: 0,
        shard: 0,
        kind: EventKind::Decode,
        peer: NO_PEER,
    };
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..ITERS {
                sink.record(black_box(event));
            }
            let ns = started.elapsed().as_nanos() as f64 / f64::from(ITERS);
            sink.drain();
            ns
        })
        .collect();
    assert_eq!(sink.dropped(), 0, "the ring holds one repetition");
    median(&reps)
}

fn generator() -> f64 {
    let mut gen = WorkloadGen::new(
        &Dataset::new(crate::drive::KEYS, VALUE_BYTES),
        AccessDistribution::Zipfian { exponent: 0.99 },
        Mix::with_write_ratio(0.05),
        1,
    );
    time_ns(100_000, || {
        black_box(gen.next_op());
    })
}

/// Every group-A metric, in the order of [`crate::spec::LAYER_LOOPS`].
pub fn metrics() -> Vec<(&'static str, f64)> {
    let (encode, decode) = codec(&representative_frames());
    let batch = [Frame::Batch {
        frames: (0..32).map(|key| Frame::Get { key }).collect(),
    }];
    let (batch_encode, batch_decode) = codec(&batch);
    let (kvs_get, kvs_put) = kvstore();
    let (cache_read, cache_write) = symcache();
    let (lin_round, sc_write) = consistency();
    let (node_cache_get, node_kvs_get, node_lin_put) = core_nodes();
    vec![
        ("wire.encode_ns", encode),
        ("wire.decode_ns", decode),
        ("wire.batch32_encode_ns", batch_encode),
        ("wire.batch32_decode_ns", batch_decode),
        ("kvstore.get_ns", kvs_get),
        ("kvstore.put_ns", kvs_put),
        ("symcache.read_hit_ns", cache_read),
        ("symcache.write_hit_ns", cache_write),
        ("consistency.lin_write_round_ns", lin_round),
        ("consistency.sc_write_ns", sc_write),
        ("core.node_cache_get_ns", node_cache_get),
        ("core.node_kvs_get_ns", node_kvs_get),
        ("core.node_lin_put_round_ns", node_lin_put),
        ("reactor.timer_lap_ns", timer_lap()),
        (
            "transport.tcp_rtt_us",
            echo_rtt_us(&*TransportConfig::tcp().build()),
        ),
        (
            "transport.udp_rtt_us",
            echo_rtt_us(&*TransportConfig::udp().build()),
        ),
        ("trace.record_ns", trace_record()),
        ("workload.zipf_sample_ns", generator()),
    ]
}
