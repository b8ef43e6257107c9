//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` lists the same names; the schema
//! test fails when the two drift apart.

/// How a workload draws its keys from the 200 000-key dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// Zipf 0.99 over the 2 048 installed hot ranks only: every op hits
    /// the symmetric cache.
    HotZipf,
    /// Uniform over every key: ~1 % of ops hit the cache.
    Uniform,
    /// Zipf 0.99 over every key: ~62 % of ops hit the cache.
    Zipf,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub udp: bool,
    pub keys: Keys,
    pub write_ratio: f64,
    /// Deadline-batched client (`queue_*`) instead of one frame per op.
    pub batched: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    // Every op is an inline symmetric-cache hit: only client, wire,
    // reactor, server shard and symcache work; kvstore, consistency and
    // the peer mesh idle. The floor for front-end cost.
    Workload {
        name: "hot_read",
        udp: false,
        keys: Keys::HotZipf,
        write_ratio: 0.0,
        batched: false,
    },
    // The same layers used differently: each PUT is a Lin
    // inv → ack → commit → update round across the mesh, contending on the
    // hottest keys.
    Workload {
        name: "hot_write",
        udp: false,
        keys: Keys::HotZipf,
        write_ratio: 0.2,
        batched: false,
    },
    // Bypasses symcache and consistency: ≈ 2/3 of ops are RPCs to
    // a remote home shard, the rest local kvstore accesses. A cache- or
    // Lin-side optimisation must predict no change here.
    Workload {
        name: "cold_uniform",
        udp: false,
        keys: Keys::Uniform,
        write_ratio: 0.05,
        batched: false,
    },
    // The paper's headline mix on the paper's fabric shape, CPU-bound
    // rather than round-trip-bound: codec, symcache, kvstore, batch
    // prefetch and the UDP reliability layer dominate.
    Workload {
        name: "skew_udp",
        udp: true,
        keys: Keys::Zipf,
        write_ratio: 0.05,
        batched: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics, `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "ops/s"),
    ("get_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Group A: single-threaded timing loops around one layer's public
/// functions (`layers.rs`), `(name, unit)`.
pub const LAYER_LOOPS: [(&str, &str); 18] = [
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.batch32_encode_ns", "ns"),
    ("wire.batch32_decode_ns", "ns"),
    ("kvstore.get_ns", "ns"),
    ("kvstore.put_ns", "ns"),
    ("symcache.read_hit_ns", "ns"),
    ("symcache.write_hit_ns", "ns"),
    ("consistency.lin_write_round_ns", "ns"),
    ("consistency.sc_write_ns", "ns"),
    ("core.node_cache_get_ns", "ns"),
    ("core.node_kvs_get_ns", "ns"),
    ("core.node_lin_put_round_ns", "ns"),
    ("reactor.timer_lap_ns", "ns"),
    ("transport.tcp_rtt_us", "us"),
    ("transport.udp_rtt_us", "us"),
    ("trace.record_ns", "ns"),
    ("workload.zipf_sample_ns", "ns"),
];

/// Group B: derived from the traced run of a workload (`traced.rs`),
/// `(name, unit)`.
pub const TRACED: [(&str, &str); 36] = [
    ("host.echo_round_trips_s", "1/s"),
    ("host.echo_p50_us", "us"),
    ("host.echo_p99_us", "us"),
    ("client.get_p50_us", "us"),
    ("client.put_p50_us", "us"),
    ("client.cpu_us_per_op", "us"),
    ("client.batch_ops_p50", "count"),
    ("client.flush_rtt_p50_us", "us"),
    ("symcache.hit_rate", "ratio"),
    ("server.inline_get_share", "ratio"),
    ("server.remote_miss_share", "ratio"),
    ("server.protocol_msgs_per_op", "ratio"),
    ("server.priority_lane_frames_per_op", "ratio"),
    ("server.credit_stalls_per_kop", "ratio"),
    ("server.lin_ack_wait_p50_us", "us"),
    ("server.lin_ack_wait_p99_us", "us"),
    ("server.fanout_p50_us", "us"),
    ("server.continuation_fire_p50_us", "us"),
    ("server.cork_wait_p50_us", "us"),
    ("server.cork_flush_deadline_share", "ratio"),
    ("server.peer_batch_ops_p50", "count"),
    ("server.loop_lap_p99_us", "us"),
    ("span.get_request_wire_p50_us", "us"),
    ("span.get_server_residence_p50_us", "us"),
    ("span.get_response_wire_p50_us", "us"),
    ("span.put_request_wire_p50_us", "us"),
    ("span.put_server_residence_p50_us", "us"),
    ("span.put_response_wire_p50_us", "us"),
    ("span.inv_to_ack_p50_us", "us"),
    ("span.miss_rpc_p50_us", "us"),
    ("budget.get_explained_share", "ratio"),
    ("budget.put_explained_share", "ratio"),
    ("trace.sampled_ops", "count"),
    ("trace.dropped_events", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.traced_throughput_ops_s", "ops/s"),
];
