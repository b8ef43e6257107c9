//! Group B: per-layer numbers derived from a traced run — server counter
//! deltas over the window, and span chains of the sampled ops joined with
//! the stamps the sessions took around each traced call.

use crate::drive::{Samples, TracedOp};
use crate::stats::{median, quantile};
use cckvs_net::MetricsSnapshot;
use cckvs_trace::{Event, EventKind};
use std::collections::HashMap;

/// Every node's metrics registry, read in-process.
pub fn snapshots(rack: &cckvs_net::Rack) -> Vec<MetricsSnapshot> {
    (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot())
        .collect()
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a list of durations in ns, in µs; 0 when none were seen.
fn p50_us(ns: &[f64]) -> f64 {
    us(median(ns))
}

/// Where one sampled op's time went, from its span chain.
struct Chain {
    request_wire: f64,
    residence: f64,
    response_wire: f64,
    inv_to_ack: Vec<f64>,
    miss_rpc: Option<f64>,
}

/// Splits a traced op at the serving node's `decode` and `respond`
/// events. `None` when the chain is incomplete (events dropped at a full
/// ring, or evicted from the bounded store).
fn chain(op: &TracedOp, events: &[Event]) -> Option<Chain> {
    let at = |kind: EventKind| events.iter().filter(move |ev| ev.kind == kind);
    let decode = at(EventKind::Decode).map(|ev| ev.t_ns).min()?;
    let respond = at(EventKind::Respond).map(|ev| ev.t_ns).max()?;
    if decode < op.call_ns || respond < decode || op.return_ns < respond {
        return None;
    }
    let inv_to_ack = at(EventKind::InvSend)
        .filter_map(|inv| {
            let ack = at(EventKind::AckRecv).find(|ack| ack.peer == inv.peer)?;
            ack.t_ns.checked_sub(inv.t_ns).map(|ns| ns as f64)
        })
        .collect();
    let miss_rpc = at(EventKind::MissRpc).next().and_then(|rpc| {
        let resumed = at(EventKind::ContinuationFire).map(|ev| ev.t_ns).max()?;
        resumed.checked_sub(rpc.t_ns).map(|ns| ns as f64)
    });
    Some(Chain {
        request_wire: (decode - op.call_ns) as f64,
        residence: (respond - decode) as f64,
        response_wire: (op.return_ns - respond) as f64,
        inv_to_ack,
        miss_rpc,
    })
}

/// The traced run's metrics, in the order of [`crate::spec::TRACED`].
/// None is scaled by the reference loop, whose own readings lead the list.
///
/// Counters are deltas over the window, summed over the nodes. The
/// servers' phase percentiles come from histograms that cannot be
/// subtracted, so they cover everything since the rack booted (preload,
/// history pass and warm-up included); the middle node's value is
/// reported.
pub fn metrics(
    samples: &[Samples],
    seconds: u64,
    before: &[MetricsSnapshot],
    after: &[MetricsSnapshot],
    dumps: &[(u64, Vec<Event>)],
) -> Vec<(&'static str, f64)> {
    let [_, rate, _, _, cpu_per_op, echo_rate, echo_p50, echo_p99] =
        crate::drive::series(samples, seconds);
    // Odd slices ran traced, even slices untraced.
    let rate_of = |parity: usize| -> f64 {
        let rates: Vec<f64> = rate.iter().copied().skip(parity).step_by(2).collect();
        median(&rates)
    };
    let untraced_rate = rate_of(0);
    let traced_rate = rate_of(1);
    let mut gets: Vec<u32> = Vec::new();
    let mut puts: Vec<u32> = Vec::new();
    for (ns, put) in samples.iter().flat_map(Samples::all) {
        if put { &mut puts } else { &mut gets }.push(ns);
    }
    let mut batch_ops: Vec<u32> = Vec::new();
    let mut flush_rtt: Vec<u32> = Vec::new();
    for &(ops, rtt) in samples.iter().flat_map(|s| &s.flushes) {
        batch_ops.push(ops);
        flush_rtt.push(rtt);
    }

    // Server side.
    let delta = |field: fn(&MetricsSnapshot) -> u64| -> f64 {
        before
            .iter()
            .zip(after)
            .map(|(b, a)| field(a).saturating_sub(field(b)))
            .sum::<u64>() as f64
    };
    let middle = |field: fn(&MetricsSnapshot) -> u64| -> f64 {
        median(&after.iter().map(|s| field(s) as f64).collect::<Vec<_>>())
    };
    let ops = delta(|s| s.gets) + delta(|s| s.puts);
    let gets_served = delta(|s| s.gets);
    let hits = delta(|s| s.cache_hits);
    let misses = delta(|s| s.cache_misses);
    let protocol = delta(|s| s.protocol_out);
    let remote = delta(|s| s.remote_reads) + delta(|s| s.remote_writes);
    let cork_flushes = delta(|s| s.cork_flush_full)
        + delta(|s| s.cork_flush_deadline)
        + delta(|s| s.cork_flush_idle);

    // Spans: every node's events by trace id, joined with the session stamps.
    let mut by_id: HashMap<u64, Vec<Event>> = HashMap::new();
    for event in dumps.iter().flat_map(|(_, events)| events) {
        by_id.entry(event.trace_id).or_default().push(*event);
    }
    let dropped: u64 = dumps.iter().map(|(dropped, _)| dropped).sum();
    let mut sampled = 0u64;
    // [GET, PUT] × [request wire, residence, response wire, whole op].
    let mut parts: [[Vec<f64>; 4]; 2] = Default::default();
    let mut inv_to_ack = Vec::new();
    let mut miss_rpc = Vec::new();
    for op in samples.iter().flat_map(|s| &s.traced) {
        let Some(chain) = by_id.get(&op.id).and_then(|events| chain(op, events)) else {
            continue;
        };
        sampled += 1;
        let kind = &mut parts[usize::from(op.put)];
        kind[0].push(chain.request_wire);
        kind[1].push(chain.residence);
        kind[2].push(chain.response_wire);
        kind[3].push((op.return_ns - op.call_ns) as f64);
        inv_to_ack.extend(chain.inv_to_ack);
        miss_rpc.extend(chain.miss_rpc);
    }
    let explained = |kind: &[Vec<f64>; 4]| {
        ratio(
            median(&kind[0]) + median(&kind[1]) + median(&kind[2]),
            median(&kind[3]),
        )
    };

    vec![
        ("host.echo_round_trips_s", median(&echo_rate)),
        ("host.echo_p50_us", p50_us(&echo_p50)),
        ("host.echo_p99_us", p50_us(&echo_p99)),
        ("client.get_p50_us", us(quantile(&mut gets, 0.5))),
        ("client.put_p50_us", us(quantile(&mut puts, 0.5))),
        ("client.cpu_us_per_op", p50_us(&cpu_per_op)),
        ("client.batch_ops_p50", quantile(&mut batch_ops, 0.5)),
        ("client.flush_rtt_p50_us", us(quantile(&mut flush_rtt, 0.5))),
        ("symcache.hit_rate", ratio(hits, hits + misses)),
        (
            "server.inline_get_share",
            ratio(delta(|s| s.inline_gets), gets_served),
        ),
        ("server.remote_miss_share", ratio(remote, ops)),
        ("server.protocol_msgs_per_op", ratio(protocol, ops)),
        (
            "server.priority_lane_frames_per_op",
            ratio(delta(|s| s.priority_lane_frames), ops),
        ),
        (
            "server.credit_stalls_per_kop",
            ratio(delta(|s| s.credit_stalls) * 1_000.0, ops),
        ),
        (
            "server.lin_ack_wait_p50_us",
            us(middle(|s| s.lin_ack_wait_p50_ns)),
        ),
        (
            "server.lin_ack_wait_p99_us",
            us(middle(|s| s.lin_ack_wait_p99_ns)),
        ),
        ("server.fanout_p50_us", us(middle(|s| s.fanout_p50_ns))),
        (
            "server.continuation_fire_p50_us",
            us(middle(|s| s.continuation_fire_p50_ns)),
        ),
        (
            "server.cork_wait_p50_us",
            us(middle(|s| s.cork_wait_p50_ns)),
        ),
        (
            "server.cork_flush_deadline_share",
            ratio(delta(|s| s.cork_flush_deadline), cork_flushes),
        ),
        (
            "server.peer_batch_ops_p50",
            middle(|s| s.adaptive_batch_p50),
        ),
        ("server.loop_lap_p99_us", us(middle(|s| s.loop_lap_p99_ns))),
        ("span.get_request_wire_p50_us", p50_us(&parts[0][0])),
        ("span.get_server_residence_p50_us", p50_us(&parts[0][1])),
        ("span.get_response_wire_p50_us", p50_us(&parts[0][2])),
        ("span.put_request_wire_p50_us", p50_us(&parts[1][0])),
        ("span.put_server_residence_p50_us", p50_us(&parts[1][1])),
        ("span.put_response_wire_p50_us", p50_us(&parts[1][2])),
        ("span.inv_to_ack_p50_us", p50_us(&inv_to_ack)),
        ("span.miss_rpc_p50_us", p50_us(&miss_rpc)),
        ("budget.get_explained_share", explained(&parts[0])),
        ("budget.put_explained_share", explained(&parts[1])),
        ("trace.sampled_ops", sampled as f64),
        ("trace.dropped_events", dropped as f64),
        (
            "trace.overhead_pct",
            ratio(untraced_rate - traced_rate, untraced_rate) * 100.0,
        ),
        ("trace.traced_throughput_ops_s", traced_rate),
    ]
}
