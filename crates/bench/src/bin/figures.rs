//! Regenerates the series behind the paper's evaluation figures.
//!
//! ```text
//! figures <name>     one figure (names below)
//! figures all        every figure, in paper order
//! ```
//!
//! Each figure sweeps its parameter on the simulated 9-node rack (α = 0.99
//! unless swept), prints the series the paper plots and writes
//! `results/<name>.csv`.

use analytical::{
    breakeven_write_ratio_lin, breakeven_write_ratio_sc, throughput_lin_mrps, throughput_sc_mrps,
    throughput_uniform_mrps, ModelParams,
};
use cckvs::{PerfConfig, SystemKind};
use cckvs_bench::{experiment, fmt, run, Report, DATASET_KEYS};
use consistency::messages::ConsistencyModel;
use simnet::{FabricConfig, TrafficClass};

const SC: SystemKind = SystemKind::CcKvs(ConsistencyModel::Sc);
const LIN: SystemKind = SystemKind::CcKvs(ConsistencyModel::Lin);

/// Every figure by CSV name, in paper order.
const FIGURES: &[(&str, fn())] = &[
    ("fig01_load_imbalance", fig01_load_imbalance),
    ("fig03_hit_rate", fig03_hit_rate),
    ("fig08_read_only", fig08_read_only),
    ("fig09_breakdown", fig09_breakdown),
    ("fig10_write_ratio", fig10_write_ratio),
    ("fig11_traffic_breakdown", fig11_traffic_breakdown),
    ("fig12_object_size", fig12_object_size),
    ("fig13a_network_util", fig13a_network_util),
    ("fig13b_coalescing", fig13b_coalescing),
    ("fig13c_latency", fig13c_latency),
    ("fig14_scalability", fig14_scalability),
    ("fig15_breakeven", fig15_breakeven),
    ("ablations", ablations),
];

fn main() {
    let want = std::env::args().nth(1).unwrap_or_default();
    if want == "all" {
        for (name, figure) in FIGURES {
            println!("==> {name}");
            figure();
        }
    } else if let Some((_, figure)) = FIGURES.iter().find(|(name, _)| *name == want) {
        figure();
    } else {
        eprintln!("usage: figures <name>|all, where <name> is one of:");
        for (name, _) in FIGURES {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}

/// One throughput (MRPS) cell per system, each run under `configure(kind)`.
fn throughputs(kinds: &[SystemKind], configure: impl Fn(SystemKind) -> PerfConfig) -> Vec<String> {
    kinds
        .iter()
        .map(|&kind| fmt(run(&configure(kind)).throughput_mrps, 0))
        .collect()
}

/// Figure 1: load imbalance in a 128-server cluster under α = 0.99 skew.
/// The paper reports that the server storing the hottest key receives over
/// 7× the average load.
fn fig01_load_imbalance() {
    let dataset = workload::Dataset::new(DATASET_KEYS, 40);
    let shards = workload::ShardMap::new(128, 1);
    let load = workload::normalized_server_load(&dataset, &shards, 0.99, 200_000);
    let mut report = Report::new(
        "Figure 1: normalized per-server load, 128 servers, zipf 0.99 (sorted descending)",
    );
    report.header(&["server_rank", "normalized_load"]);
    for (rank, load) in load.normalized_load.iter().enumerate() {
        report.row(&[rank.to_string(), fmt(*load, 3)]);
    }
    report.emit("fig01_load_imbalance");
    println!(
        "hotspot factor (max / average load): {:.2}x   min: {:.2}x",
        load.hotspot_factor(),
        load.min_load()
    );
}

/// Figure 3: expected symmetric-cache hit rate as a function of the cache
/// size (fraction of the dataset) for Zipfian exponents 0.90, 0.99, 1.01.
fn fig03_hit_rate() {
    let fractions: Vec<f64> = (1..=20).map(|i| i as f64 * 0.0001).collect();
    let curves: Vec<Vec<(f64, f64)>> = [1.01, 0.99, 0.90]
        .iter()
        .map(|&a| symcache::hit_rate_curve(DATASET_KEYS, a, &fractions))
        .collect();
    let mut report = Report::new("Figure 3: % hit rate vs cache size (% of dataset)");
    report.header(&["cache_%", "zipf_1.01", "zipf_0.99", "zipf_0.90"]);
    for (i, &f) in fractions.iter().enumerate() {
        let mut row = vec![fmt(f * 100.0, 3)];
        row.extend(curves.iter().map(|curve| fmt(curve[i].1 * 100.0, 1)));
        report.row(&row);
    }
    report.emit("fig03_hit_rate");
    println!("paper reference points (0.1% cache): 46% (a=0.90), 65% (a=0.99), 69% (a=1.01)");
}

/// Figure 8: read-only throughput under varying skew. Paper reference
/// (α = 0.99): Base-EREW 95, Base 215, Uniform 240, ccKVS 690 MRPS.
fn fig08_read_only() {
    let mut report = Report::new("Figure 8: read-only throughput (MRPS) vs skew, 9 nodes");
    report.header(&["skew", "Uniform", "Base-EREW", "Base", "ccKVS"]);
    let systems = [
        SystemKind::Uniform,
        SystemKind::BaseErew,
        SystemKind::Base,
        SC,
    ];
    for alpha in [0.90, 0.99, 1.01] {
        let mut row = vec![fmt(alpha, 2)];
        row.extend(throughputs(&systems, |kind| {
            let mut cfg = experiment(kind);
            if kind != SystemKind::Uniform {
                cfg.system.skew = Some(alpha);
            }
            cfg
        }));
        report.row(&row);
    }
    report.emit("fig08_read_only");
}

/// Figure 9: break-down of completed ccKVS requests (cache hits vs misses)
/// for a read-only workload under varying skew, next to the Uniform bound.
/// The paper's observation: the cache-miss throughput of ccKVS equals the
/// entire throughput of Uniform (both network-bound), while cache-hit
/// throughput grows with the hit rate.
fn fig09_breakdown() {
    let mut report =
        Report::new("Figure 9: ccKVS completed-request breakdown vs skew (MRPS), 9 nodes");
    report.header(&["skew", "cache_hits", "cache_misses", "total", "Uniform"]);
    let uniform = run(&experiment(SystemKind::Uniform));
    for alpha in [0.90, 0.99, 1.01] {
        let mut cfg = experiment(SC);
        cfg.system.skew = Some(alpha);
        let r = run(&cfg);
        report.row(&[
            fmt(alpha, 2),
            fmt(r.hit_mrps, 0),
            fmt(r.miss_mrps, 0),
            fmt(r.throughput_mrps, 0),
            fmt(uniform.throughput_mrps, 0),
        ]);
    }
    report.emit("fig09_breakdown");
}

/// Figure 10: sensitivity to write ratio. Paper reference: the baselines
/// are insensitive to the write ratio; ccKVS degrades gracefully and still
/// outperforms Base at 5% writes while providing per-key linearizability;
/// at 0.2% (Facebook) the loss vs read-only is ~3%.
fn fig10_write_ratio() {
    let mut report = Report::new("Figure 10: throughput (MRPS) vs write ratio, 9 nodes, zipf 0.99");
    report.header(&[
        "write_%",
        "Uniform",
        "Base-EREW",
        "Base",
        "ccKVS-SC",
        "ccKVS-Lin",
    ]);
    for w in [0.0, 0.002, 0.01, 0.02, 0.03, 0.05] {
        let mut row = vec![fmt(w * 100.0, 1)];
        row.extend(throughputs(&cckvs_bench::all_systems(), |kind| {
            let mut cfg = experiment(kind);
            cfg.system.write_ratio = w;
            cfg
        }));
        report.row(&row);
    }
    report.emit("fig10_write_ratio");
}

/// Figure 11: network-traffic breakdown for ccKVS-SC and ccKVS-Lin at 1%
/// and 5% writes. Paper reference: consistency actions claim a growing
/// share of bandwidth as the write ratio rises; thanks to credit batching,
/// flow control is negligible.
fn fig11_traffic_breakdown() {
    let mut report = Report::new("Figure 11: % of network traffic by class, 9 nodes, zipf 0.99");
    report.header(&[
        "system",
        "write_%",
        "cache_misses",
        "updates",
        "invalidates",
        "acks",
        "flow_control",
    ]);
    for w in [0.01, 0.05] {
        for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
            let mut cfg = experiment(SystemKind::CcKvs(model));
            cfg.system.write_ratio = w;
            let r = run(&cfg);
            let pct = |class: TrafficClass| {
                fmt(
                    r.traffic_fraction.get(&class).copied().unwrap_or(0.0) * 100.0,
                    1,
                )
            };
            report.row(&[
                model.label().to_string(),
                fmt(w * 100.0, 0),
                fmt((r.miss_traffic_fraction() * 100.0).round(), 1),
                pct(TrafficClass::Update),
                pct(TrafficClass::Invalidation),
                pct(TrafficClass::Ack),
                pct(TrafficClass::CreditUpdate),
            ]);
        }
    }
    report.emit("fig11_traffic_breakdown");
}

/// The object-size sweep (40 B / 256 B / 1 KB, read-only and 1% writes)
/// behind figures 12 and 13b, without or with ×8 request coalescing.
fn object_size_sweep(name: &str, title: &str, coalesce: bool) {
    let mut report = Report::new(title);
    report.header(&["write_%", "object_B", "Base", "ccKVS-Lin", "ccKVS-SC"]);
    for w in [0.0, 0.01] {
        for size in [40usize, 256, 1024] {
            let mut row = vec![fmt(w * 100.0, 0), size.to_string()];
            row.extend(throughputs(&[SystemKind::Base, LIN, SC], |kind| {
                let mut cfg = experiment(kind);
                if coalesce {
                    cfg = cfg.with_coalescing(8);
                }
                cfg.system.write_ratio = w;
                cfg.system.value_size = size;
                cfg
            }));
            report.row(&row);
        }
    }
    report.emit(name);
}

/// Figure 12: sensitivity to object size, without request coalescing.
/// Paper reference: ccKVS keeps a >3x lead over Base for larger objects;
/// the gap between SC and Lin narrows as data payloads dominate the
/// bandwidth.
fn fig12_object_size() {
    object_size_sweep(
        "fig12_object_size",
        "Figure 12: throughput (MRPS) vs object size, 9 nodes, zipf 0.99",
        false,
    );
}

/// Figure 13a: per-node network utilisation of a read-only ccKVS workload
/// with and without request coalescing, per object size. Paper reference:
/// without coalescing, small objects leave the link under-utilised (the
/// switch packet rate is the bottleneck); coalescing shifts the bottleneck
/// back to network bandwidth.
fn fig13a_network_util() {
    let mut report =
        Report::new("Figure 13a: per-node network utilisation (Gbits/s), read-only ccKVS, 9 nodes");
    report.header(&["object_B", "no_coalescing", "with_coalescing", "link_limit"]);
    let link = FabricConfig::paper_rack(9).link_gbps;
    for size in [40usize, 256, 1024] {
        let mut plain = experiment(SC);
        plain.system.value_size = size;
        let coalesced = plain.with_coalescing(8);
        report.row(&[
            size.to_string(),
            fmt(run(&plain).per_node_gbps, 1),
            fmt(run(&coalesced).per_node_gbps, 1),
            fmt(link, 1),
        ]);
    }
    report.emit("fig13a_network_util");
}

/// Figure 13b: performance impact of request coalescing while varying
/// object size. Paper reference: with coalescing, Base reaches ~950 MRPS
/// and ccKVS exceeds 2 BRPS for 40-byte objects; the benefit fades for
/// large objects that are already bandwidth-bound.
fn fig13b_coalescing() {
    object_size_sweep(
        "fig13b_coalescing",
        "Figure 13b: throughput (MRPS) with request coalescing, 9 nodes, zipf 0.99",
        true,
    );
}

/// Figure 13c: average and 95th-percentile latency at various load levels
/// for read-only ccKVS and 1%-write ccKVS-SC / ccKVS-Lin (coalescing on).
/// Paper reference: even at high load the tail stays an order of magnitude
/// below the 1 ms KVS service target; Lin's 95th percentile rises above its
/// average at saturation because writes block on invalidation round-trips.
fn fig13c_latency() {
    let mut report = Report::new(
        "Figure 13c: latency (us) vs achieved load (MRPS), 40B objects, coalescing, 9 nodes",
    );
    report.header(&["system", "inflight/node", "MRPS", "avg_us", "p95_us"]);
    for (label, kind, w) in [
        ("ccKVS read-only", SC, 0.0),
        ("ccKVS-SC 1% writes", SC, 0.01),
        ("ccKVS-Lin 1% writes", LIN, 0.01),
    ] {
        for inflight in [64usize, 256, 1024, 4096] {
            let mut cfg = experiment(kind).with_coalescing(8).with_inflight(inflight);
            cfg.system.write_ratio = w;
            let r = run(&cfg);
            report.row(&[
                label.to_string(),
                inflight.to_string(),
                fmt(r.throughput_mrps, 0),
                fmt(r.avg_latency_us, 1),
                fmt(r.p95_latency_us, 1),
            ]);
        }
    }
    report.emit("fig13c_latency");
}

/// Figure 14: scalability study — analytical model for 5-40 servers plus
/// simulator validation up to 9 servers (1% writes). Paper reference:
/// Uniform scales nearly linearly; ccKVS-SC and ccKVS-Lin scale sublinearly
/// because consistency traffic grows with the node count, with Lin below
/// SC.
fn fig14_scalability() {
    let mut report = Report::new("Figure 14: throughput (MRPS) vs number of servers, 1% writes");
    report.header(&[
        "servers",
        "SC_model",
        "Lin_model",
        "Uniform_model",
        "SC_sim",
        "Lin_sim",
        "Uniform_sim",
    ]);
    for servers in (5..=40).step_by(5).chain(std::iter::once(9)) {
        let p = ModelParams::paper_small_objects(servers, 0.01);
        let mut row = vec![
            servers.to_string(),
            fmt(throughput_sc_mrps(&p), 0),
            fmt(throughput_lin_mrps(&p), 0),
            fmt(throughput_uniform_mrps(&p), 0),
        ];
        if servers <= 9 {
            row.extend(throughputs(&[SC, LIN, SystemKind::Uniform], |kind| {
                let mut cfg = experiment(kind);
                cfg.system.nodes = servers;
                cfg.system.write_ratio = 0.01;
                cfg
            }));
        } else {
            row.extend(["-".to_string(), "-".to_string(), "-".to_string()]);
        }
        report.row(&row);
    }
    report.emit("fig14_scalability");
}

/// Finds the simulated break-even write ratio by bisection on the write
/// ratio until ccKVS and Uniform throughput match within 2%.
fn simulated_breakeven(model: ConsistencyModel, servers: usize) -> f64 {
    let throughput = |kind, write_ratio| {
        let mut cfg = experiment(kind);
        cfg.system.nodes = servers;
        cfg.system.write_ratio = write_ratio;
        run(&cfg).throughput_mrps
    };
    let uniform = throughput(SystemKind::Uniform, 0.0);
    let (mut lo, mut hi) = (0.0f64, 0.4f64);
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        if throughput(SystemKind::CcKvs(model), mid) > uniform {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Figure 15: break-even write ratio — the write ratio at which ccKVS
/// yields the same throughput as the Uniform baseline, as a function of the
/// number of servers (model for 5-40 servers, simulator validation up to
/// 9). Paper reference: ~8% for ccKVS-SC at 20 servers, ~4% (SC) and ~1.7%
/// (Lin) at 40 servers; the measured system sustains slightly higher ratios
/// than the model predicts.
fn fig15_breakeven() {
    let mut report = Report::new("Figure 15: break-even write ratio (%) vs number of servers");
    report.header(&["servers", "SC_model", "Lin_model", "SC_sim", "Lin_sim"]);
    for servers in [5usize, 9, 10, 15, 20, 25, 30, 35, 40] {
        let p = ModelParams::paper_small_objects(servers, 0.0);
        let mut row = vec![
            servers.to_string(),
            fmt(breakeven_write_ratio_sc(&p) * 100.0, 1),
            fmt(breakeven_write_ratio_lin(&p) * 100.0, 1),
        ];
        if servers <= 9 {
            for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
                row.push(fmt(simulated_breakeven(model, servers) * 100.0, 1));
            }
        } else {
            row.extend(["-".to_string(), "-".to_string()]);
        }
        report.row(&row);
    }
    report.emit("fig15_breakeven");
}

/// Ablation studies called out in the paper's design discussion:
///
/// * Cache size: how the 0.1%-of-dataset choice (§7.1) trades memory for
///   hit rate and throughput.
/// * Credit batching (§6.4): flow-control overhead with and without
///   batched credit updates.
/// * EREW vs CRCW partitioning of the back-end KVS under skew.
fn ablations() {
    let mut report = Report::new("Ablation: symmetric-cache size (read-only, 9 nodes, zipf 0.99)");
    report.header(&["cache_%_of_dataset", "hit_MRPS", "miss_MRPS", "total_MRPS"]);
    for fraction in [0.0002f64, 0.0005, 0.001, 0.002, 0.005] {
        let mut cfg = experiment(SC);
        cfg.system.cache_entries = (cfg.system.dataset_keys as f64 * fraction) as usize;
        let r = run(&cfg);
        report.row(&[
            fmt(fraction * 100.0, 2),
            fmt(r.hit_mrps, 0),
            fmt(r.miss_mrps, 0),
            fmt(r.throughput_mrps, 0),
        ]);
    }
    report.emit("ablation_cache_size");

    let mut report = Report::new("Ablation: credit-update batching (ccKVS-SC, 5% writes)");
    report.header(&["credit_batch", "flow_control_%_of_traffic", "total_MRPS"]);
    for batch in [1u64, 4, 16, 64] {
        let mut cfg = experiment(SC);
        cfg.system.write_ratio = 0.05;
        cfg.credit_batch = batch;
        let r = run(&cfg);
        report.row(&[
            batch.to_string(),
            fmt(r.flow_control_fraction() * 100.0, 2),
            fmt(r.throughput_mrps, 0),
        ]);
    }
    report.emit("ablation_credit_batching");

    let mut report = Report::new("Ablation: KVS partitioning under skew (read-only, 9 nodes)");
    report.header(&["skew", "Base-EREW_MRPS", "Base_CRCW_MRPS"]);
    for alpha in [0.90, 0.99, 1.01] {
        let mut row = vec![fmt(alpha, 2)];
        row.extend(throughputs(
            &[SystemKind::BaseErew, SystemKind::Base],
            |kind| {
                let mut cfg = experiment(kind);
                cfg.system.skew = Some(alpha);
                cfg
            },
        ));
        report.row(&row);
    }
    report.emit("ablation_erew_vs_crcw");
}
