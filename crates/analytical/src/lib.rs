//! The analytical throughput model of §8.7 and the break-even solver (§8.7.2).
//!
//! The paper observes that ccKVS and the baselines are network-bound, so the
//! throughput of an `N`-node deployment is the aggregate network bandwidth
//! divided by the network traffic generated per request:
//!
//! * cache misses mapped to a remote node generate `B_RR` bytes
//!   (Equation 1),
//! * hot writes generate `(N-1)` consistency actions of `B_SC` bytes under SC
//!   (Equation 4) or `B_Lin` bytes under Lin (Equation 2),
//! * the Uniform baseline pays `B_RR` for every remotely-mapped request
//!   (Equation 6).
//!
//! The model is used for the scalability study (Fig. 14) and to derive the
//! *break-even write ratio* — the write ratio at which ccKVS and the Uniform
//! baseline deliver the same throughput (Fig. 15).

pub mod model;

pub use model::{ModelParams, SystemKind};

/// Per-request cache-miss traffic in bytes (Equation 1).
pub fn traffic_cache_miss(p: &ModelParams) -> f64 {
    (1.0 - p.hit_ratio) * (1.0 - 1.0 / p.nodes as f64) * p.b_rr
}

/// Per-request Lin consistency traffic in bytes (Equation 2).
pub fn traffic_lin(p: &ModelParams) -> f64 {
    p.hit_ratio * p.write_ratio * (p.nodes as f64 - 1.0) * p.b_lin
}

/// Per-request SC consistency traffic in bytes (Equation 4).
pub fn traffic_sc(p: &ModelParams) -> f64 {
    p.hit_ratio * p.write_ratio * (p.nodes as f64 - 1.0) * p.b_sc
}

/// Per-request traffic of the Uniform baseline in bytes (Equation 6).
pub fn traffic_uniform(p: &ModelParams) -> f64 {
    (1.0 - 1.0 / p.nodes as f64) * p.b_rr
}

fn throughput_mrps(p: &ModelParams, bytes_per_request: f64) -> f64 {
    if bytes_per_request <= 0.0 {
        return f64::INFINITY;
    }
    let bw_bytes_per_sec = p.bandwidth_gbps * 1e9 / 8.0;
    p.nodes as f64 * bw_bytes_per_sec / bytes_per_request / 1e6
}

/// Total ccKVS-SC throughput in MRPS (Equation 5).
pub fn throughput_sc_mrps(p: &ModelParams) -> f64 {
    throughput_mrps(p, traffic_cache_miss(p) + traffic_sc(p))
}

/// Total ccKVS-Lin throughput in MRPS (Equation 3).
pub fn throughput_lin_mrps(p: &ModelParams) -> f64 {
    throughput_mrps(p, traffic_cache_miss(p) + traffic_lin(p))
}

/// Total Uniform-baseline throughput in MRPS (Equation 7).
pub fn throughput_uniform_mrps(p: &ModelParams) -> f64 {
    throughput_mrps(p, traffic_uniform(p))
}

/// Throughput of the requested system (convenience dispatcher).
pub fn throughput_mrps_of(kind: SystemKind, p: &ModelParams) -> f64 {
    match kind {
        SystemKind::CcKvsSc => throughput_sc_mrps(p),
        SystemKind::CcKvsLin => throughput_lin_mrps(p),
        SystemKind::Uniform => throughput_uniform_mrps(p),
    }
}

/// The break-even write ratio at which ccKVS-SC matches the Uniform baseline
/// (Fig. 15). Closed form obtained by equating Equations 5 and 7:
/// `w = B_RR / (N · B_SC)` (the hit ratio cancels out).
pub fn breakeven_write_ratio_sc(p: &ModelParams) -> f64 {
    p.b_rr / (p.nodes as f64 * p.b_sc)
}

/// The break-even write ratio for ccKVS-Lin: `w = B_RR / (N · B_Lin)`.
pub fn breakeven_write_ratio_lin(p: &ModelParams) -> f64 {
    p.b_rr / (p.nodes as f64 * p.b_lin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(nodes: usize, write_ratio: f64) -> ModelParams {
        ModelParams::paper_small_objects(nodes, write_ratio)
    }

    #[test]
    fn read_only_throughput_matches_paper_numbers() {
        // §8.1: Uniform achieves 240 MRPS, ccKVS 690 MRPS on 9 nodes with
        // α = 0.99 (hit ratio 65%) and 21.5 Gb/s effective bandwidth.
        let p = paper(9, 0.0);
        let uniform = throughput_uniform_mrps(&p);
        let cckvs = throughput_sc_mrps(&p);
        assert!((uniform - 240.0).abs() < 15.0, "Uniform: {uniform}");
        assert!((cckvs - 690.0).abs() < 30.0, "ccKVS: {cckvs}");
        // SC and Lin coincide with no writes.
        assert!((throughput_lin_mrps(&p) - cckvs).abs() < 1e-9);
    }

    #[test]
    fn one_percent_writes_matches_section_8_7_1() {
        // §8.7.1: with 9 servers and 1% writes the model estimates 628 MRPS
        // for ccKVS-SC and 554 MRPS for ccKVS-Lin.
        let p = paper(9, 0.01);
        let sc = throughput_sc_mrps(&p);
        let lin = throughput_lin_mrps(&p);
        assert!((sc - 628.0).abs() < 25.0, "SC: {sc}");
        assert!((lin - 554.0).abs() < 25.0, "Lin: {lin}");
        assert!(sc > lin, "SC must outperform Lin under writes");
    }

    #[test]
    fn the_model_orders_sc_over_lin_over_uniform() {
        // §8.7.1's 9-node rack at 1 % writes: the cheaper consistency
        // action wins, and both cached designs beat the cache-less bound.
        let p = paper(9, 0.01);
        let (sc, lin) = (throughput_sc_mrps(&p), throughput_lin_mrps(&p));
        let uniform = throughput_uniform_mrps(&p);
        assert!(
            sc > lin && lin > uniform,
            "SC {sc}, Lin {lin}, Uniform {uniform}"
        );
    }

    #[test]
    fn larger_objects_shrink_the_lin_penalty() {
        // Fig. 12: a Lin action adds a header-only invalidation and ack to
        // the update SC sends, so once the value dominates the bytes of
        // every message the SC/Lin gap nearly vanishes. The headers are
        // the paper's 40-byte-object bytes less the value.
        let with_value = |value: f64| ModelParams {
            b_rr: 73.0 + value,
            b_sc: 43.0 + value,
            b_lin: 143.0 + value,
            ..paper(9, 0.01)
        };
        assert_eq!(with_value(40.0), paper(9, 0.01));
        let gap = |value: f64| {
            let p = with_value(value);
            let sc = throughput_sc_mrps(&p);
            (sc - throughput_lin_mrps(&p)) / sc
        };
        let (small, large) = (gap(40.0), gap(1024.0));
        assert!(large < small / 2.0, "40 B: {small:.3}, 1 KB: {large:.3}");
    }

    #[test]
    fn uniform_is_insensitive_to_write_ratio() {
        let read_only = throughput_uniform_mrps(&paper(9, 0.0));
        let writes = throughput_uniform_mrps(&paper(9, 0.05));
        assert!((read_only - writes).abs() < 1e-9);
    }

    #[test]
    fn cckvs_throughput_decreases_with_write_ratio_and_scale() {
        let t1 = throughput_sc_mrps(&paper(9, 0.01));
        let t5 = throughput_sc_mrps(&paper(9, 0.05));
        assert!(t5 < t1);
        // Per-server throughput degrades as the deployment grows (sublinear
        // scaling, Fig. 14) while Uniform scales nearly linearly.
        let per_server_10 = throughput_sc_mrps(&paper(10, 0.01)) / 10.0;
        let per_server_40 = throughput_sc_mrps(&paper(40, 0.01)) / 40.0;
        assert!(per_server_40 < per_server_10);
        let uni_10 = throughput_uniform_mrps(&paper(10, 0.01)) / 10.0;
        let uni_40 = throughput_uniform_mrps(&paper(40, 0.01)) / 40.0;
        assert!((uni_10 - uni_40).abs() / uni_10 < 0.12);
    }

    #[test]
    fn breakeven_matches_fig15_trends() {
        // Fig. 15: a 20-server ccKVS-SC deployment breaks even at ~8% writes;
        // at 40 servers ~4% (SC) and ~1.7% (Lin).
        let p20 = paper(20, 0.0);
        let p40 = paper(40, 0.0);
        let sc20 = breakeven_write_ratio_sc(&p20);
        let sc40 = breakeven_write_ratio_sc(&p40);
        let lin40 = breakeven_write_ratio_lin(&p40);
        assert!((0.05..=0.09).contains(&sc20), "SC @20: {sc20}");
        assert!((0.025..=0.045).contains(&sc40), "SC @40: {sc40}");
        assert!((0.012..=0.02).contains(&lin40), "Lin @40: {lin40}");
        // Lin always breaks even earlier than SC, and larger deployments
        // break even earlier than smaller ones.
        assert!(breakeven_write_ratio_lin(&p20) < sc20);
        assert!(sc40 < sc20);
    }

    #[test]
    fn breakeven_is_consistent_with_the_throughput_model() {
        // At exactly the break-even write ratio the two systems tie.
        let mut p = paper(24, 0.0);
        p.write_ratio = breakeven_write_ratio_sc(&p);
        let sc = throughput_sc_mrps(&p);
        let uni = throughput_uniform_mrps(&p);
        assert!((sc - uni).abs() / uni < 1e-9, "SC {sc} vs Uniform {uni}");
        p.write_ratio = breakeven_write_ratio_lin(&p);
        let lin = throughput_lin_mrps(&p);
        assert!((lin - uni).abs() / uni < 1e-9);
    }

    #[test]
    fn dispatcher_matches_direct_calls() {
        let p = paper(9, 0.01);
        assert_eq!(
            throughput_mrps_of(SystemKind::CcKvsSc, &p),
            throughput_sc_mrps(&p)
        );
        assert_eq!(
            throughput_mrps_of(SystemKind::CcKvsLin, &p),
            throughput_lin_mrps(&p)
        );
        assert_eq!(
            throughput_mrps_of(SystemKind::Uniform, &p),
            throughput_uniform_mrps(&p)
        );
    }
}
