//! Load-imbalance analysis under skew (Fig. 1 of the paper).
//!
//! With the dataset sharded across servers and no skew mitigation, the server
//! holding the hottest keys receives a disproportionate share of requests.
//! The paper's Fig. 1 shows that in a 128-server deployment with α = 0.99 the
//! most loaded server receives over 7× the average load. This module computes
//! that distribution analytically, from the Zipfian pmf, with or without a
//! symmetric cache serving the hottest keys (Fig. 8's flattened load).

use crate::keyspace::{Dataset, ShardMap};
use crate::zipf::ZipfGenerator;

/// Per-server load report, normalised so that the average server load is 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Normalised load per server (index = server id), sorted descending.
    pub normalized_load: Vec<f64>,
}

impl ImbalanceReport {
    /// Load of the most loaded server relative to the average (the "7×"
    /// of Fig. 1).
    pub fn max_load(&self) -> f64 {
        self.normalized_load.first().copied().unwrap_or(0.0)
    }
}

/// Computes the analytic normalised per-server load for a Zipfian workload
/// over a sharded dataset (Fig. 1), with the `cached` hottest keys served
/// by whichever server the client picked, i.e. spread evenly, as symmetric
/// caches serve them (0 for the cache-less baseline of Fig. 1).
///
/// The load of a server is the sum of the pmf of the keys homed on it. To
/// keep the computation tractable for very large datasets, only the hottest
/// `hot_keys_exact` keys are attributed individually; the tail mass is spread
/// evenly across servers (an excellent approximation because the tail is, by
/// construction, nearly uniform per server).
pub fn normalized_server_load(
    dataset: &Dataset,
    shards: &ShardMap,
    zipf_exponent: f64,
    cached: u64,
    hot_keys_exact: u64,
) -> ImbalanceReport {
    let zipf = ZipfGenerator::new(dataset.keys, zipf_exponent);
    let servers = shards.nodes;
    let mut load = vec![0.0f64; servers];

    let exact = hot_keys_exact.min(dataset.keys);
    let mut exact_mass = 0.0;
    for rank in cached.min(exact)..exact {
        let p = zipf.pmf(rank);
        exact_mass += p;
        let node = shards.home_node(dataset.key_of_rank(rank));
        load[node] += p;
    }
    // Spread the cached head and the remaining tail mass uniformly.
    let tail = (1.0 - exact_mass).max(0.0) / servers as f64;
    for l in load.iter_mut() {
        *l += tail;
    }
    // Normalise to average = 1.
    let avg = 1.0 / servers as f64;
    let mut normalized: Vec<f64> = load.into_iter().map(|l| l / avg).collect();
    normalized.sort_by(|a, b| b.partial_cmp(a).expect("loads are finite"));
    ImbalanceReport {
        normalized_load: normalized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_hotspot_factor_128_servers() {
        // Paper, Fig. 1: 128 servers, α = 0.99 — the hottest server receives
        // over 7x the average load (driven by the single hottest key, whose
        // pmf is ~5.5% of all accesses at 250M keys ≈ 7x of 1/128).
        let dataset = Dataset::new(
            if cfg!(debug_assertions) {
                2_500_000
            } else {
                250_000_000
            },
            40,
        );
        let shards = ShardMap::new(128, 1);
        let report = normalized_server_load(&dataset, &shards, 0.99, 0, 100_000);
        assert!(
            report.max_load() > 5.0,
            "expected a pronounced hotspot, got {}",
            report.max_load()
        );
        let least = report.normalized_load[127];
        assert!(least > 0.5 && least <= 1.05, "{least}");
        // Total normalised load must equal the number of servers.
        let total: f64 = report.normalized_load.iter().sum();
        assert!((total - 128.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_tail_only_is_balanced() {
        let dataset = Dataset::new(1_000_000, 40);
        let shards = ShardMap::new(16, 1);
        // Attributing zero keys exactly spreads everything evenly.
        let report = normalized_server_load(&dataset, &shards, 0.99, 0, 0);
        for l in &report.normalized_load {
            assert!((l - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn caching_the_head_flattens_the_hotspot() {
        let dataset = Dataset::new(1_000_000, 40);
        let shards = ShardMap::new(16, 1);
        let bare = normalized_server_load(&dataset, &shards, 0.99, 0, 50_000);
        let cached = normalized_server_load(&dataset, &shards, 0.99, 1_000, 50_000);
        assert!(bare.max_load() > 2.0, "{}", bare.max_load());
        assert!(cached.max_load() < 1.05, "{}", cached.max_load());
        let total: f64 = cached.normalized_load.iter().sum();
        assert!((total - 16.0).abs() < 1e-6);
    }

    #[test]
    fn more_servers_means_worse_hotspot() {
        // The hotspot factor (relative to average) grows with the number of
        // servers because the average shrinks while the hottest key's share
        // does not.
        let dataset = Dataset::new(1_000_000, 40);
        let small = normalized_server_load(&dataset, &ShardMap::new(8, 1), 0.99, 0, 50_000);
        let large = normalized_server_load(&dataset, &ShardMap::new(64, 1), 0.99, 0, 50_000);
        assert!(large.max_load() > small.max_load());
    }
}
