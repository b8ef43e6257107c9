//! Analytic cache hit-rate model (Fig. 3).
//!
//! Because the symmetric cache holds the globally hottest keys and every
//! server sees the same Zipfian access distribution, the expected hit rate
//! equals the probability mass of the cached head of the distribution — the
//! cumulative Zipfian probability of the top `C` ranks out of `N` keys.
//! Fig. 3 plots exactly this curve for cache sizes up to 0.2 % of the
//! dataset; §7.1 quotes 46 % / 65 % / 69 % hit rates for a 0.1 % cache at
//! α = 0.90 / 0.99 / 1.01.

use workload::zipf_cdf;

/// Expected hit rate of a symmetric cache of `cache_entries` keys over a
/// dataset of `dataset_keys` keys with Zipfian exponent `alpha`.
///
/// # Examples
///
/// ```
/// let hr = symcache::expected_hit_rate(1_000_000, 1_000, 0.99);
/// assert!(hr > 0.5 && hr < 0.8);
/// ```
pub fn expected_hit_rate(dataset_keys: u64, cache_entries: u64, alpha: f64) -> f64 {
    if alpha == 0.0 {
        // Uniform access: hit rate equals the cached fraction.
        return cache_entries.min(dataset_keys) as f64 / dataset_keys as f64;
    }
    zipf_cdf(dataset_keys, cache_entries, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_hit_rates() {
        // §7.1: "the expected cache hit ratio is 46%, 65% and 69% for skew
        // exponents of α equal to 0.9, 0.99 and 1.01" with a 0.1% cache of a
        // 250M-key dataset. Allow a few points of slack; in debug builds use
        // a scaled-down dataset (same shape, slightly higher hit rates).
        let keys: u64 = if cfg!(debug_assertions) {
            25_000_000
        } else {
            250_000_000
        };
        let cache = keys / 1000;
        let h90 = expected_hit_rate(keys, cache, 0.90);
        let h99 = expected_hit_rate(keys, cache, 0.99);
        let h101 = expected_hit_rate(keys, cache, 1.01);
        assert!((0.35..=0.60).contains(&h90), "α=0.90: {h90}");
        assert!((0.58..=0.75).contains(&h99), "α=0.99: {h99}");
        assert!((0.62..=0.80).contains(&h101), "α=1.01: {h101}");
    }

    #[test]
    fn uniform_access_hit_rate_is_cache_fraction() {
        let hr = expected_hit_rate(100_000, 1_000, 0.0);
        assert!((hr - 0.01).abs() < 1e-12);
    }

    #[test]
    fn higher_skew_gives_higher_hit_rate() {
        let n = 1_000_000;
        let c = 1_000;
        assert!(expected_hit_rate(n, c, 1.01) > expected_hit_rate(n, c, 0.99));
        assert!(expected_hit_rate(n, c, 0.99) > expected_hit_rate(n, c, 0.90));
    }
}
