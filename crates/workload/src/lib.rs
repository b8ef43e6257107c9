//! Workload generation for the Scale-Out ccNUMA / ccKVS reproduction.
//!
//! The paper evaluates ccKVS under YCSB-like workloads whose key-popularity
//! follows a Zipfian distribution with exponent `α ∈ {0.90, 0.99, 1.01}`
//! (plus a uniform distribution as an upper-bound baseline) and write ratios
//! between 0 % and 5 %. This crate provides:
//!
//! * [`zipf`] — an exact Zipfian sampler (Gray et al. / YCSB algorithm) and
//!   the popularity CDF used for the analytic cache hit-rate curve (Fig. 3).
//! * [`keyspace`] — key identifiers, dataset descriptions and the
//!   hash-partitioning of keys onto server shards.
//! * [`mix`] — read/write operation mixes and operation generation.
//! * [`client`] — client sessions that load-balance requests over the
//!   deployment (random or round-robin), as described in §6.
//! * [`imbalance`] — the analytic per-server load under skew, with and
//!   without a symmetric cache (Figs. 1 and 8).
//! * [`churn`] — a shifting-hotspot Zipfian workload for exercising live
//!   hot-set churn (epoch installs/evictions while traffic runs).
//!
//! # Examples
//!
//! ```
//! use workload::prelude::*;
//!
//! let dataset = Dataset::new(100_000, 40);
//! let mut gen = WorkloadGen::new(
//!     &dataset,
//!     AccessDistribution::Zipfian { exponent: 0.99 },
//!     Mix::with_write_ratio(0.01),
//!     42,
//! );
//! let op = gen.next_op();
//! assert!(op.key.0 < 100_000);
//! ```

pub mod churn;
pub mod client;
pub mod imbalance;
pub mod keyspace;
pub mod mix;
pub mod zipf;

pub use churn::ShiftingHotspot;
pub use client::{ClientId, ClientSession, LoadBalancePolicy};
pub use imbalance::{normalized_server_load, ImbalanceReport};
pub use keyspace::{Dataset, KeyId, ShardMap};
pub use mix::{AccessDistribution, Mix, Op, OpKind, WorkloadGen};
pub use zipf::{zipf_cdf, ZipfGenerator};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::churn::ShiftingHotspot;
    pub use crate::client::{ClientId, ClientSession, LoadBalancePolicy};
    pub use crate::imbalance::{normalized_server_load, ImbalanceReport};
    pub use crate::keyspace::{Dataset, KeyId, ShardMap};
    pub use crate::mix::{AccessDistribution, Mix, Op, OpKind, WorkloadGen};
    pub use crate::zipf::{zipf_cdf, ZipfGenerator};
}
