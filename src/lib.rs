//! Scale-Out ccNUMA — a reproduction of *"Scale-Out ccNUMA: Exploiting Skew
//! with Strongly Consistent Caching"* (Gavrielatos et al., EuroSys 2018) as a
//! Rust workspace.
//!
//! This facade crate re-exports the workspace members so examples, tests and
//! downstream users can depend on a single crate:
//!
//! * [`workload`] — Zipfian/uniform workload generation, clients, the
//!   analytic per-server load under skew.
//! * [`kvstore`] — the MICA-style seqlock-protected key-value store
//!   substrate (EREW/CRCW).
//! * [`symcache`] — the symmetric cache, top-k popularity tracking and the
//!   epoch coordinator.
//! * [`consistency`] — the per-key SC and per-key Lin protocols, history
//!   checkers and the explicit-state model checker.
//! * [`analytical`] — the §8.7 throughput model and break-even solver.
//! * [`cckvs`] — the ccKVS system itself: the transport-agnostic `CcNode`.
//! * [`cckvs_net`] — the networked serving layer: TCP node servers speaking
//!   a compact binary wire protocol, a rack launcher, a load-balancing
//!   client library and per-node metrics endpoints.
//!
//! # Quickstart
//!
//! ```
//! use scale_out_ccnuma::prelude::*;
//!
//! // A 3-node loopback rack with per-key linearizable symmetric caches.
//! let rack = Rack::launch(RackConfig::small(ConsistencyModel::Lin, 3)).unwrap();
//! rack.install_hot_set(&[(42, b"initial".to_vec())]).unwrap();
//! let via = |node| rack.client().policy(LoadBalancePolicy::Pinned(node)).connect();
//! via(1).unwrap().put(42, b"hello ccNUMA").unwrap();
//! assert_eq!(via(2).unwrap().get(42).unwrap(), b"hello ccNUMA");
//! rack.shutdown();
//! ```

pub use analytical;
pub use cckvs;
pub use cckvs_net;
pub use consistency;
pub use kvstore;
pub use symcache;
pub use workload;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use analytical::{
        breakeven_write_ratio_lin, breakeven_write_ratio_sc, throughput_lin_mrps,
        throughput_sc_mrps, throughput_uniform_mrps, ModelParams,
    };
    pub use cckvs::prelude::*;
    pub use cckvs_net::prelude::*;
    pub use consistency::checker::{check, CheckOutcome, CheckerConfig};
    pub use consistency::messages::ConsistencyModel;
    pub use symcache::{expected_hit_rate, CacheCoordinator, EpochConfig, SpaceSaving};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each re-exported crate.
        let _ = analytical::ModelParams::paper_small_objects(9, 0.01);
        let _ = workload::Dataset::new(10, 8);
        let _ = kvstore::ConcurrencyModel::Crcw;
        let _ = consistency::messages::ConsistencyModel::Lin;
        let _ = symcache::SpaceSaving::new(4);
        let _ = cckvs::NodeConfig::small(consistency::messages::ConsistencyModel::Sc, 0, 3);
        let _ = cckvs_net::Frame::Ping;
    }
}
