//! ccKVS: a Scale-Out ccNUMA key-value store (the paper's §6 system).
//!
//! Each node of a ccKVS deployment combines
//!
//! * a shard of the back-end KVS ([`kvstore`]) served by a pool of KVS
//!   threads,
//! * an instance of the symmetric cache ([`symcache`]) holding the globally
//!   hottest keys, served by a pool of cache threads, and
//! * the fully distributed consistency protocols ([`consistency`]) that keep
//!   the caches coherent (per-key SC or per-key Lin).
//!
//! Clients load-balance requests across all nodes; cache hits are served
//! locally, cache misses fall through to the key's home node over the
//! (simulated) RDMA fabric.
//!
//! The crate offers two things:
//!
//! * [`node`] — [`CcNode`], one server node as a transport-agnostic state
//!   machine: the real cache and KVS shard plus the protocol engine,
//!   returning the messages it would send. The reactor server in
//!   `cckvs-net` runs it behind sockets and the `cckvs-modelcheck` harness
//!   runs it under a seeded scheduler, so correctness (seqlocks, protocol
//!   interleavings, per-key SC/Lin histories) is validated on the code
//!   that ships.
//! * [`perf`] — a **performance** model: the same request-processing logic
//!   expressed as [`simnet`] node behaviours over the calibrated rack fabric,
//!   used by the benchmark harness to regenerate every figure of the paper's
//!   evaluation. It also implements the three baselines of §7.1
//!   (`Base-EREW`, `Base`, `Uniform`).

pub mod config;
pub mod node;
pub mod perf;

pub use config::{SystemConfig, SystemKind};
pub use node::{CacheGet, CachePut, CcNode, NodeConfig, Outgoing};
pub use perf::{run_experiment, ExperimentResult, PerfConfig};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::config::{SystemConfig, SystemKind};
    pub use crate::node::{CacheGet, CachePut, CcNode, NodeConfig, Outgoing};
    pub use crate::perf::{run_experiment, ExperimentResult, PerfConfig};
    pub use consistency::messages::ConsistencyModel;
    pub use workload::prelude::*;
}
