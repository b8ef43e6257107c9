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
//! locally, cache misses fall through to the key's home node.
//!
//! [`node`] holds [`CcNode`], one server node as a transport-agnostic state
//! machine: the real cache and KVS shard plus the protocol engine, returning
//! the messages it would send. The reactor server in `cckvs-net` runs it
//! behind sockets and the `cckvs-modelcheck` harness runs it under a seeded
//! scheduler, so correctness (seqlocks, protocol interleavings, per-key
//! SC/Lin histories) is validated on the code that ships.

pub mod node;

pub use node::{CacheGet, CachePut, CcNode, NodeConfig, Outgoing};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::node::{CacheGet, CachePut, CcNode, NodeConfig, Outgoing};
    pub use consistency::messages::ConsistencyModel;
    pub use workload::prelude::*;
}
