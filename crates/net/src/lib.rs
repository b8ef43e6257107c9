//! `cckvs-net` — the networked ccKVS serving layer.
//!
//! The rest of the workspace proves the paper's protocols correct inside
//! one process (simulator, model checker). This crate runs the same node
//! logic — the transport-agnostic [`cckvs::node::CcNode`] — behind TCP or
//! UDP endpoints on loopback or a LAN:
//!
//! * [`wire`] — the compact length-prefixed binary wire protocol: client
//!   GET/PUT, the consistency-protocol messages (SC update broadcasts, Lin
//!   invalidation/ack/update rounds) and the cache-miss remote-read/write
//!   RPCs.
//! * [`server`] — [`server::NodeServer`]: one ccKVS node behind a socket,
//!   served by an epoll reactor (`crates/reactor`): per-connection state
//!   machines on a few shard threads, requests that must wait suspended as
//!   continuations, credit-gated peer links driven by readiness events —
//!   and crash-recovering: peer links retain traffic until cumulative credit
//!   confirmations, redial dead peers with backoff, replay exactly the
//!   unprocessed tail, and reissue invalidations a restarted peer's dead
//!   predecessor never acknowledged.
//! * [`link`], [`rpc`], [`node_ops`], [`ops`], [`churn`] and [`client_ops`]
//!   — the sans-IO cores the server, the model checker, the supervisor and
//!   the client drive: the reliable link, the home shard's answers to
//!   miss-path frames, the pending-RPC table, what a node does between
//!   frames, one client connection's op machine, the hot-set transitions of
//!   one key and of many keys in batches, and one client session's queue,
//!   batches and lost-connection rule.
//! * [`rack`] — [`rack::Rack`]: boots an N-node deployment, wires the peer
//!   mesh and installs the coordinator's hot set over the wire.
//! * [`client`] — [`client::Client`]: a load-balancing client session that
//!   can record checker-ready operation histories.
//! * [`metrics`] — [`metrics::Metrics`]: per-node counters and latency
//!   histograms served over a plain-text HTTP endpoint.
//!
//! Two binaries ship with the crate: `cckvs-node` (one server node, for
//! process-per-node or multi-host deployments) and `cckvs-loadgen` (a
//! workload driver that reports throughput, hit rate, latency percentiles
//! and checker verdicts).
//!
//! The server side is event-driven: thread count is O(reactor shards),
//! independent of connection count, so one node sustains thousands of
//! concurrent client connections. The client library keeps blocking I/O
//! (a session is a natural thread); drivers that open thousands of
//! connections multiplex many sessions per thread.
//!
//! # Example
//!
//! ```
//! use cckvs_net::prelude::*;
//! use consistency::messages::ConsistencyModel;
//!
//! let rack = Rack::launch(RackConfig::small(ConsistencyModel::Lin, 2)).unwrap();
//! rack.install_hot_set(&[(7, b"hot".to_vec())]).unwrap();
//! let mut client = Client::connect(&rack.client_addrs(), 0, LoadBalancePolicy::RoundRobin).unwrap();
//! client.put(7, b"hello").unwrap();
//! assert_eq!(client.get(7).unwrap(), b"hello");
//! rack.shutdown();
//! ```

pub mod churn;
pub mod client;
pub mod client_ops;
pub mod link;
pub mod metrics;
pub mod node_ops;
pub mod ops;
pub mod rack;
pub mod rpc;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{
    collect_traces_via, evict_hot_set_via, flip_epoch_via, install_hot_set_via, BatchConfig,
    BatchOutcome, Client, ClientBuilder, EpochFlip, LoadBalancePolicy, SharedHistory,
};
pub use metrics::{
    serve_http_traced, AtomicHistogram, HistogramSnapshot, Metrics, MetricsSnapshot,
    ShardedHistogram,
};
pub use rack::{Rack, RackConfig, COORDINATOR_NODE};
pub use rpc::{serve_home_frame, RpcTable};
pub use server::{FlowConfig, NodeServer, NodeServerConfig, ReactorConfig, ShutdownHandle};
pub use transport::{
    FaultPlan, TcpTransport, Transport, TransportConfig, TransportKind, UdpTransport,
};
pub use wire::{Frame, WireError};

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use crate::client::{
        collect_traces_via, evict_hot_set_via, flip_epoch_via, install_hot_set_via, BatchConfig,
        BatchOutcome, Client, ClientBuilder, EpochFlip, LoadBalancePolicy, SharedHistory,
    };
    pub use crate::metrics::{Metrics, MetricsSnapshot};
    pub use crate::rack::{Rack, RackConfig, COORDINATOR_NODE};
    pub use crate::server::{FlowConfig, NodeServer, NodeServerConfig, ReactorConfig};
    pub use crate::transport::{FaultPlan, TransportConfig, TransportKind};
    pub use crate::wire::Frame;
}
