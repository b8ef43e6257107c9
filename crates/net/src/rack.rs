//! Rack launcher: boots an N-node networked ccKVS deployment.
//!
//! [`Rack::launch`] starts every node as a real TCP or UDP endpoint (one
//! [`crate::server::NodeServer`] each, threads within this process), wires
//! the full peer mesh, and installs the coordinator's hot set over the
//! wire — the same admin frames a multi-process deployment of `cckvs-node`
//! binaries under the `cckvs-orchestrate` supervisor uses.

use crate::client::{flip_epoch_via, install_hot_set_via, EpochFlip};
use crate::server::{FlowConfig, NodeServer, NodeServerConfig, ReactorConfig};
use crate::transport::TransportConfig;
use cckvs::node::{NodeConfig, DEFAULT_KVS_THREADS};
use consistency::messages::ConsistencyModel;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;
use symcache::EpochConfig;

/// Node id of the rack's epoch coordinator when epochs are enabled (§4:
/// one node suffices because load balancing shows every node the same
/// access distribution).
pub const COORDINATOR_NODE: usize = 0;

/// Configuration of a rack deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackConfig {
    /// Consistency model for the symmetric caches.
    pub model: ConsistencyModel,
    /// Number of server nodes.
    pub nodes: usize,
    /// Symmetric-cache capacity (hot keys) per node.
    pub cache_capacity: usize,
    /// Back-end KVS capacity (objects) per node.
    pub kvs_capacity: usize,
    /// Maximum value size in bytes.
    pub value_capacity: usize,
    /// Whether each node exposes a metrics HTTP endpoint.
    pub metrics: bool,
    /// When set, node [`COORDINATOR_NODE`] tracks popularity over the
    /// requests it serves and churns the hot set of the whole rack at
    /// every epoch (live install/evict over the wire with dirty
    /// write-backs).
    pub epochs: Option<EpochConfig>,
    /// Peer-mesh batching and credit-based flow-control knobs, applied to
    /// every node.
    pub flow: FlowConfig,
    /// Reactor topology (shard event-loop threads), applied to every node.
    pub reactor: ReactorConfig,
    /// The fabric every node listens on and dials peers over (client
    /// sessions and admin traffic must use the same one).
    pub transport: TransportConfig,
}

impl RackConfig {
    /// A small loopback rack suitable for tests and examples.
    pub fn small(model: ConsistencyModel, nodes: usize) -> Self {
        Self {
            model,
            nodes,
            cache_capacity: 256,
            kvs_capacity: 4096,
            value_capacity: 64,
            metrics: true,
            epochs: None,
            flow: FlowConfig::default(),
            reactor: ReactorConfig::default(),
            transport: TransportConfig::tcp(),
        }
    }

    /// The same rack on a different fabric.
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// [`RackConfig::small`], with the fabric taken from the
    /// `CCKVS_TRANSPORT` environment variable when set (`tcp`/`udp`).
    /// This is how CI runs the same e2e matrix on both fabrics without
    /// duplicating every test; an unset or invalid value means TCP.
    pub fn small_from_env(model: ConsistencyModel, nodes: usize) -> Self {
        let mut cfg = Self::small(model, nodes);
        if let Ok(value) = std::env::var("CCKVS_TRANSPORT") {
            if let Ok(kind) = value.parse() {
                cfg.transport.kind = kind;
            }
        }
        cfg
    }
}

/// A running rack of networked ccKVS nodes.
pub struct Rack {
    servers: Vec<NodeServer>,
    transport: TransportConfig,
}

impl Rack {
    /// Boots the rack: binds every node, then wires the peer mesh.
    pub fn launch(cfg: RackConfig) -> io::Result<Rack> {
        assert!(cfg.nodes > 0, "rack needs at least one node");
        let mut servers = (0..cfg.nodes)
            .map(|n| {
                let node = NodeConfig {
                    model: cfg.model,
                    node: n,
                    nodes: cfg.nodes,
                    cache_capacity: cfg.cache_capacity,
                    kvs_capacity: cfg.kvs_capacity,
                    value_capacity: cfg.value_capacity,
                    kvs_threads: DEFAULT_KVS_THREADS,
                };
                let mut server_cfg = NodeServerConfig::loopback(node);
                server_cfg.flow = cfg.flow;
                server_cfg.reactor = cfg.reactor;
                server_cfg.transport = cfg.transport;
                if !cfg.metrics {
                    server_cfg.metrics_listen = None;
                }
                if n == COORDINATOR_NODE {
                    server_cfg.epochs = cfg.epochs;
                }
                NodeServer::start(server_cfg)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let addrs: Vec<SocketAddr> = servers.iter().map(NodeServer::addr).collect();
        for server in &mut servers {
            server.connect_peers(&addrs, Duration::from_secs(5))?;
        }
        Ok(Rack {
            servers,
            transport: cfg.transport,
        })
    }

    /// The fabric this rack was launched on — client sessions must dial
    /// it with a matching [`TransportConfig`].
    pub fn transport(&self) -> TransportConfig {
        self.transport
    }

    /// A [`crate::client::ClientBuilder`] pre-targeted at this rack: the
    /// node addresses and the rack's transport are already set.
    pub fn client(&self) -> crate::client::ClientBuilder {
        crate::client::Client::builder(&self.client_addrs()).transport(self.transport)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.servers.len()
    }

    /// The client-facing address of every node, indexed by node id.
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(NodeServer::addr).collect()
    }

    /// The metrics endpoint of every node (when enabled).
    pub fn metrics_addrs(&self) -> Vec<Option<SocketAddr>> {
        self.servers.iter().map(NodeServer::metrics_addr).collect()
    }

    /// One node's server (diagnostics / metrics).
    pub fn server(&self, node: usize) -> &NodeServer {
        &self.servers[node]
    }

    /// Installs the coordinator's hot set into every node over the wire.
    pub fn install_hot_set(&self, entries: &[(u64, Vec<u8>)]) -> io::Result<()> {
        install_hot_set_via(&*self.transport.build(), &self.client_addrs(), entries)
    }

    /// Evicts keys from every node over the wire (dirty values are written
    /// back to their home shards before this returns).
    pub fn evict_hot_set(&self, keys: &[u64]) -> io::Result<()> {
        crate::client::evict_hot_set_via(&*self.transport.build(), &self.client_addrs(), keys)
    }

    /// Forces the epoch coordinator to close the current popularity epoch
    /// and reconfigure the rack's hot set now. Requires the rack to have
    /// been launched with [`RackConfig::epochs`] set.
    pub fn flip_epoch(&self) -> io::Result<EpochFlip> {
        flip_epoch_via(
            &*self.transport.build(),
            self.servers[COORDINATOR_NODE].addr(),
        )
    }

    /// Shuts every node down and joins their threads.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}
