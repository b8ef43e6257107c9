//! The rack topology file: which nodes exist, where they listen, and the
//! knobs they share.
//!
//! The format is a small TOML subset (sections, `key = value`, `#`
//! comments) parsed by hand — the build environment vendors every
//! dependency, and a full TOML parser buys nothing over this for flat
//! sections:
//!
//! ```toml
//! [rack]
//! model = "lin"            # sc | lin
//! transport = "tcp"        # tcp | udp (the whole rack's fabric)
//! cache_capacity = 4096    # hot keys per node
//! kvs_capacity = 65536     # objects per home shard
//! value_capacity = 64      # max value bytes
//! peer_timeout_secs = 30   # boot-time peer dial budget
//!
//! [node.0]
//! listen = "127.0.0.1:7000"
//! metrics = "127.0.0.1:9100"
//! epoch_hot_set = 256      # this node is the epoch coordinator
//!
//! [node.1]
//! listen = "127.0.0.1:7001"
//!
//! [node.2]
//! listen = "127.0.0.1:7002"
//! ```
//!
//! Node sections must be numbered contiguously from 0; exactly the listed
//! nodes form the deployment (the peer list every `cckvs-node` process
//! receives is derived from the listen addresses, in node-id order).

use cckvs_net::transport::TransportKind;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::path::Path;

/// Rack-wide settings (the `[rack]` section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackSpec {
    /// Consistency model: `"sc"` or `"lin"`.
    pub model: String,
    /// Symmetric-cache capacity per node (`cckvs-node --cache-capacity`).
    pub cache_capacity: Option<usize>,
    /// Back-end KVS capacity per node.
    pub kvs_capacity: Option<usize>,
    /// Maximum value size in bytes.
    pub value_capacity: Option<usize>,
    /// Boot-time peer dial budget in seconds.
    pub peer_timeout_secs: Option<u64>,
    /// Reactor shard threads per node.
    pub shards: Option<usize>,
    /// The fabric the whole rack runs on (`cckvs-node --transport`);
    /// `None` means TCP. The supervisor's probes dial it too.
    pub transport: Option<TransportKind>,
}

impl Default for RackSpec {
    fn default() -> Self {
        Self {
            model: "lin".to_string(),
            cache_capacity: None,
            kvs_capacity: None,
            value_capacity: None,
            peer_timeout_secs: None,
            shards: None,
            transport: None,
        }
    }
}

/// One node of the rack (a `[node.N]` section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Client/peer listen address.
    pub listen: SocketAddr,
    /// Optional metrics HTTP endpoint address.
    pub metrics: Option<SocketAddr>,
    /// When set, this node runs the epoch coordinator with a hot set of
    /// this many keys (at most one node of a topology may set it).
    pub epoch_hot_set: Option<usize>,
}

/// A parsed topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Rack-wide settings.
    pub rack: RackSpec,
    /// The nodes, indexed by node id.
    pub nodes: Vec<NodeSpec>,
}

/// A parse or validation error, with the offending line when applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    /// 1-based line number (0 for whole-file validation errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "topology: {}", self.message)
        } else {
            write!(f, "topology line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<TopologyError> for io::Error {
    fn from(e: TopologyError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Which section the parser is inside.
enum Section {
    None,
    Rack,
    Node(usize),
}

impl Topology {
    /// Parses a topology document.
    pub fn parse(text: &str) -> Result<Topology, TopologyError> {
        let fail = |line: usize, message: String| Err(TopologyError { line, message });
        let mut rack = RackSpec::default();
        // (id, spec, line-of-section) — ids may appear in any order but
        // must come out contiguous from 0.
        let mut nodes: Vec<(usize, NodeSpec, usize)> = Vec::new();
        let mut section = Section::None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim();
                if name == "rack" {
                    section = Section::Rack;
                } else if let Some(id) = name.strip_prefix("node.") {
                    let id: usize = match id.trim().parse() {
                        Ok(id) => id,
                        Err(_) => return fail(lineno, format!("bad node id in [{name}]")),
                    };
                    if nodes.iter().any(|(existing, ..)| *existing == id) {
                        return fail(lineno, format!("duplicate section [node.{id}]"));
                    }
                    nodes.push((
                        id,
                        NodeSpec {
                            // Placeholder until a `listen` key arrives;
                            // validated below.
                            listen: "0.0.0.0:0".parse().expect("static addr"),
                            metrics: None,
                            epoch_hot_set: None,
                        },
                        lineno,
                    ));
                    section = Section::Node(id);
                } else {
                    return fail(lineno, format!("unknown section [{name}]"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return fail(lineno, format!("expected `key = value`, got `{line}`"));
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            match &section {
                Section::None => {
                    return fail(lineno, format!("key `{key}` outside any section"));
                }
                Section::Rack => match key {
                    "model" => {
                        if value != "sc" && value != "lin" {
                            return fail(lineno, format!("model must be sc or lin, got `{value}`"));
                        }
                        rack.model = value.to_string();
                    }
                    "cache_capacity" => rack.cache_capacity = Some(parse_num(lineno, key, value)?),
                    "kvs_capacity" => rack.kvs_capacity = Some(parse_num(lineno, key, value)?),
                    "value_capacity" => rack.value_capacity = Some(parse_num(lineno, key, value)?),
                    "peer_timeout_secs" => {
                        rack.peer_timeout_secs = Some(parse_num(lineno, key, value)?)
                    }
                    "shards" => rack.shards = Some(parse_num(lineno, key, value)?),
                    "transport" => match value.parse() {
                        Ok(kind) => rack.transport = Some(kind),
                        Err(_) => {
                            return fail(
                                lineno,
                                format!("transport must be tcp or udp, got `{value}`"),
                            )
                        }
                    },
                    other => return fail(lineno, format!("unknown [rack] key `{other}`")),
                },
                Section::Node(id) => {
                    let spec = &mut nodes
                        .iter_mut()
                        .find(|(existing, ..)| existing == id)
                        .expect("section registered above")
                        .1;
                    match key {
                        "listen" => match value.parse() {
                            Ok(addr) => spec.listen = addr,
                            Err(_) => return fail(lineno, format!("bad listen address `{value}`")),
                        },
                        "metrics" => match value.parse() {
                            Ok(addr) => spec.metrics = Some(addr),
                            Err(_) => {
                                return fail(lineno, format!("bad metrics address `{value}`"))
                            }
                        },
                        "epoch_hot_set" => {
                            spec.epoch_hot_set = Some(parse_num(lineno, key, value)?)
                        }
                        other => return fail(lineno, format!("unknown [node] key `{other}`")),
                    }
                }
            }
        }
        // Contiguity + required keys + cross-node validation.
        nodes.sort_by_key(|(id, ..)| *id);
        if nodes.is_empty() {
            return fail(0, "no [node.N] sections".to_string());
        }
        for (expected, (id, spec, lineno)) in nodes.iter().enumerate() {
            if *id != expected {
                return fail(
                    *lineno,
                    format!("node ids must be contiguous from 0 (missing node {expected})"),
                );
            }
            if spec.listen.port() == 0 && spec.listen.ip().is_unspecified() {
                return fail(*lineno, format!("node {id} has no `listen` address"));
            }
            if spec.listen.port() == 0 {
                // An ephemeral port would bind fine, but every peer's
                // --peers list (and the supervisor's probes) dial the
                // configured address verbatim — the mesh could never form.
                return fail(
                    *lineno,
                    format!("node {id} must listen on a fixed port, not 0"),
                );
            }
        }
        for (id, spec, lineno) in &nodes {
            if nodes
                .iter()
                .any(|(other, o, _)| other != id && o.listen == spec.listen)
            {
                return fail(*lineno, format!("node {id} reuses a listen address"));
            }
        }
        if nodes
            .iter()
            .filter(|(_, s, _)| s.epoch_hot_set.is_some())
            .count()
            > 1
        {
            return fail(0, "at most one node may set epoch_hot_set".to_string());
        }
        Ok(Topology {
            rack,
            nodes: nodes.into_iter().map(|(_, spec, _)| spec).collect(),
        })
    }

    /// Loads and parses a topology file.
    pub fn load(path: &Path) -> io::Result<Topology> {
        let text = std::fs::read_to_string(path)?;
        Ok(Topology::parse(&text)?)
    }

    /// A loopback topology with `nodes` nodes on consecutive ports
    /// starting at `base_port` (tests, examples, quick demos).
    pub fn loopback(nodes: usize, base_port: u16) -> Topology {
        Topology {
            rack: RackSpec::default(),
            nodes: (0..nodes)
                .map(|n| NodeSpec {
                    listen: format!("127.0.0.1:{}", base_port + n as u16)
                        .parse()
                        .expect("loopback addr"),
                    metrics: None,
                    epoch_hot_set: None,
                })
                .collect(),
        }
    }

    /// The client-facing address of every node, in node-id order.
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.listen).collect()
    }

    /// The fabric this topology's rack runs on (TCP when unset).
    pub fn transport_kind(&self) -> TransportKind {
        self.rack.transport.unwrap_or_default()
    }

    /// The `cckvs-node` argument vector for node `id` (without the
    /// supervisor-owned `--ready-fd`).
    pub fn node_args(&self, id: usize) -> Vec<String> {
        let peers = self
            .nodes
            .iter()
            .map(|n| n.listen.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let spec = &self.nodes[id];
        let mut args = vec![
            "--node".to_string(),
            id.to_string(),
            "--nodes".to_string(),
            self.nodes.len().to_string(),
            "--listen".to_string(),
            spec.listen.to_string(),
            "--peers".to_string(),
            peers,
            "--model".to_string(),
            self.rack.model.clone(),
        ];
        let mut push_opt = |flag: &str, value: Option<String>| {
            if let Some(value) = value {
                args.push(flag.to_string());
                args.push(value);
            }
        };
        push_opt("--metrics", spec.metrics.map(|a| a.to_string()));
        push_opt("--epoch-hot-set", spec.epoch_hot_set.map(|n| n.to_string()));
        push_opt(
            "--cache-capacity",
            self.rack.cache_capacity.map(|n| n.to_string()),
        );
        push_opt(
            "--kvs-capacity",
            self.rack.kvs_capacity.map(|n| n.to_string()),
        );
        push_opt(
            "--value-capacity",
            self.rack.value_capacity.map(|n| n.to_string()),
        );
        push_opt(
            "--peer-timeout",
            self.rack.peer_timeout_secs.map(|n| n.to_string()),
        );
        push_opt("--shards", self.rack.shards.map(|n| n.to_string()));
        push_opt(
            "--transport",
            self.rack.transport.map(|t| t.label().to_string()),
        );
        args
    }
}

fn parse_num<T: std::str::FromStr>(
    line: usize,
    key: &str,
    value: &str,
) -> Result<T, TopologyError> {
    value.parse().map_err(|_| TopologyError {
        line,
        message: format!("bad number for `{key}`: `{value}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# A three-node loopback rack.
[rack]
model = "lin"
cache_capacity = 512   # hot keys
peer_timeout_secs = 15

[node.0]
listen = "127.0.0.1:7100"
metrics = "127.0.0.1:9100"
epoch_hot_set = 64

[node.1]
listen = "127.0.0.1:7101"

[node.2]
listen = "127.0.0.1:7102"
"#;

    #[test]
    fn parses_the_documented_example() {
        let topo = Topology::parse(EXAMPLE).expect("parse");
        assert_eq!(topo.rack.model, "lin");
        assert_eq!(topo.rack.cache_capacity, Some(512));
        assert_eq!(topo.rack.peer_timeout_secs, Some(15));
        assert_eq!(topo.nodes.len(), 3);
        assert_eq!(topo.nodes[0].epoch_hot_set, Some(64));
        assert_eq!(
            topo.nodes[0].metrics,
            Some("127.0.0.1:9100".parse().unwrap())
        );
        assert!(topo.nodes[1].metrics.is_none());
        assert_eq!(topo.client_addrs()[2], "127.0.0.1:7102".parse().unwrap());
    }

    #[test]
    fn node_args_carry_the_whole_peer_list() {
        let topo = Topology::parse(EXAMPLE).expect("parse");
        let args = topo.node_args(1);
        let joined = args.join(" ");
        assert!(joined.contains("--node 1"));
        assert!(joined.contains("--nodes 3"));
        assert!(joined.contains("--peers 127.0.0.1:7100,127.0.0.1:7101,127.0.0.1:7102"));
        assert!(joined.contains("--model lin"));
        assert!(joined.contains("--cache-capacity 512"));
        assert!(joined.contains("--peer-timeout 15"));
        // Only node 0 is the coordinator.
        assert!(!joined.contains("--epoch-hot-set"));
        assert!(topo.node_args(0).join(" ").contains("--epoch-hot-set 64"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for (doc, needle) in [
            ("model = \"lin\"", "outside any section"),
            ("[rack]\nmodel = \"eventual\"", "model must be sc or lin"),
            ("[rack]\nbogus = 1", "unknown [rack] key"),
            (
                "[rack]\ntransport = \"carrier-pigeon\"",
                "transport must be tcp or udp",
            ),
            ("[node.0]\nlisten = \"nonsense\"", "bad listen address"),
            ("[node.zero]\nlisten = \"127.0.0.1:1\"", "bad node id"),
            ("[rack]\nmodel = \"sc\"", "no [node.N] sections"),
            ("[node.1]\nlisten = \"127.0.0.1:7000\"", "contiguous from 0"),
            ("[node.0]\nmetrics = \"127.0.0.1:1\"", "no `listen`"),
            ("[node.0]\nlisten = \"127.0.0.1:0\"", "fixed port"),
            (
                "[node.0]\nlisten=\"127.0.0.1:1\"\n[node.0]\nlisten=\"127.0.0.1:2\"",
                "duplicate section",
            ),
            (
                "[node.0]\nlisten=\"127.0.0.1:1\"\n[node.1]\nlisten=\"127.0.0.1:1\"",
                "reuses a listen address",
            ),
            (
                "[node.0]\nlisten=\"127.0.0.1:1\"\nepoch_hot_set = 4\n\
                 [node.1]\nlisten=\"127.0.0.1:2\"\nepoch_hot_set = 4",
                "at most one node",
            ),
        ] {
            let err = Topology::parse(doc).expect_err(doc);
            assert!(
                err.message.contains(needle),
                "`{doc}` produced `{}`, wanted `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn transport_key_parses_and_reaches_node_args() {
        // Unset → TCP, and no flag pushed (old binaries keep working).
        let topo = Topology::parse(EXAMPLE).expect("parse");
        assert_eq!(topo.transport_kind(), TransportKind::Tcp);
        assert!(!topo.node_args(0).join(" ").contains("--transport"));

        let udp = EXAMPLE.replace("[rack]", "[rack]\ntransport = \"udp\"");
        let topo = Topology::parse(&udp).expect("parse");
        assert_eq!(topo.transport_kind(), TransportKind::Udp);
        assert!(topo.node_args(1).join(" ").contains("--transport udp"));
    }

    #[test]
    fn loopback_topology_is_valid_and_round_trips_args() {
        let topo = Topology::loopback(4, 7300);
        assert_eq!(topo.nodes.len(), 4);
        assert_eq!(topo.client_addrs()[3], "127.0.0.1:7303".parse().unwrap());
        let args = topo.node_args(3);
        assert!(args.join(" ").contains("--listen 127.0.0.1:7303"));
    }
}
