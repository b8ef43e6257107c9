//! `cckvs-node` — one networked ccKVS server node.
//!
//! Runs a single node of a deployment as its own process, for
//! process-per-node or multi-host racks:
//!
//! ```text
//! cckvs-node --node 0 --nodes 3 \
//!     --listen 127.0.0.1:7000 \
//!     --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//!     --model lin --metrics 127.0.0.1:9100
//! ```
//!
//! `--peers` lists the listen address of *every* node in node-id order
//! (including this node's own entry). The node binds, waits for its peers
//! to come up (retrying for `--peer-timeout` seconds), wires the protocol
//! mesh, and serves until it receives a `Shutdown` frame on a client
//! connection (`cckvs-loadgen --shutdown` sends one).

use cckvs::node::{NodeConfig, DEFAULT_KVS_THREADS};
use cckvs_net::server::{NodeServer, NodeServerConfig, ReactorConfig};
use cckvs_net::transport::TransportKind;
use consistency::messages::ConsistencyModel;
use std::io::Read;
use std::net::SocketAddr;
use std::time::Duration;
use symcache::EpochConfig;

/// Exit code for a failed listener bind: the port is taken (or the address
/// is unusable). A supervisor must NOT blindly retry — another process owns
/// the port.
const EXIT_BIND: i32 = 3;

/// Exit code for a peer-connect timeout: the peers were not up within
/// `--peer-timeout`. A supervisor SHOULD retry — the rest of the rack may
/// simply still be booting (or restarting).
const EXIT_PEERS: i32 = 4;

/// How long the SIGTERM path spends shipping dirty cached values back to
/// their home shards before exiting.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

struct Args {
    node: usize,
    nodes: usize,
    listen: SocketAddr,
    peers: Vec<SocketAddr>,
    model: ConsistencyModel,
    metrics: Option<SocketAddr>,
    cache_capacity: usize,
    kvs_capacity: usize,
    value_capacity: usize,
    peer_timeout: u64,
    epoch_hot_set: Option<usize>,
    shards: usize,
    ready_fd: Option<i32>,
    cold_floor: u32,
    hot_fence: Vec<u64>,
    transport: TransportKind,
}

fn usage() -> ! {
    eprintln!(
        "usage: cckvs-node --node N --nodes M --listen ADDR --peers A,B,... \
         [--model sc|lin] [--metrics ADDR] [--cache-capacity N] \
         [--kvs-capacity N] [--value-capacity N] [--peer-timeout SECS] \
         [--epoch-hot-set N] [--shards N] [--ready-fd FD]\n\
         [--cold-floor N] [--hot-fence K1,K2,...] [--transport tcp|udp]\n\
         --transport picks the fabric the node listens on and dials peers\n\
         over (default tcp; every node and client of a deployment must\n\
         agree). udp runs datagrams with userspace loss recovery — the\n\
         paper's unreliable-datagram fabric shape. The metrics endpoint\n\
         stays HTTP-over-TCP either way.\n\
         --shards sizes the epoll reactor (shard event-loop threads; every\n\
         frame — including Lin commits and miss-path RPCs — is handled\n\
         on-shard, so thread count is O(shards), independent of connection\n\
         count).\n\
         --epoch-hot-set makes this node the deployment's epoch coordinator:\n\
         it tracks popularity over the requests it serves and churns a hot\n\
         set of N keys across all nodes at every epoch (set it on exactly\n\
         one node).\n\
         --ready-fd writes \"ready\\n\" to the given (inherited) fd once the\n\
         peer mesh is up — supervisors await it instead of polling.\n\
         --cold-floor seeds the home shard's cold-version counter: a\n\
         supervisor restarting a crashed node passes its last polled\n\
         VersionFloor (plus slack) so home-assigned versions stay monotone\n\
         across the crash.\n\
         --hot-fence marks the listed keys (those homed here) as fenced\n\
         from boot: the deployment's hot set is still live in the peers'\n\
         caches, so this empty replacement must bounce cold ops on those\n\
         keys until the supervisor heals cache symmetry.\n\
         Exit codes: 2 usage, 3 bind failed (port taken: do not retry),\n\
         4 peers unreachable within --peer-timeout (retry).\n\
         SIGTERM drains dirty write-backs to home shards, then exits 0."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        node: usize::MAX,
        nodes: 0,
        listen: "127.0.0.1:0".parse().expect("static addr"),
        peers: Vec::new(),
        model: ConsistencyModel::Lin,
        metrics: None,
        cache_capacity: 4096,
        kvs_capacity: 1 << 16,
        value_capacity: 64,
        peer_timeout: 30,
        epoch_hot_set: None,
        shards: ReactorConfig::default().shards,
        ready_fd: None,
        cold_floor: 0,
        hot_fence: Vec::new(),
        transport: TransportKind::Tcp,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--node" => args.node = value("--node").parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--listen" => args.listen = value("--listen").parse().unwrap_or_else(|_| usage()),
            "--peers" => {
                args.peers = value("--peers")
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--model" => {
                args.model = match value("--model").as_str() {
                    "sc" => ConsistencyModel::Sc,
                    "lin" => ConsistencyModel::Lin,
                    _ => usage(),
                }
            }
            "--metrics" => {
                args.metrics = Some(value("--metrics").parse().unwrap_or_else(|_| usage()))
            }
            "--cache-capacity" => {
                args.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--kvs-capacity" => {
                args.kvs_capacity = value("--kvs-capacity").parse().unwrap_or_else(|_| usage())
            }
            "--value-capacity" => {
                args.value_capacity = value("--value-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--peer-timeout" => {
                args.peer_timeout = value("--peer-timeout").parse().unwrap_or_else(|_| usage())
            }
            "--epoch-hot-set" => {
                args.epoch_hot_set =
                    Some(value("--epoch-hot-set").parse().unwrap_or_else(|_| usage()))
            }
            "--shards" => args.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--transport" => {
                args.transport = value("--transport").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--ready-fd" => {
                args.ready_fd = Some(value("--ready-fd").parse().unwrap_or_else(|_| usage()))
            }
            "--cold-floor" => {
                args.cold_floor = value("--cold-floor").parse().unwrap_or_else(|_| usage())
            }
            "--hot-fence" => {
                args.hot_fence = value("--hot-fence")
                    .split(',')
                    .filter(|part| !part.is_empty())
                    .map(|part| part.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.nodes == 0 || args.node >= args.nodes {
        eprintln!("--node and --nodes are required (node < nodes)");
        usage();
    }
    if args.shards == 0 {
        eprintln!("--shards must be at least 1");
        usage();
    }
    if args.peers.len() != args.nodes {
        eprintln!(
            "--peers must list one address per node ({} given, {} nodes)",
            args.peers.len(),
            args.nodes
        );
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = NodeServerConfig {
        node: NodeConfig {
            model: args.model,
            node: args.node,
            nodes: args.nodes,
            cache_capacity: args.cache_capacity,
            kvs_capacity: args.kvs_capacity,
            value_capacity: args.value_capacity,
            kvs_threads: DEFAULT_KVS_THREADS,
        },
        listen: args.listen,
        metrics_listen: args.metrics,
        epochs: args.epoch_hot_set.map(EpochConfig::for_cache),
        flow: cckvs_net::server::FlowConfig::default(),
        reactor: ReactorConfig {
            shards: args.shards,
        },
        rpc_retry: cckvs_net::server::DEFAULT_RPC_RETRY,
        cold_version_floor: args.cold_floor,
        hot_fence: args.hot_fence,
        transport: cckvs_net::transport::TransportConfig {
            kind: args.transport,
            faults: None,
        },
    };
    let mut server = match NodeServer::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            // Distinct code: the supervisor must not retry a taken port.
            eprintln!("cckvs-node: failed to bind/start: {e}");
            std::process::exit(EXIT_BIND);
        }
    };
    eprintln!(
        "cckvs-node: node {} of {} ({}) listening on {} over {}{}",
        args.node,
        args.nodes,
        args.model.label(),
        server.addr(),
        args.transport,
        server
            .metrics_addr()
            .map(|a| format!(", metrics on http://{a}/metrics"))
            .unwrap_or_default()
    );
    // Graceful termination: SIGTERM/SIGINT land as bytes on a self-pipe; a
    // watcher thread ships dirty write-backs home, then shuts the reactor
    // down so the process exits 0 (the supervisor reads that as "stopped
    // on purpose", not a crash).
    let handle = server.shutdown_handle();
    match reactor::signal_pipe(&[reactor::SIGTERM, reactor::SIGINT]) {
        Ok(mut pipe) => {
            std::thread::Builder::new()
                .name("cckvs-signals".to_string())
                .spawn(move || {
                    let mut byte = [0u8; 1];
                    if pipe.read_exact(&mut byte).is_ok() {
                        eprintln!(
                            "cckvs-node: signal {} received, draining dirty write-backs",
                            byte[0]
                        );
                        let drained = handle.drain_dirty_writebacks(DRAIN_BUDGET);
                        eprintln!("cckvs-node: drained {drained} dirty values, shutting down");
                        handle.initiate_shutdown();
                    }
                })
                .expect("spawn signal watcher");
        }
        Err(e) => eprintln!("cckvs-node: no graceful-signal handling: {e}"),
    }
    if let Err(e) = server.connect_peers(&args.peers, Duration::from_secs(args.peer_timeout)) {
        // Distinct code: the peers may simply still be booting — retry.
        eprintln!("cckvs-node: failed to reach peers: {e}");
        std::process::exit(EXIT_PEERS);
    }
    eprintln!("cckvs-node: peer mesh up, serving");
    if let Some(fd) = args.ready_fd {
        if let Err(e) = reactor::write_raw_fd(fd, b"ready\n") {
            eprintln!("cckvs-node: could not signal --ready-fd {fd}: {e}");
        }
        reactor::close_raw_fd(fd);
    }
    server.wait();
    eprintln!("cckvs-node: shut down");
}
