use super::*;

/// Peer-mesh credit-based flow control (§6.4). A pump batches whatever
/// is queued when it runs (§6.3), up to 32 messages and a byte budget,
/// and never waits for more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowConfig {
    /// Send-credit window per peer: how many protocol messages may be in
    /// flight to one peer beyond what it has confirmed processing. A fast
    /// sender (a Lin ack round fanning out) stalls — instead of growing the
    /// receiver's backlog without bound — once the window is exhausted.
    pub credit_window: u64,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self { credit_window: 128 }
    }
}

/// Event-loop topology knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Reactor shard threads. Connections are spread across shards
    /// round-robin; each shard owns its sockets exclusively (no
    /// cross-shard locking on the I/O path). This is the node's whole
    /// serving thread count: there is no worker pool — requests that must
    /// wait suspend as continuations and resume on their owning shard.
    pub shards: usize,
}

impl Default for ReactorConfig {
    /// Two shards per node on multi-core hosts. On a single-CPU host the
    /// default drops to one: every shard is a thread, and with more
    /// threads than cores an invalidation's delivery waits on a scheduler
    /// timeslice instead of an epoll wake — measured as 2-3x on the Lin
    /// ack-wait p99 for a loopback rack. Explicit [`ReactorConfig`] values
    /// are honored as given.
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2);
        Self {
            shards: if cores >= 2 { 2 } else { 1 },
        }
    }
}

/// Configuration of one networked node.
#[derive(Debug, Clone)]
pub struct NodeServerConfig {
    /// The node itself (id, deployment size, capacities, model).
    pub node: NodeConfig,
    /// Address to listen on (`127.0.0.1:0` picks an ephemeral port).
    pub listen: SocketAddr,
    /// Optional address for the plain-text metrics HTTP endpoint.
    pub metrics_listen: Option<SocketAddr>,
    /// When set, this node acts as the deployment's epoch coordinator (§4):
    /// it samples the request stream it serves, closes popularity epochs,
    /// and reconfigures the hot set of *every* node over the wire — exactly
    /// one node of a deployment should carry this.
    pub epochs: Option<EpochConfig>,
    /// Peer-mesh flow control.
    pub flow: FlowConfig,
    /// Event-loop topology knobs.
    pub reactor: ReactorConfig,
    /// How long a miss-path RPC keeps redialing a dead peer before the
    /// failure surfaces to the operation. Sized to cover a supervised
    /// restart (crash detection + backoff + readiness), so a client op
    /// that raced a peer crash stalls briefly instead of erroring.
    pub rpc_retry: Duration,
    /// Starting value for the home shard's cold-version counter. An
    /// in-memory shard forgets its counter when the process dies; a
    /// replacement starting from scratch would reuse `(clock, writer)`
    /// pairs its predecessor already assigned, making cross-crash
    /// histories ambiguous. A supervisor polls the live counter over the
    /// wire ([`crate::wire::Frame::VersionFloor`]) and passes the last
    /// observation plus slack here on restart, keeping home-assigned
    /// versions monotone across the crash. 0 (the default) starts at 1.
    pub cold_version_floor: u32,
    /// Keys to *fence* at this node's home shard from boot: of the listed
    /// keys, those homed here start hot-marked, bouncing cold reads and
    /// writes with `MissRetry`. A supervisor restarting a crashed node
    /// passes the deployment's hot set (queried from a survivor via
    /// [`crate::wire::Frame::CacheKeys`]): the replacement's cache is
    /// empty, but the keys are still *hot* — live cached copies exist on
    /// every peer — so serving them from this shard's (empty, stale) cold
    /// path would fork the serialisation point. The fence lifts when the
    /// supervisor heals cache symmetry (rack-wide eviction + `HotUnmark`).
    pub hot_fence: Vec<u64>,
    /// Which fabric this node listens, dials peers and serves clients on
    /// (all three must match across a deployment). TCP by default;
    /// [`crate::transport::UdpTransport`] runs the paper-shaped
    /// unreliable-datagram fabric with userspace loss/reorder recovery.
    pub transport: TransportConfig,
}

/// Default miss-path RPC redial budget (covers a supervised peer restart).
pub const DEFAULT_RPC_RETRY: Duration = Duration::from_secs(10);

impl NodeServerConfig {
    /// A loopback node with an ephemeral port and a metrics endpoint.
    pub fn loopback(node: NodeConfig) -> Self {
        Self {
            node,
            listen: "127.0.0.1:0".parse().expect("static addr"),
            metrics_listen: Some("127.0.0.1:0".parse().expect("static addr")),
            epochs: None,
            flow: FlowConfig::default(),
            reactor: ReactorConfig::default(),
            rpc_retry: DEFAULT_RPC_RETRY,
            cold_version_floor: 0,
            hot_fence: Vec::new(),
            transport: TransportConfig::tcp(),
        }
    }
}

/// The [`CreditReturn`](crate::link::CreditReturn) tick: a processed count
/// that found nothing to ride for this long goes back stand-alone, so an
/// idle tail still releases the sender's retained copies and a sender with
/// a window smaller than this node's return threshold stays live. Nothing
/// waits on it while windows match, and it is long on purpose: a busy link
/// keeps it armed, an armed tick puts a timeout on every blocking poll, and
/// a timeout nearer than the kernel's own next tick reprograms the
/// clock-event device on arm and again on cancel — at 5 ms that cost
/// `cold_uniform` more than the stand-alone credits it replaced.
pub const CREDIT_RETURN_TICK: Duration = Duration::from_millis(200);

/// First redial delay after a peer link dies; doubles up to
/// [`REDIAL_BACKOFF_MAX`].
pub const REDIAL_BACKOFF_START: Duration = Duration::from_millis(50);

/// Redial backoff cap.
pub const REDIAL_BACKOFF_MAX: Duration = Duration::from_secs(1);
