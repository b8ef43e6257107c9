//! A simulated RDMA rack fabric for the ccKVS performance experiments.
//!
//! The original evaluation runs on a 9-node cluster with 56 Gb/s InfiniBand
//! NICs behind a Mellanox switch, using two-sided RDMA (UD sends). That
//! hardware is not available here, so this crate provides a **discrete-event
//! simulator** of the relevant resources. §8.4 of the paper establishes that
//! the systems under study are bottlenecked by exactly two network resources:
//!
//! * the per-node **link bandwidth** (dominant for large packets), and
//! * the switch **packet-processing rate** (dominant for small packets;
//!   the paper measures ~21.5 Gb/s effective for small packets vs the
//!   nominal 54 Gb/s).
//!
//! The simulator models both, plus NIC TX/RX serialisation queues, a base
//! propagation/switching latency, and CPU worker pools with fixed service
//! times — enough to reproduce every throughput, traffic-breakdown and
//! latency trend reported in the evaluation, without claiming cycle accuracy.
//!
//! Modules:
//!
//! * [`packet`] — packets, traffic classes and the wire-size model calibrated
//!   to the paper's message sizes (`B_RR = 113 B`, `B_SC = 83 B`,
//!   `B_Lin = 183 B` for 40-byte values).
//! * [`fabric`] — the rack configuration and per-node link/switch state.
//! * [`server`] — a deterministic multi-server queue used to model CPU
//!   worker-thread pools.
//! * [`stats`] — byte/packet accounting per traffic class, completion
//!   counters and latency histograms.
//! * [`engine`] — the discrete-event engine driving [`engine::NodeBehavior`]
//!   implementations (the ccKVS node logic lives in the `cckvs` crate).

pub mod engine;
pub mod fabric;
pub mod packet;
pub mod server;
pub mod stats;

pub use engine::{Emit, Engine, NodeBehavior};
pub use fabric::FabricConfig;
pub use packet::{MessageSizes, Packet, TrafficClass};
pub use server::ServerPool;
pub use stats::{CompletionKind, Histogram, SimStats};

/// Simulated time in nanoseconds.
pub type SimTime = u64;

/// One second in simulated nanoseconds.
pub const SECOND: SimTime = 1_000_000_000;

/// One millisecond in simulated nanoseconds.
pub const MILLISECOND: SimTime = 1_000_000;

/// One microsecond in simulated nanoseconds.
pub const MICROSECOND: SimTime = 1_000;
