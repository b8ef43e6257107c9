//! The discrete-event engine.
//!
//! The engine owns one [`NodeBehavior`] per node plus the fabric state, and
//! processes a time-ordered event queue. Node behaviours (implemented in the
//! `cckvs` crate for ccKVS and the baselines) react to packet deliveries and
//! timers by emitting new packets, timers and request completions; the engine
//! charges every packet to the fabric's link/switch resources and keeps the
//! measurement counters.

use crate::fabric::{FabricConfig, FabricState};
use crate::packet::Packet;
use crate::stats::{CompletionKind, SimStats};
use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something a node behaviour wants to happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Put a packet on the fabric (source must be the emitting node).
    Send(Packet),
    /// Fire `on_timer` on the emitting node after `delay`.
    Timer {
        /// Delay from now.
        delay: SimTime,
        /// Opaque token passed back to the behaviour.
        token: u64,
    },
    /// Record the completion of a client request issued at `issued_at`.
    Complete {
        /// How the request was served.
        kind: CompletionKind,
        /// When the request entered the system.
        issued_at: SimTime,
    },
}

/// Per-node logic driven by the engine.
pub trait NodeBehavior {
    /// Called once at time zero; typically schedules the arrival process.
    fn on_start(&mut self, now: SimTime) -> Vec<Emit>;
    /// Called when a packet destined to this node is fully received.
    fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> Vec<Emit>;
    /// Called when a timer scheduled by this node fires.
    fn on_timer(&mut self, now: SimTime, token: u64) -> Vec<Emit>;
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Deliver { node: usize, pkt: Packet },
    Timer { node: usize, token: u64 },
}

#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: the BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The discrete-event simulation engine.
pub struct Engine<B: NodeBehavior> {
    nodes: Vec<B>,
    fabric: FabricState,
    queue: BinaryHeap<QueuedEvent>,
    stats: SimStats,
    seq: u64,
}

impl<B: NodeBehavior> Engine<B> {
    /// Creates an engine over `nodes` behaviours and the given fabric.
    ///
    /// # Panics
    ///
    /// Panics if the number of behaviours does not match the fabric size.
    pub fn new(nodes: Vec<B>, fabric: FabricConfig) -> Self {
        assert_eq!(nodes.len(), fabric.nodes, "one behaviour per fabric node");
        let n = nodes.len();
        Self {
            nodes,
            fabric: FabricState::new(fabric),
            queue: BinaryHeap::new(),
            stats: SimStats::new(n),
            seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time,
            seq: self.seq,
            kind,
        });
    }

    fn apply_emits(&mut self, node: usize, now: SimTime, emits: Vec<Emit>, horizon: SimTime) {
        for emit in emits {
            match emit {
                Emit::Send(pkt) => {
                    assert_eq!(
                        pkt.src, node,
                        "behaviours may only send from their own node"
                    );
                    self.stats.record_packet(pkt.class, pkt.bytes);
                    let delivered = self.fabric.schedule(now, &pkt);
                    if delivered <= horizon {
                        self.push(delivered, EventKind::Deliver { node: pkt.dst, pkt });
                    }
                }
                Emit::Timer { delay, token } => {
                    let at = now + delay;
                    if at <= horizon {
                        self.push(at, EventKind::Timer { node, token });
                    }
                }
                Emit::Complete { kind, issued_at } => {
                    self.stats
                        .record_completion(kind, now.saturating_sub(issued_at));
                }
            }
        }
    }

    /// Runs the simulation until `horizon` (simulated nanoseconds) and
    /// returns the collected statistics.
    pub fn run(mut self, horizon: SimTime) -> SimStats {
        // Start every node.
        for node in 0..self.nodes.len() {
            let emits = self.nodes[node].on_start(0);
            self.apply_emits(node, 0, emits, horizon);
        }
        while let Some(ev) = self.queue.pop() {
            if ev.time > horizon {
                break;
            }
            match ev.kind {
                EventKind::Deliver { node, pkt } => {
                    let emits = self.nodes[node].on_packet(ev.time, &pkt);
                    self.apply_emits(node, ev.time, emits, horizon);
                }
                EventKind::Timer { node, token } => {
                    let emits = self.nodes[node].on_timer(ev.time, token);
                    self.apply_emits(node, ev.time, emits, horizon);
                }
            }
        }
        self.stats.elapsed = horizon;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{MessageSizes, TrafficClass};
    use crate::{MICROSECOND, MILLISECOND};

    /// A toy behaviour: node 0 fires a request to node 1 every `period`;
    /// node 1 replies; node 0 records a completion on the reply.
    struct PingPong {
        id: usize,
        period: SimTime,
        sizes: MessageSizes,
        outstanding: Vec<SimTime>,
    }

    impl NodeBehavior for PingPong {
        fn on_start(&mut self, _now: SimTime) -> Vec<Emit> {
            if self.id == 0 {
                vec![Emit::Timer {
                    delay: self.period,
                    token: 0,
                }]
            } else {
                Vec::new()
            }
        }

        fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> Vec<Emit> {
            match pkt.class {
                TrafficClass::MissRequest => vec![Emit::Send(Packet::single(
                    self.id,
                    pkt.src,
                    self.sizes.miss_response,
                    TrafficClass::MissResponse,
                    pkt.token,
                ))],
                TrafficClass::MissResponse => {
                    let issued_at = self.outstanding[pkt.token as usize];
                    let _ = now;
                    vec![Emit::Complete {
                        kind: CompletionKind::RemoteMiss,
                        issued_at,
                    }]
                }
                _ => Vec::new(),
            }
        }

        fn on_timer(&mut self, now: SimTime, _token: u64) -> Vec<Emit> {
            let token = self.outstanding.len() as u64;
            self.outstanding.push(now);
            vec![
                Emit::Send(Packet::single(
                    0,
                    1,
                    self.sizes.miss_request,
                    TrafficClass::MissRequest,
                    token,
                )),
                Emit::Timer {
                    delay: self.period,
                    token: 0,
                },
            ]
        }
    }

    fn ping_pong_engine(period: SimTime) -> Engine<PingPong> {
        let sizes = MessageSizes::for_value_size(40);
        let nodes = (0..2)
            .map(|id| PingPong {
                id,
                period,
                sizes,
                outstanding: Vec::new(),
            })
            .collect();
        Engine::new(nodes, FabricConfig::paper_rack(2))
    }

    #[test]
    fn request_response_round_trips_complete() {
        let stats = ping_pong_engine(10 * MICROSECOND).run(MILLISECOND);
        // 1 ms at one request per 10 µs ≈ 100 requests, minus those in flight.
        let done = stats.total_completions();
        assert!((90..=100).contains(&done), "completions: {done}");
        assert_eq!(stats.completions_of(CompletionKind::RemoteMiss), done);
        // Latency must be at least two base latencies plus serialisation.
        assert!(stats.latency.mean() > 4_000.0);
        assert!(stats.elapsed == MILLISECOND);
        // Both request and response bytes were accounted.
        assert!(stats.bytes_by_class[&TrafficClass::MissRequest] > 0);
        assert!(stats.bytes_by_class[&TrafficClass::MissResponse] > 0);
    }

    #[test]
    fn overload_saturates_at_the_switch_packet_rate() {
        // Issue requests far faster than a single port can carry: the
        // completion rate must cap at roughly the switch packet rate.
        let stats = ping_pong_engine(10).run(MILLISECOND);
        let completions_per_ms = stats.total_completions() as f64 / 1_000.0;
        // Port gap ≈ 21 ns ⇒ at most ~47.5 K packets per ms per direction,
        // i.e. fewer than ~50 K request/response round trips per ms.
        assert!(
            completions_per_ms < 55.0,
            "completions per ms: {completions_per_ms}"
        );
        assert!(
            stats.total_completions() > 10_000,
            "should still push many requests"
        );
        // Latency grows due to queueing relative to the lightly-loaded case.
        let light = ping_pong_engine(10 * MICROSECOND).run(MILLISECOND);
        let mut heavy_lat = stats.latency.clone();
        let mut light_lat = light.latency.clone();
        assert!(heavy_lat.percentile(95.0) > light_lat.percentile(95.0));
    }

    #[test]
    #[should_panic]
    fn behaviour_count_must_match_fabric() {
        let sizes = MessageSizes::for_value_size(40);
        let nodes = vec![PingPong {
            id: 0,
            period: 1,
            sizes,
            outstanding: Vec::new(),
        }];
        let _ = Engine::new(nodes, FabricConfig::paper_rack(2));
    }
}
