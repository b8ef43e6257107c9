//! Deterministic in-process transport over the `simnet` discrete-event
//! fabric.
//!
//! [`SimNet`] is a hub owning one [`simnet::EngineStepper`]: every
//! connection endpoint belongs to a fabric node, and every `write` on a
//! [`SimConnection`] becomes one *flight* — an undelivered datagram queued
//! as a discrete event, charged to the simulated rack's link/switch
//! resources. Nothing moves on its own: an external scheduler (the model
//! checker, a test) lists the flights and decides, per flight, whether it
//! is [delivered](SimNet::deliver), [dropped](SimNet::drop_flight) or
//! [duplicated](SimNet::duplicate), in any order it likes. That inversion
//! is the point — the interleavings a kernel TCP stack picks for you are
//! exactly the choices a model checker needs to own.
//!
//! A [`SimConnection`] is not a [`crate::transport::Connection`]: its
//! drivers are sans-IO cores stepped by a scheduler, never a reactor, so
//! there is no fd to poll and nothing to block on. `read` drains the
//! endpoint's inbox — `WouldBlock` when starved, `Ok(0)` after a clean peer
//! close, `ConnectionReset` after a [severed](SimNet::sever_node) peer —
//! and [`SimConnection::write_datagram`] is the only way to send.
//!
//! Determinism: the hub makes no scheduling choices, takes no wall-clock
//! readings and holds no randomness. Two drivers making the same choice
//! sequence observe byte-identical delivery orders and simulated times.

use parking_lot::Mutex;
use simnet::{
    Emit, Engine, EngineStepper, FabricConfig, NodeBehavior, Packet, SimStats, SimTime,
    TrafficClass,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{self, Read};
use std::sync::Arc;

/// Flat per-datagram overhead charged to the fabric on top of the payload
/// (rough UDP/IP/Ethernet framing; the fabric only needs sizes that scale
/// with the payload, not protocol-exact headers).
const DATAGRAM_OVERHEAD_BYTES: u32 = 60;

/// A behaviour that just records which flights the fabric delivered to its
/// node; the hub drains it after every engine step and moves the payload
/// bytes into the destination endpoint's inbox. Behaviours never touch the
/// hub themselves (they run *under* the hub lock).
#[derive(Default)]
struct Mailbox {
    delivered: Vec<u64>,
}

impl NodeBehavior for Mailbox {
    fn on_start(&mut self, _now: SimTime) -> Vec<Emit> {
        Vec::new()
    }
    fn on_packet(&mut self, _now: SimTime, pkt: &Packet) -> Vec<Emit> {
        self.delivered.push(pkt.token);
        Vec::new()
    }
    fn on_timer(&mut self, _now: SimTime, _token: u64) -> Vec<Emit> {
        Vec::new()
    }
}

/// One half of an established sim connection; it lives in the hub exactly
/// as long as its [`SimConnection`] handle (or until its node is severed).
struct Endpoint {
    node: usize,
    peer_ep: u64,
    inbox: VecDeque<u8>,
    /// The peer side is still open (false ⇒ EOF or reset after drain).
    peer_open: bool,
    /// The peer went away abruptly (sever/crash) rather than closing.
    reset: bool,
}

/// An undelivered datagram.
struct Flight {
    to_ep: u64,
    src: usize,
    dst: usize,
    bytes: Vec<u8>,
    class: TrafficClass,
}

/// A scheduler's view of one undelivered datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightInfo {
    /// Stable flight id (valid until delivered or dropped).
    pub id: u64,
    /// Sending fabric node.
    pub src: usize,
    /// Receiving fabric node.
    pub dst: usize,
    /// Destination endpoint id ([`SimConnection::endpoint_id`] of the
    /// receiving handle).
    pub to_ep: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// Fabric delivery time if the scheduler delivers it next.
    pub time: SimTime,
}

struct Hub {
    stepper: EngineStepper<Mailbox>,
    endpoints: BTreeMap<u64, Endpoint>,
    flights: BTreeMap<u64, Flight>,
    next_ep: u64,
    next_flight: u64,
    nodes: usize,
}

impl Hub {
    /// Creates an endpoint pair between two nodes and returns their ids.
    fn make_pair(&mut self, a_node: usize, b_node: usize) -> (u64, u64) {
        let a_id = self.next_ep;
        let b_id = self.next_ep + 1;
        self.next_ep += 2;
        for (id, node, peer_ep) in [(a_id, a_node, b_id), (b_id, b_node, a_id)] {
            self.endpoints.insert(
                id,
                Endpoint {
                    node,
                    peer_ep,
                    inbox: VecDeque::new(),
                    peer_open: true,
                    reset: false,
                },
            );
        }
        (a_id, b_id)
    }

    /// Queues `bytes` from endpoint `ep` toward its peer. Cross-node data
    /// becomes a schedulable flight on the fabric; same-node (loopback)
    /// data is appended to the peer inbox immediately — the fabric refuses
    /// local traffic, and a scheduler exploring interleavings keeps every
    /// interesting link cross-node anyway.
    fn send(&mut self, ep: u64, bytes: &[u8], class: TrafficClass) -> io::Result<Option<u64>> {
        let (src, peer_ep) = {
            let e = self
                .endpoints
                .get(&ep)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "endpoint gone"))?;
            if !e.peer_open {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sim peer closed"));
            }
            (e.node, e.peer_ep)
        };
        let dst = match self.endpoints.get(&peer_ep) {
            Some(p) => p.node,
            None => return Err(io::Error::new(io::ErrorKind::BrokenPipe, "sim peer closed")),
        };
        if src == dst {
            self.deposit(peer_ep, bytes);
            return Ok(None);
        }
        let id = self.next_flight;
        self.next_flight += 1;
        self.flights.insert(
            id,
            Flight {
                to_ep: peer_ep,
                src,
                dst,
                bytes: bytes.to_vec(),
                class,
            },
        );
        self.stepper.inject(
            src,
            vec![Emit::Send(Packet::single(
                src,
                dst,
                bytes.len() as u32 + DATAGRAM_OVERHEAD_BYTES,
                class,
                id,
            ))],
        );
        Ok(Some(id))
    }

    fn deposit(&mut self, ep: u64, bytes: &[u8]) {
        if let Some(e) = self.endpoints.get_mut(&ep) {
            e.inbox.extend(bytes);
        }
    }

    /// Moves every token the engine handed to the mailboxes into the
    /// owning endpoints' inboxes.
    fn drain_mailboxes(&mut self) {
        let mut tokens: Vec<u64> = Vec::new();
        for mb in self.stepper.behaviors_mut() {
            tokens.append(&mut mb.delivered);
        }
        for token in tokens {
            if let Some(flight) = self.flights.remove(&token) {
                self.deposit(flight.to_ep, &flight.bytes);
            }
        }
    }

    /// Finds the engine's queued event for flight `id`.
    fn event_of(&self, id: u64) -> Option<simnet::PendingEvent> {
        self.stepper
            .pending()
            .into_iter()
            .find(|ev| !ev.timer && ev.token == id)
    }

    /// Closes endpoint `ep` (its handle dropped): the peer reads EOF once
    /// drained.
    fn close(&mut self, ep: u64) {
        let Some(e) = self.endpoints.remove(&ep) else {
            return;
        };
        if let Some(p) = self.endpoints.get_mut(&e.peer_ep) {
            p.peer_open = false;
        }
        // Data still in flight toward the closed endpoint can never land.
        let dead: Vec<u64> = self
            .flights
            .iter()
            .filter(|(_, f)| f.to_ep == ep)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            if let Some(ev) = self.event_of(id) {
                self.stepper.discard(ev.id);
            }
            self.flights.remove(&id);
        }
    }
}

/// The deterministic in-process fabric hub. Cheap to clone (all clones
/// share the hub); see the [module docs](self) for the model.
#[derive(Clone)]
pub struct SimNet {
    hub: Arc<Mutex<Hub>>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hub = self.hub.lock();
        f.debug_struct("SimNet")
            .field("nodes", &hub.nodes)
            .field("endpoints", &hub.endpoints.len())
            .field("flights", &hub.flights.len())
            .finish()
    }
}

impl SimNet {
    /// A hub over a simulated paper-shaped rack of `nodes` nodes.
    pub fn new(nodes: usize) -> SimNet {
        let behaviors = (0..nodes).map(|_| Mailbox::default()).collect();
        let mut stepper = Engine::new(behaviors, FabricConfig::paper_rack(nodes)).into_stepper();
        stepper.start();
        SimNet {
            hub: Arc::new(Mutex::new(Hub {
                stepper,
                endpoints: BTreeMap::new(),
                flights: BTreeMap::new(),
                next_ep: 1,
                next_flight: 1,
                nodes,
            })),
        }
    }

    /// Connects two nodes and returns the two connection halves (first
    /// belongs to `a`, second to `b`).
    pub fn pair(&self, a: usize, b: usize) -> (SimConnection, SimConnection) {
        let mut hub = self.hub.lock();
        assert!(a < hub.nodes && b < hub.nodes);
        let (ea, eb) = hub.make_pair(a, b);
        drop(hub);
        (
            SimConnection {
                net: self.clone(),
                ep: ea,
            },
            SimConnection {
                net: self.clone(),
                ep: eb,
            },
        )
    }

    /// Every undelivered datagram, in deterministic (delivery-time,
    /// creation) order.
    pub fn flights(&self) -> Vec<FlightInfo> {
        let hub = self.hub.lock();
        hub.stepper
            .pending()
            .into_iter()
            .filter(|ev| !ev.timer)
            .filter_map(|ev| {
                hub.flights.get(&ev.token).map(|f| FlightInfo {
                    id: ev.token,
                    src: f.src,
                    dst: f.dst,
                    to_ep: f.to_ep,
                    len: f.bytes.len(),
                    time: ev.time,
                })
            })
            .collect()
    }

    /// Delivers flight `id` now: the payload lands in the destination
    /// endpoint's inbox (or evaporates if that endpoint has closed) and
    /// simulated time advances max-monotonically to the flight's fabric
    /// delivery time. Returns whether the id was a live flight.
    pub fn deliver(&self, id: u64) -> bool {
        let mut hub = self.hub.lock();
        let Some(ev) = hub.event_of(id) else {
            return false;
        };
        hub.stepper.step(ev.id);
        hub.drain_mailboxes();
        true
    }

    /// Drops flight `id` (a lost datagram). Returns whether the id was a
    /// live flight.
    pub fn drop_flight(&self, id: u64) -> bool {
        let mut hub = self.hub.lock();
        let Some(ev) = hub.event_of(id) else {
            return false;
        };
        hub.stepper.discard(ev.id);
        hub.flights.remove(&id);
        true
    }

    /// Duplicates flight `id`: a second, independently schedulable copy of
    /// the same payload enters the fabric (charged again, like a real
    /// duplicate datagram). Returns the copy's flight id.
    pub fn duplicate(&self, id: u64) -> Option<u64> {
        let mut hub = self.hub.lock();
        hub.event_of(id)?;
        let (to_ep, src, dst, bytes, class) = {
            let f = hub.flights.get(&id)?;
            (f.to_ep, f.src, f.dst, f.bytes.clone(), f.class)
        };
        let copy = hub.next_flight;
        hub.next_flight += 1;
        hub.flights.insert(
            copy,
            Flight {
                to_ep,
                src,
                dst,
                bytes: bytes.clone(),
                class,
            },
        );
        hub.stepper.inject(
            src,
            vec![Emit::Send(Packet::single(
                src,
                dst,
                bytes.len() as u32 + DATAGRAM_OVERHEAD_BYTES,
                class,
                copy,
            ))],
        );
        Some(copy)
    }

    /// Abruptly kills fabric node `node` (a crash): every connection
    /// endpoint on it dies, peers observe `ConnectionReset` (after
    /// draining already-delivered bytes) and every flight to or from the
    /// node evaporates. The node index stays valid — a "restarted" process
    /// simply opens new connections.
    pub fn sever_node(&self, node: usize) {
        let mut hub = self.hub.lock();
        let dead_eps: Vec<u64> = hub
            .endpoints
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(id, _)| *id)
            .collect();
        for ep in dead_eps {
            let peer_ep = hub.endpoints.remove(&ep).expect("listed above").peer_ep;
            if let Some(p) = hub.endpoints.get_mut(&peer_ep) {
                p.peer_open = false;
                p.reset = true;
            }
        }
        let dead_flights: Vec<u64> = hub
            .flights
            .iter()
            .filter(|(_, f)| f.src == node || f.dst == node)
            .map(|(id, _)| *id)
            .collect();
        for id in dead_flights {
            if let Some(ev) = hub.event_of(id) {
                hub.stepper.discard(ev.id);
            }
            hub.flights.remove(&id);
        }
    }

    /// Current simulated time (nanoseconds).
    pub fn now(&self) -> SimTime {
        self.hub.lock().stepper.now()
    }

    /// Reads the fabric accounting (per-class bytes/packets) under the
    /// hub lock.
    pub fn stats<R>(&self, f: impl FnOnce(&SimStats) -> R) -> R {
        let hub = self.hub.lock();
        f(hub.stepper.stats())
    }
}

/// One half of an established sim connection; see [`SimNet`].
pub struct SimConnection {
    net: SimNet,
    ep: u64,
}

impl SimConnection {
    /// The hub id of this endpoint (flights report their destination
    /// endpoint, letting a scheduler attribute datagrams to links).
    pub fn endpoint_id(&self) -> u64 {
        self.ep
    }

    /// Sends one datagram, tagged with a simnet traffic class so the
    /// fabric accounting mirrors the paper's traffic breakdown. Returns the
    /// flight id (`None` for loopback delivery, which bypasses the fabric).
    pub fn write_datagram(&self, bytes: &[u8], class: TrafficClass) -> io::Result<Option<u64>> {
        let mut hub = self.net.hub.lock();
        hub.send(self.ep, bytes, class)
    }
}

impl fmt::Debug for SimConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimConnection")
            .field("ep", &self.ep)
            .finish()
    }
}

impl Read for SimConnection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut hub = self.net.hub.lock();
        let Some(e) = hub.endpoints.get_mut(&self.ep) else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        if !e.inbox.is_empty() {
            let n = buf.len().min(e.inbox.len());
            for (slot, byte) in buf.iter_mut().zip(e.inbox.drain(..n)) {
                *slot = byte;
            }
            return Ok(n);
        }
        if e.peer_open {
            Err(io::ErrorKind::WouldBlock.into())
        } else if e.reset {
            Err(io::ErrorKind::ConnectionReset.into())
        } else {
            Ok(0)
        }
    }
}

impl Drop for SimConnection {
    fn drop(&mut self) {
        self.net.hub.lock().close(self.ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every outstanding flight, oldest first, until quiescent.
    fn pump(net: &SimNet) {
        loop {
            let flights = net.flights();
            if flights.is_empty() {
                return;
            }
            for f in flights {
                net.deliver(f.id);
            }
        }
    }

    #[test]
    fn scheduler_owns_drop_duplicate_and_order() {
        let net = SimNet::new(2);
        let (a, mut b) = net.pair(0, 1);
        let f1 = a
            .write_datagram(b"first", TrafficClass::Invalidation)
            .unwrap()
            .unwrap();
        let f2 = a
            .write_datagram(b"second", TrafficClass::Ack)
            .unwrap()
            .unwrap();
        // Drop the first, duplicate the second, deliver the copy then the
        // original: the receiver sees "second" twice and "first" never.
        assert!(net.drop_flight(f1));
        let copy = net.duplicate(f2).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "nothing moves until the scheduler delivers"
        );
        assert!(net.deliver(copy));
        assert!(net.deliver(f2));
        assert!(!net.deliver(f2), "already delivered");
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"secondsecond");
        // The fabric accounting saw the invalidation and both ack copies.
        net.stats(|s| {
            assert!(s.bytes_by_class[&TrafficClass::Invalidation] > 0);
            assert!(
                s.bytes_by_class[&TrafficClass::Ack]
                    >= 2 * (5 + u64::from(DATAGRAM_OVERHEAD_BYTES))
            );
        });
    }

    #[test]
    fn clean_close_is_eof_and_sever_is_reset() {
        let net = SimNet::new(3);
        let (a, mut b) = net.pair(0, 1);
        let (c, mut d) = net.pair(2, 1);
        // Clean close: drain, then EOF.
        a.write_datagram(b"bye", TrafficClass::Update).unwrap();
        drop(a);
        pump(&net);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 3);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after clean close");
        assert!(net.now() > 0, "fabric time advanced");
        // Sever: in-flight data evaporates, reads fail with reset.
        c.write_datagram(b"lost", TrafficClass::Update).unwrap();
        net.sever_node(2);
        assert!(net.flights().is_empty(), "flights to/from dead node gone");
        assert_eq!(
            d.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        // Writing toward the dead peer fails.
        assert!(d.write_datagram(b"x", TrafficClass::Update).is_err());
    }

    #[test]
    fn same_choices_same_world() {
        // Two hubs driven identically report identical flights, delivery
        // orders and simulated clocks.
        let run = || {
            let net = SimNet::new(3);
            let (a, mut b) = net.pair(0, 1);
            let (c, mut d) = net.pair(1, 2);
            let mut log = Vec::new();
            let f1 = a
                .write_datagram(b"one", TrafficClass::Invalidation)
                .unwrap()
                .unwrap();
            let f2 = c
                .write_datagram(b"two", TrafficClass::Update)
                .unwrap()
                .unwrap();
            for f in net.flights() {
                log.push(format!("{}:{}->{} t{}", f.id, f.src, f.dst, f.time));
            }
            net.deliver(f2);
            net.deliver(f1);
            let mut buf = [0u8; 8];
            let n = b.read(&mut buf).unwrap();
            log.push(format!("b<{}", String::from_utf8_lossy(&buf[..n])));
            let n = d.read(&mut buf).unwrap();
            log.push(format!("d<{}", String::from_utf8_lossy(&buf[..n])));
            log.push(format!("now {}", net.now()));
            log
        };
        assert_eq!(run(), run());
    }
}
