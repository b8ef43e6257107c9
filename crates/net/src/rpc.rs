//! What a node does with what a peer or an admin caller sends, each
//! written once: the link items a [`crate::link::Peer`] receives
//! ([`serve_peer`]), what a home shard answers to a miss-path frame
//! ([`serve_home_frame`]), what the node answers to an admin frame
//! ([`serve_node_frame`]), and what a requester remembers about a
//! correlated miss-path RPC until it resolves ([`RpcTable`]).
//!
//! Like [`crate::link`], nothing here owns a socket, a thread, a lock or a
//! clock. The reactor server serves peer items through its [`PeerHost`],
//! wraps one table in a mutex, feeds it [`std::time::Instant`]s and turns
//! its outputs into link traffic and resumed connections;
//! `cckvs-modelcheck`'s `RackModel` is the other [`PeerHost`], holds one
//! table per simulated process and lets its scheduler pick every delivery,
//! crash, restart and deadline. Both run the table's restart rule and
//! deadline sweep through [`crate::node_ops`].
//!
//! A request travels as [`Frame::RpcReq`] over the crash-surviving peer
//! link and is answered by a [`Frame::RpcResp`] carrying the same
//! correlation id. The link replays whatever the peer had not confirmed
//! when a connection died; what it cannot repair is a request the peer's
//! *dead process* confirmed and never answered. [`RpcTable::in_doubt`]
//! names exactly those.

use crate::ops::peel_trace;
use crate::wire::Frame;
use cckvs::node::{CcNode, ColdPut, Outgoing};
use consistency::messages::ProtocolMsg;
use std::collections::BTreeMap;
use std::io;
use std::time::Instant;

/// What serving one peer's link items reaches beyond the node: one link
/// end of a driver. Statically dispatched; the reactor shard and the model
/// checker implement it.
pub trait PeerHost {
    /// The node the items arrive at.
    fn node(&self) -> &CcNode;
    /// A protocol message from the peer, travelling under `trace`, is
    /// about to be delivered.
    fn received(&mut self, msg: &ProtocolMsg, trace: Option<u64>);
    /// Ships what delivering it fanned out, under the same trace id.
    fn ship(&mut self, outgoing: Vec<Outgoing>, trace: Option<u64>);
    /// Answers the peer's miss-path request `corr`: the home-shard frame.
    fn serve_home(&mut self, corr: u64, request: Frame) -> Frame;
    /// Queues `response` toward the peer, on the link its request came in
    /// on.
    fn answer(&mut self, response: Frame);
    /// The peer answered this node's request `corr`.
    fn resolve(&mut self, corr: u64, response: Frame);
}

/// Serves one link item a [`crate::link::Peer`] received: a protocol
/// message is delivered to the node and what it fans out shipped, a
/// miss-path request answered on the link it came in on, a response handed
/// to its requester. Called with no link end held: serving enqueues on
/// links, the one the item came in on included.
pub fn serve_peer(host: &mut impl PeerHost, frame: Frame) {
    let (trace, frame) = peel_trace(frame);
    match frame {
        Frame::Protocol { msg, bytes } => {
            host.received(&msg, trace);
            // Anything this delivery fans out (the ack answering an
            // invalidation, the commit update ending a round) inherits the
            // trace id: causality crosses the node boundary.
            let outgoing = host.node().deliver(&msg, bytes.as_deref());
            host.ship(outgoing, trace);
        }
        Frame::RpcReq { corr, inner } => {
            let response = host.serve_home(corr, *inner);
            host.answer(Frame::RpcResp {
                corr,
                inner: Box::new(response),
            });
        }
        Frame::RpcResp { corr, inner } => host.resolve(corr, *inner),
        other => unreachable!("Peer::receive hands over link items only, not {other:?}"),
    }
}

/// Serves one frame an admin caller (the epoch coordinator, the
/// supervisor, a churn [`crate::churn::Flip`]) sends `node` on a client
/// connection: the cache-fill frames [`Frame::InstallHot`] (warm or not)
/// and [`Frame::ActivateHot`], the diagnostics [`Frame::VersionFloor`] and
/// [`Frame::CacheKeys`], and any home-shard frame ([`serve_home_frame`]).
/// A peer's [`Frame::RpcReq`] reaches [`serve_home_frame`] alone: a peer
/// cannot reconfigure the cache.
pub fn serve_node_frame(node: &CcNode, frame: Frame) -> io::Result<Frame> {
    Ok(match frame {
        Frame::InstallHot {
            key,
            value,
            ts,
            warm: true,
        } => Frame::InstallHotResp {
            ok: node.install_hot_warm(key, &value, ts),
        },
        Frame::InstallHot { key, value, ts, .. } => Frame::InstallHotResp {
            ok: node.install_hot(key, &value, ts),
        },
        Frame::ActivateHot { key } => Frame::ActivateHotResp {
            ok: node.activate_hot(key),
        },
        Frame::VersionFloor => Frame::VersionFloorResp {
            clock: node.cold_version(),
        },
        Frame::CacheKeys => Frame::CacheKeysResp {
            keys: node.cache().keys(),
        },
        other => return serve_home_frame(node, other),
    })
}

/// Serves one home-shard frame against `node`, the key's home: the only
/// mapping from [`Frame::MissGet`], [`Frame::MissPut`], [`Frame::WriteBack`],
/// [`Frame::HotMark`] and [`Frame::HotUnmark`] to their responses. Every
/// arm is a lock-protected state update that never waits on another
/// message. Any other frame is an error and changes nothing.
pub fn serve_home_frame(node: &CcNode, frame: Frame) -> io::Result<Frame> {
    Ok(match frame {
        Frame::MissGet { key } => match node.cold_get(key) {
            Some(value) => Frame::MissGetResp { value },
            None => Frame::MissRetry,
        },
        // The sender's tag is a diagnostic hint: the home assigns the
        // version.
        Frame::MissPut {
            key,
            tag: _,
            writer,
            value,
        } => match node.cold_put(key, &value, writer) {
            ColdPut::Applied(ts) => Frame::MissPutResp { ts },
            ColdPut::Busy => Frame::MissRetry,
            ColdPut::Rejected(message) => Frame::Error { message },
        },
        Frame::WriteBack { key, value, ts } => match node.write_back(key, &value, ts) {
            Ok(applied) => Frame::WriteBackResp { applied },
            Err(e) => Frame::Error {
                message: format!("write-back of key {key} rejected by home shard: {e:?}"),
            },
        },
        Frame::HotMark { key } => {
            let (value, ts) = node.hot_mark(key);
            Frame::HotMarkResp { value, ts }
        }
        Frame::HotUnmark { key } => {
            node.hot_unmark(key);
            Frame::HotUnmarkResp
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected rpc frame {other:?}"),
            ))
        }
    })
}

/// One miss-path request in flight toward `peer`.
#[derive(Debug)]
struct Pending<W, T> {
    peer: usize,
    /// Retained so the request can be asked again under the same id.
    request: Frame,
    waiter: W,
    /// The peer-link item number the request was last packed at; `None`
    /// until packed and again once [`RpcTable::in_doubt`] handed it out.
    seq: Option<u64>,
    deadline: T,
}

/// The requester's pending-RPC table. `W` is whatever the driver needs to
/// wake the caller; `T` is its notion of time.
///
/// Every id [`RpcTable::issue`] returns leaves the table exactly once —
/// through [`RpcTable::resolve`], [`RpcTable::expired`] or
/// [`RpcTable::drain`] — so a late or duplicate response finds nothing.
#[derive(Debug)]
pub struct RpcTable<W, T = Instant> {
    next_corr: u64,
    pending: BTreeMap<u64, Pending<W, T>>,
    /// A rule broken on purpose (negative model-check scenarios only).
    #[doc(hidden)]
    pub mutant: Option<Mutant>,
}

/// A rule of the [`RpcTable`] broken on purpose: the model checker's
/// negative scenarios must flag the result. The server plants none.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// [`RpcTable::in_doubt`] names nothing.
    NoReissue,
    /// An issue after an expiry reuses the expired id.
    RecycleIds,
}

impl<W, T: Copy + Ord> RpcTable<W, T> {
    /// A table whose ids count up from `first_corr`. Ids must not repeat
    /// across the process generations of one node: a survivor replays its
    /// unconfirmed answers to the dead process at the replacement, and they
    /// must miss.
    pub fn new(first_corr: u64) -> Self {
        RpcTable {
            next_corr: first_corr,
            pending: BTreeMap::new(),
            mutant: None,
        }
    }

    /// Requests in flight.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no request is in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Registers `request` toward `peer` and returns its correlation id
    /// with the frame to put on the link.
    pub fn issue(&mut self, peer: usize, request: Frame, waiter: W, deadline: T) -> (u64, Frame) {
        let corr = self.next_corr;
        self.next_corr += 1;
        let frame = Frame::RpcReq {
            corr,
            inner: Box::new(request.clone()),
        };
        self.pending.insert(
            corr,
            Pending {
                peer,
                request,
                waiter,
                seq: None,
                deadline,
            },
        );
        (corr, frame)
    }

    /// The link numbered `corr`'s request frame `seq` on its way out.
    pub fn packed(&mut self, corr: u64, seq: u64) {
        if let Some(entry) = self.pending.get_mut(&corr) {
            entry.seq = Some(seq);
        }
    }

    /// Takes `corr` out of the table: its response arrived, or the driver
    /// gave up on it.
    pub fn resolve(&mut self, corr: u64) -> Option<W> {
        self.pending.remove(&corr).map(|entry| entry.waiter)
    }

    /// `peer`'s process died and its replacement reports the link
    /// confirmed up to `confirmed`. Returns the requests the dead process
    /// confirmed (`seq < confirmed`) and never answered, as fresh frames
    /// under their old ids, each at most once per restart. Requests at or
    /// past `confirmed`, or not yet packed, ride the link's own replay.
    pub fn in_doubt(&mut self, peer: usize, confirmed: u64) -> Vec<(u64, Frame)> {
        if self.mutant == Some(Mutant::NoReissue) {
            return Vec::new();
        }
        self.pending
            .iter_mut()
            .filter(|(_, e)| e.peer == peer && e.seq.is_some_and(|seq| seq < confirmed))
            .map(|(&corr, e)| {
                e.seq = None;
                let frame = Frame::RpcReq {
                    corr,
                    inner: Box::new(e.request.clone()),
                };
                (corr, frame)
            })
            .collect()
    }

    /// Removes and returns every request whose deadline is at or before
    /// `now`, each with its peer if no pack took it since it was issued or
    /// last asked again: its link still queues it.
    pub fn expired(&mut self, now: T) -> Vec<(u64, W, Option<usize>)> {
        let expired: Vec<(u64, W, Option<usize>)> = (self.pending)
            .extract_if(.., |_, e| now >= e.deadline)
            .map(|(corr, e)| (corr, e.waiter, e.seq.is_none().then_some(e.peer)))
            .collect();
        if let (Some(Mutant::RecycleIds), Some(&(corr, ..))) = (self.mutant, expired.first()) {
            self.next_corr = corr;
        }
        expired
    }

    /// The nearest deadline of a request in flight.
    pub fn next_deadline(&self) -> Option<T> {
        self.pending.values().map(|e| e.deadline).min()
    }

    /// Removes and returns every request (shutdown).
    pub fn drain(&mut self) -> Vec<(u64, W)> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(corr, entry)| (corr, entry.waiter))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn admin_frames_install_warm_and_cold_but_never_from_a_peer() {
        use cckvs::node::{CacheGet, NodeConfig};
        use consistency::lamport::Timestamp;
        use consistency::messages::ConsistencyModel;
        let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 0, 2));
        let install = |key, warm| Frame::InstallHot {
            key,
            value: b"v".to_vec(),
            ts: Timestamp::ZERO,
            warm,
        };
        let serve = |frame| serve_node_frame(&node, frame).expect("an admin frame");
        let hit = |key| matches!(node.try_cache_get(key), Some(CacheGet::Hit { .. }));
        // A peer's `RpcReq` reaches the home-shard frames alone.
        assert!(serve_home_frame(&node, install(5, false)).is_err());
        assert_eq!(
            serve(Frame::CacheKeys),
            Frame::CacheKeysResp { keys: vec![] }
        );
        assert_eq!(serve(install(1, false)), Frame::InstallHotResp { ok: true });
        assert_eq!(serve(install(2, true)), Frame::InstallHotResp { ok: true });
        assert!(
            hit(1) && !hit(2),
            "a warm entry serves no read until activated"
        );
        let activated = serve(Frame::ActivateHot { key: 2 });
        assert_eq!(activated, Frame::ActivateHotResp { ok: true });
        assert!(hit(2));
        let Frame::CacheKeysResp { mut keys } = serve(Frame::CacheKeys) else {
            panic!("CacheKeys answers its keys");
        };
        keys.sort_unstable();
        assert_eq!(keys, [1, 2]);
        let floor = serve(Frame::VersionFloor);
        assert_eq!(
            floor,
            Frame::VersionFloorResp {
                clock: node.cold_version()
            }
        );
        // A home-shard frame falls through.
        assert!(matches!(
            serve(Frame::MissGet { key: 9 }),
            Frame::MissGetResp { .. }
        ));
    }

    #[test]
    fn ids_of_two_generations_do_not_meet() {
        let mut old = RpcTable::<(), u64>::new(1 << 32);
        let mut new = RpcTable::<(), u64>::new(2 << 32);
        let (a, _) = old.issue(0, Frame::Ping, (), 0);
        let (b, _) = new.issue(0, Frame::Ping, (), 0);
        assert!(new.resolve(a).is_none(), "a stale answer misses");
        assert!(new.resolve(b).is_some());
    }

    /// What the shadow model knows about one issued id.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Shadow {
        peer: usize,
        seq: Option<u64>,
        deadline: u64,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of issue / packed / resolve / duplicate
        /// resolve / in_doubt / expired against a shadow map: every issued
        /// id leaves through exactly one of {resolve, expired, drain};
        /// in_doubt names only confirmed-and-unanswered requests toward
        /// that peer, never twice for one packing; an unknown id changes
        /// nothing; next_deadline is the nearest live one.
        #[test]
        fn every_id_leaves_exactly_once(
            steps in prop::collection::vec((0u8..7, any::<u64>()), 1..300),
        ) {
            let mut table = RpcTable::<u64, u64>::new(1);
            let mut live: BTreeMap<u64, Shadow> = BTreeMap::new();
            let mut handed_out: BTreeSet<u64> = BTreeSet::new();
            let mut issued = 0u64;
            let mut now = 0u64;
            let pick = |live: &BTreeMap<u64, Shadow>, r: u64| {
                live.keys().nth((r % live.len().max(1) as u64) as usize).copied()
            };
            for (op, r) in steps {
                match op {
                    0 | 1 => {
                        let peer = (r % 3) as usize;
                        let deadline = now + r % 50;
                        let request = Frame::MissGet { key: r };
                        let (corr, frame) = table.issue(peer, request.clone(), issued, deadline);
                        prop_assert_eq!(corr, issued + 1, "ids count up");
                        prop_assert_eq!(frame, Frame::RpcReq { corr, inner: Box::new(request) });
                        issued += 1;
                        live.insert(corr, Shadow { peer, seq: None, deadline });
                    }
                    2 => {
                        if let Some(corr) = pick(&live, r) {
                            let seq = r % 40;
                            table.packed(corr, seq);
                            live.get_mut(&corr).expect("picked").seq = Some(seq);
                        }
                    }
                    3 => {
                        if let Some(corr) = pick(&live, r) {
                            prop_assert_eq!(table.resolve(corr), Some(corr - 1), "its own waiter");
                            prop_assert!(handed_out.insert(corr), "handed out twice");
                            live.remove(&corr);
                            prop_assert_eq!(table.resolve(corr), None, "a duplicate finds nothing");
                        }
                    }
                    4 => {
                        // An id never issued, or long gone.
                        let unknown = issued + 1 + r % 5;
                        prop_assert_eq!(table.resolve(unknown), None);
                        table.packed(unknown, r);
                    }
                    5 => {
                        let peer = (r % 3) as usize;
                        let confirmed = r % 40;
                        let got: Vec<u64> = table
                            .in_doubt(peer, confirmed)
                            .into_iter()
                            .map(|(corr, frame)| {
                                assert!(
                                    matches!(&frame, Frame::RpcReq { corr: c, .. } if *c == corr),
                                    "reissued under its old id"
                                );
                                corr
                            })
                            .collect();
                        let want: Vec<u64> = live
                            .iter()
                            .filter(|(_, s)| s.peer == peer && s.seq.is_some_and(|q| q < confirmed))
                            .map(|(&corr, _)| corr)
                            .collect();
                        prop_assert_eq!(&got, &want);
                        for corr in got {
                            live.get_mut(&corr).expect("in doubt implies live").seq = None;
                        }
                        prop_assert!(table.in_doubt(peer, confirmed).is_empty(), "once per restart");
                    }
                    6 => {
                        now += r % 20;
                        let got: Vec<(u64, Option<usize>)> =
                            table.expired(now).into_iter().map(|(c, _, queued)| (c, queued)).collect();
                        let want: Vec<(u64, Option<usize>)> = live
                            .iter()
                            .filter(|(_, s)| now >= s.deadline)
                            .map(|(&corr, s)| (corr, s.seq.is_none().then_some(s.peer)))
                            .collect();
                        prop_assert_eq!(&got, &want);
                        for (corr, _) in got {
                            prop_assert!(handed_out.insert(corr), "handed out twice");
                            live.remove(&corr);
                        }
                    }
                    _ => unreachable!(),
                }
                prop_assert_eq!(table.len(), live.len());
                prop_assert_eq!(table.next_deadline(), live.values().map(|s| s.deadline).min());
            }
            for (corr, waiter) in table.drain() {
                prop_assert_eq!(waiter, corr - 1);
                prop_assert!(live.remove(&corr).is_some(), "drained an id that already left");
                prop_assert!(handed_out.insert(corr), "handed out twice");
            }
            prop_assert!(table.is_empty() && live.is_empty());
            prop_assert_eq!(handed_out.len() as u64, issued, "every id left exactly once");
        }
    }
}
