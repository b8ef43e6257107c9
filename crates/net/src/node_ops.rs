//! What a node does between frames, each rule written once: the peer
//! handshake and restart rule ([`handshake`]), the end-of-lap pump of a
//! link end ([`pump`]), where a protocol message goes ([`ship`]), and the
//! miss-path RPC deadline sweep ([`expire`]).
//!
//! Like [`crate::link`] and [`crate::rpc`], nothing here owns a socket, a
//! thread, a lock or a clock: each rule takes the link end ([`Peer`]), the
//! pending-RPC table ([`RpcTable`]) and the [`CcNode`] it touches, from the
//! reactor server or from `cckvs-modelcheck`'s `RackModel`, which sweeps
//! on a logical clock its scheduler advances.

use crate::link::{Item, Pack, Peer};
use crate::ops::ResumeEvent;
use crate::rpc::RpcTable;
use crate::wire::Frame;
use cckvs::node::{CcNode, Outgoing};
use consistency::engine::Destination;
use consistency::lamport::NodeId;
use consistency::messages::ProtocolMsg;
use std::sync::Arc;

/// What an expired miss-path RPC fails with.
pub const RPC_EXPIRED: &str = "miss-path rpc exceeded its redial budget";

/// A link item whose miss-path requests the pump books as they are packed.
pub trait NodeItem: Item {
    /// The correlation id of a miss-path request; `None` for anything else.
    fn request(&self) -> Option<u64>;
}

impl NodeItem for Frame {
    fn request(&self) -> Option<u64> {
        match self {
            Frame::RpcReq { corr, .. } => Some(*corr),
            _ => None,
        }
    }
}

/// A link end as its driver holds it: bare, or behind the lock the pump
/// takes once per pack.
pub trait LinkEnd<I> {
    /// Runs `f` on the end.
    fn with<R>(&mut self, f: impl FnOnce(&mut Peer<I>) -> R) -> R;
}

impl<I> LinkEnd<I> for Peer<I> {
    fn with<R>(&mut self, f: impl FnOnce(&mut Peer<I>) -> R) -> R {
        f(self)
    }
}

/// One side of a handshake: the replay, and what the restart rule hands
/// the driver to queue behind it.
#[derive(Debug, PartialEq)]
pub struct Handshake {
    /// Items of the stream the peer processed: the replay's first number.
    pub confirmed: u64,
    /// Items requeued for the replay.
    pub replayed: u64,
    /// Invalidations to reissue toward a restarted peer.
    pub reissue: Vec<Outgoing>,
    /// In-doubt miss-path requests to ask again, under their old ids.
    pub asked_again: Vec<(u64, Frame)>,
}

/// This node's side of a handshake with `peer`'s process `peer_gen`, which
/// processed the first `processed` items of `end`'s stream. A generation
/// of 0 or older than `end`'s, or a count beyond what was sent, is rejected
/// and changes nothing. Otherwise the rest of the stream is requeued for
/// replay under its old numbers, and a new peer generation restarts the
/// peer's stream at 0 (the driver resumes it, [`Peer::resume`]).
///
/// The restart rule: if `end` knew an earlier generation, a new process
/// took the dead one's place, and the replay cannot repair what died with
/// it: every local pending Lin write it never acknowledged reissues its
/// invalidation (the fresh process acknowledges vacuously), and every
/// request it confirmed and never answered ([`RpcTable::in_doubt`]) is
/// asked again under its old correlation id.
pub fn handshake<I: Item, W, T: Copy + Ord>(
    end: &mut Peer<I>,
    rpcs: &mut RpcTable<W, T>,
    node: &CcNode,
    peer: usize,
    peer_gen: u64,
    processed: u64,
) -> Result<Handshake, String> {
    let prev = end.peer_gen();
    if peer_gen == 0 || peer_gen < prev {
        return Err(format!(
            "peer {peer} generation {peer_gen} is older than {prev}"
        ));
    }
    let mut replayed = 0;
    let confirmed = (end.outbox)
        .requeue_unprocessed(processed, |_| replayed += 1)
        .map_err(|e| format!("peer {peer} claims {e} (a count from another generation?)"))?;
    if peer_gen != prev {
        end.resume(peer_gen, 0);
    }
    let (reissue, asked_again) = if prev != 0 && peer_gen != prev {
        let reissue = node.reissue_invalidations(NodeId(peer as u8));
        (reissue, rpcs.in_doubt(peer, confirmed))
    } else {
        Default::default()
    };
    Ok(Handshake {
        confirmed,
        replayed,
        reissue,
        asked_again,
    })
}

/// The end of a lap at one link end: packs what is queued ([`Peer::pack`],
/// one turn of `end` per pack) into `out` while it holds at most
/// `high_water` bytes, until the queue is empty or the credit `window`
/// holds the rest back. `packed` books each miss-path request's number
/// ([`RpcTable::packed`]); `sent` sees each pack. Returns whether the
/// driver must arm the credit tick ([`Peer::arm`]), and how many items the
/// window holds back.
pub fn pump<I: NodeItem>(
    end: &mut impl LinkEnd<I>,
    window: u64,
    byte_cap: usize,
    high_water: usize,
    out: &mut Vec<u8>,
    mut packed: impl FnMut(u64, u64),
    mut sent: impl FnMut(Pack, &mut Vec<u8>),
) -> (bool, usize) {
    while out.len() <= high_water {
        let (pack, more) = end.with(|end| {
            let pack = end.pack(window, byte_cap, out, |seq, item| {
                if let Some(corr) = item.request() {
                    packed(corr, seq);
                }
            });
            (pack, pack.items > 0 && end.outbox.queued().len() > 0)
        });
        sent(pack, out);
        if !more {
            break;
        }
    }
    end.with(|end| {
        let held = end.outbox.sendable(window).is_none();
        (end.arm(), if held { end.outbox.queued().len() } else { 0 })
    })
}

/// Where the protocol messages `node` produced go: each to its one peer, a
/// broadcast to every other node. `push` queues a message toward a peer.
pub fn ship(
    node: &CcNode,
    outgoing: Vec<Outgoing>,
    mut push: impl FnMut(usize, ProtocolMsg, Option<Arc<[u8]>>),
) {
    for Outgoing { dest, msg, bytes } in outgoing {
        match dest {
            Destination::To(peer) => push(peer.0 as usize, msg, bytes),
            Destination::Broadcast => {
                for peer in (0..node.config().nodes).filter(|&p| p != node.node()) {
                    push(peer, msg, bytes.clone());
                }
            }
        }
    }
}

/// The deadline sweep at `now`: every request whose deadline has come
/// leaves `rpcs` (a late answer finds nothing) and fails with
/// [`RPC_EXPIRED`]. Returns each waiter with the event that resumes it, and
/// the nearest deadline left: when the sweep must run again.
pub fn expire<W, T: Copy + Ord>(
    rpcs: &mut RpcTable<W, T>,
    now: T,
) -> (Vec<(W, ResumeEvent)>, Option<T>) {
    let expired = rpcs.expired(now).into_iter().map(|(corr, waiter)| {
        let message = RPC_EXPIRED.to_string();
        (waiter, ResumeEvent::RpcFailed { corr, message })
    });
    (expired.collect(), rpcs.next_deadline())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PEER_BATCH_MAX_BYTES;
    use cckvs::node::{CachePut, NodeConfig};
    use consistency::lamport::Timestamp;
    use consistency::messages::ConsistencyModel;

    /// Node 0 of three, with a Lin write of a hot key pending on the acks
    /// of nodes 1 and 2.
    fn writer() -> CcNode {
        let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 0, 3));
        assert!(node.install_hot(7, b"old", Timestamp::ZERO));
        let put = node.try_cache_put(7, b"new", 1);
        assert!(matches!(put, Some(CachePut::Pending { .. })), "{put:?}");
        node
    }

    /// Node 0's end of its link with node 1, connected to generation 5,
    /// with items 0..4 on the wire — item 1 a miss-path request — and one
    /// more queued; and its table, holding that request.
    fn connected() -> (Peer<Frame>, RpcTable<(), u64>) {
        let (mut end, mut rpcs) = (Peer::new(1, 64), RpcTable::new(100));
        end.resume(5, 0);
        end.outbox.push(Frame::Ping);
        let (_, request) = rpcs.issue(1, Frame::MissGet { key: 9 }, (), 50);
        end.outbox.push(request);
        (2..5).for_each(|_| end.outbox.push(Frame::Ping));
        let mut out = Vec::new();
        let packed = |corr, seq| rpcs.packed(corr, seq);
        let cap = PEER_BATCH_MAX_BYTES;
        let (_, held) = pump(&mut end, 4, cap, usize::MAX, &mut out, packed, |_, _| {});
        assert_eq!((end.outbox.outstanding(), held), (4, 1));
        (end, rpcs)
    }

    /// The queued frames, front first.
    fn queued(end: &Peer<Frame>) -> Vec<Frame> {
        end.outbox.queued().cloned().collect()
    }

    #[test]
    fn a_count_beyond_what_was_sent_changes_nothing() {
        let (node, (mut end, mut rpcs)) = (writer(), connected());
        let before = (queued(&end), end.outbox.outstanding(), end.peer_gen());
        for (gen, processed) in [(6, 5), (5, 9), (4, 0), (0, 0)] {
            assert!(handshake(&mut end, &mut rpcs, &node, 1, gen, processed).is_err());
            assert_eq!(
                (queued(&end), end.outbox.outstanding(), end.peer_gen()),
                before
            );
        }
        assert_eq!(
            rpcs.in_doubt(1, 4).len(),
            1,
            "the request is still packed, not asked again"
        );
    }

    #[test]
    fn a_new_generation_reissues_and_asks_again_exactly_once() {
        let (node, (mut end, mut rpcs)) = (writer(), connected());
        // The replacement processed nothing of this end's stream.
        let shake = handshake(&mut end, &mut rpcs, &node, 1, 6, 2).expect("honest");
        assert_eq!((shake.confirmed, shake.replayed), (2, 2));
        assert!(matches!(
            shake.reissue[..],
            [Outgoing {
                dest: Destination::To(NodeId(1)),
                msg: ProtocolMsg::Invalidation { key: 7, .. },
                ..
            }]
        ));
        assert!(matches!(
            shake.asked_again[..],
            [(100, Frame::RpcReq { corr: 100, .. })]
        ));
        assert_eq!(queued(&end).len(), 2 + 1, "the replay, then the queued");
        assert_eq!((end.peer_gen(), end.processed()), (6, 0));
        // The same generation again: a reconnect, no restart.
        let again = handshake(&mut end, &mut rpcs, &node, 1, 6, 2).expect("honest");
        assert!(again.reissue.is_empty() && again.asked_again.is_empty());
    }

    #[test]
    fn an_unchanged_generation_reissues_and_asks_nothing() {
        let (node, (mut end, mut rpcs)) = (writer(), connected());
        let shake = handshake(&mut end, &mut rpcs, &node, 1, 5, 4).expect("honest");
        assert_eq!(
            shake,
            Handshake {
                confirmed: 4,
                replayed: 0,
                reissue: vec![],
                asked_again: vec![],
            }
        );
        assert_eq!(queued(&end).len(), 1);
        // A first connection is no restart either.
        let (mut fresh, mut none) = (Peer::<Frame>::new(1, 8), RpcTable::<(), u64>::new(1));
        let first = handshake(&mut fresh, &mut none, &node, 1, 5, 0).expect("honest");
        assert!(first.reissue.is_empty() && fresh.peer_gen() == 5);
    }

    #[test]
    fn the_pump_packs_only_below_the_high_water_mark() {
        let mut end = Peer::<Frame>::new(1, 64);
        end.resume(5, 0);
        (0..40).for_each(|_| end.outbox.push(Frame::Ping));
        let (cap, mut packs) = (PEER_BATCH_MAX_BYTES, Vec::new());
        let mut out = vec![0; 10];
        let full = pump(&mut end, 64, cap, 9, &mut out, |_, _| {}, |_, _| {});
        assert_eq!((full, end.outbox.queued().len()), ((false, 0), 40));
        // At the mark it packs once, and the pack takes it past.
        let sent = |pack: Pack, _: &mut Vec<u8>| packs.push(pack.items);
        pump(&mut end, 64, cap, 10, &mut out, |_, _| {}, sent);
        assert_eq!((packs, end.outbox.queued().len()), (vec![32], 8));
    }

    #[test]
    fn the_sweep_expires_exactly_the_requests_past_now() {
        let mut rpcs = RpcTable::<usize, u64>::new(1);
        for (waiter, deadline) in [(0, 30), (1, 10), (2, 20), (3, 10)] {
            rpcs.issue(1, Frame::MissGet { key: 1 }, waiter, deadline);
        }
        let (none, next) = expire(&mut rpcs, 9);
        assert!(none.is_empty());
        assert_eq!(next, Some(10));
        let (due, next) = expire(&mut rpcs, 20);
        let failed: Vec<(usize, u64)> = (due.into_iter())
            .map(|(waiter, event)| match event {
                ResumeEvent::RpcFailed { corr, message } if message == RPC_EXPIRED => {
                    (waiter, corr)
                }
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(failed, [(1, 2), (2, 3), (3, 4)]);
        assert_eq!((next, rpcs.len()), (Some(30), 1));
        assert!(rpcs.resolve(2).is_none(), "a late answer finds nothing");
    }

    #[test]
    fn a_broadcast_goes_to_every_other_node() {
        let node = writer();
        let (msg, mut to) = (
            ProtocolMsg::Ack {
                key: 1,
                ts: Timestamp::ZERO,
                from: NodeId(0),
            },
            Vec::new(),
        );
        let outgoing = [Destination::Broadcast, Destination::To(NodeId(2))].map(|dest| Outgoing {
            dest,
            msg,
            bytes: None,
        });
        ship(&node, outgoing.into(), |peer, _, _| to.push(peer));
        assert_eq!(to, [1, 2, 2]);
    }
}
