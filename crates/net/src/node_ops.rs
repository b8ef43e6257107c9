//! What a node does between frames, each rule written once: the peer
//! handshake and restart rule ([`handshake`]) in its three frames — the
//! lower id dials with a [`hello`], the higher [`answer`]s, the dialer
//! takes the ack ([`take_ack`]) and the answerer the resume
//! ([`take_resume`]), each refusing what it cannot honour and then
//! changing nothing — the end-of-lap pump of a link end ([`pump`]), where
//! a protocol message goes ([`ship`]), and the miss-path RPC deadline
//! sweep ([`expire`], [`withdraw`]).
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

/// The waiters the deadline sweep failed, each with the event that resumes
/// it ([`expire`]).
pub type Failed<W> = Vec<(W, ResumeEvent)>;

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
/// peer's stream at 0 (until the resume point arrives).
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

/// The dialer's [`Frame::PeerHello`] on `end`, from node `me`'s process `gen`.
pub fn hello<I: Item>(end: &Peer<I>, me: usize, gen: u64) -> Frame {
    Frame::PeerHello {
        from: me as u8,
        gen,
        processed: end.processed(),
        peer_gen: end.peer_gen(),
    }
}

/// The sender of a [`Frame::PeerHello`]: whose link end [`answer`]s it.
pub fn hello_from(frame: &Frame) -> Option<usize> {
    match frame {
        Frame::PeerHello { from, .. } => Some(usize::from(*from)),
        _ => None,
    }
}

/// `node`'s process `gen` answers `hello` on `end`, its end of the link
/// with the sender: refused from an id not below `node`'s, or where
/// [`handshake`] refuses (generation 0 among them). A count in another
/// generation's numbering says nothing about this process's stream: it is
/// read as 0. Returns the [`Frame::PeerHelloAck`] and this side.
pub fn answer<I: Item, W, T: Copy + Ord>(
    end: &mut Peer<I>,
    rpcs: &mut RpcTable<W, T>,
    node: &CcNode,
    gen: u64,
    hello: Frame,
) -> Result<(Frame, Handshake), String> {
    let Frame::PeerHello {
        from,
        gen: peer_gen,
        processed,
        peer_gen: numbering,
    } = hello
    else {
        return Err(format!("expected a peer hello, not {hello:?}"));
    };
    let peer = usize::from(from);
    if peer >= node.node() {
        return Err(format!("node {peer} dials node {}", node.node()));
    }
    let processed = if numbering == gen { processed } else { 0 };
    let shake = handshake(end, rpcs, node, peer, peer_gen, processed)?;
    let ack = Frame::PeerHelloAck {
        processed: end.processed(),
        gen,
        start_seq: shake.confirmed + 1,
    };
    Ok((ack, shake))
}

/// The dialer `node` takes in `peer`'s [`Frame::PeerHelloAck`] on `end` and
/// resumes the peer's stream where its replay starts: refused without a
/// resume point (`start_seq` 0), or where [`handshake`] refuses. Returns
/// the [`Frame::PeerResume`] and this side.
pub fn take_ack<I: Item, W, T: Copy + Ord>(
    end: &mut Peer<I>,
    rpcs: &mut RpcTable<W, T>,
    node: &CcNode,
    peer: usize,
    ack: Frame,
) -> Result<(Frame, Handshake), String> {
    let (processed, gen, start_seq) = match ack {
        Frame::PeerHelloAck {
            processed,
            gen,
            start_seq,
        } if start_seq > 0 => (processed, gen, start_seq),
        other => return Err(format!("unexpected peer-hello response {other:?}")),
    };
    let shake = handshake(end, rpcs, node, peer, gen, processed)?;
    end.resume(gen, start_seq - 1);
    let start_seq = shake.confirmed + 1;
    Ok((Frame::PeerResume { start_seq }, shake))
}

/// The answerer takes in the dialer's [`Frame::PeerResume`] on `end`, where
/// the dialer's replay starts: refused without a resume point, or on an
/// end that answered no hello (peer generation 0).
pub fn take_resume<I: Item>(end: &mut Peer<I>, resume: Frame) -> Result<(), String> {
    match resume {
        Frame::PeerResume { start_seq } if start_seq > 0 && end.peer_gen() != 0 => {
            end.resume(end.peer_gen(), start_seq - 1);
            Ok(())
        }
        other => Err(format!("unexpected peer resume {other:?}")),
    }
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
/// [`RPC_EXPIRED`]. Returns the waiters it [`Failed`]; each request no
/// pack took with its peer, to [`withdraw`] once `rpcs` is let go of; and
/// the nearest deadline left: when the sweep must run again.
pub fn expire<W, T: Copy + Ord>(
    rpcs: &mut RpcTable<W, T>,
    now: T,
) -> (Failed<W>, Vec<(usize, u64)>, Option<T>) {
    let (mut failed, mut queued) = (Vec::new(), Vec::new());
    for (corr, waiter, peer) in rpcs.expired(now) {
        queued.extend(peer.map(|peer| (peer, corr)));
        let message = RPC_EXPIRED.to_string();
        failed.push((waiter, ResumeEvent::RpcFailed { corr, message }));
    }
    (failed, queued, rpcs.next_deadline())
}

/// Takes expired request `corr` out of `end`'s queue, whether it was
/// there: its home must not run what nobody waits for. One a pack took
/// stays retained: its home may have run it already.
pub fn withdraw<I: NodeItem>(end: &mut Peer<I>, corr: u64) -> bool {
    end.outbox.withdraw(|item| item.request() == Some(corr)) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PEER_BATCH_MAX_BYTES;
    use cckvs::node::{CachePut, NodeConfig};
    use consistency::lamport::Timestamp;
    use consistency::messages::ConsistencyModel;

    /// Node `me` of three, with a Lin write of a hot key pending on the
    /// acks of the other two.
    fn writer(me: usize) -> CcNode {
        let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, me, 3));
        assert!(node.install_hot(7, b"old", Timestamp::ZERO));
        let put = node.try_cache_put(7, b"new", 1);
        assert!(matches!(put, Some(CachePut::Pending { .. })), "{put:?}");
        node
    }

    /// A process-1 end of a link with node `peer`, connected to `peer`'s
    /// generation 5, with items 0..4 on the wire — item 1 a miss-path
    /// request — and one more queued; and its table, holding that request.
    fn connected(peer: usize) -> (Peer<Frame>, RpcTable<(), u64>) {
        let (mut end, mut rpcs) = (Peer::new(1, 64), RpcTable::new(100));
        end.resume(5, 0);
        end.outbox.push(Frame::Ping);
        let (_, request) = rpcs.issue(peer, Frame::MissGet { key: 9 }, (), 50);
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
        let (node, (mut end, mut rpcs)) = (writer(0), connected(1));
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
        let (node, (mut end, mut rpcs)) = (writer(0), connected(1));
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
        let (node, (mut end, mut rpcs)) = (writer(0), connected(1));
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

    /// What a handshake step may change: everything an end and a table
    /// hold.
    fn state(end: &Peer<Frame>, rpcs: &RpcTable<(), u64>) -> String {
        format!("{end:?} {rpcs:?}")
    }

    /// A fresh process of node 1, its generation-6 end of a link, and its
    /// table.
    fn restarted() -> (CcNode, Peer<Frame>, RpcTable<(), u64>) {
        let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 1, 3));
        (node, Peer::new(6, 64), RpcTable::new(6_000_000))
    }

    #[test]
    fn a_restart_in_frames_reaches_what_a_hand_set_end_did() {
        // Survivor 0 dials the restarted node 1; survivor 2 is dialed by it.
        for survivor in [0, 2] {
            // The dead process processed 3 items of this end's stream and
            // confirmed items 0 and 1, the request among them, and died
            // owing its answer.
            let survive = || {
                let (mut end, rpcs) = connected(1);
                end.resume(5, 3);
                end.outbox.confirm(2).expect("sent");
                (writer(survivor), end, rpcs)
            };
            let (node, mut end, mut rpcs) = survive();
            let want = handshake(&mut end, &mut rpcs, &node, 1, 6, 0).expect("honest");
            let mut hand_set = Peer::<Frame>::new(6, 64);
            hand_set.resume(1, want.confirmed);
            let want = (end.processed(), end.peer_gen(), queued(&end), want);
            let want = (want, (hand_set.processed(), hand_set.peer_gen()));

            let (node, mut end, mut rpcs) = survive();
            let (fresh, mut other, mut none) = restarted();
            let shake = if survivor == 0 {
                let hello = hello(&end, survivor, 1);
                let (ack, _) = answer(&mut other, &mut none, &fresh, 6, hello).expect("honest");
                let (resume, shake) = take_ack(&mut end, &mut rpcs, &node, 1, ack).expect("honest");
                take_resume(&mut other, resume).expect("answered");
                shake
            } else {
                let hello = hello(&other, 1, 6);
                let (ack, shake) = answer(&mut end, &mut rpcs, &node, 1, hello).expect("honest");
                let (resume, _) = take_ack(&mut other, &mut none, &fresh, 2, ack).expect("honest");
                take_resume(&mut end, resume).expect("answered");
                shake
            };
            assert!(!shake.reissue.is_empty() && !shake.asked_again.is_empty());
            let got = (end.processed(), end.peer_gen(), queued(&end), shake);
            assert_eq!((got, (other.processed(), other.peer_gen())), want);
        }
    }

    #[test]
    fn a_refused_handshake_frame_changes_nothing() {
        let refusals: [(usize, Frame); 4] = [
            // A hello from a higher id: the lower id dials.
            (
                0,
                Frame::PeerHello {
                    from: 1,
                    gen: 6,
                    processed: 0,
                    peer_gen: 1,
                },
            ),
            // A hello of generation 0.
            (
                2,
                Frame::PeerHello {
                    from: 1,
                    gen: 0,
                    processed: 0,
                    peer_gen: 1,
                },
            ),
            // An ack with no resume point.
            (
                0,
                Frame::PeerHelloAck {
                    processed: 0,
                    gen: 6,
                    start_seq: 0,
                },
            ),
            // An ack claiming more than was sent.
            (
                0,
                Frame::PeerHelloAck {
                    processed: 9,
                    gen: 5,
                    start_seq: 1,
                },
            ),
        ];
        for (me, frame) in refusals {
            let (node, (mut end, mut rpcs)) = (writer(me), connected(1));
            let before = state(&end, &rpcs);
            let refused = match frame {
                Frame::PeerHello { .. } => answer(&mut end, &mut rpcs, &node, 1, frame).err(),
                ack => take_ack(&mut end, &mut rpcs, &node, 1, ack).err(),
            };
            assert!(
                refused.is_some() && state(&end, &rpcs) == before,
                "{refused:?}"
            );
        }
        // A resume on an end that answered no hello.
        let (_, mut fresh, none) = restarted();
        fresh.outbox.push(Frame::Ping);
        let before = state(&fresh, &none);
        assert!(take_resume(&mut fresh, Frame::PeerResume { start_seq: 3 }).is_err());
        assert_eq!(state(&fresh, &none), before);
    }

    #[test]
    fn an_expired_request_no_pack_took_leaves_its_queue() {
        let (mut end, mut rpcs) = connected(1);
        // Behind the closed window: queued, never packed.
        let (held, request) = rpcs.issue(1, Frame::MissGet { key: 3 }, (), 50);
        end.outbox.push(request);
        let (failed, unsent, next) = expire(&mut rpcs, 50);
        assert_eq!(
            (failed.len(), &unsent[..], next),
            (2, &[(1, held)][..], None)
        );
        assert!(unsent.iter().all(|&(_, corr)| withdraw(&mut end, corr)));
        assert_eq!(queued(&end), [Frame::Ping], "the request left the queue");
        let retained: Vec<Option<u64>> = end.outbox.retained().map(|(_, f)| f.request()).collect();
        assert_eq!(
            retained,
            [None, Some(100), None, None],
            "the packed one stays"
        );
        assert!(
            !withdraw(&mut end, 100),
            "what a pack took is not withdrawn"
        );
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
        let (none, _, next) = expire(&mut rpcs, 9);
        assert!(none.is_empty());
        assert_eq!(next, Some(10));
        let (due, _, next) = expire(&mut rpcs, 20);
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
        let node = writer(0);
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
