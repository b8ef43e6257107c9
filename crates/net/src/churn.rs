//! One key's move into or out of the symmetric caches (§4's epoch change),
//! written once: the [`Transition`] the epoch coordinator, the supervisor's
//! heal and `cckvs-modelcheck` run. Owning no socket, thread, lock or clock,
//! it names the next `(node, frame)` call; the driver feeds the answer back.
//!
//! `HotMark` at the key's home comes first and `HotUnmark` last: the fence
//! lives as long as the transition. An install warms, then activates, every
//! node; an eviction evicts every node. A failed step ends the transition
//! at once with the fence up (`docs/ARCHITECTURE.md`, "Hot-set churn").

use crate::wire::Frame;
use consistency::lamport::Timestamp;
use std::collections::VecDeque;
use workload::{KeyId, ShardMap};

/// How a [`Transition`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every node caches the key, active; the fence is down.
    Installed,
    /// A cache was full: the key is cold again everywhere; the fence is down.
    RolledBack,
    /// No node caches the key, its dirty copies are home, the fence is down.
    Evicted,
    /// A step failed; the fence stays up.
    Abandoned,
}

/// What a [`Transition`] asks of its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Next {
    /// Send the frame to the node; feed the answer to [`Transition::answer`].
    Call(usize, Frame),
    /// The transition is over.
    Done(Outcome),
}

/// One key's install or eviction across every node; see the module docs.
#[derive(Debug, Clone)]
pub struct Transition {
    key: u64,
    /// The calls still to make, in order: empty once over.
    plan: VecDeque<(usize, Frame)>,
    /// What the transition ends in when `plan` runs out.
    end: Outcome,
}

impl Transition {
    /// Turns cold `key` hot on all `nodes`, at the home's value and version.
    pub fn install(key: u64, nodes: usize) -> Self {
        let (value, ts) = (Vec::new(), Timestamp::ZERO);
        let warm = Frame::InstallHot {
            key,
            value,
            ts,
            warm: true,
        };
        let rounds = [warm, Frame::ActivateHot { key }];
        Self::new(key, nodes, Outcome::Installed, &rounds)
    }

    /// Turns hot `key` cold on all `nodes` of the deployment.
    pub fn evict(key: u64, nodes: usize) -> Self {
        Self::new(key, nodes, Outcome::Evicted, &[Frame::Evict { key }])
    }

    /// The home's mark, each round over every node in order, the unmark.
    fn new(key: u64, nodes: usize, end: Outcome, rounds: &[Frame]) -> Self {
        let home = ShardMap::new(nodes, 1).home_node(KeyId(key));
        let mut plan = VecDeque::from([(home, Frame::HotMark { key })]);
        for frame in rounds {
            plan.extend((0..nodes).map(|n| (n, frame.clone())));
        }
        plan.push_back((home, Frame::HotUnmark { key }));
        Transition { key, plan, end }
    }

    /// The key in transition.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The call to make now (the same one until answered), or the outcome.
    pub fn next(&self) -> Next {
        match self.plan.front() {
            Some((node, frame)) => Next::Call(*node, frame.clone()),
            None => Next::Done(self.end),
        }
    }

    /// Takes the answer to the call [`Transition::next`] named: `None` if
    /// the call failed. An answer after the end changes nothing.
    pub fn answer(&mut self, reply: Option<Frame>) {
        let Some((node, call)) = self.plan.pop_front() else {
            return;
        };
        match (call, reply) {
            (Frame::HotMark { .. }, Some(Frame::HotMarkResp { value: fill, ts })) => {
                for (_, frame) in &mut self.plan {
                    if let Frame::InstallHot { value, ts: at, .. } = frame {
                        (*value, *at) = (fill.clone(), ts);
                    }
                }
            }
            // The warm round goes in node order: the nodes before this one
            // took the key, and only they drop it again.
            (Frame::InstallHot { .. }, Some(Frame::InstallHotResp { ok: false })) => {
                let (key, unmark) = (self.key, self.plan.pop_back());
                let rollback = (0..node).map(|n| (n, Frame::Evict { key }));
                self.plan = rollback.chain(unmark).collect();
                self.end = Outcome::RolledBack;
            }
            (Frame::InstallHot { .. }, Some(Frame::InstallHotResp { ok: true }))
            | (Frame::ActivateHot { .. }, Some(Frame::ActivateHotResp { ok: true }))
            | (Frame::Evict { .. }, Some(Frame::EvictResp { .. }))
            | (Frame::HotUnmark { .. }, Some(Frame::HotUnmarkResp)) => {}
            _ => {
                self.plan.clear();
                self.end = Outcome::Abandoned;
            }
        }
    }

    /// Runs the transition to its end through `call`, which sends a frame
    /// to a node and returns the answer (`None`: the call failed).
    pub fn run(mut self, mut call: impl FnMut(usize, &Frame) -> Option<Frame>) -> Outcome {
        while let Next::Call(node, frame) = self.next() {
            let reply = call(node, &frame);
            self.answer(reply);
        }
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cckvs::node::{CcNode, NodeConfig};
    use consistency::messages::ConsistencyModel;
    use proptest::prelude::*;

    /// How a scripted driver answers one call.
    #[derive(Debug, Clone, Copy)]
    enum Reply {
        /// What a healthy node says.
        Ok,
        /// A full cache, if the call is an install (else `Ok`).
        Full,
        /// An `Error` frame.
        Error,
        /// The call failed in transport.
        Lost,
    }

    /// A scripted answer from a number: mostly healthy.
    fn reply(r: u8) -> Reply {
        match r % 10 {
            0..=5 => Reply::Ok,
            6 | 7 => Reply::Full,
            8 => Reply::Error,
            _ => Reply::Lost,
        }
    }

    /// Runs `t` against `replies` (then `Ok` for ever), returning every
    /// call made, its answer, and the outcome.
    fn drive(t: Transition, replies: &[Reply]) -> (Vec<(usize, Frame, Option<Frame>)>, Outcome) {
        let mut calls = Vec::new();
        let mut replies = replies.iter().copied();
        let outcome = t.run(|node, frame| {
            let answer = match (replies.next().unwrap_or(Reply::Ok), frame) {
                (Reply::Lost, _) => None,
                (Reply::Error, _) => Some(Frame::Error {
                    message: "refused".to_string(),
                }),
                (Reply::Full, Frame::InstallHot { .. }) => {
                    Some(Frame::InstallHotResp { ok: false })
                }
                (_, Frame::HotMark { .. }) => Some(Frame::HotMarkResp {
                    ts: Timestamp::ZERO,
                    value: b"v".to_vec(),
                }),
                (_, Frame::InstallHot { .. }) => Some(Frame::InstallHotResp { ok: true }),
                (_, Frame::ActivateHot { .. }) => Some(Frame::ActivateHotResp { ok: true }),
                (_, Frame::Evict { .. }) => Some(Frame::EvictResp { existed: true }),
                (_, Frame::HotUnmark { .. }) => Some(Frame::HotUnmarkResp),
                (_, other) => panic!("a transition never sends {other:?}"),
            };
            calls.push((node, frame.clone(), answer.clone()));
            assert!(calls.len() <= 4 * 64 + 2, "a transition ends");
            answer
        });
        (calls, outcome)
    }

    /// The node the transition fences: where its first call goes.
    fn home(t: &Transition) -> usize {
        match t.next() {
            Next::Call(node, Frame::HotMark { .. }) => node,
            other => panic!("a transition starts with its mark, not {other:?}"),
        }
    }

    fn failed(answer: &Option<Frame>) -> bool {
        matches!(
            answer,
            None | Some(Frame::Error { .. } | Frame::InstallHotResp { ok: false })
        )
    }

    #[test]
    fn the_home_is_the_nodes_home() {
        for nodes in 1..6 {
            let node = CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 0, nodes));
            for key in 0..200 {
                assert_eq!(home(&Transition::evict(key, nodes)), node.home_node(key));
            }
        }
    }

    #[test]
    fn a_clean_install_and_eviction_fence_first_and_unfence_last() {
        let home = home(&Transition::install(7, 3));
        let (calls, outcome) = drive(Transition::install(7, 3), &[]);
        assert_eq!(outcome, Outcome::Installed);
        let names: Vec<String> = calls
            .iter()
            .map(|(n, f, _)| format!("{n}:{}", format!("{f:?}").split(' ').next().unwrap()))
            .collect();
        let h = home.to_string();
        let expected = [
            format!("{h}:HotMark"),
            "0:InstallHot".into(),
            "1:InstallHot".into(),
            "2:InstallHot".into(),
            "0:ActivateHot".into(),
            "1:ActivateHot".into(),
            "2:ActivateHot".into(),
            format!("{h}:HotUnmark"),
        ];
        assert_eq!(names, expected);
        let (calls, outcome) = drive(Transition::evict(7, 3), &[]);
        assert_eq!(outcome, Outcome::Evicted);
        let evicts: Vec<usize> = calls.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(evicts, [home, 0, 1, 2, home]);
    }

    #[test]
    fn a_full_cache_rolls_back_exactly_the_nodes_that_took_the_key() {
        // Node 0 and 1 take it, node 2 is full.
        let (calls, outcome) = drive(
            Transition::install(9, 3),
            &[Reply::Ok, Reply::Ok, Reply::Ok, Reply::Full],
        );
        assert_eq!(outcome, Outcome::RolledBack);
        let evicted: Vec<usize> = calls
            .iter()
            .filter(|(_, f, _)| matches!(f, Frame::Evict { .. }))
            .map(|(n, _, _)| *n)
            .collect();
        assert_eq!(evicted, [0, 1]);
        assert!(matches!(
            calls.last(),
            Some((_, Frame::HotUnmark { .. }, _))
        ));
    }

    #[test]
    fn a_failed_step_leaves_the_fence_up() {
        for at in 0..5 {
            let mut replies = vec![Reply::Ok; at];
            replies.push(Reply::Lost);
            let (calls, outcome) = drive(Transition::evict(3, 3), &replies);
            assert_eq!(outcome, Outcome::Abandoned);
            assert_eq!(calls.len(), at + 1, "nothing is sent after the failure");
            assert!(matches!(calls[0].1, Frame::HotMark { .. }));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any mix of healthy answers, full caches, `Error`s and lost
        /// calls: the transition ends in exactly one outcome, fences before
        /// any cache step, never unfences before the last `EvictResp`,
        /// rolls back exactly the nodes that took the key, and is abandoned
        /// exactly when a step failed other than by a full cache.
        #[test]
        fn every_transition_ends_once_and_keeps_the_fence_rules(
            install in any::<bool>(),
            nodes in 1usize..6,
            key in any::<u64>(),
            replies in prop::collection::vec(any::<u8>(), 0..30),
        ) {
            let replies: Vec<Reply> = replies.into_iter().map(reply).collect();
            let t = if install {
                Transition::install(key, nodes)
            } else {
                Transition::evict(key, nodes)
            };
            let home = home(&t);
            let (calls, outcome) = drive(t.clone(), &replies);
            // Done is for ever, and another answer does not move it.
            let mut ended = t;
            for (_, _, answer) in &calls {
                ended.answer(answer.clone());
            }
            prop_assert_eq!(ended.next(), Next::Done(outcome));
            ended.answer(Some(Frame::HotUnmarkResp));
            prop_assert_eq!(ended.next(), Next::Done(outcome));

            // HotMark to the home comes first, every cache step after its
            // answer, HotUnmark to the home last of all.
            prop_assert_eq!(&calls[0].1, &Frame::HotMark { key });
            prop_assert_eq!(calls[0].0, home);
            let unmark = calls.iter().position(|(_, f, _)| matches!(f, Frame::HotUnmark { .. }));
            if let Some(at) = unmark {
                prop_assert_eq!(at, calls.len() - 1);
                prop_assert_eq!(calls[at].0, home);
                let evicted_after = calls[..at].iter().all(|(_, f, a)| {
                    !matches!(f, Frame::Evict { .. }) || matches!(a, Some(Frame::EvictResp { .. }))
                });
                prop_assert!(evicted_after);
            }
            let steps = &calls[1..];
            prop_assert!(steps.iter().all(|(_, f, _)| !matches!(f, Frame::HotMark { .. })));

            // The outcome follows from the answers alone.
            let fault = calls.iter().position(|(_, _, a)| failed(a));
            let full = |a: &Option<Frame>| matches!(a, Some(Frame::InstallHotResp { ok: false }));
            match outcome {
                Outcome::Abandoned => {
                    // The last call failed, and nothing came after it.
                    let last = &calls[calls.len() - 1].2;
                    prop_assert!(matches!(last, None | Some(Frame::Error { .. })), "{:?}", last);
                    let unfenced = calls.iter().any(|(_, _, a)| a == &Some(Frame::HotUnmarkResp));
                    prop_assert!(!unfenced, "the fence stays up");
                }
                Outcome::RolledBack => {
                    let at = fault.expect("a rollback follows a full cache");
                    prop_assert!(install && full(&calls[at].2));
                    let took: Vec<usize> = calls[..at].iter()
                        .filter(|(_, f, _)| matches!(f, Frame::InstallHot { .. }))
                        .map(|(n, _, _)| *n)
                        .collect();
                    let evicted: Vec<usize> = calls.iter()
                        .filter(|(_, f, _)| matches!(f, Frame::Evict { .. }))
                        .map(|(n, _, _)| *n)
                        .collect();
                    prop_assert_eq!(evicted, took);
                    prop_assert!(unmark.is_some());
                }
                Outcome::Installed | Outcome::Evicted => {
                    prop_assert_eq!(fault, None);
                    prop_assert_eq!(install, outcome == Outcome::Installed);
                    let cache_steps = if install { 2 * nodes } else { nodes };
                    prop_assert_eq!(calls.len(), cache_steps + 2);
                }
            }
        }
    }
}
