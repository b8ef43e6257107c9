//! Moves of keys into or out of the symmetric caches (§4's epoch change),
//! written once: one key's [`Transition`], and the [`Flip`] that steps the
//! transitions of many keys together. The bootstrap install, the epoch
//! coordinator, the supervisor's heal and `cckvs-modelcheck` run them.
//! Owning no socket, thread, lock or clock, a flip names the next
//! `(node, frame)` call; its caller feeds the answer back.
//!
//! `HotMark` at the key's home comes first and `HotUnmark` last: the fence
//! lives as long as the transition. An install warms, then activates, every
//! node; an eviction evicts every node. A failed step ends the transition
//! at once with the fence up (`docs/ARCHITECTURE.md`, "Hot-set churn"). A
//! seed fills a fresh dataset's caches with no fence and rolls back on any
//! failed step.

use crate::link::PEER_BATCH_OPS;
use crate::wire::Frame;
use consistency::lamport::Timestamp;
use std::collections::{BTreeMap, VecDeque};
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
        let rounds = [fill(key, Vec::new(), true), Frame::ActivateHot { key }];
        Self::new(key, nodes, Outcome::Installed, &rounds, true)
    }

    /// Turns hot `key` cold on all `nodes` of the deployment.
    pub fn evict(key: u64, nodes: usize) -> Self {
        Self::new(key, nodes, Outcome::Evicted, &[Frame::Evict { key }], true)
    }

    /// Fills every node's cache with `key` at `value`, active at version
    /// zero: a fresh dataset's bootstrap, with no fence, so writes to the
    /// key must be quiescent.
    pub fn seed(key: u64, value: Vec<u8>, nodes: usize) -> Self {
        let rounds = [fill(key, value, false)];
        Self::new(key, nodes, Outcome::Installed, &rounds, false)
    }

    /// Each round over every node in order, between the home's mark and
    /// unmark if `fenced`.
    fn new(key: u64, nodes: usize, end: Outcome, rounds: &[Frame], fenced: bool) -> Self {
        let home = ShardMap::new(nodes, 1).home_node(KeyId(key));
        let fence = |frame| fenced.then_some((home, frame));
        let calls = rounds
            .iter()
            .flat_map(|f| (0..nodes).map(move |n| (n, f.clone())));
        let plan = fence(Frame::HotMark { key }).into_iter().chain(calls);
        let plan = plan.chain(fence(Frame::HotUnmark { key })).collect();
        Transition { key, plan, end }
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
            (Frame::InstallHot { .. }, Some(Frame::InstallHotResp { ok: true }))
            | (Frame::ActivateHot { .. }, Some(Frame::ActivateHotResp { ok: true }))
            | (Frame::Evict { .. }, Some(Frame::EvictResp { .. }))
            | (Frame::HotUnmark { .. }, Some(Frame::HotUnmarkResp)) => {}
            // The fill round goes in node order: the nodes before this one
            // took the key, and only they drop it again. A seed has no
            // fence to keep up, so any failed fill rolls it back.
            (Frame::InstallHot { warm: false, .. }, _)
            | (Frame::InstallHot { .. }, Some(Frame::InstallHotResp { ok: false })) => {
                let key = self.key;
                let unmark = self.plan.pop_back();
                let unmark = unmark.filter(|(_, f)| matches!(f, Frame::HotUnmark { .. }));
                let rollback = (0..node).map(|n| (n, Frame::Evict { key }));
                self.plan = rollback.chain(unmark).collect();
                self.end = Outcome::RolledBack;
            }
            _ => {
                self.plan.clear();
                self.end = Outcome::Abandoned;
            }
        }
    }
}

/// An `InstallHot` of `key`: a warm one to be activated, or an active one.
fn fill(key: u64, value: Vec<u8>, warm: bool) -> Frame {
    let ts = Timestamp::ZERO;
    Frame::InstallHot {
        key,
        value,
        ts,
        warm,
    }
}

/// Transitions of distinct keys stepped together, [`PEER_BATCH_OPS`] at a
/// time, each group to its end before the next starts. A phase makes the
/// next call of every unfinished transition of the group, one frame per
/// node: a `Batch` of the calls it carries, or a lone call bare. A key's
/// fence is up for as many phases as its transition has calls (2N + 2 at
/// most).
pub struct Flip {
    /// Transitions of the groups not yet started, in order.
    waiting: std::vec::IntoIter<Transition>,
    /// The running group.
    group: Vec<Transition>,
    /// The running phase's calls still to make, by node: the node and the
    /// members of `group` it is asked for.
    phase: VecDeque<(usize, Vec<usize>)>,
    /// Whether a group in which a transition failed is the flip's last.
    until_failure: bool,
}

impl Flip {
    /// Runs `transitions`, which must be of distinct keys, in order: every
    /// group, whatever the groups before it ended in.
    pub fn new(transitions: Vec<Transition>) -> Self {
        let mut flip = Flip {
            waiting: transitions.into_iter(),
            group: Vec::new(),
            phase: VecDeque::new(),
            until_failure: false,
        };
        flip.plan();
        flip
    }

    /// Makes a group in which a transition rolled back or was abandoned
    /// the flip's last: a full cache or a failing node would fail the
    /// (colder) keys after it too.
    pub fn until_failure(mut self) -> Self {
        self.until_failure = true;
        self
    }

    /// The call to make now (the same one until answered), or `None` once
    /// every transition ended.
    pub fn next(&self) -> Option<(usize, Frame)> {
        let (node, members) = self.phase.front()?;
        let mut frames = members.iter().map(|&t| match self.group[t].next() {
            Next::Call(_, frame) => frame,
            Next::Done(_) => unreachable!("a phase calls for unfinished transitions"),
        });
        let frame = match members.len() {
            1 => frames.next().expect("one call"),
            _ => Frame::Batch {
                frames: frames.collect(),
            },
        };
        Some((*node, frame))
    }

    /// Takes the answer to the call [`Flip::next`] named (`None`: the call
    /// failed), returning the keys whose transitions it ended, and how. A
    /// batch's answer is a batch of as many answers; any other fails all
    /// its calls.
    pub fn answer(&mut self, reply: Option<Frame>) -> Vec<(u64, Outcome)> {
        let Some((_, members)) = self.phase.pop_front() else {
            return Vec::new();
        };
        let replies = match reply {
            Some(Frame::Batch { frames }) if members.len() > 1 && frames.len() == members.len() => {
                frames.into_iter().map(Some).collect()
            }
            reply if members.len() == 1 => vec![reply],
            _ => vec![None; members.len()],
        };
        let mut ended = Vec::new();
        for (&t, reply) in members.iter().zip(replies) {
            let t = &mut self.group[t];
            t.answer(reply);
            if let Next::Done(outcome) = t.next() {
                ended.push((t.key, outcome));
            }
        }
        if self.phase.is_empty() {
            self.plan();
        }
        ended
    }

    /// The keys of the running group.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.group.iter().map(|t| t.key)
    }

    /// Runs the flip to its end through `call`, which sends a frame to a
    /// node and returns the answer (`None`: the call failed), returning
    /// every key's outcome in the order they ended.
    pub fn run(
        mut self,
        mut call: impl FnMut(usize, &Frame) -> Option<Frame>,
    ) -> Vec<(u64, Outcome)> {
        let mut ended = Vec::new();
        while let Some((node, frame)) = self.next() {
            let reply = call(node, &frame);
            ended.extend(self.answer(reply));
        }
        ended
    }

    /// Plans the running group's next phase, or the next group's first.
    fn plan(&mut self) {
        loop {
            let mut by_node = BTreeMap::<usize, Vec<usize>>::new();
            for (t, transition) in self.group.iter().enumerate() {
                if let Next::Call(node, _) = transition.next() {
                    by_node.entry(node).or_default().push(t);
                }
            }
            if !by_node.is_empty() {
                self.phase = by_node.into_iter().collect();
                return;
            }
            let failed =
                |t: &Transition| t.end == Outcome::RolledBack || t.end == Outcome::Abandoned;
            if self.until_failure && self.group.iter().any(failed) {
                self.waiting = Default::default();
            }
            let size = PEER_BATCH_OPS as usize;
            self.group = self.waiting.by_ref().take(size).collect();
            if self.group.is_empty() {
                return;
            }
        }
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

    /// What a scripted node answers `frame` with.
    fn respond(reply: Reply, frame: &Frame) -> Option<Frame> {
        match (reply, frame) {
            (Reply::Lost, _) => None,
            (Reply::Error, _) => Some(Frame::Error {
                message: "refused".to_string(),
            }),
            (Reply::Full, Frame::InstallHot { .. }) => Some(Frame::InstallHotResp { ok: false }),
            (_, Frame::HotMark { .. }) => Some(Frame::HotMarkResp {
                ts: Timestamp::ZERO,
                value: b"v".to_vec(),
            }),
            (_, Frame::InstallHot { .. }) => Some(Frame::InstallHotResp { ok: true }),
            (_, Frame::ActivateHot { .. }) => Some(Frame::ActivateHotResp { ok: true }),
            (_, Frame::Evict { .. }) => Some(Frame::EvictResp { existed: true }),
            (_, Frame::HotUnmark { .. }) => Some(Frame::HotUnmarkResp),
            (_, other) => panic!("a transition never sends {other:?}"),
        }
    }

    /// Every call a transition made, with its answer.
    type Calls = Vec<(usize, Frame, Option<Frame>)>;

    /// Runs `t` alone against `replies` (then `Ok` for ever), returning
    /// every call made, its answer, and the outcome.
    fn drive(mut t: Transition, replies: &[Reply]) -> (Calls, Outcome) {
        let mut calls = Vec::new();
        let mut replies = replies.iter().copied();
        while let Next::Call(node, frame) = t.next() {
            let answer = respond(replies.next().unwrap_or(Reply::Ok), &frame);
            calls.push((node, frame, answer.clone()));
            assert!(calls.len() <= 4 * 64 + 2, "a transition ends");
            t.answer(answer);
        }
        let Next::Done(outcome) = t.next() else {
            unreachable!("the loop ran to the end")
        };
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

    #[test]
    fn a_rolled_back_seed_never_fills_after_its_first_evict() {
        // Node 1 is full, then node 2 is lost: the nodes before each take
        // the key back, and the fill round stops there.
        let full = [Reply::Ok, Reply::Full, Reply::Ok];
        let lost = [Reply::Ok, Reply::Ok, Reply::Lost];
        for (replies, took) in [(full, 1), (lost, 2)] {
            let (calls, outcome) = drive(Transition::seed(5, b"v".to_vec(), 3), &replies);
            assert_eq!(outcome, Outcome::RolledBack);
            let names: Vec<(usize, bool)> = (calls.iter())
                .map(|(n, f, _)| (*n, matches!(f, Frame::Evict { .. })))
                .collect();
            let fills = (0..=took).map(|n| (n, false));
            let expected: Vec<_> = fills.chain((0..took).map(|n| (n, true))).collect();
            assert_eq!(names, expected);
        }
    }

    #[test]
    fn a_lone_call_travels_bare_and_a_group_sends_one_frame_per_node() {
        let flip = Flip::new(vec![Transition::install(7, 3)]);
        assert_eq!(
            flip.next(),
            Some((home(&Transition::install(7, 3)), Frame::HotMark { key: 7 }))
        );
        // 40 seeds on 3 nodes: a group of 32, then one of 8, each one
        // batch per node.
        let seeds = (0..40).map(|key| Transition::seed(key, b"v".to_vec(), 3));
        let mut sizes = Vec::new();
        let ended = Flip::new(seeds.collect()).run(|node, frame| {
            let Frame::Batch { frames } = frame else {
                panic!("a group of many sends batches, not {frame:?}")
            };
            sizes.push((node, frames.len()));
            let answers = frames
                .iter()
                .map(|f| respond(Reply::Ok, f).expect("answered"));
            Some(Frame::Batch {
                frames: answers.collect(),
            })
        });
        assert_eq!(sizes, [(0, 32), (1, 32), (2, 32), (0, 8), (1, 8), (2, 8)]);
        assert_eq!(ended.len(), 40);
        assert!(ended
            .iter()
            .all(|&(_, outcome)| outcome == Outcome::Installed));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any set of distinct-key installs, evictions and seeds, answered
        /// per (key, call index) by a script of healthy answers, full
        /// caches, `Error`s and lost calls: under a [`Flip`], each
        /// transition makes the calls it makes alone, in the same order,
        /// and ends the same; [`Flip::until_failure`] stops at the group
        /// that fails, and no transition after it makes a call. A phase
        /// asks each transition at most once and each node at most once, a
        /// lone call bare.
        #[test]
        fn a_flip_changes_only_the_grouping(
            until_failure in any::<bool>(),
            nodes in 1usize..6,
            faults in 0usize..4,
            specs in prop::collection::vec((0u8..3, prop::collection::vec(any::<u8>(), 0..8)), 1..80),
        ) {
            let pct = [0, 1, 4, 30][faults];
            let script = |r: &u8| match (u32::from(*r) * 100 / 256 < pct, r % 3) {
                (false, _) => Reply::Ok,
                (true, 0) => Reply::Full,
                (true, 1) => Reply::Error,
                (true, _) => Reply::Lost,
            };
            let scripts: Vec<Vec<Reply>> = specs.iter().map(|(_, s)| s.iter().map(script).collect()).collect();
            let make = |t: usize| {
                let key = 1000 + t as u64;
                match specs[t].0 {
                    0 => Transition::install(key, nodes),
                    1 => Transition::evict(key, nodes),
                    _ => Transition::seed(key, b"v".to_vec(), nodes),
                }
            };
            let alone: Vec<(Calls, Outcome)> = (0..specs.len()).map(|t| drive(make(t), &scripts[t])).collect();
            for (t, (calls, _)) in alone.iter().enumerate() {
                // A seed's rollback never fills again.
                let first_evict = calls.iter().position(|(_, f, _)| matches!(f, Frame::Evict { .. }));
                let refill = first_evict.map(|at| calls[at..].iter().any(|(_, f, _)| matches!(f, Frame::InstallHot { .. })));
                prop_assert!(specs[t].0 != 2 || refill != Some(true));
            }

            let transitions = (0..specs.len()).map(make).collect();
            let mut flip = match until_failure {
                true => Flip::new(transitions).until_failure(),
                false => Flip::new(transitions),
            };
            let mut made: Vec<Calls> = vec![Vec::new(); specs.len()];
            let mut ended = Vec::new();
            let (mut left, mut asked, mut nodes_asked) = (0, Vec::new(), Vec::new());
            while let Some((node, frame)) = flip.next() {
                if left == 0 {
                    (left, asked, nodes_asked) = (flip.phase.len(), Vec::new(), Vec::new());
                }
                left -= 1;
                prop_assert!(!nodes_asked.contains(&node), "one frame per node per phase");
                nodes_asked.push(node);
                let subs = match &frame {
                    Frame::Batch { frames } => {
                        prop_assert!(frames.len() > 1, "a lone call travels bare");
                        frames.clone()
                    }
                    bare => vec![bare.clone()],
                };
                let mut answers = Vec::new();
                for sub in subs {
                    let t = (frame_key(&sub) - 1000) as usize;
                    prop_assert!(!asked.contains(&t), "one call per transition per phase");
                    asked.push(t);
                    let at = made[t].len();
                    let answer = respond(scripts[t].get(at).copied().unwrap_or(Reply::Ok), &sub);
                    made[t].push((node, sub, answer.clone()));
                    answers.push(answer);
                }
                prop_assert!(asked.len() <= PEER_BATCH_OPS as usize);
                let reply = match frame {
                    // A call lost inside a batch: an answer that fits no call.
                    Frame::Batch { .. } => Some(Frame::Batch {
                        frames: answers.into_iter().map(|a| a.unwrap_or(Frame::Pong)).collect(),
                    }),
                    _ => answers.pop().expect("one answer"),
                };
                ended.extend(flip.answer(reply));
            }

            let failed = |o: &Outcome| matches!(o, Outcome::RolledBack | Outcome::Abandoned);
            let group = PEER_BATCH_OPS as usize;
            let last = alone.chunks(group).position(|g| g.iter().any(|(_, o)| failed(o)));
            let last = last.filter(|_| until_failure);
            let ran = last.map_or(specs.len(), |g| ((g + 1) * group).min(specs.len()));
            for t in 0..specs.len() {
                let key = 1000 + t as u64;
                let outcome = ended.iter().find(|(k, _)| *k == key).map(|(_, o)| *o);
                if t < ran {
                    let alone_calls: Vec<(usize, &Frame)> = alone[t].0.iter().map(|(n, f, _)| (*n, f)).collect();
                    let flip_calls: Vec<(usize, &Frame)> = made[t].iter().map(|(n, f, _)| (*n, f)).collect();
                    prop_assert_eq!(flip_calls, alone_calls);
                    prop_assert_eq!(outcome, Some(alone[t].1));
                } else {
                    prop_assert!(made[t].is_empty() && outcome.is_none());
                }
            }
        }
    }

    #[test]
    fn an_eviction_flip_runs_past_a_failed_group_unless_told_to_stop() {
        // 40 evictions on 3 nodes, the first group's first key lost at its
        // mark: the other 39 move cold under `new`, none after the first
        // group under `until_failure`.
        let evicts = || (0..40).map(|key| Transition::evict(key, 3)).collect();
        let answer = |_: usize, frame: &Frame| -> Option<Frame> {
            let Frame::Batch { frames } = frame else {
                return respond(Reply::Ok, frame);
            };
            let answers = frames.iter().map(|f| match f {
                Frame::HotMark { key: 0 } => Frame::Pong,
                f => respond(Reply::Ok, f).expect("answered"),
            });
            Some(Frame::Batch {
                frames: answers.collect(),
            })
        };
        let outcomes =
            |flip: Flip| -> BTreeMap<u64, Outcome> { flip.run(answer).into_iter().collect() };
        let all = outcomes(Flip::new(evicts()));
        assert_eq!(all.len(), 40);
        assert_eq!(all[&0], Outcome::Abandoned);
        assert!((1..40).all(|key| all[&key] == Outcome::Evicted));
        let first = outcomes(Flip::new(evicts()).until_failure());
        assert_eq!(first.len(), PEER_BATCH_OPS as usize);
        assert_eq!(first[&0], Outcome::Abandoned);
    }

    /// The key a transition's call is about.
    fn frame_key(frame: &Frame) -> u64 {
        match frame {
            Frame::HotMark { key }
            | Frame::HotUnmark { key }
            | Frame::InstallHot { key, .. }
            | Frame::ActivateHot { key }
            | Frame::Evict { key } => *key,
            other => panic!("a transition never sends {other:?}"),
        }
    }
}
