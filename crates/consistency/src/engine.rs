//! Node-level protocol engine: per-key state machines plus message routing.
//!
//! A [`NodeEngine`] owns the per-key protocol state of one cache replica and
//! translates between the client-facing API (`get` / `put`), incoming
//! [`ProtocolMsg`]s and the outgoing messages produced by the per-key state
//! machines. It is transport-agnostic: the simulator sends the returned
//! messages over the modeled fabric, and tests deliver them by hand.

use crate::lamport::{NodeId, Timestamp};
use crate::lin::LinKeyState;
use crate::messages::{Action, ConsistencyModel, Event, ProtocolMsg, Value};
use crate::sc::ScKeyState;
use std::collections::HashMap;

/// Where an outgoing message should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// To every other cache replica (software broadcast, §6.3).
    Broadcast,
    /// To a single replica.
    To(NodeId),
}

/// The result of driving the engine with one input.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepOutput {
    /// Messages to hand to the transport.
    pub outgoing: Vec<(Destination, ProtocolMsg)>,
    /// Local outcomes (get responses/stalls, put completions/stalls).
    pub local: Vec<Action>,
}

impl StepOutput {
    /// Whether a get response is present, and its value.
    pub fn get_value(&self) -> Option<Value> {
        self.local.iter().find_map(|a| match a {
            Action::GetResponse { value, .. } => Some(*value),
            _ => None,
        })
    }

    /// Whether the input put completed in this step, and its timestamp.
    pub fn put_completed(&self) -> Option<Timestamp> {
        self.local.iter().find_map(|a| match a {
            Action::PutComplete { ts } => Some(*ts),
            _ => None,
        })
    }

    /// Whether the step asked the caller to retry (a stall).
    pub fn stalled(&self) -> bool {
        self.local
            .iter()
            .any(|a| matches!(a, Action::GetStall | Action::PutStall))
    }
}

/// Common interface of protocol engines (used by the simulator).
pub trait ProtocolEngine {
    /// The consistency model this engine enforces.
    fn model(&self) -> ConsistencyModel;
    /// This replica's node id.
    fn node(&self) -> NodeId;
    /// Handles a client get.
    fn client_get(&mut self, key: u64) -> StepOutput;
    /// Handles a client put.
    fn client_put(&mut self, key: u64, value: Value) -> StepOutput;
    /// Delivers an incoming protocol message.
    fn deliver(&mut self, msg: ProtocolMsg) -> StepOutput;
}

/// A per-node protocol engine holding the state of every cached key.
#[derive(Debug, Clone)]
pub struct NodeEngine {
    model: ConsistencyModel,
    me: NodeId,
    replicas: usize,
    sc: HashMap<u64, ScKeyState>,
    lin: HashMap<u64, LinKeyState>,
}

impl NodeEngine {
    /// Creates an engine for node `me` in a deployment of `replicas` caches.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(model: ConsistencyModel, me: NodeId, replicas: usize) -> Self {
        assert!(replicas > 0);
        Self {
            model,
            me,
            replicas,
            sc: HashMap::new(),
            lin: HashMap::new(),
        }
    }

    /// Seeds a key with an initial value at timestamp zero (cache fill).
    pub fn seed(&mut self, key: u64, value: Value) {
        match self.model {
            ConsistencyModel::Sc => {
                self.sc.insert(key, ScKeyState::with_initial(value));
            }
            ConsistencyModel::Lin => {
                self.lin.insert(key, LinKeyState::with_initial(value));
            }
        }
    }

    /// Whether the key is present in this engine (i.e. cached).
    pub fn contains(&self, key: u64) -> bool {
        match self.model {
            ConsistencyModel::Sc => self.sc.contains_key(&key),
            ConsistencyModel::Lin => self.lin.contains_key(&key),
        }
    }

    /// Inspects the stored value, timestamp and readability of a key.
    pub fn inspect(&self, key: u64) -> Option<(Value, Timestamp, bool)> {
        match self.model {
            ConsistencyModel::Sc => self.sc.get(&key).map(|s| (s.value, s.ts, s.readable())),
            ConsistencyModel::Lin => self.lin.get(&key).map(|s| (s.value, s.ts, s.readable())),
        }
    }

    /// Number of keys tracked by this engine.
    pub fn len(&self) -> usize {
        match self.model {
            ConsistencyModel::Sc => self.sc.len(),
            ConsistencyModel::Lin => self.lin.len(),
        }
    }

    /// Whether the engine tracks no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn step_key(&mut self, key: u64, event: Event) -> Vec<Action> {
        match self.model {
            ConsistencyModel::Sc => {
                let st = self.sc.entry(key).or_default();
                st.step(self.me, event)
            }
            ConsistencyModel::Lin => {
                let replicas = self.replicas;
                let st = self.lin.entry(key).or_default();
                st.step(self.me, replicas, event)
            }
        }
    }

    fn actions_to_output(&self, key: u64, actions: Vec<Action>) -> StepOutput {
        let mut out = StepOutput::default();
        for action in actions {
            match action {
                Action::BroadcastInvalidations { ts } => out.outgoing.push((
                    Destination::Broadcast,
                    ProtocolMsg::Invalidation {
                        key,
                        ts,
                        from: self.me,
                    },
                )),
                Action::SendAck { to, ts } => out.outgoing.push((
                    Destination::To(to),
                    ProtocolMsg::Ack {
                        key,
                        ts,
                        from: self.me,
                    },
                )),
                Action::BroadcastUpdates { value, ts } => out.outgoing.push((
                    Destination::Broadcast,
                    ProtocolMsg::Update {
                        key,
                        value,
                        ts,
                        from: self.me,
                    },
                )),
                local @ (Action::GetResponse { .. }
                | Action::GetStall
                | Action::PutComplete { .. }
                | Action::PutStall) => out.local.push(local),
            }
        }
        out
    }
}

impl ProtocolEngine for NodeEngine {
    fn model(&self) -> ConsistencyModel {
        self.model
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn client_get(&mut self, key: u64) -> StepOutput {
        let actions = self.step_key(key, Event::ClientGet);
        self.actions_to_output(key, actions)
    }

    fn client_put(&mut self, key: u64, value: Value) -> StepOutput {
        let actions = self.step_key(key, Event::ClientPut { value });
        self.actions_to_output(key, actions)
    }

    fn deliver(&mut self, msg: ProtocolMsg) -> StepOutput {
        let key = msg.key();
        let actions = self.step_key(key, msg.to_event());
        self.actions_to_output(key, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers all outgoing messages of `out` produced by `from` into the
    /// other engines, collecting any second-order output (acks, updates).
    fn route(
        engines: &mut [NodeEngine],
        from: usize,
        out: &StepOutput,
    ) -> Vec<(usize, StepOutput)> {
        let mut produced = Vec::new();
        for (dest, msg) in &out.outgoing {
            match dest {
                Destination::Broadcast => {
                    for (i, e) in engines.iter_mut().enumerate() {
                        if i != from {
                            let o = e.deliver(*msg);
                            produced.push((i, o));
                        }
                    }
                }
                Destination::To(node) => {
                    let idx = node.0 as usize;
                    let o = engines[idx].deliver(*msg);
                    produced.push((idx, o));
                }
            }
        }
        produced
    }

    #[test]
    fn sc_engine_propagates_updates() {
        let mut engines: Vec<NodeEngine> = (0..3)
            .map(|i| NodeEngine::new(ConsistencyModel::Sc, NodeId(i), 3))
            .collect();
        for e in engines.iter_mut() {
            e.seed(7, 0);
        }
        let out = engines[1].client_put(7, 99);
        assert!(
            out.put_completed().is_some(),
            "SC puts complete immediately"
        );
        route(&mut engines, 1, &out);
        for e in &engines {
            assert_eq!(e.inspect(7).unwrap().0, 99);
        }
    }

    #[test]
    fn lin_engine_full_write_round() {
        let mut engines: Vec<NodeEngine> = (0..3)
            .map(|i| NodeEngine::new(ConsistencyModel::Lin, NodeId(i), 3))
            .collect();
        for e in engines.iter_mut() {
            e.seed(7, 0);
        }
        // Phase 1: invalidations out.
        let out = engines[0].client_put(7, 42);
        assert!(out.put_completed().is_none(), "Lin puts block until acked");
        // Drain the message exchange to quiescence: invalidations produce
        // acks, the last ack produces the update broadcast and completion.
        let mut queue: Vec<(usize, StepOutput)> = vec![(0, out)];
        let mut stalled_read_observed = false;
        let mut completion_ts = None;
        while let Some((from, step)) = queue.pop() {
            if let Some(ts) = step.put_completed() {
                completion_ts = Some(ts);
            }
            if !stalled_read_observed && engines[1].client_get(7).stalled() {
                stalled_read_observed = true;
            }
            queue.extend(route(&mut engines, from, &step));
        }
        assert!(
            stalled_read_observed,
            "invalidated replicas must stall reads"
        );
        assert!(completion_ts.is_some(), "the put must eventually complete");
        // Check: writer's state is readable with the new value.
        let (v, _, readable) = engines[0].inspect(7).unwrap();
        assert_eq!(v, 42);
        assert!(readable);
        // Other replicas became readable again once the update arrived.
        for e in &engines[1..] {
            let (v, _, readable) = e.inspect(7).unwrap();
            assert_eq!(v, 42);
            assert!(readable, "update must re-validate the replicas");
        }
        assert_eq!(engines[2].client_get(7).get_value(), Some(42));
    }

    #[test]
    fn engine_tracks_only_seeded_or_touched_keys() {
        let mut e = NodeEngine::new(ConsistencyModel::Sc, NodeId(0), 3);
        assert!(e.is_empty());
        e.seed(1, 10);
        assert!(e.contains(1));
        assert!(!e.contains(2));
        assert_eq!(e.len(), 1);
        assert_eq!(e.client_get(1).get_value(), Some(10));
    }
}
