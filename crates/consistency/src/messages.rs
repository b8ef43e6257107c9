//! Protocol events, actions and wire messages shared by both protocols.
//!
//! The per-key state machines in [`crate::sc`] and [`crate::lin`] consume
//! [`Event`]s and emit [`Action`]s; the transport layer (sockets for the
//! networked rack, the flight table of the model checker, the
//! discrete-event fabric of the performance simulator) turns `Send*` actions into [`ProtocolMsg`]s on
//! the wire and incoming messages back into `Recv*` events.

use crate::lamport::{NodeId, Timestamp};

/// The consistency model enforced on the symmetric caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyModel {
    /// Per-key Sequential Consistency (non-blocking update broadcast).
    Sc,
    /// Per-key Linearizability (two-phase invalidate/ack then update).
    Lin,
}

impl ConsistencyModel {
    /// Human-readable name matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ConsistencyModel::Sc => "ccKVS-SC",
            ConsistencyModel::Lin => "ccKVS-Lin",
        }
    }
}

/// A value as carried by the protocols. The protocols are value-agnostic;
/// the cache layer stores real bytes, the model checker uses small integers.
pub type Value = u64;

/// Input events to a per-key protocol state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A local session issues a put that hit in this node's cache.
    ClientPut {
        /// The value to write.
        value: Value,
    },
    /// A local session issues a get for this key.
    ClientGet,
    /// An invalidation was received (Lin only).
    RecvInvalidation {
        /// Sender of the invalidation.
        from: NodeId,
        /// Timestamp of the pending write.
        ts: Timestamp,
    },
    /// An acknowledgement of an earlier invalidation was received (Lin only).
    RecvAck {
        /// Sender of the acknowledgement.
        from: NodeId,
        /// Timestamp being acknowledged.
        ts: Timestamp,
    },
    /// An update carrying a committed value was received.
    RecvUpdate {
        /// Sender of the update.
        from: NodeId,
        /// The new value.
        value: Value,
        /// Timestamp of the write.
        ts: Timestamp,
    },
}

/// Output actions of a per-key protocol state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Broadcast invalidations for this key to all other replicas (Lin).
    BroadcastInvalidations {
        /// Timestamp of the pending write.
        ts: Timestamp,
    },
    /// Send an acknowledgement back to the invalidating writer (Lin).
    SendAck {
        /// Destination (the writer that sent the invalidation).
        to: NodeId,
        /// The acknowledged timestamp.
        ts: Timestamp,
    },
    /// Broadcast the new value to all other replicas.
    BroadcastUpdates {
        /// The committed value.
        value: Value,
        /// Its timestamp.
        ts: Timestamp,
    },
    /// The get completes and returns `value`.
    GetResponse {
        /// The value read.
        value: Value,
        /// The timestamp of the value read (exposed for history checking).
        ts: Timestamp,
    },
    /// The get cannot be served right now (key invalid or write pending under
    /// Lin); the caller must retry once the state changes.
    GetStall,
    /// The put completes (returns to the client).
    PutComplete {
        /// Timestamp assigned to the completed write.
        ts: Timestamp,
    },
    /// The put cannot start because another local write to the same key is
    /// still awaiting acknowledgements (Lin); the caller must retry.
    PutStall,
}

/// Wire messages exchanged between cache replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolMsg {
    /// Invalidation of a key pending a write (Lin phase 1).
    Invalidation {
        /// Key being written.
        key: u64,
        /// Timestamp of the pending write.
        ts: Timestamp,
        /// The writer issuing the invalidation.
        from: NodeId,
    },
    /// Acknowledgement of an invalidation (Lin phase 1 response).
    Ack {
        /// Key being acknowledged.
        key: u64,
        /// Timestamp being acknowledged.
        ts: Timestamp,
        /// The replica acknowledging.
        from: NodeId,
    },
    /// Update carrying the committed value (SC; Lin phase 2).
    Update {
        /// Key being updated.
        key: u64,
        /// The committed value.
        value: Value,
        /// Its timestamp.
        ts: Timestamp,
        /// The writer.
        from: NodeId,
    },
}

impl ProtocolMsg {
    /// The key this message refers to.
    pub fn key(&self) -> u64 {
        match self {
            ProtocolMsg::Invalidation { key, .. }
            | ProtocolMsg::Ack { key, .. }
            | ProtocolMsg::Update { key, .. } => *key,
        }
    }

    /// The sender of this message.
    pub fn from(&self) -> NodeId {
        match self {
            ProtocolMsg::Invalidation { from, .. }
            | ProtocolMsg::Ack { from, .. }
            | ProtocolMsg::Update { from, .. } => *from,
        }
    }

    /// Converts a received message into the event fed to the state machine.
    pub fn to_event(&self) -> Event {
        match *self {
            ProtocolMsg::Invalidation { ts, from, .. } => Event::RecvInvalidation { from, ts },
            ProtocolMsg::Ack { ts, from, .. } => Event::RecvAck { from, ts },
            ProtocolMsg::Update {
                value, ts, from, ..
            } => Event::RecvUpdate { from, value, ts },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_accessors_and_event_conversion() {
        let ts = Timestamp::new(3, NodeId(1));
        let inv = ProtocolMsg::Invalidation {
            key: 9,
            ts,
            from: NodeId(1),
        };
        assert_eq!(inv.key(), 9);
        assert_eq!(inv.from(), NodeId(1));
        assert_eq!(
            inv.to_event(),
            Event::RecvInvalidation {
                from: NodeId(1),
                ts
            }
        );

        let ack = ProtocolMsg::Ack {
            key: 9,
            ts,
            from: NodeId(2),
        };
        assert_eq!(
            ack.to_event(),
            Event::RecvAck {
                from: NodeId(2),
                ts
            }
        );

        let upd = ProtocolMsg::Update {
            key: 9,
            value: 77,
            ts,
            from: NodeId(1),
        };
        assert_eq!(
            upd.to_event(),
            Event::RecvUpdate {
                from: NodeId(1),
                value: 77,
                ts
            }
        );
    }

    #[test]
    fn model_labels_match_paper() {
        assert_eq!(ConsistencyModel::Sc.label(), "ccKVS-SC");
        assert_eq!(ConsistencyModel::Lin.label(), "ccKVS-Lin");
    }
}
