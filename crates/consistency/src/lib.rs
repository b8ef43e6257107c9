//! Fully distributed, strongly consistent cache-coherence protocols (§5).
//!
//! The paper keeps the symmetric caches consistent with two protocols that
//! serialise writes through Lamport timestamps instead of a directory,
//! primary or sequencer — every replica may perform writes directly:
//!
//! * **Per-key Sequential Consistency (SC)** — an adaptation of Burckhardt's
//!   update-based protocol: a writer bumps its Lamport clock, applies the
//!   write locally, and broadcasts an update; receivers apply an update only
//!   if its timestamp is newer than the stored one (writer id breaks ties).
//!   Writes are non-blocking.
//! * **Per-key Linearizability (Lin)** — an adaptation of Guerraoui et al.'s
//!   high-throughput atomic storage: a writer first broadcasts
//!   *invalidations* carrying the new timestamp, waits for acknowledgements
//!   from every sharer, and only then broadcasts the update and completes.
//!   Reads of invalidated keys block until the matching update arrives.
//!
//! The protocol logic is implemented as **pure per-key state machines**
//! ([`sc`], [`lin`]) that map an input event to a new state plus a list of
//! output actions, with no I/O. The same transition functions are driven by
//!
//! * the symmetric cache of every `CcNode` (`cckvs` crate), behind the
//!   networked rack and the rack model checker alike,
//! * the discrete-event performance simulator,
//! * the recorded-history checkers in [`history`], and
//! * the explicit-state model checker in [`checker`], which reproduces the
//!   paper's Murφ verification (SWMR + data-value invariants and deadlock
//!   freedom on a bounded configuration).

pub mod checker;
pub mod engine;
pub mod history;
pub mod lamport;
pub mod lin;
pub mod messages;
pub mod sc;

pub use engine::{NodeEngine, ProtocolEngine};
pub use lamport::{NodeId, Timestamp};
pub use messages::{Action, ConsistencyModel, Event, ProtocolMsg};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::engine::{NodeEngine, ProtocolEngine};
    pub use crate::lamport::{NodeId, Timestamp};
    pub use crate::lin::LinKeyState;
    pub use crate::messages::{Action, ConsistencyModel, Event, ProtocolMsg};
    pub use crate::sc::ScKeyState;
}
