//! Deterministic protocol model checking for the scale-out ccNUMA rack.
//!
//! This crate drives **real** [`cckvs::node::CcNode`] instances — the same
//! per-key SC/Lin coherence engine, symmetric cache, and home-shard rules
//! the production server runs — plus the production reliable link
//! ([`cckvs_net::link`]), miss-path RPC table ([`cckvs_net::rpc`]) and
//! per-connection op machine ([`cckvs_net::ops`]) over the deterministic
//! in-process [`cckvs_net::sim`] fabric, and hands every source of
//! nondeterminism to a seeded scheduler:
//!
//! * which in-flight datagram (invalidation, ack, update broadcast, miss
//!   RPC, write-back) is delivered next, dropped, or duplicated;
//! * when link-level retransmits and credit confirmations fire;
//! * when nodes crash, when they restart (new generation, retained-frame
//!   replay, reissued invalidations — the PR 5 reconnect contract), and
//!   when the post-restart heal runs;
//! * when each client session issues or retries its next operation, and
//!   when hot-transition admin steps (evict/install marks, warm, activate)
//!   execute.
//!
//! Every completed operation is recorded into a [`consistency::history`]
//! and each fully-drained execution is checked for per-key
//! linearizability (or SC, per scenario) **and zero lost acknowledged
//! writes**. A failing schedule compresses to a replayable
//! [`sched::Seed`] (`scenario:hexseed`); replaying it reproduces the
//! identical event sequence.
//!
//! # Modeling choices
//!
//! The harness aims for fidelity to the production dataplane but makes a
//! few deliberate simplifications, each on the *stronger-adversary* or
//! *documented-assumption* side:
//!
//! * **In-order per-link processing.** Every directed node pair is a
//!   production [`cckvs_net::link`] (not a model of one): datagrams carry
//!   its numbers, the sender retains until confirmed, the receiver hands
//!   frames up exactly once in order. UDP-level reorder/dup/loss still
//!   happens *under* that layer (the scheduler delivers flights in any
//!   order, drops and duplicates them) — exactly the adversary the link
//!   exists to tame.
//! * **Versioned cold reads.** A home answers a miss-path GET exactly as
//!   in production (`MissGetResp`, value only); the harness notes the
//!   shard version it was served at on the side, so the checker can
//!   attribute every read. *Stronger* instrumentation, same semantics.
//! * **Supervisor floor assumed current.** A restarted home's cold-version
//!   counter is raised to its dead predecessor's, modeling a perfectly
//!   synchronised supervisor `VersionFloor`. Production bounds the gap
//!   with `--cold-floor` slack; schedules that would need a stale floor to
//!   misbehave are out of this model's scope.
//! * **Atomic heal.** Post-restart cache recovery (evict, write back the
//!   newest dirty copy, reinstall everywhere) runs as one step — the
//!   epoch coordinator's job. Step-wise transition interleavings are
//!   exercised separately by the admin scripts of the transition
//!   scenarios.
//! * **Gated crashes.** Default scenarios only crash nodes where the
//!   production system survives: not while a home shard holds observable
//!   in-memory cold data (durable shards are an open ROADMAP item), not
//!   with an uncommitted Lin write pending (peers would wedge invalid),
//!   not while a committed update sits undelivered in the dead node's
//!   links. The `ack-then-die` scenario disables the gates and *expects*
//!   the checker to object — keeping the exclusions honest.
//! * **No time.** A miss-path RPC never expires, and a session's op
//!   machine runs on `()` for a clock, so a bounced op never gives up; one
//!   that can never be answered surfaces as a deadlock at the drain, which
//!   is what the `miss-rpc-no-reissue` negative scenario is flagged by.
//!   The retry tick is a scheduler choice, offered once the node has seen
//!   progress since the bounce.
//!
//! # Entry points
//!
//! [`scenario::all`] lists the named scenarios; [`explore::explore`] runs
//! seeded bounded walks; [`explore::replay`] re-runs one seed and asserts
//! determinism; the `cckvs-modelcheck` binary wraps both for CI.

pub mod explore;
pub mod harness;
pub mod scenario;
pub mod sched;

pub use explore::{explore, replay, ExploreReport};
pub use harness::{run_schedule, Action, RackModel, RunOutcome};
pub use scenario::{AdminStep, ProgOp, ProgStep, ScenarioSpec};
pub use sched::{Seed, SplitMix64};
