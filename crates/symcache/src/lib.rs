//! The symmetric cache (§4) and its popularity machinery.
//!
//! Symmetric caching provisions every server node with a small cache that
//! holds the *same* set of objects — the globally most popular ones. Because
//! all caches are identical, (a) a request can hit in the cache of whichever
//! node the client picked, (b) no directory is needed: querying the local
//! cache reveals whether *all* nodes cache an item or none do, and (c) the
//! caches are write-back, so hot writes never hammer the home node.
//!
//! Modules:
//!
//! * [`topk`] — the space-saving top-k algorithm (Metwally et al.) used to
//!   identify the hottest keys from a sampled access stream.
//! * [`popularity`] — the epoch-based popularity tracker and the single
//!   cache *coordinator* that decides the hot set and publishes it to every
//!   node (§4: one server suffices because all servers see the same access
//!   distribution).
//! * [`hitrate`] — the analytic cache hit-rate model behind Fig. 3.
//! * [`cache`] — the per-node symmetric cache data structure: seqlock-backed
//!   storage (shared with the KVS substrate) extended with the consistency
//!   metadata and driven by the *verified* protocol state machines from the
//!   `consistency` crate.

pub mod cache;
pub mod hitrate;
pub mod popularity;
pub mod topk;

pub use cache::{
    DeliverOutcome, EvictOutcome, ReadOutcome, ReadProbe, SymmetricCache, WriteOutcome,
};
pub use hitrate::expected_hit_rate;
pub use popularity::{CacheCoordinator, EpochConfig, HotSet};
pub use topk::SpaceSaving;
