//! MICA-style in-memory key-value store substrate for ccKVS.
//!
//! ccKVS builds its back-end store on MICA (Lim et al., NSDI'14) and layers
//! sequence locks (seqlocks) over it so that the store can be accessed
//! concurrently by all KVS threads of a node (the *CRCW* model, §6.2). This
//! crate re-implements that substrate from scratch:
//!
//! * [`seqlock`] — an OPTIK-style sequence lock: the version word doubles
//!   as the writer's spinlock while readers are lock-free and retry when
//!   they observe a concurrent write. The version number doubles as the
//!   object's logical (Lamport) clock, exactly as in §6.2 of the paper.
//! * [`object`] — the stored object: key, 8-byte metadata header and value
//!   bytes inline under the seqlock; every read checks the key.
//! * [`index`] — a bucketized hash index in MICA's layout: a bucket is one
//!   64-byte line read with one version-validated copy, and a full bucket
//!   spills into one ordered side map, so the store never drops a key.
//! * [`partition`] — a single store partition (the unit of EREW ownership).
//! * [`kvs`] — a node-level KVS combining partitions under either the
//!   EREW (exclusive per-thread partitions) or CRCW (single concurrent
//!   store) concurrency model.
//!
//! # Examples
//!
//! ```
//! use kvstore::{ConcurrencyModel, NodeKvs};
//!
//! let kvs = NodeKvs::new(ConcurrencyModel::Crcw, 4, 1 << 12);
//! kvs.put_from_thread(0, 42, b"hello", 1).unwrap();
//! let read = kvs.get_from_thread(3, 42).unwrap().unwrap();
//! assert_eq!(read.value, b"hello");
//! assert_eq!(read.version, 1);
//! ```

pub mod index;
pub mod kvs;
mod mapping;
pub mod object;
pub mod partition;
pub mod seqlock;

pub use index::BucketIndex;
pub use kvs::{ConcurrencyModel, KvError, NodeKvs, VersionedValue};
pub use object::{ObjectHeader, StoredObject};
pub use partition::Partition;
pub use seqlock::{Payload, SeqLock};
