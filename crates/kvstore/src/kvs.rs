//! Node-level KVS: EREW vs CRCW concurrency models (§6.2, §7.1).
//!
//! * **EREW** (Exclusive Read Exclusive Write) partitions the node's shard at
//!   core granularity, like stock MICA: each KVS thread exclusively owns a
//!   slice of the keyspace, so no synchronisation is needed but a skewed key
//!   can only ever be served by one core (the `Base-EREW` baseline).
//! * **CRCW** (Concurrent Read Concurrent Write) lets every KVS thread access
//!   the whole shard, paying the seqlock synchronisation cost but allowing
//!   the node to spread hot-key work over all of its cores and—critically for
//!   ccKVS—reducing the number of RDMA connections required (§6.4).

use crate::object::{ObjectHeader, ObjectSnapshot};
use crate::partition::{Partition, PartitionError};
use crate::seqlock::Payload;

/// Concurrency model of a node's back-end KVS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrencyModel {
    /// Exclusive Read Exclusive Write: one partition per KVS thread.
    Erew,
    /// Concurrent Read Concurrent Write: one shared partition per node.
    Crcw,
}

/// Errors returned by [`NodeKvs`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// In EREW mode, the accessing thread does not own the key's partition.
    WrongPartition {
        /// The thread that owns the key.
        owner: usize,
        /// The thread that attempted the access.
        accessed_by: usize,
    },
    /// The underlying partition rejected the operation.
    Storage(PartitionError),
    /// The thread id is outside the node's thread pool.
    InvalidThread {
        /// The offending thread id.
        thread: usize,
        /// Number of threads in the pool.
        threads: usize,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::WrongPartition { owner, accessed_by } => write!(
                f,
                "EREW violation: thread {accessed_by} accessed a key owned by thread {owner}"
            ),
            KvError::Storage(e) => write!(f, "storage error: {e}"),
            KvError::InvalidThread { thread, threads } => {
                write!(f, "thread {thread} outside pool of {threads}")
            }
        }
    }
}

impl std::error::Error for KvError {}

impl From<PartitionError> for KvError {
    fn from(e: PartitionError) -> Self {
        KvError::Storage(e)
    }
}

/// A value read from the KVS together with its version (Lamport clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The value bytes.
    pub value: Vec<u8>,
    /// The object version / Lamport clock.
    pub version: u32,
    /// Node id of the writer that produced this version.
    pub last_writer: u8,
}

impl From<ObjectSnapshot> for VersionedValue {
    fn from(snap: ObjectSnapshot) -> Self {
        Self {
            value: snap.value,
            version: snap.header.clock,
            last_writer: snap.header.last_writer,
        }
    }
}

/// One node's shard of the back-end KVS.
#[derive(Debug)]
pub struct NodeKvs {
    model: ConcurrencyModel,
    threads: usize,
    /// CRCW: exactly one partition. EREW: one partition per thread.
    partitions: Vec<Partition>,
}

impl NodeKvs {
    /// Creates a node KVS with `threads` KVS worker threads and room for
    /// `capacity` objects in total (split evenly across EREW partitions).
    ///
    /// Uses a default per-object value capacity of 1 KiB (the largest object
    /// size the paper evaluates).
    pub fn new(model: ConcurrencyModel, threads: usize, capacity: usize) -> Self {
        Self::with_value_capacity(model, threads, capacity, 1024)
    }

    /// Creates a node KVS with an explicit per-object value capacity.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `capacity` is zero.
    pub fn with_value_capacity(
        model: ConcurrencyModel,
        threads: usize,
        capacity: usize,
        value_capacity: usize,
    ) -> Self {
        assert!(threads > 0, "a node needs at least one KVS thread");
        assert!(
            capacity > 0,
            "a node needs capacity for at least one object"
        );
        let partitions = match model {
            ConcurrencyModel::Crcw => vec![Partition::new(capacity, value_capacity)],
            ConcurrencyModel::Erew => {
                let per = (capacity / threads).max(1);
                (0..threads)
                    .map(|_| Partition::new(per, value_capacity))
                    .collect()
            }
        };
        Self {
            model,
            threads,
            partitions,
        }
    }

    /// The concurrency model of this node.
    pub fn model(&self) -> ConcurrencyModel {
        self.model
    }

    /// The number of KVS worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The thread that owns `key` under EREW partitioning (in CRCW mode every
    /// thread may serve every key, but the routing function is still exposed
    /// because the baselines use it for request steering).
    pub fn owner_thread(&self, key: u64) -> usize {
        // Mix then map to the thread count (same mix as the index).
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.threads as u64) as usize
    }

    fn partition_for(&self, thread: usize, key: u64) -> Result<&Partition, KvError> {
        if thread >= self.threads {
            return Err(KvError::InvalidThread {
                thread,
                threads: self.threads,
            });
        }
        match self.model {
            ConcurrencyModel::Crcw => Ok(&self.partitions[0]),
            ConcurrencyModel::Erew => {
                let owner = self.owner_thread(key);
                if owner != thread {
                    return Err(KvError::WrongPartition {
                        owner,
                        accessed_by: thread,
                    });
                }
                Ok(&self.partitions[owner])
            }
        }
    }

    /// Reads `key` from the given KVS thread.
    pub fn get_from_thread(
        &self,
        thread: usize,
        key: u64,
    ) -> Result<Option<VersionedValue>, KvError> {
        Ok(self.partition_for(thread, key)?.get(key).map(Into::into))
    }

    /// Writes `key` from the given KVS thread with an explicit version.
    pub fn put_from_thread(
        &self,
        thread: usize,
        key: u64,
        value: &[u8],
        version: u32,
    ) -> Result<(), KvError> {
        let partition = self.partition_for(thread, key)?;
        partition.put(
            key,
            ObjectHeader {
                clock: version,
                ..ObjectHeader::default()
            },
            value,
        )?;
        Ok(())
    }

    /// Writes `key` only if `version` is newer than the stored version
    /// (used by write-back of evicted cache entries, §4). Returns whether the
    /// write was applied.
    pub fn put_if_newer(
        &self,
        thread: usize,
        key: u64,
        value: &[u8],
        version: u32,
        writer: u8,
    ) -> Result<bool, KvError> {
        let partition = self.partition_for(thread, key)?;
        let newer = |hdr: &mut ObjectHeader, old: &mut Payload<'_>| {
            let newer = (version, writer) > (hdr.clock, hdr.last_writer);
            if newer {
                (hdr.clock, hdr.last_writer) = (version, writer);
                old.truncate(0);
                old.write(0, value);
            }
            newer
        };
        if let Some(applied) = partition.modify(key, newer) {
            return Ok(applied);
        }
        // Key absent: plain insert.
        partition.put(
            key,
            ObjectHeader {
                clock: version,
                last_writer: writer,
                ..ObjectHeader::default()
            },
            value,
        )?;
        Ok(true)
    }

    /// Convenience read that routes to the owning thread automatically.
    pub fn get(&self, key: u64) -> Option<VersionedValue> {
        let thread = match self.model {
            ConcurrencyModel::Crcw => 0,
            ConcurrencyModel::Erew => self.owner_thread(key),
        };
        self.get_from_thread(thread, key)
            .expect("routed access cannot fail")
    }

    /// Convenience write that routes to the owning thread automatically.
    pub fn put(&self, key: u64, value: &[u8], version: u32) -> Result<(), KvError> {
        let thread = match self.model {
            ConcurrencyModel::Crcw => 0,
            ConcurrencyModel::Erew => self.owner_thread(key),
        };
        self.put_from_thread(thread, key, value, version)
    }

    /// Total number of objects stored on this node.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Partition::len).sum()
    }

    /// Whether the node stores no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crcw_allows_any_thread() {
        let kvs = NodeKvs::new(ConcurrencyModel::Crcw, 8, 1024);
        kvs.put_from_thread(0, 1, b"a", 1).unwrap();
        for t in 0..8 {
            assert_eq!(kvs.get_from_thread(t, 1).unwrap().unwrap().value, b"a");
        }
    }

    #[test]
    fn erew_rejects_foreign_thread() {
        let kvs = NodeKvs::new(ConcurrencyModel::Erew, 4, 1024);
        let key = 12345u64;
        let owner = kvs.owner_thread(key);
        kvs.put_from_thread(owner, key, b"v", 1).unwrap();
        let foreign = (owner + 1) % 4;
        match kvs.get_from_thread(foreign, key) {
            Err(KvError::WrongPartition {
                owner: o,
                accessed_by,
            }) => {
                assert_eq!(o, owner);
                assert_eq!(accessed_by, foreign);
            }
            other => panic!("expected EREW violation, got {other:?}"),
        }
    }

    #[test]
    fn invalid_thread_is_reported() {
        let kvs = NodeKvs::new(ConcurrencyModel::Crcw, 2, 64);
        assert!(matches!(
            kvs.get_from_thread(5, 1),
            Err(KvError::InvalidThread {
                thread: 5,
                threads: 2
            })
        ));
    }

    #[test]
    fn put_if_newer_orders_by_timestamp() {
        let kvs = NodeKvs::new(ConcurrencyModel::Crcw, 2, 64);
        assert!(kvs.put_if_newer(0, 7, b"v1", 3, 0).unwrap());
        // Older version is ignored.
        assert!(!kvs.put_if_newer(0, 7, b"stale", 2, 1).unwrap());
        assert_eq!(kvs.get(7).unwrap().value, b"v1");
        // Same clock, larger writer id wins (Lamport tie-break).
        assert!(kvs.put_if_newer(0, 7, b"v2", 3, 1).unwrap());
        assert_eq!(kvs.get(7).unwrap().value, b"v2");
        // Newer clock wins.
        assert!(kvs.put_if_newer(0, 7, b"v3", 4, 0).unwrap());
        let v = kvs.get(7).unwrap();
        assert_eq!(v.value, b"v3");
        assert_eq!(v.version, 4);
    }

    #[test]
    fn routed_access_works_for_both_models() {
        for model in [ConcurrencyModel::Crcw, ConcurrencyModel::Erew] {
            let kvs = NodeKvs::new(model, 4, 4096);
            for k in 0..500u64 {
                kvs.put(k, &k.to_le_bytes(), 1).unwrap();
            }
            assert_eq!(kvs.len(), 500);
            for k in 0..500u64 {
                assert_eq!(kvs.get(k).unwrap().value, k.to_le_bytes());
            }
            assert!(kvs.get(10_000).is_none());
        }
    }

    #[test]
    fn erew_spreads_keys_across_partitions() {
        let kvs = NodeKvs::new(ConcurrencyModel::Erew, 8, 8192);
        let mut per_thread = [0usize; 8];
        for k in 0..4000u64 {
            per_thread[kvs.owner_thread(k)] += 1;
        }
        for (t, c) in per_thread.iter().enumerate() {
            assert!(*c > 300, "thread {t} owns only {c} of 4000 keys");
        }
    }
}
