//! A single store partition: index + object slab.
//!
//! A partition is the unit of EREW ownership (one partition per KVS thread)
//! and, in CRCW mode, the single structure shared by all threads of a node.
//! Objects live in a pre-allocated slab (mirroring MICA's circular log /
//! pre-registered memory; RDMA NICs need registered buffers) and are reached
//! through the [`BucketIndex`].

use crate::index::{BucketIndex, IndexConfig, InsertOutcome};
use crate::object::{ObjectHeader, ObjectSnapshot, StoredObject};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Errors returned by partition operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// The slab has no free slot for a new object.
    CapacityExceeded,
    /// The value is larger than the per-object capacity of this partition.
    ValueTooLarge {
        /// Maximum supported value size.
        capacity: usize,
        /// Size that was attempted.
        attempted: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::CapacityExceeded => write!(f, "partition slab is full"),
            PartitionError::ValueTooLarge {
                capacity,
                attempted,
            } => write!(
                f,
                "value of {attempted} B exceeds object capacity {capacity} B"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A store partition holding up to `capacity` objects of bounded size.
#[derive(Debug)]
pub struct Partition {
    index: BucketIndex,
    slab: Vec<StoredObject>,
    free: Mutex<Vec<usize>>,
    value_capacity: usize,
    len: AtomicUsize,
}

impl Partition {
    /// Creates a partition with room for `capacity` objects of up to
    /// `value_capacity` bytes each. The back-end shards and the symmetric
    /// cache are both built this way: the index never drops a key.
    pub fn new(capacity: usize, value_capacity: usize) -> Self {
        assert!(capacity > 0, "partition must hold at least one object");
        Self {
            index: BucketIndex::new(IndexConfig::store_for_capacity(capacity)),
            slab: (0..capacity)
                .map(|_| StoredObject::with_value_capacity(value_capacity))
                .collect(),
            free: Mutex::new((0..capacity).rev().collect()),
            value_capacity,
            len: AtomicUsize::new(0),
        }
    }

    /// Maximum number of objects.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }

    /// Maximum value size per object.
    pub fn value_capacity(&self) -> usize {
        self.value_capacity
    }

    /// Number of objects currently stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.index.lookup(key).is_some()
    }

    /// The stored object of `key`, if present.
    pub fn object(&self, key: u64) -> Option<&StoredObject> {
        Some(&self.slab[self.index.lookup(key)?])
    }

    /// Lock-free read of `key`.
    pub fn get(&self, key: u64) -> Option<ObjectSnapshot> {
        self.object(key).map(StoredObject::read)
    }

    /// Inserts or overwrites `key` with the given header and value.
    pub fn put(&self, key: u64, header: ObjectHeader, value: &[u8]) -> Result<(), PartitionError> {
        if value.len() > self.value_capacity {
            return Err(PartitionError::ValueTooLarge {
                capacity: self.value_capacity,
                attempted: value.len(),
            });
        }
        if let Some(slot) = self.index.lookup(key) {
            self.slab[slot].write(header, value);
            return Ok(());
        }
        let slot = {
            let mut free = self.free.lock();
            free.pop().ok_or(PartitionError::CapacityExceeded)?
        };
        self.slab[slot].write(header, value);
        match self.index.insert(key, slot) {
            InsertOutcome::Inserted => {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            InsertOutcome::Updated { previous_slot } => {
                // A concurrent insert of the same key won the race; recycle
                // our slot and keep theirs... except insert() replaced their
                // slot with ours, so recycle the previous one instead.
                self.free.lock().push(previous_slot);
            }
        }
        Ok(())
    }

    /// Read-modify-write on an existing key. Returns `None` if absent.
    pub fn modify<T>(
        &self,
        key: u64,
        f: impl FnOnce(ObjectHeader, &[u8]) -> (ObjectHeader, Option<Vec<u8>>, T),
    ) -> Option<T> {
        self.object(key).map(|object| object.modify(f))
    }

    /// Removes `key`, returning its last snapshot if it was present.
    pub fn remove(&self, key: u64) -> Option<ObjectSnapshot> {
        let slot = self.index.remove(key)?;
        let snap = self.slab[slot].read();
        self.free.lock().push(slot);
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(snap)
    }

    /// All keys currently stored (diagnostic helper).
    pub fn keys(&self) -> Vec<u64> {
        self.index.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(clock: u32) -> ObjectHeader {
        ObjectHeader {
            clock,
            ..ObjectHeader::default()
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let p = Partition::new(128, 40);
        p.put(1, header(1), b"one").unwrap();
        p.put(2, header(2), b"two").unwrap();
        assert_eq!(p.get(1).unwrap().value, b"one");
        assert_eq!(p.get(2).unwrap().header.clock, 2);
        assert_eq!(p.len(), 2);
        assert!(p.contains(1));
        assert!(!p.contains(3));
    }

    #[test]
    fn overwrite_keeps_len_stable() {
        let p = Partition::new(16, 16);
        p.put(9, header(1), b"a").unwrap();
        p.put(9, header(2), b"b").unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(9).unwrap().value, b"b");
        assert_eq!(p.get(9).unwrap().header.clock, 2);
    }

    #[test]
    fn capacity_exhaustion_is_reported() {
        let p = Partition::new(4, 8);
        for k in 0..4u64 {
            p.put(k, header(0), b"x").unwrap();
        }
        assert_eq!(
            p.put(99, header(0), b"x"),
            Err(PartitionError::CapacityExceeded)
        );
    }

    #[test]
    fn oversized_value_is_rejected() {
        let p = Partition::new(4, 8);
        let err = p.put(1, header(0), &[0u8; 64]).unwrap_err();
        assert!(matches!(err, PartitionError::ValueTooLarge { .. }));
    }

    #[test]
    fn remove_frees_capacity() {
        let p = Partition::new(2, 8);
        p.put(1, header(0), b"a").unwrap();
        p.put(2, header(0), b"b").unwrap();
        assert!(p.remove(1).is_some());
        assert_eq!(p.len(), 1);
        // The freed slot is reusable.
        p.put(3, header(0), b"c").unwrap();
        assert_eq!(p.get(3).unwrap().value, b"c");
        assert!(p.remove(99).is_none());
    }

    #[test]
    fn modify_absent_key_is_none() {
        let p = Partition::new(4, 8);
        assert!(p.modify(7, |h, _| (h, None, ())).is_none());
    }

    #[test]
    fn concurrent_puts_and_gets_are_consistent() {
        use std::sync::Arc;
        let p = Arc::new(Partition::new(1024, 16));
        let keys: Vec<u64> = (0..64).collect();
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let p = Arc::clone(&p);
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for round in 0..200u32 {
                        for &k in &keys {
                            let val = (u64::from(round) << 8 | w).to_le_bytes();
                            p.put(k, header(round), &val).unwrap();
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                let keys = keys.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        for &k in &keys {
                            if let Some(snap) = p.get(k) {
                                assert_eq!(snap.value.len(), 8, "value must never be torn");
                            }
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        assert_eq!(p.len(), 64);
    }
}
