//! A single store partition: index + object slab.
//!
//! A partition is the unit of EREW ownership (one partition per KVS thread)
//! and, in CRCW mode, the single structure shared by all threads of a node.
//! Objects live inline in one pre-allocated slab of words, a fixed stride
//! apart (mirroring MICA's circular log / pre-registered memory; RDMA NICs
//! need registered buffers), and are reached through the [`BucketIndex`].

use crate::index::{BucketIndex, InsertOutcome};
use crate::object::{ObjectHeader, ObjectSnapshot, StoredObject};
use crate::seqlock::{zeroed_words, Payload};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

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
    /// Every object, `stride` words each.
    slab: Box<[AtomicU64]>,
    stride: usize,
    /// Free slots: those from `fresh` on, never handed out, and those
    /// `remove` recycled.
    fresh: AtomicUsize,
    recycled: Mutex<Vec<usize>>,
    value_capacity: usize,
    len: AtomicUsize,
}

impl Partition {
    /// Creates a partition with room for `capacity` objects of up to
    /// `value_capacity` bytes each. The back-end shards and the symmetric
    /// cache are both built this way: the index never drops a key.
    pub fn new(capacity: usize, value_capacity: usize) -> Self {
        assert!(capacity > 0, "partition must hold at least one object");
        let stride = StoredObject::words_for(value_capacity);
        Self {
            // Two keys a line on average when full: few buckets spill.
            index: BucketIndex::new(capacity.div_ceil(2)),
            slab: zeroed_words(capacity * stride),
            stride,
            fresh: AtomicUsize::new(0),
            recycled: Mutex::new(Vec::new()),
            value_capacity,
            len: AtomicUsize::new(0),
        }
    }

    /// Maximum number of objects.
    pub fn capacity(&self) -> usize {
        self.slab.len() / self.stride
    }

    /// Number of objects currently stored.
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.index.lookup(key).is_some()
    }

    fn slot(&self, slot: usize) -> &StoredObject {
        StoredObject::from_words(&self.slab[slot * self.stride..][..self.stride])
    }

    /// The object the index maps `key` to. Its slot may be recycled for
    /// another key before it is read, so every access passes the key.
    pub fn object(&self, key: u64) -> Option<&StoredObject> {
        let object = self.slot(self.index.lookup(key)?);
        #[cfg(test)]
        looked_up();
        Some(object)
    }

    /// Lock-free read of `key`.
    pub fn get(&self, key: u64) -> Option<ObjectSnapshot> {
        self.object(key)?.read(key)
    }

    /// Inserts or overwrites `key` with the given header and value.
    pub fn put(&self, key: u64, header: ObjectHeader, value: &[u8]) -> Result<(), PartitionError> {
        if value.len() > self.value_capacity {
            return Err(PartitionError::ValueTooLarge {
                capacity: self.value_capacity,
                attempted: value.len(),
            });
        }
        let overwrite = |stored: &mut ObjectHeader, bytes: &mut Payload<'_>| {
            *stored = header;
            bytes.truncate(0);
            bytes.write(0, value);
        };
        if self.modify(key, overwrite).is_some() {
            return Ok(());
        }
        let fresh = |n| (n < self.capacity()).then_some(n + 1);
        let slot = (self.recycled.lock().pop())
            .or_else(|| self.fresh.fetch_update(Relaxed, Relaxed, fresh).ok())
            .ok_or(PartitionError::CapacityExceeded)?;
        self.slot(slot).write(key, header, value);
        match self.index.insert(key, slot) {
            InsertOutcome::Inserted => {
                self.len.fetch_add(1, Relaxed);
            }
            InsertOutcome::Updated { previous_slot } => {
                // A concurrent insert of the same key won the race; recycle
                // our slot and keep theirs... except insert() replaced their
                // slot with ours, so recycle the previous one instead.
                self.recycled.lock().push(previous_slot);
            }
        }
        Ok(())
    }

    /// Read-modify-write of an existing key, in place under the object's
    /// writer lock: `f` edits its header and value. `None` if absent.
    pub fn modify<T>(
        &self,
        key: u64,
        f: impl FnOnce(&mut ObjectHeader, &mut Payload<'_>) -> T,
    ) -> Option<T> {
        self.object(key)?.modify(key, f)
    }

    /// Removes `key`, returning its last snapshot if it was present.
    pub fn remove(&self, key: u64) -> Option<ObjectSnapshot> {
        let slot = self.index.remove(key)?;
        let snap = self.slot(slot).read(key);
        self.recycled.lock().push(slot);
        self.len.fetch_sub(1, Relaxed);
        snap
    }

    /// All keys currently stored (diagnostic helper).
    pub fn keys(&self) -> Vec<u64> {
        self.index.keys()
    }
}

/// Test hook: runs between a read's index lookup and its object read, so
/// that the slot can be recycled at exactly that point on one thread.
#[cfg(test)]
fn looked_up() {
    if let Some(hook) = LOOKED_UP.with(|cell| cell.borrow_mut().take()) {
        hook();
    }
}

#[cfg(test)]
thread_local! {
    static LOOKED_UP: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
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
        assert!(p.modify(7, |_, _| ()).is_none());
    }

    /// Between a reader's index lookup and its read, the key is removed
    /// and its slot refilled with another key: the read misses instead of
    /// returning the other key's value.
    #[test]
    fn a_read_of_a_recycled_slot_misses() {
        use std::rc::Rc;
        let p = Rc::new(Partition::new(1, 8));
        type Read = fn(&Partition) -> Option<Vec<u8>>;
        let reads: [Read; 3] = [
            |p| p.get(1).map(|snap| snap.value),
            |p| {
                p.object(1)?
                    .read_value_parts(1, &mut [0; 2], None)
                    .map(|_| vec![])
            },
            |p| p.modify(1, |_, value| value.to_vec(0)),
        ];
        for read in reads {
            p.put(1, header(1), b"one").unwrap();
            let recycler = Rc::clone(&p);
            LOOKED_UP.with(|cell| {
                *cell.borrow_mut() = Some(Box::new(move || {
                    assert!(recycler.remove(1).is_some());
                    recycler.put(2, header(2), b"two").unwrap();
                }));
            });
            assert_eq!(read(&p), None);
            assert_eq!(p.get(2).unwrap().value, b"two", "the slot is key 2's");
            p.remove(2);
        }
    }

    #[test]
    fn slots_come_from_a_bump_counter_then_from_the_recycled_ones() {
        let p = Partition::new(1000, 64);
        assert_eq!(p.fresh.load(Relaxed), 0);
        for k in 0..10u64 {
            p.put(k, header(0), b"x").unwrap();
        }
        p.remove(3);
        p.put(99, header(0), b"y").unwrap();
        assert_eq!(p.fresh.load(Relaxed), 10, "the freed slot is reused");
        assert!(p.recycled.lock().is_empty());
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
