//! Bucketized set-associative hash index in the spirit of MICA's index.
//!
//! MICA maps each key hash to a bucket with a small fixed number of slots.
//! Its *cache mode* evicts the oldest entry on a bucket overflow (lossy);
//! this index is MICA's *store mode* only — it must not lose keys, so an
//! overflow chain absorbs the spill. The back-end KVS and the symmetric
//! cache both sit on it: a hot key dropped by the index would break the
//! caches' symmetry.

use parking_lot::RwLock;

/// Configuration of a [`BucketIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of buckets (rounded up to a power of two).
    pub buckets: usize,
    /// Number of direct slots per bucket (MICA uses 8 or 15); a full
    /// bucket spills into its overflow chain.
    pub slots_per_bucket: usize,
}

impl IndexConfig {
    /// Configuration sized for roughly `capacity` keys.
    pub fn store_for_capacity(capacity: usize) -> Self {
        let buckets = (capacity / 4).max(1).next_power_of_two();
        Self {
            buckets,
            slots_per_bucket: 8,
        }
    }
}

/// One index entry: key plus the slab slot holding its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    slot: usize,
}

#[derive(Debug, Default)]
struct Bucket {
    /// Direct slots, in insertion order (front = oldest).
    entries: Vec<Entry>,
    /// Overflow chain.
    overflow: Vec<Entry>,
}

/// Outcome of an index insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was inserted into a free slot.
    Inserted,
    /// The key was already present; its slot was updated.
    Updated {
        /// The slot previously associated with the key.
        previous_slot: usize,
    },
}

/// A concurrent bucketized hash index from `u64` keys to slab slots.
#[derive(Debug)]
pub struct BucketIndex {
    config: IndexConfig,
    mask: u64,
    buckets: Vec<RwLock<Bucket>>,
}

impl BucketIndex {
    /// Creates an index with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero buckets or zero slots per bucket.
    pub fn new(config: IndexConfig) -> Self {
        assert!(config.buckets > 0 && config.slots_per_bucket > 0);
        let buckets = config.buckets.next_power_of_two();
        Self {
            config: IndexConfig { buckets, ..config },
            mask: buckets as u64 - 1,
            buckets: (0..buckets)
                .map(|_| RwLock::new(Bucket::default()))
                .collect(),
        }
    }

    /// The effective configuration (bucket count rounded to a power of two).
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    fn bucket_of(&self, key: u64) -> usize {
        // SplitMix64 finalizer to decorrelate adjacent keys.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.mask) as usize
    }

    /// Looks up the slab slot of `key`.
    pub fn lookup(&self, key: u64) -> Option<usize> {
        let bucket = self.buckets[self.bucket_of(key)].read();
        bucket
            .entries
            .iter()
            .chain(bucket.overflow.iter())
            .find(|e| e.key == key)
            .map(|e| e.slot)
    }

    /// Inserts or updates the mapping `key -> slot`.
    pub fn insert(&self, key: u64, slot: usize) -> InsertOutcome {
        let mut bucket = self.buckets[self.bucket_of(key)].write();
        let Bucket { entries, overflow } = &mut *bucket;
        if let Some(e) = entries
            .iter_mut()
            .chain(overflow.iter_mut())
            .find(|e| e.key == key)
        {
            let previous_slot = e.slot;
            e.slot = slot;
            return InsertOutcome::Updated { previous_slot };
        }
        if bucket.entries.len() < self.config.slots_per_bucket {
            bucket.entries.push(Entry { key, slot });
        } else {
            bucket.overflow.push(Entry { key, slot });
        }
        InsertOutcome::Inserted
    }

    /// Removes the mapping for `key`, returning its slot if present.
    pub fn remove(&self, key: u64) -> Option<usize> {
        let mut bucket = self.buckets[self.bucket_of(key)].write();
        if let Some(pos) = bucket.entries.iter().position(|e| e.key == key) {
            let e = bucket.entries.remove(pos);
            // Promote an overflow entry into the freed direct slot, if any.
            if let Some(promoted) = bucket.overflow.pop() {
                bucket.entries.push(promoted);
            }
            return Some(e.slot);
        }
        if let Some(pos) = bucket.overflow.iter().position(|e| e.key == key) {
            return Some(bucket.overflow.remove(pos).slot);
        }
        None
    }

    /// Number of keys currently indexed.
    pub fn len(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                let b = b.read();
                b.entries.len() + b.overflow.len()
            })
            .sum()
    }

    /// Whether the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns all indexed keys (test/diagnostic helper; takes every bucket
    /// read lock in turn).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for b in &self.buckets {
            let b = b.read();
            out.extend(b.entries.iter().chain(b.overflow.iter()).map(|e| e.key));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let idx = BucketIndex::new(IndexConfig::store_for_capacity(1024));
        for k in 0..1000u64 {
            assert_eq!(idx.insert(k, k as usize), InsertOutcome::Inserted);
        }
        assert_eq!(idx.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(idx.lookup(k), Some(k as usize));
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(idx.remove(k), Some(k as usize));
        }
        assert_eq!(idx.len(), 500);
        assert_eq!(idx.lookup(2), None);
        assert_eq!(idx.lookup(3), Some(3));
    }

    #[test]
    fn update_reports_previous_slot() {
        let idx = BucketIndex::new(IndexConfig::store_for_capacity(64));
        idx.insert(7, 1);
        assert_eq!(
            idx.insert(7, 2),
            InsertOutcome::Updated { previous_slot: 1 }
        );
        assert_eq!(idx.lookup(7), Some(2));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn store_mode_never_loses_keys() {
        // Force a tiny index so buckets overflow heavily.
        let idx = BucketIndex::new(
            BucketIndex::new(IndexConfig {
                buckets: 2,
                slots_per_bucket: 2,
            })
            .config(),
        );
        for k in 0..200u64 {
            idx.insert(k, k as usize);
        }
        assert_eq!(idx.len(), 200);
        for k in 0..200u64 {
            assert_eq!(idx.lookup(k), Some(k as usize), "key {k} lost");
        }
    }

    #[test]
    fn removing_missing_key_is_none() {
        let idx = BucketIndex::new(IndexConfig::store_for_capacity(16));
        assert_eq!(idx.remove(5), None);
        assert!(idx.is_empty());
    }

    #[test]
    fn keys_enumerates_everything() {
        let idx = BucketIndex::new(IndexConfig::store_for_capacity(64));
        for k in 0..50u64 {
            idx.insert(k, 0);
        }
        let mut keys = idx.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..50u64).collect::<Vec<_>>());
    }
}
