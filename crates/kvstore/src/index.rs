//! Bucketized hash index in MICA's layout: a bucket is one cache line.
//!
//! A bucket holds a version word (odd while a writer is inside; the
//! compare-and-swap that makes it odd is the bucket's writer lock), a spill
//! count, and four full-key entries inline. A lookup is one
//! version-validated read of that line: no lock, no atomic read-modify-write,
//! no pointer followed. The lines, exactly as many as asked for, are one
//! zero-filled mapping; a key's is picked by a multiply-shift of its mixed
//! hash. MICA's *cache mode* evicts on a full bucket (lossy); this index is
//! MICA's *store mode* only — it must not lose keys, so a full bucket spills
//! into one ordered side map, which a lookup consults only when its bucket's
//! spill count is non-zero. The back-end KVS and the symmetric cache both
//! sit on it: a hot key dropped by the index would break their symmetry.

use crate::mapping::{prefetch, Mapping};
use crate::seqlock::{read_validated, reader_step, write_locked};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Entries in one bucket line.
const ENTRIES: usize = 4;

/// One cache line: version, spill count, and `ENTRIES` entries of a full
/// key and its slab slot plus one (0: the entry is free).
#[derive(Debug)]
#[repr(C, align(64))]
struct Bucket {
    version: AtomicU64,
    spilled: AtomicU64,
    keys: [AtomicU64; ENTRIES],
    slots: [AtomicU32; ENTRIES],
}

const _: () = assert!(size_of::<Bucket>() == 64 && align_of::<Bucket>() == 64);

impl Bucket {
    /// Where `key` sits among the entries, and its slot.
    fn find(&self, key: u64) -> Option<(usize, usize)> {
        (0..ENTRIES).find_map(|i| {
            reader_step();
            if self.keys[i].load(Relaxed) != key {
                return None;
            }
            reader_step();
            let slot = self.slots[i].load(Relaxed);
            (slot != 0).then(|| (i, slot as usize - 1))
        })
    }

    /// Whether some of this bucket's keys live in the side map.
    fn spills(&self) -> bool {
        reader_step();
        self.spilled.load(Relaxed) != 0
    }
}

/// SplitMix64's finalizer: adjacent keys land far apart.
pub(crate) fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `hash`, uniform over `u64`, scaled to `0..n` by one multiply and shift.
fn scale(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
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
    buckets: Mapping<Bucket>,
    /// Entries of full buckets, in key order.
    spill: Mutex<BTreeMap<u64, usize>>,
}

impl BucketIndex {
    /// An index of exactly `buckets` lines.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "an index needs a bucket");
        Self {
            // SAFETY: a bucket's fields are atomic integers: zero is valid.
            buckets: unsafe { Mapping::zeroed(buckets) },
            spill: Mutex::new(BTreeMap::new()),
        }
    }

    fn bucket(&self, key: u64) -> &Bucket {
        &self.buckets[scale(mix(key), self.buckets.len())]
    }

    /// Asks for `key`'s bucket line ahead of a lookup or an insert.
    pub fn prefetch(&self, key: u64) {
        prefetch(self.bucket(key));
    }

    /// Looks up the slab slot of `key`.
    pub fn lookup(&self, key: u64) -> Option<usize> {
        let bucket = self.bucket(key);
        let ((found, spills), _) =
            read_validated(&bucket.version, || (bucket.find(key), bucket.spills()));
        match found {
            Some((_, slot)) => Some(slot),
            None if spills => self.spill.lock().get(&key).copied(),
            None => None,
        }
    }

    /// Inserts or updates the mapping `key -> slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not fit an entry (`u32::MAX` and up).
    pub fn insert(&self, key: u64, slot: usize) -> InsertOutcome {
        let entry = u32::try_from(slot + 1).expect("slot fits an entry");
        let bucket = self.bucket(key);
        write_locked(&bucket.version, || {
            if let Some((i, previous_slot)) = bucket.find(key) {
                bucket.slots[i].store(entry, Relaxed);
                return InsertOutcome::Updated { previous_slot };
            }
            if bucket.spills() {
                if let Some(previous) = self.spill.lock().get_mut(&key) {
                    let previous_slot = std::mem::replace(previous, slot);
                    return InsertOutcome::Updated { previous_slot };
                }
            }
            match (0..ENTRIES).find(|&i| bucket.slots[i].load(Relaxed) == 0) {
                Some(i) => {
                    bucket.keys[i].store(key, Relaxed);
                    bucket.slots[i].store(entry, Relaxed);
                }
                None => {
                    self.spill.lock().insert(key, slot);
                    bucket.spilled.fetch_add(1, Relaxed);
                }
            }
            InsertOutcome::Inserted
        })
    }

    /// Removes the mapping for `key`, returning its slot if present.
    pub fn remove(&self, key: u64) -> Option<usize> {
        let bucket = self.bucket(key);
        write_locked(&bucket.version, || {
            if let Some((i, slot)) = bucket.find(key) {
                bucket.slots[i].store(0, Relaxed);
                return Some(slot);
            }
            if !bucket.spills() {
                return None;
            }
            let slot = self.spill.lock().remove(&key)?;
            bucket.spilled.fetch_sub(1, Relaxed);
            Some(slot)
        })
    }

    /// All indexed keys, in an order fixed by the keys and the sequence of
    /// inserts and removes alone: bucket by bucket, then the spilled ones
    /// in key order.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for bucket in self.buckets.iter() {
            let (entries, _) = read_validated(&bucket.version, || {
                std::array::from_fn::<_, ENTRIES, _>(|i| {
                    (bucket.slots[i].load(Relaxed) != 0).then(|| bucket.keys[i].load(Relaxed))
                })
            });
            out.extend(entries.into_iter().flatten());
        }
        out.extend(self.spill.lock().keys());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqlock::READER_STEP;
    use proptest::prelude::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let idx = BucketIndex::new(1024);
        for k in 0..1000u64 {
            assert_eq!(idx.insert(k, k as usize), InsertOutcome::Inserted);
        }
        assert_eq!(idx.keys().len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(idx.lookup(k), Some(k as usize));
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(idx.remove(k), Some(k as usize));
        }
        assert_eq!(idx.keys().len(), 500);
        assert_eq!(idx.lookup(2), None);
        assert_eq!(idx.lookup(3), Some(3));
    }

    #[test]
    fn update_reports_previous_slot() {
        let idx = BucketIndex::new(64);
        idx.insert(7, 1);
        assert_eq!(
            idx.insert(7, 2),
            InsertOutcome::Updated { previous_slot: 1 }
        );
        assert_eq!(idx.lookup(7), Some(2));
        assert_eq!(idx.keys().len(), 1);
    }

    #[test]
    fn store_mode_never_loses_keys() {
        // Force a tiny index so buckets overflow heavily.
        let idx = BucketIndex::new(2);
        for k in 0..200u64 {
            idx.insert(k, k as usize);
        }
        assert_eq!(idx.keys().len(), 200);
        for k in 0..200u64 {
            assert_eq!(idx.lookup(k), Some(k as usize), "key {k} lost");
        }
        // Spilled keys update and leave like the others.
        for k in 0..200u64 {
            let previous_slot = k as usize;
            assert_eq!(
                idx.insert(k, 1000),
                InsertOutcome::Updated { previous_slot }
            );
        }
        for k in (0..200u64).step_by(3) {
            assert_eq!(idx.remove(k), Some(1000));
        }
        for k in 0..200u64 {
            let want = (k % 3 != 0).then_some(1000);
            assert_eq!(idx.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn removing_missing_key_is_none() {
        let idx = BucketIndex::new(16);
        assert_eq!(idx.remove(5), None);
        assert!(idx.keys().is_empty());
    }

    #[test]
    fn keys_enumerates_everything() {
        let idx = BucketIndex::new(64);
        for k in 0..50u64 {
            idx.insert(k, 0);
        }
        let mut keys = idx.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..50u64).collect::<Vec<_>>());
    }

    /// Bucket counts that are no power of two: one line (everything past
    /// its four entries spills), three, and the 100 000-capacity store's
    /// 50 000. Every key goes in, is found, leaves, and is listed once.
    #[test]
    fn any_bucket_count_round_trips_through_full_buckets_and_the_spill_map() {
        for buckets in [1, 3, 50_000] {
            let idx = BucketIndex::new(buckets);
            assert_eq!(idx.buckets.len(), buckets);
            let n = (4 * buckets as u64 + 40).max(200);
            for k in 0..n {
                assert_eq!(idx.insert(k, k as usize), InsertOutcome::Inserted);
            }
            assert!(
                !idx.spill.lock().is_empty(),
                "{buckets} buckets: some spill"
            );
            let mut keys = idx.keys();
            keys.sort_unstable();
            assert_eq!(keys, (0..n).collect::<Vec<_>>(), "{buckets} buckets");
            for k in 0..n {
                assert_eq!(
                    idx.lookup(k),
                    Some(k as usize),
                    "{buckets} buckets: key {k}"
                );
            }
            for k in (0..n).step_by(2) {
                assert_eq!(idx.remove(k), Some(k as usize));
            }
            for k in 0..n {
                let want = (k % 2 == 1).then_some(k as usize);
                assert_eq!(idx.lookup(k), want, "{buckets} buckets: key {k}");
            }
            let mut keys = idx.keys();
            keys.sort_unstable();
            assert_eq!(keys, (1..n).step_by(2).collect::<Vec<_>>());
        }
    }

    /// Two spill-heavy indexes built by the same inserts and removes list
    /// their keys in the same order.
    #[test]
    fn spilled_keys_iterate_in_a_fixed_order() {
        let build = || {
            let idx = BucketIndex::new(2);
            for k in (0..300u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                idx.insert(k, 1);
            }
            for k in (0..300u64).step_by(7) {
                idx.remove(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            idx.keys()
        };
        let keys = build();
        assert_eq!(keys.len(), 300 - 43);
        assert_eq!(keys, build());
    }

    /// Entries as a writer of one bucket leaves them: key and slot words.
    type Line = [(u64, u32); ENTRIES];

    fn line_of(idx: &BucketIndex) -> Line {
        let bucket = &idx.buckets[0];
        std::array::from_fn(|i| (bucket.keys[i].load(Relaxed), bucket.slots[i].load(Relaxed)))
    }

    /// A writer of a one-bucket index taken apart into its stores: it
    /// copies each line the real `insert` and `remove` produced on a twin
    /// index, slot word before key word (the order that pairs a new slot
    /// with an old key), between an odd and an even version.
    struct ScriptedWriter {
        idx: std::rc::Rc<BucketIndex>,
        lines: std::vec::IntoIter<Line>,
        line: Option<Line>,
        /// 0: outside; 1: version odd; 2 + k: word k stored.
        stage: usize,
    }

    impl ScriptedWriter {
        fn step(&mut self) {
            let bucket = &self.idx.buckets[0];
            let v = bucket.version.load(Relaxed);
            match (self.stage, self.line) {
                (0, _) => match self.lines.next() {
                    Some(line) => {
                        self.line = Some(line);
                        bucket.version.store(v + 1, Relaxed);
                        std::sync::atomic::fence(std::sync::atomic::Ordering::Release);
                    }
                    None => return,
                },
                (s, Some(line)) if s <= 2 * ENTRIES => {
                    let (key, slot) = line[(s - 1) / 2];
                    if s % 2 == 1 {
                        bucket.slots[(s - 1) / 2].store(slot, Relaxed);
                    } else {
                        bucket.keys[(s - 1) / 2].store(key, Relaxed);
                    }
                }
                _ => {
                    bucket
                        .version
                        .store(v + 1, std::sync::atomic::Ordering::Release);
                    self.stage = 0;
                    return;
                }
            }
            self.stage += 1;
        }
    }

    /// Keys of the scripted race: key `k` only ever holds slots
    /// `100 * k ..`, so a slot names the key it belongs to.
    const RACED: u64 = 1;

    proptest! {
        /// The multiply-shift puts every hash in range for every bucket
        /// count, the extremes of both included.
        #[test]
        fn every_hash_scales_into_range(hash in any::<u64>(), n in 1..usize::MAX) {
            for hash in [0, hash, u64::MAX] {
                for n in [1, n, usize::MAX] {
                    prop_assert!(scale(hash, n) < n, "hash {} of {} buckets", hash, n);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A lookup of one key, raced store by store by inserts, updates
        /// and removes of it and of the keys sharing its line — a removed
        /// entry reused by another key included — returns a slot that key
        /// held, or none; never another key's slot.
        #[test]
        fn a_lookup_raced_by_a_scripted_writer_returns_a_slot_of_its_key(
            ops in prop::collection::vec((0u64..4, any::<bool>()), 1..24),
            script in prop::collection::vec(0u8..4, 0..60),
        ) {
            let twin = BucketIndex::new(1);
            let idx = std::rc::Rc::new(BucketIndex::new(1));
            twin.insert(RACED, 100);
            idx.insert(RACED, 100);
            let mut held = vec![100];
            let mut lines = Vec::new();
            for (n, &(key, insert)) in ops.iter().enumerate() {
                let slot = 100 * key as usize + n + 1;
                if insert {
                    twin.insert(key, slot);
                    if key == RACED {
                        held.push(slot);
                    }
                } else {
                    twin.remove(key);
                }
                lines.push(line_of(&twin));
            }
            let mut writer = ScriptedWriter {
                idx: std::rc::Rc::clone(&idx),
                lines: lines.into_iter(),
                line: None,
                stage: 0,
            };
            let mut script = script.into_iter();
            READER_STEP.with(|cell| {
                *cell.borrow_mut() = Some(Box::new(move || match script.next() {
                    Some(steps) => (0..steps).for_each(|_| writer.step()),
                    None => while writer.stage != 0 {
                        writer.step();
                    },
                }));
            });
            let found = idx.lookup(RACED);
            READER_STEP.with(|cell| *cell.borrow_mut() = None);
            if let Some(slot) = found {
                prop_assert!(held.contains(&slot), "slot {} was never key {}'s: {:?}", slot, RACED, held);
            }
        }
    }
}
