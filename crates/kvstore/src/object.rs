//! Stored objects: the key, the 8-byte metadata header and the value, inline
//! under one seqlock.
//!
//! §6.2: "Each key-value pair stored in the cache has an 8B header, where the
//! necessary metadata for synchronization and consistency are efficiently
//! maintained. The metadata include: the consistency state (1B, only used in
//! Lin), the version (i.e. Lamport clock, 4B), the id of the last writer
//! (1B), a counter for the received acknowledgements (1B, only used in Lin)
//! and the spinlock required to support the seqlock mechanism (1B)."
//!
//! An object is a run of slab words: the seqlock's version (the spinlock
//! byte's role) and length, the key, the header and the value. A lock-free
//! read observes a header and value of one critical section — what the
//! paper relies on when it treats consistency messages as writes — and
//! their key: a slot recycled for another key between a reader's lookup and
//! its read is a key mismatch in the validated copy, read as a miss.

use crate::seqlock::{Payload, SeqLock};
use std::sync::atomic::AtomicU64;

/// Size in bytes of the serialized object header.
pub const HEADER_BYTES: usize = 8;

/// Payload bytes before the value: the key, then the header.
const PREFIX: usize = 8 + HEADER_BYTES;

/// The 8-byte per-object metadata header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObjectHeader {
    /// Consistency-protocol state (raw; interpreted by the cache layer).
    /// 0 = Valid for plain KVS objects.
    pub state: u8,
    /// Lamport clock / object version (4 bytes in the paper).
    pub clock: u32,
    /// Node id of the last writer (Lamport timestamp tie-breaker).
    pub last_writer: u8,
    /// Count of invalidation acknowledgements received (Lin only).
    pub acks: u8,
}

impl ObjectHeader {
    /// Serializes the header into its 8-byte wire/storage format.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0] = self.state;
        out[1..5].copy_from_slice(&self.clock.to_le_bytes());
        out[5] = self.last_writer;
        out[6] = self.acks;
        // out[7] is the spinlock byte in the paper; unused here (the seqlock
        // carries the writer lock) and kept as padding for size fidelity.
        out
    }

    /// Parses a header from its 8-byte storage format.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`HEADER_BYTES`].
    pub fn decode(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= HEADER_BYTES, "header truncated");
        Self {
            state: bytes[0],
            clock: u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")),
            last_writer: bytes[5],
            acks: bytes[6],
        }
    }

    /// The Lamport timestamp (clock, writer) as a totally ordered pair.
    pub fn timestamp(&self) -> (u32, u8) {
        (self.clock, self.last_writer)
    }
}

/// A snapshot of an object as returned by a lock-free read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSnapshot {
    /// Decoded metadata header.
    pub header: ObjectHeader,
    /// Value bytes.
    pub value: Vec<u8>,
    /// Seqlock version at the time of the read (even; advances by 2/write).
    pub seq_version: u64,
}

/// One stored object: key, header and value under a single seqlock, a view
/// into its slab (`Box<StoredObject>` is the owned form).
#[derive(Debug)]
#[repr(transparent)]
pub struct StoredObject(SeqLock);

impl StoredObject {
    /// Words an object with values of up to `value_capacity` bytes takes.
    pub(crate) fn words_for(value_capacity: usize) -> usize {
        SeqLock::words_for(PREFIX + value_capacity)
    }

    /// An owned object able to hold values of up to `value_capacity` bytes.
    pub fn with_value_capacity(value_capacity: usize) -> Box<Self> {
        let lock = SeqLock::with_capacity(PREFIX + value_capacity);
        // SAFETY: `StoredObject` is `repr(transparent)` over `SeqLock`: same
        // layout and slice-length metadata, so the box frees what it got.
        unsafe { Box::from_raw(Box::into_raw(lock) as *mut Self) }
    }

    /// The object laid out in `words` (see [`StoredObject::words_for`]).
    pub(crate) fn from_words(words: &[AtomicU64]) -> &Self {
        // SAFETY: same layout as in `with_value_capacity`; `words`' lifetime.
        unsafe { &*(SeqLock::from_words(words) as *const SeqLock as *const Self) }
    }

    /// Makes this the object of `key`, with the given header and value, in
    /// one critical section.
    pub fn write(&self, key: u64, header: ObjectHeader, value: &[u8]) {
        self.0.update(|payload| {
            payload.truncate(0);
            payload.write(0, &key.to_le_bytes());
            payload.write(8, &header.encode());
            payload.write(PREFIX, value);
        });
    }

    /// Lock-free consistent read of `key`'s header and value; `None` if
    /// the object holds another key (or none).
    pub fn read(&self, key: u64) -> Option<ObjectSnapshot> {
        let (parts, seq_version) = self.0.read_with(|payload| {
            let (header, value) = Self::parts(key, payload)?;
            Some((header, value.to_vec(0)))
        });
        let (header, value) = parts?;
        Some(ObjectSnapshot {
            header,
            value,
            seq_version,
        })
    }

    /// Lock-free read of `key`'s value in two parts, in one validated
    /// copy: its first bytes into `prefix`, as many as both hold, and —
    /// when `rest` is given — the bytes past those into it. Returns the
    /// value's whole length; `None` if the object holds another key.
    pub fn read_value_parts(
        &self,
        key: u64,
        prefix: &mut [u8],
        mut rest: Option<&mut Vec<u8>>,
    ) -> Option<usize> {
        self.0
            .read_with(|payload| {
                let (_, value) = Self::parts(key, payload)?;
                value.read(0, prefix);
                if let Some(rest) = rest.as_deref_mut() {
                    *rest = value.to_vec(prefix.len());
                }
                Some(value.len())
            })
            .0
    }

    /// Read-modify-write of `key`'s header and value, in place, in one
    /// critical section: `f` edits both. `None` (and `f` not run) if the
    /// object holds another key.
    pub fn modify<T>(
        &self,
        key: u64,
        f: impl FnOnce(&mut ObjectHeader, &mut Payload<'_>) -> T,
    ) -> Option<T> {
        self.0.update(|payload| {
            let (mut header, mut value) = Self::parts(key, payload)?;
            let out = f(&mut header, &mut value);
            payload.write(8, &header.encode());
            Some(out)
        })
    }

    /// The header and the value of `payload` if it is `key`'s object.
    fn parts<'a>(key: u64, payload: &'a Payload<'_>) -> Option<(ObjectHeader, Payload<'a>)> {
        let mut prefix = [0u8; PREFIX];
        let ours = payload.read(0, &mut prefix) == PREFIX && prefix[..8] == key.to_le_bytes();
        ours.then(|| (ObjectHeader::decode(&prefix[8..]), payload.skip(PREFIX)))
    }

    /// Number of completed writes to this object.
    pub fn write_count(&self) -> u64 {
        self.0.write_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = ObjectHeader {
            state: 2,
            clock: 0xDEAD_BEEF,
            last_writer: 7,
            acks: 3,
        };
        assert_eq!(ObjectHeader::decode(&h.encode()), h);
        assert_eq!(h.encode().len(), HEADER_BYTES);
        assert_eq!(h.timestamp(), (0xDEAD_BEEF, 7));
    }

    #[test]
    fn object_write_and_read() {
        let obj = StoredObject::with_value_capacity(40);
        let h = ObjectHeader {
            state: 0,
            clock: 5,
            last_writer: 1,
            acks: 0,
        };
        obj.write(9, h, b"value-bytes");
        let snap = obj.read(9).expect("key 9's object");
        assert_eq!(snap.header, h);
        assert_eq!(snap.value, b"value-bytes");
        assert_eq!(obj.write_count(), 1);
    }

    #[test]
    fn reads_of_another_key_miss() {
        let obj = StoredObject::with_value_capacity(16);
        assert_eq!(obj.read(0), None, "never written");
        obj.write(3, ObjectHeader::default(), b"three");
        assert_eq!(obj.read(4), None);
        assert_eq!(obj.read_value_parts(4, &mut [0; 2], None), None);
        assert_eq!(obj.modify(4, |_, _| ()), None);
        let mut prefix = [0; 2];
        let mut rest = Vec::new();
        assert_eq!(
            obj.read_value_parts(3, &mut prefix, Some(&mut rest)),
            Some(5)
        );
        assert_eq!((&prefix, rest.as_slice()), (b"th", b"ree".as_slice()));
    }

    #[test]
    fn modify_applies_conditionally() {
        let obj = StoredObject::with_value_capacity(16);
        let old = ObjectHeader {
            state: 0,
            clock: 10,
            last_writer: 2,
            acks: 0,
        };
        obj.write(1, old, b"old");
        // An "update" with a smaller clock must be rejected by the closure.
        let update = |clock, writer| {
            move |hdr: &mut ObjectHeader, value: &mut Payload<'_>| {
                let newer = clock > hdr.clock;
                if newer {
                    (hdr.clock, hdr.last_writer) = (clock, writer);
                    value.truncate(0);
                    value.write(0, b"new");
                }
                newer
            }
        };
        assert_eq!(obj.modify(1, update(8, 3)), Some(false));
        assert_eq!(obj.read(1).unwrap().value, b"old");
        // A larger clock is applied.
        assert_eq!(obj.modify(1, update(42, 3)), Some(true));
        let snap = obj.read(1).unwrap();
        assert_eq!(snap.value, b"new");
        assert_eq!(snap.header.clock, 42);
        assert_eq!(snap.header.last_writer, 3);
    }

    #[test]
    fn value_can_shrink_and_grow_within_capacity() {
        let obj = StoredObject::with_value_capacity(32);
        obj.write(1, ObjectHeader::default(), &[1u8; 32]);
        obj.write(1, ObjectHeader::default(), &[2u8; 4]);
        assert_eq!(obj.read(1).unwrap().value, vec![2u8; 4]);
        obj.write(1, ObjectHeader::default(), &[3u8; 20]);
        assert_eq!(obj.read(1).unwrap().value.len(), 20);
    }
}
