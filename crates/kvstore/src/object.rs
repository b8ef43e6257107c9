//! Stored objects: the 8-byte metadata header plus the value bytes.
//!
//! §6.2: "Each key-value pair stored in the cache has an 8B header, where the
//! necessary metadata for synchronization and consistency are efficiently
//! maintained. The metadata include: the consistency state (1B, only used in
//! Lin), the version (i.e. Lamport clock, 4B), the id of the last writer
//! (1B), a counter for the received acknowledgements (1B, only used in Lin)
//! and the spinlock required to support the seqlock mechanism (1B)."
//!
//! We keep the header *inside* the seqlock-protected payload (the spinlock
//! byte is subsumed by [`SeqLock`]'s writer lock), so a lock-free read always
//! observes a header and value written by the same critical section — this is
//! exactly the property the paper relies on when it treats consistency
//! messages as writes.

use crate::seqlock::SeqLock;

/// Size in bytes of the serialized object header.
pub const HEADER_BYTES: usize = 8;

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

/// One stored object: header + value under a single seqlock.
#[derive(Debug)]
pub struct StoredObject {
    lock: SeqLock,
}

impl StoredObject {
    /// Creates an object able to hold values of up to `value_capacity` bytes.
    pub fn with_value_capacity(value_capacity: usize) -> Self {
        Self {
            lock: SeqLock::with_capacity(HEADER_BYTES + value_capacity),
        }
    }

    /// Creates an object and initialises it with the given header and value.
    pub fn new(header: ObjectHeader, value: &[u8], value_capacity: usize) -> Self {
        let obj = Self::with_value_capacity(value_capacity.max(value.len()));
        obj.write(header, value);
        obj
    }

    /// Overwrites header and value in one critical section.
    pub fn write(&self, header: ObjectHeader, value: &[u8]) {
        let mut payload = Vec::with_capacity(HEADER_BYTES + value.len());
        payload.extend_from_slice(&header.encode());
        payload.extend_from_slice(value);
        self.lock.write(&payload);
    }

    /// Lock-free consistent read of header + value: one validated copy,
    /// the header onto the stack and the value into the `Vec` returned.
    pub fn read(&self) -> ObjectSnapshot {
        let mut header = [0u8; HEADER_BYTES];
        let mut value = Vec::new();
        let (len, seq_version) = self.lock.read_parts(0, &mut header, Some(&mut value));
        ObjectSnapshot {
            // Never written yet: a default header (and the empty value).
            header: if len < HEADER_BYTES {
                ObjectHeader::default()
            } else {
                ObjectHeader::decode(&header)
            },
            value,
            seq_version,
        }
    }

    /// Lock-free read of the value in two parts, in the same validated
    /// copy: its first bytes into `prefix`, as many as both hold, and —
    /// when `rest` is given — the bytes past those appended to it.
    /// Allocates only what `rest` grows by; returns the value's whole
    /// length.
    pub fn read_value_parts(&self, prefix: &mut [u8], rest: Option<&mut Vec<u8>>) -> usize {
        let (len, _) = self.lock.read_parts(HEADER_BYTES, prefix, rest);
        len.saturating_sub(HEADER_BYTES)
    }

    /// Read-modify-write of header + value in one critical section.
    ///
    /// The closure receives the current header and value and returns the new
    /// header and (optionally) a new value; returning `None` for the value
    /// keeps the existing bytes. The closure's extra return value is passed
    /// back to the caller (used by the cache layer to report protocol
    /// decisions such as "update applied" vs "update stale").
    pub fn modify<T>(
        &self,
        f: impl FnOnce(ObjectHeader, &[u8]) -> (ObjectHeader, Option<Vec<u8>>, T),
    ) -> T {
        self.lock.update(|payload| {
            let (header, value) = if payload.len() >= HEADER_BYTES {
                (
                    ObjectHeader::decode(payload),
                    payload[HEADER_BYTES..].to_vec(),
                )
            } else {
                (ObjectHeader::default(), Vec::new())
            };
            let (new_header, new_value, out) = f(header, &value);
            let value = new_value.unwrap_or(value);
            payload.clear();
            payload.extend_from_slice(&new_header.encode());
            payload.extend_from_slice(&value);
            out
        })
    }

    /// Number of completed writes to this object.
    pub fn write_count(&self) -> u64 {
        self.lock.write_count()
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
        obj.write(h, b"value-bytes");
        let snap = obj.read();
        assert_eq!(snap.header, h);
        assert_eq!(snap.value, b"value-bytes");
        assert_eq!(obj.write_count(), 1);
    }

    #[test]
    fn unwritten_object_reads_as_default() {
        let obj = StoredObject::with_value_capacity(16);
        let snap = obj.read();
        assert_eq!(snap.header, ObjectHeader::default());
        assert!(snap.value.is_empty());
    }

    #[test]
    fn modify_applies_conditionally() {
        let obj = StoredObject::new(
            ObjectHeader {
                state: 0,
                clock: 10,
                last_writer: 2,
                acks: 0,
            },
            b"old",
            16,
        );
        // An "update" with a smaller clock must be rejected by the closure.
        let applied = obj.modify(|hdr, _val| {
            if 8 > hdr.clock {
                (
                    ObjectHeader { clock: 8, ..hdr },
                    Some(b"new".to_vec()),
                    true,
                )
            } else {
                (hdr, None, false)
            }
        });
        assert!(!applied);
        assert_eq!(obj.read().value, b"old");
        // A larger clock is applied.
        let applied = obj.modify(|hdr, _val| {
            (
                ObjectHeader {
                    clock: 42,
                    last_writer: 3,
                    ..hdr
                },
                Some(b"new".to_vec()),
                true,
            )
        });
        assert!(applied);
        let snap = obj.read();
        assert_eq!(snap.value, b"new");
        assert_eq!(snap.header.clock, 42);
        assert_eq!(snap.header.last_writer, 3);
    }

    #[test]
    fn value_can_shrink_and_grow_within_capacity() {
        let obj = StoredObject::with_value_capacity(32);
        obj.write(ObjectHeader::default(), &[1u8; 32]);
        obj.write(ObjectHeader::default(), &[2u8; 4]);
        assert_eq!(obj.read().value, vec![2u8; 4]);
        obj.write(ObjectHeader::default(), &[3u8; 20]);
        assert_eq!(obj.read().value.len(), 20);
    }
}
