//! Sequence locks (seqlocks) in the OPTIK style used by ccKVS (§6.2).
//!
//! "The seqlock is composed of a spinlock and a version. The writer acquires
//! the spinlock and increments the version, goes through its critical
//! section, increments the version again and releases the lock. Meanwhile,
//! the reader never needs to acquire the spinlock; the reader simply checks
//! the version right before entering the critical section and right after
//! exiting. If in either case the version is an odd number, or if the version
//! has changed, then a write has happened concurrently with the read and thus
//! the reader retries."
//!
//! The implementation here stores the protected payload as a sequence of
//! relaxed atomic words so that concurrent readers never race with writers in
//! the Rust memory model (no `unsafe` is required). Torn reads are detected —
//! and retried — through the version check, exactly like the C original.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A sequence lock protecting a variable-length byte payload.
///
/// The version starts at 0 and is odd exactly while a writer is inside the
/// critical section. The version advances by 2 per completed write, so
/// `version / 2` counts writes; ccKVS reuses this counter as the object's
/// Lamport clock.
#[derive(Debug)]
pub struct SeqLock {
    /// Spinlock serialising writers (the 1-byte spinlock of the paper).
    writer_lock: AtomicBool,
    /// Seqlock version; odd while a write is in progress.
    version: AtomicU64,
    /// Payload storage as 8-byte words; capacity fixed at construction.
    words: Vec<AtomicU64>,
    /// Current payload length in bytes.
    len: AtomicUsize,
}

impl SeqLock {
    /// Creates a seqlock able to hold payloads of up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        let nwords = capacity.div_ceil(8).max(1);
        Self {
            writer_lock: AtomicBool::new(false),
            version: AtomicU64::new(0),
            words: (0..nwords).map(|_| AtomicU64::new(0)).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Maximum payload size in bytes.
    pub fn capacity(&self) -> usize {
        self.words.len() * 8
    }

    /// Current (possibly in-flux) version. Even ⇒ no writer inside.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Number of completed writes (the version with the in-progress bit
    /// stripped), usable as a monotonically increasing logical clock.
    pub fn write_count(&self) -> u64 {
        self.version() / 2
    }

    /// Writes `payload` under the seqlock.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the capacity chosen at construction.
    pub fn write(&self, payload: &[u8]) {
        assert!(
            payload.len() <= self.capacity(),
            "payload of {} bytes exceeds seqlock capacity {}",
            payload.len(),
            self.capacity()
        );
        // Acquire the writer spinlock.
        while self
            .writer_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // Enter the critical section: bump version to odd.
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Release);
        // Store the payload word by word.
        for (i, word) in self.words.iter().enumerate() {
            let start = i * 8;
            if start >= payload.len() {
                break;
            }
            let end = (start + 8).min(payload.len());
            let mut buf = [0u8; 8];
            buf[..end - start].copy_from_slice(&payload[start..end]);
            word.store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        self.len.store(payload.len(), Ordering::Relaxed);
        // Leave the critical section: bump version back to even.
        self.version.store(v.wrapping_add(2), Ordering::Release);
        self.writer_lock.store(false, Ordering::Release);
    }

    /// Executes `mutate` on the current payload under the writer lock and
    /// stores the result, all within a single critical section.
    ///
    /// Returns the value produced by `mutate`'s second return element.
    pub fn update<T>(&self, mutate: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        while self
            .writer_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Release);
        let mut current = self.read_unlocked();
        let out = mutate(&mut current);
        assert!(current.len() <= self.capacity());
        for (i, word) in self.words.iter().enumerate() {
            let start = i * 8;
            if start >= current.len() {
                break;
            }
            let end = (start + 8).min(current.len());
            let mut buf = [0u8; 8];
            buf[..end - start].copy_from_slice(&current[start..end]);
            word.store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        self.len.store(current.len(), Ordering::Relaxed);
        self.version.store(v.wrapping_add(2), Ordering::Release);
        self.writer_lock.store(false, Ordering::Release);
        out
    }

    /// Lock-free read: returns a consistent snapshot of the payload together
    /// with the even version observed (the write count at the time of the
    /// snapshot is `version / 2`).
    pub fn read(&self) -> (Vec<u8>, u64) {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snapshot = self.read_unlocked();
            let v2 = self.version.load(Ordering::Acquire);
            if v1 == v2 {
                return (snapshot, v2);
            }
            // A write raced with us; retry.
        }
    }

    /// Lock-free read of the payload bytes from `offset` on into `buf`, as
    /// many as both hold, without allocating; returns the payload's whole
    /// length. For callers that decide on a fixed-size prefix and have no
    /// use for a copy of the rest.
    pub fn read_into(&self, offset: usize, buf: &mut [u8]) -> usize {
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let len = self.len.load(Ordering::Relaxed);
            let end = len.min(offset + buf.len());
            for at in offset..end {
                let word = self.words[at / 8].load(Ordering::Relaxed);
                buf[at - offset] = word.to_le_bytes()[at % 8];
            }
            if self.version.load(Ordering::Acquire) == v1 {
                return len;
            }
        }
    }

    /// Raw payload read without version validation. Only meaningful when the
    /// caller already holds the writer lock or validates the version itself.
    fn read_unlocked(&self) -> Vec<u8> {
        let len = self.len.load(Ordering::Relaxed);
        let mut out = vec![0u8; len];
        for (i, word) in self.words.iter().enumerate() {
            let start = i * 8;
            if start >= len {
                break;
            }
            let end = (start + 8).min(len);
            let bytes = word.load(Ordering::Relaxed).to_le_bytes();
            out[start..end].copy_from_slice(&bytes[..end - start]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_small_payloads() {
        let lock = SeqLock::with_capacity(64);
        lock.write(b"hello world");
        let (bytes, version) = lock.read();
        assert_eq!(bytes, b"hello world");
        assert_eq!(version, 2);
        assert_eq!(lock.write_count(), 1);
    }

    #[test]
    fn read_into_copies_the_asked_window_and_reports_the_whole_length() {
        let lock = SeqLock::with_capacity(64);
        lock.write(b"hello wide world");
        let mut buf = [b'.'; 4];
        assert_eq!(lock.read_into(6, &mut buf), 16);
        assert_eq!(&buf, b"wide");
        // A window past the payload's end fills what exists.
        let mut buf = [b'.'; 8];
        assert_eq!(lock.read_into(11, &mut buf), 16);
        assert_eq!(&buf, b"world...");
        assert_eq!(lock.read_into(40, &mut buf), 16);
        assert_eq!(&buf, b"world...");
    }

    #[test]
    fn versions_advance_by_two_per_write() {
        let lock = SeqLock::with_capacity(16);
        for i in 1..=10u64 {
            lock.write(&i.to_le_bytes());
            assert_eq!(lock.version(), 2 * i);
        }
    }

    #[test]
    fn update_sees_previous_value() {
        let lock = SeqLock::with_capacity(16);
        lock.write(&5u64.to_le_bytes());
        let prev = lock.update(|bytes| {
            let prev = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            bytes.copy_from_slice(&(prev + 1).to_le_bytes());
            prev
        });
        assert_eq!(prev, 5);
        let (bytes, _) = lock.read();
        assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 6);
    }

    #[test]
    fn empty_payload_is_fine() {
        let lock = SeqLock::with_capacity(8);
        lock.write(b"");
        let (bytes, v) = lock.read();
        assert!(bytes.is_empty());
        assert_eq!(v, 2);
    }

    #[test]
    #[should_panic]
    fn oversized_payload_rejected() {
        let lock = SeqLock::with_capacity(8);
        lock.write(&[0u8; 9]);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_writes() {
        // Writers alternate between two patterns; readers must only ever see
        // one of the two complete patterns, never a mix.
        let lock = Arc::new(SeqLock::with_capacity(64));
        let pattern_a = vec![0xAAu8; 48];
        let pattern_b = vec![0x55u8; 48];
        lock.write(&pattern_a);

        let writers: Vec<_> = (0..2)
            .map(|w| {
                let lock = Arc::clone(&lock);
                let a = pattern_a.clone();
                let b = pattern_b.clone();
                std::thread::spawn(move || {
                    for i in 0..5_000 {
                        if (i + w) % 2 == 0 {
                            lock.write(&a);
                        } else {
                            lock.write(&b);
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = pattern_a.clone();
                let b = pattern_b.clone();
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        let (bytes, version) = lock.read();
                        assert!(version % 2 == 0);
                        assert!(
                            bytes == a || bytes == b,
                            "torn read observed: {:?}",
                            &bytes[..8]
                        );
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().expect("no thread panicked");
        }
    }
}
