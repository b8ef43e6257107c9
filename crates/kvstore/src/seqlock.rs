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
        let v = self.enter();
        self.store_and_leave(v, payload);
    }

    /// Executes `mutate` on the current payload under the writer lock and
    /// stores the result, all within a single critical section.
    ///
    /// Returns the value produced by `mutate`.
    pub fn update<T>(&self, mutate: impl FnOnce(&mut Vec<u8>) -> T) -> T {
        let v = self.enter();
        // Under the writer lock nothing moves: the copy needs no check.
        let mut current = vec![0; self.len.load(Ordering::Relaxed)];
        self.copy_out(0, &mut current);
        let out = mutate(&mut current);
        assert!(current.len() <= self.capacity());
        self.store_and_leave(v, &current);
        out
    }

    /// Acquires the writer spinlock and enters the critical section (bumps
    /// the version to odd); returns the version found.
    fn enter(&self) -> u64 {
        while self
            .writer_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v.wrapping_add(1), Ordering::Release);
        v
    }

    /// Stores `payload` word by word, leaves the critical section entered
    /// at version `v` (bumps the version back to even) and unlocks.
    fn store_and_leave(&self, v: u64, payload: &[u8]) {
        for (word, chunk) in self.words.iter().zip(payload.chunks(8)) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            word.store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
        self.len.store(payload.len(), Ordering::Relaxed);
        self.version.store(v.wrapping_add(2), Ordering::Release);
        self.writer_lock.store(false, Ordering::Release);
    }

    /// Lock-free read: returns a consistent snapshot of the payload together
    /// with the even version observed (the write count at the time of the
    /// snapshot is `version / 2`).
    pub fn read(&self) -> (Vec<u8>, u64) {
        let mut snapshot = Vec::new();
        let (_, version) = self.read_parts(0, &mut [], Some(&mut snapshot));
        (snapshot, version)
    }

    /// The lock-free read every reader sits on: one validated pass that
    /// skips `skip` payload bytes, fills `head` (fixed-size, the caller's
    /// stack) with the next ones and — when a `tail` is given — appends
    /// everything past `head` to it. A pass that raced a writer is thrown
    /// away and repeated. Returns the payload's whole length and the even
    /// version the pass observed; `head` past the payload's end holds
    /// nothing meaningful.
    pub fn read_parts(
        &self,
        skip: usize,
        head: &mut [u8],
        mut tail: Option<&mut Vec<u8>>,
    ) -> (usize, u64) {
        let keep = tail.as_ref().map_or(0, |tail| tail.len());
        let head_end = skip + head.len();
        loop {
            reader_step();
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            reader_step();
            let len = self.len.load(Ordering::Relaxed);
            let in_head = len.min(head_end).saturating_sub(skip);
            self.copy_out(skip, &mut head[..in_head]);
            if let Some(tail) = tail.as_deref_mut() {
                // Sized for this pass: what a raced pass appended goes.
                tail.resize(keep + len.saturating_sub(head_end), 0);
                self.copy_out(head_end, &mut tail[keep..]);
            }
            reader_step();
            if self.version.load(Ordering::Acquire) == v1 {
                return (len, v1);
            }
        }
    }

    /// The one copy-out loop, a word per load: payload bytes
    /// `from..from + dst.len()` into `dst`. No version check — meaningful
    /// only under the writer lock or inside [`SeqLock::read_parts`]'
    /// validation.
    fn copy_out(&self, mut from: usize, mut dst: &mut [u8]) {
        while !dst.is_empty() {
            reader_step();
            let word = self.words[from / 8].load(Ordering::Relaxed).to_le_bytes();
            let chunk = &word[from % 8..];
            let n = chunk.len().min(dst.len());
            let (filled, rest) = dst.split_at_mut(n);
            filled.copy_from_slice(&chunk[..n]);
            dst = rest;
            from += n;
        }
    }
}

/// Test hook: runs before every atomic load of a reader, so that a scripted
/// writer can be stepped between any two of them on one thread.
#[inline]
fn reader_step() {
    #[cfg(test)]
    if let Some(mut hook) = READER_STEP.with(|cell| cell.borrow_mut().take()) {
        hook();
        READER_STEP.with(|cell| *cell.borrow_mut() = Some(hook));
    }
}

#[cfg(test)]
thread_local! {
    static READER_STEP: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// A writer taken apart into its atomic stores, so that any number of
    /// them can run between two loads of a reader on the same thread. It
    /// writes `payloads[1]`, then `payloads[0]`, and so on in turn.
    struct ScriptedWriter {
        lock: Arc<SeqLock>,
        payloads: [Vec<u8>; 2],
        writes: usize,
        /// 0: outside; 1: version odd; 2 + i: word i stored; last: length
        /// stored.
        stage: usize,
    }

    impl ScriptedWriter {
        fn step(&mut self) {
            let lock = &self.lock;
            let payload = &self.payloads[(self.writes + 1) % 2];
            let words = payload.len().div_ceil(8);
            let v = lock.version.load(Ordering::Relaxed);
            match self.stage {
                0 => lock.version.store(v + 1, Ordering::Release),
                s if s <= words => {
                    let mut buf = [0u8; 8];
                    let chunk = &payload[(s - 1) * 8..(s * 8).min(payload.len())];
                    buf[..chunk.len()].copy_from_slice(chunk);
                    lock.words[s - 1].store(u64::from_le_bytes(buf), Ordering::Relaxed);
                }
                s if s == words + 1 => lock.len.store(payload.len(), Ordering::Relaxed),
                _ => {
                    lock.version.store(v + 1, Ordering::Release);
                    self.writes += 1;
                    self.stage = 0;
                    return;
                }
            }
            self.stage += 1;
        }
    }

    /// What a clean read of `payload` hands out for this window.
    fn parts_of(payload: &[u8], skip: usize, head: usize, tail: bool) -> (usize, Vec<u8>, Vec<u8>) {
        let from = skip.min(payload.len());
        let mid = (skip + head).min(payload.len());
        let rest = if tail { &payload[mid..] } else { &[][..] };
        (payload.len(), payload[from..mid].to_vec(), rest.to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A writer stepped store by store between the loads of one read
        /// — at every word boundary of the copy loop, across both version
        /// checks, through any number of whole and half-done writes: what
        /// the read returns is one payload's length with that payload's
        /// bytes, never a length from one and bytes from the other, never
        /// a mix.
        #[test]
        fn a_read_raced_by_a_scripted_writer_returns_one_whole_payload(
            a in prop::collection::vec(any::<u8>(), 0..96),
            b in prop::collection::vec(any::<u8>(), 0..96),
            script in prop::collection::vec(0u8..4, 0..40),
            skip in 0usize..60,
            head_len in 0usize..60,
            with_tail in any::<bool>(),
        ) {
            let lock = Arc::new(SeqLock::with_capacity(96));
            lock.write(&a);
            let mut writer = ScriptedWriter {
                lock: Arc::clone(&lock),
                payloads: [a.clone(), b.clone()],
                writes: 0,
                stage: 0,
            };
            let mut script = script.into_iter();
            READER_STEP.with(|cell| {
                *cell.borrow_mut() = Some(Box::new(move || match script.next() {
                    Some(steps) => (0..steps).for_each(|_| writer.step()),
                    // Script over: finish the write under way, then rest,
                    // so the reader's next pass is clean.
                    None => while writer.stage != 0 {
                        writer.step();
                    },
                }));
            });
            let mut head = vec![0xEE; head_len];
            let mut tail = vec![0xEE; 3];
            let (len, version) = lock.read_parts(skip, &mut head, with_tail.then_some(&mut tail));
            READER_STEP.with(|cell| *cell.borrow_mut() = None);

            prop_assert_eq!(version % 2, 0);
            prop_assert_eq!(&tail[..3], &[0xEE; 3], "what the tail held is kept");
            let got = |payload: &[u8]| {
                let (_, want_head, _) = parts_of(payload, skip, head_len, with_tail);
                (len, head[..want_head.len().min(head.len())].to_vec(), tail[3..].to_vec())
            };
            prop_assert!(
                got(&a) == parts_of(&a, skip, head_len, with_tail)
                    || got(&b) == parts_of(&b, skip, head_len, with_tail),
                "len {} head {:?} tail {:?} is neither {:?} nor {:?}", len, head, tail, a, b
            );
        }

        /// A tail-less `read_parts` window is the matching slice of
        /// `read`, whatever the offset and the buffer's size.
        #[test]
        fn a_window_is_the_matching_slice_of_read(
            payload in prop::collection::vec(any::<u8>(), 0..96),
            offset in 0usize..120,
            size in 0usize..120,
        ) {
            let lock = SeqLock::with_capacity(96);
            lock.write(&payload);
            let (whole, _) = lock.read();
            prop_assert_eq!(&whole, &payload);
            let mut buf = vec![0xEE; size];
            prop_assert_eq!(lock.read_parts(offset, &mut buf, None).0, payload.len());
            let window = &whole[offset.min(whole.len())..(offset + size).min(whole.len())];
            prop_assert_eq!(&buf[..window.len()], window);
            prop_assert!(buf[window.len()..].iter().all(|&byte| byte == 0xEE));
        }
    }

    /// A writer thread alternates two payloads of different lengths, each
    /// filled with its own byte, for 200 ms; every `read` and every
    /// tail-less `read_parts` window must be wholly one of them.
    #[test]
    fn two_thread_stress_never_yields_a_torn_read() {
        let lock = Arc::new(SeqLock::with_capacity(128));
        let payloads = [vec![0xAAu8; 51], vec![0x55u8; 120]];
        lock.write(&payloads[0]);
        let start = Arc::new(Barrier::new(2));
        let deadline = Instant::now() + Duration::from_millis(200);
        let writer = {
            let (lock, start, payloads) = (Arc::clone(&lock), Arc::clone(&start), payloads.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut writes = 0usize;
                while Instant::now() < deadline {
                    writes += 1;
                    lock.write(&payloads[writes % 2]);
                }
            })
        };
        start.wait();
        let whole = |bytes: &[u8], len: usize, offset: usize| {
            let payload = payloads
                .iter()
                .find(|p| p.len() == len)
                .expect("a length written");
            assert_eq!(
                bytes,
                &payload[offset..offset + bytes.len()],
                "torn at offset {offset}"
            );
        };
        while Instant::now() < deadline {
            let (bytes, _) = lock.read();
            whole(&bytes, bytes.len(), 0);
            for offset in [0, 8, 43] {
                let mut buf = [0u8; 43];
                let (len, _) = lock.read_parts(offset, &mut buf, None);
                whole(&buf[..buf.len().min(len - offset)], len, offset);
            }
        }
        writer.join().expect("writer thread");
    }

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
    fn a_window_copies_the_asked_bytes_and_reports_the_whole_length() {
        let lock = SeqLock::with_capacity(64);
        lock.write(b"hello wide world");
        let mut buf = [b'.'; 4];
        assert_eq!(lock.read_parts(6, &mut buf, None).0, 16);
        assert_eq!(&buf, b"wide");
        // A window past the payload's end fills what exists.
        let mut buf = [b'.'; 8];
        assert_eq!(lock.read_parts(11, &mut buf, None).0, 16);
        assert_eq!(&buf, b"world...");
        assert_eq!(lock.read_parts(40, &mut buf, None).0, 16);
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
