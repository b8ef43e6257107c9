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
//! Here the version word is the spinlock, taken by one compare-and-swap. A
//! seqlock is a run of relaxed atomic words — version, length, payload —
//! laid out inline in a slab (`Box<SeqLock>` is the owned form), fenced as
//! in Boehm, "Can seqlocks get along with programming language memory
//! models?" (MSPC 2012).

use std::sync::atomic::{fence, AtomicU64, Ordering::*};

const VERSION: usize = 0;
const LEN: usize = 1;
const PAYLOAD: usize = 2;

/// A sequence lock over a variable-length byte payload, stored inline.
///
/// The version starts at 0 and is odd exactly while a writer is inside the
/// critical section. It advances by 2 per completed write, so `version / 2`
/// counts writes; ccKVS reuses this counter as the object's Lamport clock.
#[derive(Debug)]
#[repr(transparent)]
pub struct SeqLock([AtomicU64]);

impl SeqLock {
    /// Words a seqlock over up to `capacity` payload bytes takes.
    pub(crate) fn words_for(capacity: usize) -> usize {
        PAYLOAD + capacity.div_ceil(8).max(1)
    }

    /// An owned seqlock able to hold payloads of up to `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Box<Self> {
        let words = zeroed_words(Self::words_for(capacity));
        // SAFETY: `SeqLock` is `repr(transparent)` over `[AtomicU64]`: same
        // layout and slice-length metadata, so the box frees what it got.
        unsafe { Box::from_raw(Box::into_raw(words) as *mut Self) }
    }

    /// The seqlock laid out in `words` (see [`SeqLock::words_for`]).
    pub(crate) fn from_words(words: &[AtomicU64]) -> &Self {
        // SAFETY: same layout as in `with_capacity`; `words`' lifetime.
        unsafe { &*(words as *const [AtomicU64] as *const Self) }
    }

    /// Maximum payload size in bytes.
    pub fn capacity(&self) -> usize {
        (self.0.len() - PAYLOAD) * 8
    }

    /// Current (possibly in-flux) version. Even ⇒ no writer inside.
    pub fn version(&self) -> u64 {
        self.0[VERSION].load(Acquire)
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
        self.update(|bytes| {
            bytes.truncate(0);
            bytes.write(0, payload);
        });
    }

    /// Runs `mutate` on the payload, in place, in one critical section
    /// under the writer lock; returns what `mutate` returns.
    pub fn update<T>(&self, mutate: impl FnOnce(&mut Payload<'_>) -> T) -> T {
        write_locked(&self.0[VERSION], || mutate(&mut Payload(self, 0)))
    }

    /// The lock-free read every reader sits on: runs `pass` over the
    /// payload until one pass raced no writer, and returns that pass's
    /// result with the even version it observed.
    pub fn read_with<T>(&self, mut pass: impl FnMut(&Payload<'_>) -> T) -> (T, u64) {
        read_validated(&self.0[VERSION], || pass(&Payload(self, 0)))
    }

    /// Lock-free read of the whole payload and the version it was read at.
    pub fn read(&self) -> (Vec<u8>, u64) {
        self.read_with(|payload| payload.to_vec(0))
    }
}

/// A seqlock's payload from a byte offset on. Shared (`&`), it is a
/// reader's view, meaningful only inside [`SeqLock::read_with`]'s
/// validation; a writer holding the lock gets it `&mut` to edit in place.
#[derive(Debug)]
pub struct Payload<'a>(&'a SeqLock, usize);

impl Payload<'_> {
    /// The view from byte `at` of this one on.
    pub(crate) fn skip(&self, at: usize) -> Payload<'_> {
        Payload(self.0, self.1 + at)
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        reader_step();
        let len = self.0 .0[LEN].load(Relaxed) as usize;
        len.min(self.0.capacity()).saturating_sub(self.1)
    }

    /// Whether no byte is in view.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies bytes `at..` into `dst`, as many as both hold; returns how
    /// many. Bytes of `dst` past them are left as they were.
    pub fn read(&self, at: usize, dst: &mut [u8]) -> usize {
        let n = self.len().saturating_sub(at).min(dst.len());
        let (mut from, mut dst) = (self.1 + at, &mut dst[..n]);
        while !dst.is_empty() {
            reader_step();
            let word = self.0 .0[PAYLOAD + from / 8].load(Relaxed).to_le_bytes();
            let chunk = &word[from % 8..];
            let k = chunk.len().min(dst.len());
            let (filled, rest) = dst.split_at_mut(k);
            filled.copy_from_slice(&chunk[..k]);
            dst = rest;
            from += k;
        }
        n
    }

    /// Bytes `at..` as a new `Vec`.
    pub fn to_vec(&self, at: usize) -> Vec<u8> {
        let mut out = vec![0; self.len().saturating_sub(at)];
        self.read(at, &mut out);
        out
    }

    /// Stores `src` at byte `at`; the view grows to cover it if needed.
    ///
    /// # Panics
    ///
    /// Panics past the seqlock's capacity.
    pub fn write(&mut self, at: usize, mut src: &[u8]) {
        let (lock, grows) = (self.0, at + src.len() > self.len());
        let (mut at, end) = (self.1 + at, self.1 + at + src.len());
        assert!(end <= lock.capacity(), "payload past seqlock capacity");
        while !src.is_empty() {
            // A word at a time; a ragged end merges into its word.
            let word = &lock.0[PAYLOAD + at / 8];
            let k = (8 - at % 8).min(src.len());
            let mut bytes = word.load(Relaxed).to_le_bytes();
            bytes[at % 8..at % 8 + k].copy_from_slice(&src[..k]);
            word.store(u64::from_le_bytes(bytes), Relaxed);
            (at, src) = (at + k, &src[k..]);
        }
        if grows {
            lock.0[LEN].store(end as u64, Relaxed);
        }
    }

    /// Shortens the view to `len` bytes (no-op if it is not longer).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.0 .0[LEN].store((self.1 + len) as u64, Relaxed);
        }
    }
}

/// `n` zeroed words in one allocation: pages the caller never writes are
/// never touched.
pub(crate) fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    // SAFETY: all-zero bytes are a valid `AtomicU64`.
    unsafe { Box::new_zeroed_slice(n).assume_init() }
}

/// Runs `section` as a writer of the seqlock whose version is `version`:
/// takes it from even to odd (the compare-and-swap is the writer lock),
/// then back to even, two higher.
pub(crate) fn write_locked<T>(version: &AtomicU64, section: impl FnOnce() -> T) -> T {
    let v = loop {
        // Fails while the version is odd: another writer is inside.
        let v = version.load(Relaxed) & !1;
        if version
            .compare_exchange_weak(v, v + 1, Acquire, Relaxed)
            .is_ok()
        {
            break v;
        }
        std::hint::spin_loop();
    };
    // The odd version stays ahead of every store the section makes.
    fence(Release);
    let out = section();
    version.store(v + 2, Release);
    out
}

/// Runs `pass` until it ran between two loads of `version` that saw the
/// same even value; returns that pass's result and the version.
pub(crate) fn read_validated<T>(version: &AtomicU64, mut pass: impl FnMut() -> T) -> (T, u64) {
    loop {
        reader_step();
        let v1 = version.load(Acquire);
        if v1 % 2 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let out = pass();
        // The pass's loads stay behind the closing check.
        fence(Acquire);
        reader_step();
        if version.load(Relaxed) == v1 {
            return (out, v1);
        }
    }
}

/// Test hook: runs before every atomic load of a reader, so that a scripted
/// writer can be stepped between any two of them on one thread.
#[inline]
pub(crate) fn reader_step() {
    #[cfg(test)]
    if let Some(mut hook) = READER_STEP.with(|cell| cell.borrow_mut().take()) {
        hook();
        READER_STEP.with(|cell| *cell.borrow_mut() = Some(hook));
    }
}

#[cfg(test)]
thread_local! {
    pub(crate) static READER_STEP: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
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
            let words = &self.lock.0;
            let payload = &self.payloads[(self.writes + 1) % 2];
            let n = payload.len().div_ceil(8);
            let v = words[VERSION].load(Relaxed);
            match self.stage {
                0 => {
                    words[VERSION].store(v + 1, Relaxed);
                    fence(Release);
                }
                s if s <= n => {
                    let mut buf = [0u8; 8];
                    let chunk = &payload[(s - 1) * 8..(s * 8).min(payload.len())];
                    buf[..chunk.len()].copy_from_slice(chunk);
                    words[PAYLOAD + s - 1].store(u64::from_le_bytes(buf), Relaxed);
                }
                s if s == n + 1 => words[LEN].store(payload.len() as u64, Relaxed),
                _ => {
                    words[VERSION].store(v + 1, Release);
                    self.writes += 1;
                    self.stage = 0;
                    return;
                }
            }
            self.stage += 1;
        }
    }

    /// The window a reader asks for: `head` bytes from `skip` on, then —
    /// with a tail — every byte past them.
    fn window(
        payload: &Payload<'_>,
        skip: usize,
        head: &mut [u8],
        tail: Option<&mut Vec<u8>>,
    ) -> usize {
        payload.read(skip, head);
        if let Some(tail) = tail {
            *tail = payload.to_vec(skip + head.len());
        }
        payload.len()
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
            let lock: Arc<SeqLock> = SeqLock::with_capacity(96).into();
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
            let mut tail = Vec::new();
            let (len, version) = lock.read_with(|payload| {
                head.fill(0xEE);
                window(payload, skip, &mut head, with_tail.then_some(&mut tail))
            });
            READER_STEP.with(|cell| *cell.borrow_mut() = None);

            prop_assert_eq!(version % 2, 0);
            let got = |payload: &[u8]| {
                let (_, want_head, _) = parts_of(payload, skip, head_len, with_tail);
                (len, head[..want_head.len()].to_vec(), tail.clone())
            };
            prop_assert!(
                got(&a) == parts_of(&a, skip, head_len, with_tail)
                    || got(&b) == parts_of(&b, skip, head_len, with_tail),
                "len {} head {:?} tail {:?} is neither {:?} nor {:?}", len, head, tail, a, b
            );
        }

        /// A window is the matching slice of `read`, whatever the offset
        /// and the buffer's size.
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
            prop_assert_eq!(lock.read_with(|p| window(p, offset, &mut buf, None)).0, payload.len());
            let window = &whole[offset.min(whole.len())..(offset + size).min(whole.len())];
            prop_assert_eq!(&buf[..window.len()], window);
            prop_assert!(buf[window.len()..].iter().all(|&byte| byte == 0xEE));
        }

        /// In-place writes at any offset, aligned or not, leave the bytes
        /// around them alone and grow the length only past its end.
        #[test]
        fn in_place_writes_edit_only_their_bytes(
            before in prop::collection::vec(any::<u8>(), 0..64),
            src in prop::collection::vec(any::<u8>(), 0..32),
            at in 0usize..64,
        ) {
            let lock = SeqLock::with_capacity(96);
            lock.write(&before);
            lock.update(|payload| payload.write(at, &src));
            let mut want = before.clone();
            want.resize(want.len().max(at + src.len()), 0);
            want[at..at + src.len()].copy_from_slice(&src);
            let (got, _) = lock.read();
            // Bytes between the old end and `at` are whatever was there.
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(&got[..before.len().min(at)], &want[..before.len().min(at)]);
            prop_assert_eq!(&got[at..], &want[at..]);
        }
    }

    /// A writer thread alternates two payloads of different lengths, each
    /// filled with its own byte, for 200 ms; every `read` and every
    /// window must be wholly one of them.
    #[test]
    fn two_thread_stress_never_yields_a_torn_read() {
        let lock: Arc<SeqLock> = SeqLock::with_capacity(128).into();
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
                let (len, _) = lock.read_with(|p| window(p, offset, &mut buf, None));
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
        assert_eq!(lock.read_with(|p| window(p, 6, &mut buf, None)).0, 16);
        assert_eq!(&buf, b"wide");
        // A window past the payload's end fills what exists.
        let mut buf = [b'.'; 8];
        assert_eq!(lock.read_with(|p| window(p, 11, &mut buf, None)).0, 16);
        assert_eq!(&buf, b"world...");
        assert_eq!(lock.read_with(|p| window(p, 40, &mut buf, None)).0, 16);
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
        let prev = lock.update(|payload| {
            let mut bytes = [0u8; 8];
            payload.read(0, &mut bytes);
            let prev = u64::from_le_bytes(bytes);
            payload.write(0, &(prev + 1).to_le_bytes());
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
        let lock: Arc<SeqLock> = SeqLock::with_capacity(64).into();
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
