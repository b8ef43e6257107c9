//! Zero-filled memory from the kernel, in 2 MiB pages where it can be, as
//! MICA keeps its index and log: a random bucket or object then needs no
//! page walk (Lim et al., NSDI 2014).

const HUGE_PAGE: usize = 2 << 20;

extern "C" {
    fn mmap(at: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(at: *mut u8, len: usize) -> i32;
    fn madvise(at: *mut u8, len: usize, advice: i32) -> i32;
}

/// `T`s in an anonymous private mapping of their own, unmapped on drop
/// (`'static` only inside: `deref` lends them for `self`'s lifetime).
#[derive(Debug)]
pub(crate) struct Mapping<T: 'static>(&'static [T]);

impl<T> Mapping<T> {
    /// Maps `len` zeroed `T`s, 2 MiB-aligned and advised `MADV_HUGEPAGE`
    /// (THP mode `never` ignores it); no page is touched until it is used.
    ///
    /// # Safety
    /// All-zero bytes must be a valid `T`.
    pub(crate) unsafe fn zeroed(len: usize) -> Self {
        let bytes = std::alloc::Layout::array::<T>(len).expect("a size under isize::MAX");
        let bytes = bytes.size().max(1).next_multiple_of(4096);
        let over = bytes + HUGE_PAGE;
        // SAFETY: a fresh mapping, cut to its aligned `bytes` (unmapping 0
        // bytes does nothing), of zeroes, which the caller vouches are `T`s.
        unsafe {
            // PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS
            let raw = mmap(std::ptr::null_mut(), over, 3, 0x22, -1, 0);
            assert!(raw as isize != -1, "mmap of {over} B failed");
            let head = raw.align_offset(HUGE_PAGE);
            munmap(raw, head);
            munmap(raw.add(head + bytes), over - head - bytes);
            madvise(raw.add(head), bytes, 14); // MADV_HUGEPAGE
            Self(std::slice::from_raw_parts(raw.add(head).cast(), len))
        }
    }
}

impl<T> std::ops::Deref for Mapping<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0
    }
}

impl<T> Drop for Mapping<T> {
    fn drop(&mut self) {
        // SAFETY: what `zeroed` mapped (the kernel rounds the length up).
        unsafe { munmap(self.0.as_ptr() as *mut u8, size_of_val(self.0).max(1)) };
    }
}

/// Asks for `line`'s cache line ahead of its use; a no-op off x86-64.
pub(crate) fn prefetch<T>(_line: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it reads nothing and cannot fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((_line as *const T).cast());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[test]
    fn a_mapping_is_zeroed_aligned_and_writable() {
        for len in [0, 1, 511, 512, 513, (HUGE_PAGE / 8) + 1] {
            // SAFETY: zero is a valid `AtomicU64`.
            let words = unsafe { Mapping::<AtomicU64>::zeroed(len) };
            assert_eq!(words.len(), len);
            assert_eq!(words.as_ptr() as usize % HUGE_PAGE, 0, "2 MiB-aligned");
            assert!(words.iter().all(|w| w.load(Relaxed) == 0));
            words.iter().for_each(|w| w.store(7, Relaxed));
            assert!(words.iter().all(|w| w.load(Relaxed) == 7));
        }
    }
}
