//! The page faults of building and filling a store partition, as counts.
//!
//! A partition's slab and index are zero-filled mappings advised to use
//! 2 MiB pages, so building one touches no page and filling one faults its
//! memory in a huge page at a time. This suite holds both with no clock
//! involved: it counts the calling thread's minor faults
//! (`getrusage(RUSAGE_THREAD)`) around building a partition the size of one
//! benchmark node's store (`Partition::new(200_000, 64)`) and around
//! writing one node's share of that benchmark's 200 000 keys into it.
//!
//! Each count is printed as `fault_budget <name> <value>` before anything
//! is asserted, so a run against another commit reports its numbers too.

use kvstore::{ObjectHeader, Partition};
use std::os::raw::{c_int, c_long};

const RUSAGE_THREAD: c_int = 1;

/// `struct rusage` (Linux ABI, 64-bit): two `timeval`s, then 14 longs.
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    rest: [c_long; 9],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Minor faults the calling thread has taken so far.
fn minor_faults() -> u64 {
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: the kernel fills the whole struct, which is zeroed already.
    let usage = unsafe {
        assert_eq!(getrusage(RUSAGE_THREAD, usage.as_mut_ptr()), 0);
        usage.assume_init()
    };
    usage.minflt as u64
}

/// Minor faults the calling thread took in `f`, and what `f` returned.
fn faults_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = minor_faults();
    let out = f();
    (minor_faults() - before, out)
}

fn report(name: &str, faults: u64) {
    println!("fault_budget {name} {faults}");
}

/// Whether the kernel may back an advised mapping with huge pages (the
/// THP mode reads `[always]` or `[madvise]`).
fn huge_pages_granted() -> bool {
    let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    mode.is_ok_and(|mode| mode.contains("[always]") || mode.contains("[madvise]"))
}

#[test]
fn building_a_partition_touches_no_page() {
    let (faults, partition) = faults_of(|| Partition::new(200_000, 64));
    report("partition_new", faults);
    assert_eq!(partition.capacity(), 200_000);
    assert_eq!(faults, 0, "the slab and the index are mapped, not written");
}

#[test]
fn filling_a_partition_faults_its_memory_in_a_huge_page_at_a_time() {
    let partition = Partition::new(200_000, 64);
    // One node of three holds a third of the benchmark's keys.
    let keys = (0..66_667u64).map(|k| k * 3);
    let (faults, ()) = faults_of(|| {
        for key in keys {
            (partition.put(key, ObjectHeader::default(), &[7; 40])).expect("room");
        }
    });
    report("partition_fill_66667", faults);
    assert_eq!(partition.len(), 66_667);
    if huge_pages_granted() {
        // 4 KiB pages take 3 125 faults here.
        assert!(
            faults <= 200,
            "{faults} faults: the store is not in huge pages"
        );
    }
}
