//! What the kernel reports about this process and this host: CPU time,
//! peak resident memory, and the fingerprint stamped on every run record.

use std::fs;
use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the lowest-numbered CPU it may run on and
/// returns that CPU. Threads spawned afterwards inherit the mask, so
/// called first thing in `main` it confines the sessions and every rack
/// thread to one CPU.
///
/// Why: on a small virtual machine a wake-up that crosses CPUs costs more
/// than a whole cache-hit op, and where the scheduler happens to place
/// five threads on two CPUs moved throughput by 2× from one second to the
/// next. On one CPU the op costs what the code costs.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let bit = bits.trailing_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: `mask` is a live buffer of exactly `bytes` bytes, read only.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU nanoseconds consumed by every thread of this process
/// so far (load-generating sessions and all rack threads alike).
pub fn process_cpu_ns() -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `timespec`-shaped value (two
    // 64-bit fields on every 64-bit Linux target).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The commit of the checkout the benchmark runs from, when it is a git
/// repository (the acceptance checkout is not: `unknown` there).
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.to_string()
    }
}

/// `"commit":…,"nproc":…,"cpu":…,"kernel":…` — the host part of a run
/// record, as JSON object members.
pub fn fingerprint_json() -> String {
    format!(
        "\"commit\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"kernel\":\"{}\"",
        json_escape(&commit()),
        nproc(),
        json_escape(&cpu_model()),
        json_escape(&kernel())
    )
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}
