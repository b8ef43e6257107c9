//! Raw Linux syscall bindings for the reactor.
//!
//! The build environment has no crates.io access, so instead of depending
//! on `libc`/`mio` this module declares the handful of symbols the reactor
//! needs directly against the C library the binary already links. Only the
//! epoll family, `eventfd`, and the rlimit pair are bound — everything else
//! goes through `std`.

use std::io;
use std::os::raw::{c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicBool, Ordering};

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One readiness record as the kernel fills it. x86-64 packs this struct
/// (the kernel ABI has no padding between `events` and `data`); other
/// architectures use natural alignment, which matches the repr below too
/// because `data` is a `u64` either way.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

const SO_REUSEADDR: c_int = 2;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;

/// `struct sockaddr_in` (Linux ABI).
#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16, // big-endian
    sin_addr: u32, // big-endian
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6` (Linux ABI).
#[repr(C)]
struct SockaddrIn6 {
    sin6_family: u16,
    sin6_port: u16, // big-endian
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut u32,
    ) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
    fn kill(pid: c_int, sig: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
}

/// `struct timespec` (Linux ABI, 64-bit).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `epoll_pwait2` syscall number (same on x86-64 and aarch64: the call
/// was added after the unified syscall table, Linux 5.11). Bound by
/// number rather than by glibc symbol so the binary still links against
/// a C library predating the wrapper.
const SYS_EPOLL_PWAIT2: c_long = 441;

const ENOSYS: i32 = 38;

/// Whether the running kernel supports `epoll_pwait2`. Probed lazily on
/// first use; once the syscall returns `ENOSYS` every later wait takes
/// the millisecond `epoll_wait` fallback without re-probing.
static PWAIT2_SUPPORTED: AtomicBool = AtomicBool::new(true);

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

pub fn sys_epoll_create() -> io::Result<c_int> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

pub fn sys_epoll_ctl(epfd: c_int, op: c_int, fd: c_int, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

pub fn sys_epoll_wait(
    epfd: c_int,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Nanosecond-precision epoll wait. Uses `epoll_pwait2` (Linux ≥ 5.11)
/// so sub-millisecond timer deadlines — cork expiries, priority-lane
/// stall ticks — are honoured at their actual resolution; on kernels
/// without it, falls back to `epoll_wait` with the timeout rounded *up*
/// to the next millisecond (never down to zero, which would spin).
pub fn sys_epoll_wait_ns(
    epfd: c_int,
    events: &mut [EpollEvent],
    timeout_ns: Option<u64>,
) -> io::Result<usize> {
    if PWAIT2_SUPPORTED.load(Ordering::Relaxed) {
        let ts = timeout_ns.map(|ns| Timespec {
            tv_sec: (ns / 1_000_000_000) as i64,
            tv_nsec: (ns % 1_000_000_000) as i64,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        loop {
            let n = unsafe {
                syscall(
                    SYS_EPOLL_PWAIT2,
                    epfd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    ts_ptr,
                    std::ptr::null::<c_void>(), // no sigmask
                    0usize,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(ENOSYS) => {
                    PWAIT2_SUPPORTED.store(false, Ordering::Relaxed);
                    break;
                }
                _ if err.kind() == io::ErrorKind::Interrupted => continue,
                _ => return Err(err),
            }
        }
    }
    let timeout_ms = match timeout_ns {
        None => -1,
        Some(ns) => ns.div_ceil(1_000_000).min(i32::MAX as u64) as c_int,
    };
    sys_epoll_wait(epfd, events, timeout_ms)
}

pub fn sys_eventfd() -> io::Result<c_int> {
    cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}

pub fn sys_close(fd: c_int) {
    let _ = unsafe { close(fd) };
}

/// Writes the 8-byte eventfd increment; a full counter (EAGAIN) means a
/// wake is already pending, which is all the caller wants.
pub fn sys_eventfd_signal(fd: c_int) {
    let one: u64 = 1;
    let _ = unsafe { write(fd, (&one as *const u64).cast(), 8) };
}

/// Drains a nonblocking eventfd (resets the counter to zero).
pub fn sys_eventfd_drain(fd: c_int) {
    let mut buf: u64 = 0;
    let _ = unsafe { read(fd, (&mut buf as *mut u64).cast(), 8) };
}

/// Caps a socket's kernel send/receive buffers at `bytes` each (the
/// kernel doubles the value for bookkeeping). A server holding thousands
/// of mostly-idle connections spends most of its per-connection memory in
/// default-sized (~128 KB+) socket buffers; request/response connections
/// moving ~100-byte frames need a fraction of that, and the smaller
/// working set keeps high connection counts cache-resident.
pub fn set_socket_buffers(fd: std::os::fd::RawFd, bytes: usize) -> io::Result<()> {
    let val = bytes as c_int;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let ret = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&val as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

const IPPROTO_TCP: c_int = 6;
const TCP_INFO: c_int = 11;
/// Byte offsets of `tcpi_segs_out` / `tcpi_data_segs_out` in the kernel's
/// `struct tcp_info` (Linux ≥ 4.6; the struct only ever grows at its end).
const TCPI_SEGS_OUT: usize = 136;
const TCPI_DATA_SEGS_OUT: usize = 156;

/// The kernel's own count of TCP segments sent on connected socket `fd`:
/// `(all segments, segments carrying data)`. The difference is what no
/// `send` asked for — pure ACKs, window updates, the handshake's — and no
/// syscall census shows it. Call it on the thread that owns `fd`.
pub fn tcp_segments_out(fd: std::os::fd::RawFd) -> io::Result<(u64, u64)> {
    let mut info = [0u32; 64];
    let mut len = std::mem::size_of_val(&info) as u32;
    cvt(unsafe {
        getsockopt(
            fd,
            IPPROTO_TCP,
            TCP_INFO,
            info.as_mut_ptr().cast(),
            &mut len,
        )
    })?;
    if (len as usize) < TCPI_DATA_SEGS_OUT + 4 {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "kernel's tcp_info predates segment counts",
        ));
    }
    Ok((
        u64::from(info[TCPI_SEGS_OUT / 4]),
        u64::from(info[TCPI_DATA_SEGS_OUT / 4]),
    ))
}

/// Binds a TCP listener with `SO_REUSEADDR` set *before* the bind.
///
/// `std::net::TcpListener::bind` does not set the option, so a process
/// restarted onto the port of a crashed predecessor can fail spuriously
/// with `AddrInUse` while old connections linger in TIME_WAIT — fatal for
/// a supervisor whose whole job is restarting nodes onto their configured
/// addresses.
pub fn listen_reuseaddr(addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
    use std::net::SocketAddr;
    use std::os::fd::FromRawFd;
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    let guard = FdGuard(fd);
    let one: c_int = 1;
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    match addr {
        SocketAddr::V4(v4) => {
            let sa = SockaddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_be_bytes(v4.ip().octets()).to_be(),
                sin_zero: [0; 8],
            };
            cvt(unsafe {
                bind(
                    fd,
                    (&sa as *const SockaddrIn).cast(),
                    std::mem::size_of::<SockaddrIn>() as u32,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let sa = SockaddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            cvt(unsafe {
                bind(
                    fd,
                    (&sa as *const SockaddrIn6).cast(),
                    std::mem::size_of::<SockaddrIn6>() as u32,
                )
            })?;
        }
    }
    cvt(unsafe { listen(fd, 1024) })?;
    std::mem::forget(guard);
    Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
}

struct FdGuard(c_int);

impl Drop for FdGuard {
    fn drop(&mut self) {
        sys_close(self.0);
    }
}

/// SIGTERM signal number (Linux).
pub const SIGTERM: i32 = 15;
/// SIGINT signal number (Linux).
pub const SIGINT: i32 = 2;
/// SIGKILL signal number (Linux).
pub const SIGKILL: i32 = 9;

static SIGNAL_PIPE_WR: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

extern "C" fn signal_pipe_handler(signum: c_int) {
    // Async-signal-safe: one write syscall to the pipe. The payload is the
    // signal number so a single watcher can serve several signals.
    let fd = SIGNAL_PIPE_WR.load(std::sync::atomic::Ordering::Relaxed);
    if fd >= 0 {
        let byte = signum as u8;
        let _ = unsafe { write(fd, (&byte as *const u8).cast(), 1) };
    }
}

/// Installs a self-pipe handler for `signals` and returns the read end of
/// the pipe: each delivered signal becomes one byte (the signal number)
/// readable there, so an ordinary thread can block on `read` and run the
/// graceful-shutdown path no signal handler safely could.
///
/// May be called once per process (subsequent calls error).
pub fn signal_pipe(signals: &[i32]) -> io::Result<std::fs::File> {
    use std::os::fd::FromRawFd;
    let mut fds = [0 as c_int; 2];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), SOCK_CLOEXEC) })?;
    let prev = SIGNAL_PIPE_WR.compare_exchange(
        -1,
        fds[1],
        std::sync::atomic::Ordering::SeqCst,
        std::sync::atomic::Ordering::SeqCst,
    );
    if prev.is_err() {
        sys_close(fds[0]);
        sys_close(fds[1]);
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "signal pipe already installed",
        ));
    }
    for &signum in signals {
        let handler = signal_pipe_handler as extern "C" fn(c_int) as usize;
        let ret = unsafe { signal(signum, handler) };
        if ret == usize::MAX {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(unsafe { std::fs::File::from_raw_fd(fds[0]) })
}

/// SIGPIPE signal number (Linux).
pub const SIGPIPE: i32 = 13;

/// Restores the default SIGPIPE disposition (terminate). Rust startup
/// ignores SIGPIPE, so a CLI tool piped into `head` panics with a broken-
/// pipe backtrace when the reader exits; tools meant for pipelines call
/// this first and die quietly like every other Unix filter.
pub fn reset_sigpipe() {
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

/// Sends `sig` to process `pid` (supervisor crash-injection and graceful
/// termination).
pub fn send_signal(pid: u32, sig: i32) -> io::Result<()> {
    cvt(unsafe { kill(pid as c_int, sig) }).map(|_| ())
}

/// Creates a pipe whose ends are *inheritable* (no CLOEXEC): a supervisor
/// passes the raw write fd to a spawned node via `--ready-fd` and awaits
/// the readiness byte on the returned read end, closing its copy of the
/// write fd (via [`close_raw_fd`]) right after the spawn so EOF doubles
/// as "the child died before becoming ready".
pub fn inheritable_pipe() -> io::Result<(std::fs::File, i32)> {
    use std::os::fd::FromRawFd;
    let mut fds = [0 as c_int; 2];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), 0) })?;
    Ok((unsafe { std::fs::File::from_raw_fd(fds[0]) }, fds[1]))
}

/// Writes `bytes` to a raw fd (a spawned node signalling its inherited
/// `--ready-fd`).
pub fn write_raw_fd(fd: i32, bytes: &[u8]) -> io::Result<()> {
    let mut written = 0;
    while written < bytes.len() {
        let n = unsafe { write(fd, bytes[written..].as_ptr().cast(), bytes.len() - written) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        written += n as usize;
    }
    Ok(())
}

/// Closes a raw fd (the supervisor's copy of an inherited pipe end).
pub fn close_raw_fd(fd: i32) {
    sys_close(fd);
}

/// Raises the soft `RLIMIT_NOFILE` toward `target` (capped at the hard
/// limit) and returns the soft limit now in force. Connection-scaling
/// harnesses call this so a few thousand sockets do not trip the
/// conservative default of 1024 on CI runners.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let wanted = target.min(lim.rlim_max);
    let new = Rlimit {
        rlim_cur: wanted,
        rlim_max: lim.rlim_max,
    };
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(wanted)
}
