//! Readiness polling over epoll.

use crate::sys::{
    sys_close, sys_epoll_create, sys_epoll_ctl, sys_epoll_wait_ns, EpollEvent, EPOLLERR, EPOLLHUP,
    EPOLLIN, EPOLLOUT, EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Identifies one registered I/O source; the reactor hands it back with
/// every readiness event. Plain `u64`, chosen by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// The readiness classes a registration subscribes to (level-triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable or the peer half-closed (errors and hangups always wake).
    pub readable: bool,
    /// Wake when the source is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut mask = 0;
        if self.readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Token of the registered source.
    pub token: Token,
    /// The source has bytes to read (or the peer half-closed).
    pub readable: bool,
    /// The source accepts writes.
    pub writable: bool,
    /// Error or hangup: the connection is done for.
    pub closed: bool,
}

/// Reusable buffer of readiness events for [`Poller::wait`].
pub struct Events {
    raw: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer holding up to `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            raw: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates the events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|raw| {
            let bits = raw.events;
            Event {
                token: Token(raw.data),
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait timed out with no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys_epoll_create()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys_epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, interest.mask(), token.0)
    }

    /// Changes the interest of an existing registration.
    pub fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys_epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, interest.mask(), token.0)
    }

    /// Removes a registration. Safe to call for an fd the kernel already
    /// dropped (closing an fd deregisters it implicitly).
    pub fn deregister(&self, fd: RawFd) {
        let _ = sys_epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, filling `events`. `timeout` of `None` blocks
    /// until an event arrives; `Some(d)` waits at most `d`. Sub-millisecond
    /// timeouts are honoured at nanosecond precision via `epoll_pwait2`
    /// (Linux ≥ 5.11); on older kernels they round up to the next
    /// millisecond (never down to zero, so a 200µs deadline cannot spin).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ns = timeout.map(|d| d.as_nanos().min(u64::MAX as u128) as u64);
        events.len = sys_epoll_wait_ns(self.epfd, &mut events.raw, timeout_ns)?;
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys_close(self.epfd);
    }
}
