//! Cross-thread wake tokens for a blocked poller.

use crate::poller::{Interest, Poller, Token};
use crate::sys::{sys_close, sys_eventfd, sys_eventfd_drain, sys_eventfd_signal};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::ThreadId;

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from any *other* thread.
///
/// Backed by an `eventfd` registered with the poller: [`Waker::wake`]
/// makes the fd readable, delivering an event carrying the waker's token.
/// The owning loop must call [`Waker::drain`] when it sees that token, or
/// the level-triggered registration fires forever.
///
/// A pending-flag keeps redundant wakes cheap: a thousand `wake()` calls
/// between two loop iterations cost one syscall. A `wake()` from the loop
/// thread itself (once it called [`Waker::claim`]) costs nothing at all:
/// that thread is by definition not blocked in `wait`, so it only has to
/// look at its own queues again before it next blocks.
pub struct Waker {
    fd: RawFd,
    pending: AtomicBool,
    owner: OnceLock<ThreadId>,
}

impl Waker {
    /// Creates the waker and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        let fd = sys_eventfd()?;
        poller.register(fd, token, Interest::READ)?;
        Ok(Waker {
            fd,
            pending: AtomicBool::new(false),
            owner: OnceLock::new(),
        })
    }

    /// Declares the calling thread the one that waits on the poller. From
    /// then on its own `wake()` calls are no-ops, so the loop must sweep
    /// whatever a wake announces (inboxes, outboxes) after the last code
    /// that can produce such work and before it blocks.
    pub fn claim(&self) {
        let _ = self.owner.set(std::thread::current().id());
    }

    /// Makes the poller return (idempotent until the next [`Waker::drain`]).
    pub fn wake(&self) {
        if self.owner.get() == Some(&std::thread::current().id()) {
            return;
        }
        if !self.pending.swap(true, Ordering::AcqRel) {
            sys_eventfd_signal(self.fd);
        }
    }

    /// Resets the waker; called by the owning loop on its own token.
    ///
    /// Order matters: the eventfd is drained *before* the pending flag
    /// clears. The reverse order loses wakes — a `wake()` racing into the
    /// window between clear and drain would set the flag and write the
    /// eventfd, the drain would then swallow that signal, and with the
    /// flag stuck at `true` every later `wake()` would skip its syscall
    /// forever, leaving the poller blocked on work it was told about. In
    /// this order a racing `wake()` either sees the flag still set (its
    /// message was pushed before the caller's post-drain inbox sweep, so
    /// it is not lost) or runs after the clear and signals normally.
    pub fn drain(&self) {
        sys_eventfd_drain(self.fd);
        self.pending.store(false, Ordering::Release);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys_close(self.fd);
    }
}
