//! A minimal epoll reactor for the event-driven serving layer.
//!
//! The build environment vendors every dependency, so instead of `mio` or
//! `tokio` this crate binds the handful of Linux syscalls an event loop
//! needs (`epoll`, `eventfd`, `rlimit`) directly and layers the small set
//! of abstractions the `cckvs-net` server is built from:
//!
//! * [`Poller`] / [`Events`] / [`Interest`] / [`Token`] — level-triggered
//!   readiness polling over nonblocking sockets;
//! * [`Waker`] — an `eventfd`-backed wake token so other threads (protocol
//!   shippers, worker-pool completions) can interrupt a blocked poll;
//! * [`TimerWheel`] — two-level (50 µs fine + 1 ms coarse) timers for
//!   bounce retries, the pending-RPC deadline sweep and the peer links'
//!   idle credit return;
//! * [`ReadBuf`] / [`WriteBuf`] — growable buffers for incremental frame
//!   decode and write-buffer backpressure, so a slow peer accumulates
//!   bytes instead of blocking a thread;
//! * [`raise_nofile_limit`] — lifts the soft fd limit for
//!   connection-scaling harnesses.
//!
//! The reactor is deliberately policy-free: connection state machines,
//! dispatch, and flow control live with the protocol code that owns them.
//! Linux-only by construction (the workspace targets the paper's rack,
//! which is Linux); other platforms would swap `sys.rs` for kqueue.

mod buffer;
mod poller;
mod sys;
mod timer;
mod waker;

pub use buffer::{ReadBuf, WriteBuf, READ_CHUNK};
pub use poller::{Event, Events, Interest, Poller, Token};
pub use sys::{
    close_raw_fd, inheritable_pipe, listen_reuseaddr, raise_nofile_limit, reset_sigpipe,
    send_signal, set_socket_buffers, signal_pipe, sys_eventfd, sys_eventfd_drain,
    sys_eventfd_signal, tcp_segments_out, write_raw_fd, SIGINT, SIGKILL, SIGPIPE, SIGTERM,
};
pub use timer::{TimerWheel, FINE_RESOLUTION};
pub use waker::Waker;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn tcp_segment_counts_separate_data_from_pure_acks() {
        use std::os::fd::AsRawFd;
        let (mut a, mut b) = pair();
        a.set_nodelay(true).unwrap();
        let mut byte = [0u8; 1];
        for _ in 0..10 {
            a.write_all(b"x").unwrap();
            b.read_exact(&mut byte).unwrap();
        }
        let (a_all, a_data) = tcp_segments_out(a.as_raw_fd()).unwrap();
        let (b_all, b_data) = tcp_segments_out(b.as_raw_fd()).unwrap();
        assert_eq!(a_data, 10, "one data segment per nodelay write");
        assert!(a_all >= a_data);
        assert_eq!(b_data, 0, "the reader sent no data");
        assert!(b_all >= 1, "the reader's segments are all pure ACKs");
    }

    #[test]
    fn poller_reports_readable_after_peer_writes() {
        use std::os::fd::AsRawFd;
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(b.as_raw_fd(), Token(7), Interest::READ)
            .unwrap();
        let mut events = Events::with_capacity(8);
        // Nothing to read yet: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        a.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().next().expect("readable event");
        assert_eq!(event.token, Token(7));
        assert!(event.readable);
    }

    #[test]
    fn poller_reports_closed_on_peer_hangup() {
        use std::os::fd::AsRawFd;
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(b.as_raw_fd(), Token(1), Interest::READ)
            .unwrap();
        drop(a);
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().next().expect("hangup event");
        // A clean FIN surfaces as readable (read returns 0); a reset also
        // sets closed. Either way the loop notices the connection died.
        assert!(event.readable || event.closed);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, Token(99)).unwrap());
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
        });
        let mut events = Events::with_capacity(8);
        let started = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(5), "wake was lost");
        let event = events.iter().next().expect("wake event");
        assert_eq!(event.token, Token(99));
        waker.drain();
        handle.join().unwrap();
        // Drained: the next wait times out instead of spinning on the
        // level-triggered eventfd.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // Coalescing: many wakes before a drain deliver one event.
        waker.wake();
        waker.wake();
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        waker.drain();
    }

    #[test]
    fn owner_thread_wake_is_free_while_foreign_wakes_still_interrupt() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, Token(99)).unwrap());
        waker.claim();
        let mut events = Events::with_capacity(8);
        // The loop thread waking itself writes nothing to the eventfd: the
        // next wait times out empty instead of returning the waker token.
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "owner wake reached the eventfd");
        // A foreign thread's wakes still interrupt, and still coalesce —
        // also behind an owner wake, which must not have set the pending
        // flag.
        let remote = std::sync::Arc::clone(&waker);
        std::thread::spawn(move || {
            remote.wake();
            remote.wake();
            remote.wake();
        })
        .join()
        .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().token, Token(99));
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timer_wheel_fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        assert_eq!(wheel.next_timeout(), None);
        // Armed later-deadline first: the timeout follows the nearest one.
        let armed = Instant::now();
        wheel.schedule(Token(2), Duration::from_millis(40));
        let timeout = wheel.next_timeout().expect("armed");
        assert!(timeout > Duration::from_millis(30), "{timeout:?}");
        wheel.schedule(Token(1), Duration::from_millis(5));
        assert!(wheel.armed() == 2);
        let timeout = wheel.next_timeout().expect("armed");
        assert!(timeout <= Duration::from_millis(6), "{timeout:?}");
        let slept = Instant::now();
        std::thread::sleep(Duration::from_millis(10));
        let slept = slept.elapsed();
        let due = wheel.expired();
        assert_eq!(due, vec![Token(1)]);
        assert_eq!(wheel.armed(), 1);
        // ... and falls back to the one still armed: 40 ms less the time
        // measured since it was armed, whatever the host held this thread
        // for, and less the measured sleep at most, each within the 1 ms
        // slot the wheel rounds the deadline to.
        let timeout = wheel.next_timeout().expect("armed");
        let (since, slot) = (armed.elapsed(), Duration::from_millis(1));
        assert!(
            timeout + since + slot >= Duration::from_millis(40)
                && timeout + slept <= Duration::from_millis(40) + slot,
            "{timeout:?} left, {since:?} since armed, slept {slept:?}"
        );
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(wheel.expired(), vec![Token(2)]);
        assert_eq!(wheel.armed(), 0);
        assert!(wheel.expired().is_empty());
    }

    #[test]
    fn fine_timer_fires_well_under_a_millisecond() {
        // Regression for the old single-level wheel, which silently
        // rounded sub-millisecond delays up to a full 1 ms slot. A 50 µs
        // timer must (a) report a sub-millisecond poll timeout and
        // (b) actually fire well under 1 ms of wall-clock waiting.
        let mut wheel = TimerWheel::new();
        wheel.schedule(Token(9), Duration::from_micros(50));
        let timeout = wheel.next_timeout().expect("armed");
        assert!(
            timeout < Duration::from_millis(1),
            "sub-ms delay rounded to a coarse slot: {timeout:?}"
        );
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        // Wall-clock check, retried so a one-off scheduler hiccup on a
        // loaded CI box cannot fail the build: at least one of a handful
        // of attempts must complete well under a millisecond.
        let mut best = Duration::MAX;
        for _attempt in 0..5 {
            let mut wheel = TimerWheel::new();
            wheel.schedule(Token(9), Duration::from_micros(50));
            let started = Instant::now();
            loop {
                let due = wheel.expired();
                if due == vec![Token(9)] {
                    break;
                }
                assert!(due.is_empty());
                assert!(
                    started.elapsed() < Duration::from_millis(500),
                    "50µs timer never fired"
                );
                // Sleep exactly as a reactor shard would: poll with the
                // wheel's own timeout (sub-ms via epoll_pwait2 when the
                // kernel has it).
                poller.wait(&mut events, wheel.next_timeout()).unwrap();
            }
            best = best.min(started.elapsed());
            if best < Duration::from_millis(1) {
                return;
            }
        }
        panic!("50µs timer never fired under 1ms; best attempt {best:?}");
    }

    #[test]
    fn fine_and_coarse_deadlines_interleave_in_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(Token(1), Duration::from_micros(200));
        wheel.schedule(Token(2), Duration::from_millis(20));
        wheel.schedule(Token(3), Duration::from_micros(900));
        assert_eq!(wheel.armed(), 3);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(wheel.expired(), vec![Token(1), Token(3)]);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(wheel.expired(), vec![Token(2)]);
        assert_eq!(wheel.armed(), 0);
    }

    #[test]
    fn timer_wheel_handles_deadlines_past_one_lap() {
        let mut wheel = TimerWheel::new();
        // 1024 slots of 1ms: 2s wraps the wheel; the entry must not fire
        // on the first lap.
        wheel.schedule(Token(3), Duration::from_millis(2048));
        wheel.schedule(Token(4), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(wheel.expired(), vec![Token(4)]);
        assert_eq!(wheel.armed(), 1);
    }

    #[test]
    fn read_buf_fills_and_consumes_across_partial_reads() {
        let mut buf = ReadBuf::new();
        buf.extend(b"hello ");
        buf.extend(b"world");
        assert_eq!(buf.data(), b"hello world");
        buf.consume(6);
        assert_eq!(buf.data(), b"world");
        buf.consume(5);
        assert!(buf.is_empty());
        // fill_from a socket with pending bytes.
        let (mut a, mut b) = pair();
        b.set_nonblocking(true).unwrap();
        a.write_all(b"abc").unwrap();
        // Wait until delivered.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match buf.fill_from(&mut b).unwrap() {
                Some(n) if n > 0 => break,
                _ if Instant::now() > deadline => panic!("bytes never arrived"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        assert_eq!(buf.data(), b"abc");
        // Empty socket: WouldBlock surfaces as None, not an error.
        assert_eq!(buf.fill_from(&mut b).unwrap(), None);
        // EOF surfaces as Some(0).
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match buf.fill_from(&mut b).unwrap() {
                Some(0) => break,
                _ if Instant::now() > deadline => panic!("EOF never arrived"),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    #[test]
    fn write_buf_drains_through_a_socket() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut buf = WriteBuf::new();
        buf.push(b"status: ");
        buf.writer().extend_from_slice(b"ok");
        assert_eq!(buf.pending(), 10);
        let mut b = b;
        assert!(buf.flush_to(&mut b).unwrap());
        assert!(buf.is_empty());
        let mut read_back = [0u8; 10];
        a.read_exact(&mut read_back).unwrap();
        assert_eq!(&read_back, b"status: ok");
    }

    #[test]
    fn write_buf_reports_backpressure_without_losing_bytes() {
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let mut b = b;
        let mut buf = WriteBuf::new();
        let chunk = vec![0xABu8; 256 * 1024];
        // Keep pushing until the kernel buffers fill and flush reports
        // bytes left over.
        let mut total = 0usize;
        let drained = loop {
            buf.push(&chunk);
            total += chunk.len();
            let drained = buf.flush_to(&mut b).unwrap();
            if !drained {
                break false;
            }
            if total > 64 << 20 {
                break true; // unbounded kernel buffer; nothing to assert
            }
        };
        if !drained {
            assert!(buf.pending() > 0);
            // Reading on the other side makes room again.
            let mut a = a;
            let mut sink = vec![0u8; 1 << 20];
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let _ = a.read(&mut sink).unwrap();
                if buf.flush_to(&mut b).unwrap() {
                    break;
                }
                assert!(Instant::now() < deadline, "flush never completed");
            }
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn nofile_limit_can_be_raised_toward_target() {
        let now = raise_nofile_limit(1024).unwrap();
        assert!(now >= 1024 || now > 0);
    }
}
