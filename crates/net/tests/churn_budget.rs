//! The round trips of a hot-set change, as counts.
//!
//! A hot-set change costs its caller one blocking call per frame it sends:
//! key by key, a bootstrap install made N calls per key, an eviction N + 2
//! and an install 2N + 2 on an N-node rack. A `churn::Flip` steps
//! `link::PEER_BATCH_OPS` (B) keys at a time and makes one call per node
//! per phase, so K keys cost at most N·⌈K/B⌉, 3N·⌈K/B⌉ and 4N·⌈K/B⌉ calls.
//! This suite counts them with no clock involved: a 3-node in-process rack
//! whose admin connections are dialed through a transport that decodes
//! and counts the request frames they send.
//!
//! Each count is printed as `churn_budget <row> <calls per key>` before
//! anything is asserted, so a run against another commit reports its
//! numbers too.

use cckvs_net::churn::{Flip, Outcome, Transition};
use cckvs_net::client::{evict_hot_set_via, install_hot_set_via};
use cckvs_net::link::PEER_BATCH_OPS;
use cckvs_net::transport::{Connection, Transport, TransportKind, TransportListener};
use cckvs_net::wire::{read_frame, write_frame, Frame, FrameDecoder};
use cckvs_net::{Rack, RackConfig};
use consistency::messages::ConsistencyModel;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The rack's fabric, with every frame a dialed connection sends counted
/// (its hello aside).
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Transport>,
    requests: Arc<AtomicU64>,
}

impl Transport for Counting {
    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn listen(&self, addr: SocketAddr) -> io::Result<Box<dyn TransportListener>> {
        self.inner.listen(addr)
    }

    fn dial(&self, addr: SocketAddr, timeout: Duration) -> io::Result<Box<dyn Connection>> {
        let inner = self.inner.dial(addr, timeout)?;
        Ok(Box::new(Counted::new(inner, &self.requests)))
    }
}

/// A dialed connection whose written bytes are decoded as they leave.
#[derive(Debug)]
struct Counted {
    inner: Box<dyn Connection>,
    sent: FrameDecoder,
    requests: Arc<AtomicU64>,
}

impl Counted {
    fn new(inner: Box<dyn Connection>, requests: &Arc<AtomicU64>) -> Counted {
        let (sent, requests) = (FrameDecoder::new(), Arc::clone(requests));
        Counted {
            inner,
            sent,
            requests,
        }
    }
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.sent.feed(&buf[..n]);
        while let Some(frame) = self.sent.next_frame().expect("requests decode") {
            if frame != Frame::ClientHello {
                self.requests.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Connection for Counted {
    fn raw_fd(&self) -> RawFd {
        self.inner.raw_fd()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    fn try_clone(&self) -> io::Result<Box<dyn Connection>> {
        Ok(Box::new(Counted::new(
            self.inner.try_clone()?,
            &self.requests,
        )))
    }

    fn datagram_cap(&self) -> Option<usize> {
        self.inner.datagram_cap()
    }
}

#[test]
fn a_change_makes_a_few_calls_per_node_per_group_of_keys() {
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.cache_capacity = 512;
    let nodes = cfg.nodes as u64;
    let rack = Rack::launch(cfg).expect("launch rack");
    let requests = Arc::new(AtomicU64::new(0));
    let counting = Counting {
        inner: rack.transport().build(),
        requests: Arc::clone(&requests),
    };
    let addrs = rack.client_addrs();
    let calls = || requests.swap(0, Ordering::Relaxed);

    // The bootstrap install and an eviction, as `Rack::install_hot_set`
    // and `Rack::evict_hot_set` run them over the rack's own fabric.
    let entries: Vec<(u64, Vec<u8>)> = (0..256).map(|key| (key, vec![7; 16])).collect();
    install_hot_set_via(&counting, &addrs, &entries).expect("install");
    let install = calls();
    let evicted: Vec<u64> = (0..128).collect();
    evict_hot_set_via(&counting, &addrs, &evicted).expect("evict");
    let evict = calls();
    // The evicted keys back in, fenced, over one connection per node, the
    // way the epoch coordinator's `apply_hot_set` runs a flip.
    let mut conns: Vec<_> = (addrs.iter())
        .map(|&addr| {
            let mut conn = counting.dial(addr, Duration::from_secs(5)).expect("dial");
            write_frame(&mut conn, &Frame::ClientHello).expect("hello");
            conn.flush().expect("hello");
            conn
        })
        .collect();
    let installs = evicted
        .iter()
        .map(|&key| Transition::install(key, addrs.len()));
    let ended = Flip::new(installs.collect())
        .until_failure()
        .run(|node, frame| {
            write_frame(&mut conns[node], frame).ok()?;
            conns[node].flush().ok()?;
            read_frame(&mut conns[node]).ok().flatten()
        });
    let flip = calls();

    // (row, calls, keys, calls per node per group of keys at most)
    let rows = [
        ("bootstrap_install", install, 256u64, 1),
        ("eviction", evict, 128, 3),
        ("install_flip", flip, 128, 4),
    ];
    for (name, calls, keys, _) in rows {
        println!("churn_budget {name} {:.3}", calls as f64 / keys as f64);
    }
    assert_eq!(ended.len(), 128);
    assert!(ended
        .iter()
        .all(|&(_, outcome)| outcome == Outcome::Installed));
    for n in 0..rack.nodes() {
        let cached = rack.server(n).node().cache().keys().len();
        assert_eq!(cached, 256, "node {n} caches every key again");
    }
    for (name, calls, keys, per_group) in rows {
        let bound = per_group * nodes * keys.div_ceil(PEER_BATCH_OPS);
        assert!(
            calls <= bound,
            "{name}: {calls} calls for {keys} keys, over {bound}"
        );
    }
    rack.shutdown();
}
