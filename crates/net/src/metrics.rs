//! Lightweight metrics registry with a plain-text HTTP endpoint.
//!
//! Every [`crate::server::NodeServer`] (and optionally every
//! [`crate::client::Client`]) owns a [`Metrics`] registry: lock-free
//! counters for the serving breakdown (hits / misses / remote reads /
//! protocol traffic) plus bounded, lock-free latency histograms — an
//! end-to-end one and per-phase ones (Lin ack wait, continuation fire,
//! invalidation fan-out) that attribute where a slow write spends its
//! time. The registry renders in the Prometheus text exposition format
//! and can be served over a minimal HTTP/1.0 endpoint ([`serve_http_traced`])
//! so a rack can be scraped with `curl` while a workload runs.
//!
//! Histograms are fixed-bucket log-linear ([`AtomicHistogram`]): 16
//! sub-buckets per power of two, so storage is a constant ~8 KB per
//! histogram no matter how many samples land (a raw-sample `Vec` grew 8 B
//! per op — 80 MB per 10M-op run) and quantile estimates stay within
//! 1/16 ≈ 6% of exact. Recording is one atomic add on a bucket counter;
//! the hottest histograms are additionally striped across lanes
//! ([`ShardedHistogram`]) keyed by recording thread, so reactor shards
//! never contend on a cache line — the previous
//! mutex-guarded histogram serialized every operation on one lock.

use crate::transport::UdpStats;
use reactor::{Events, Interest, Poller, Token, Waker, WriteBuf};
use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Exact single-value buckets at the head of the layout (values `0..16`).
const LINEAR_BUCKETS: usize = 16;

/// Sub-buckets per power of two above the linear range.
const SUB_BUCKETS: usize = 16;

/// Total buckets: the linear head plus 16 sub-buckets for each power of
/// two from 2^4 through 2^63.
const BUCKETS: usize = LINEAR_BUCKETS + 60 * SUB_BUCKETS;

/// Lanes used by the hot-path [`ShardedHistogram`]s.
const HISTOGRAM_LANES: usize = 8;

fn bucket_index(value: u64) -> usize {
    if value < LINEAR_BUCKETS as u64 {
        value as usize
    } else {
        // value in [2^k, 2^(k+1)) with k >= 4; the top four bits below
        // the leading one select the sub-bucket.
        let k = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (k - 4)) & (SUB_BUCKETS as u64 - 1)) as usize;
        LINEAR_BUCKETS + (k - 4) * SUB_BUCKETS + sub
    }
}

/// Largest value mapping to bucket `idx` (inclusive).
fn bucket_upper_edge(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        idx as u64
    } else {
        let k = (idx - LINEAR_BUCKETS) / SUB_BUCKETS + 4;
        let m = ((idx - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
        // The final bucket's edge (2^64 - 1) wraps through zero.
        ((16 + m + 1) << (k - 4)).wrapping_sub(1)
    }
}

/// A bounded lock-free histogram: log-linear fixed buckets, one relaxed
/// atomic add per sample, constant memory forever.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram (allocates its full fixed bucket array).
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Heap bytes held — constant for the histogram's lifetime.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<AtomicU64>()
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Per-thread lane picker for [`ShardedHistogram`]: each recording
/// thread is pinned to one lane for its lifetime, so concurrent
/// recorders touch distinct cache lines.
fn histogram_lane(lanes: usize) -> usize {
    use std::cell::Cell;
    static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    LANE.with(|lane| {
        let mut id = lane.get();
        if id == usize::MAX {
            id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            lane.set(id);
        }
        id % lanes
    })
}

/// A lane-striped [`AtomicHistogram`] for the hottest recording sites:
/// every thread records into its own lane, lanes merge at snapshot time.
#[derive(Debug)]
pub struct ShardedHistogram {
    lanes: Vec<AtomicHistogram>,
}

impl Default for ShardedHistogram {
    fn default() -> Self {
        Self::new(HISTOGRAM_LANES)
    }
}

impl ShardedHistogram {
    /// A histogram striped over `lanes` lanes (minimum 1).
    pub fn new(lanes: usize) -> Self {
        ShardedHistogram {
            lanes: (0..lanes.max(1)).map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// Records one sample into the calling thread's lane.
    pub fn record(&self, value: u64) {
        self.lanes[histogram_lane(self.lanes.len())].record(value);
    }

    /// Samples recorded across all lanes.
    pub fn count(&self) -> u64 {
        self.lanes.iter().map(AtomicHistogram::count).sum()
    }

    /// Heap bytes held — constant for the histogram's lifetime.
    pub fn heap_bytes(&self) -> usize {
        self.lanes.iter().map(AtomicHistogram::heap_bytes).sum()
    }

    /// A merged point-in-time copy of every lane.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = self.lanes[0].snapshot();
        for lane in &self.lanes[1..] {
            merged.merge(&lane.snapshot());
        }
        merged
    }
}

/// A point-in-time copy of an [`AtomicHistogram`]'s buckets, with
/// quantile and export helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; other.buckets.len()];
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the upper edge of the
    /// bucket holding that rank — within 1/16 above the exact sample.
    /// Returns 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0);
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_edge(idx);
            }
        }
        bucket_upper_edge(self.buckets.len() - 1)
    }

    /// The occupied buckets as `(inclusive upper edge, count)` pairs, in
    /// ascending edge order — the full distribution, exportable.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_upper_edge(idx), n))
            .collect()
    }
}

/// A point-in-time copy of every counter plus latency percentiles (ns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Client GET requests served.
    pub gets: u64,
    /// Client PUT requests served.
    pub puts: u64,
    /// Operations served by the symmetric cache.
    pub cache_hits: u64,
    /// Operations that missed the cache.
    pub cache_misses: u64,
    /// Miss-path reads forwarded to a remote home shard.
    pub remote_reads: u64,
    /// Miss-path writes forwarded to a remote home shard.
    pub remote_writes: u64,
    /// Consistency-protocol messages received from peers.
    pub protocol_in: u64,
    /// Consistency-protocol messages sent to peers.
    pub protocol_out: u64,
    /// Highest hot-set epoch applied (coordinator node only).
    pub epoch: u64,
    /// Keys installed into the symmetric cache by hot-set reconfigurations.
    pub installs: u64,
    /// Keys evicted from the symmetric cache by hot-set reconfigurations.
    pub evictions: u64,
    /// Dirty evicted values written back to their home shards.
    pub writebacks: u64,
    /// Coalesced wire batches handled (client request batches served, or
    /// peer-mesh batches written, depending on which side records).
    pub batches: u64,
    /// Total operations carried inside those batches.
    pub batched_ops: u64,
    /// Median batch size in ops.
    pub batch_ops_p50: u64,
    /// 99th-percentile batch size in ops.
    pub batch_ops_p99: u64,
    /// Connections accepted over the node's lifetime (client sessions and
    /// peer links alike).
    pub conns_accepted: u64,
    /// Connections currently registered with the reactor.
    pub conns_open: u64,
    /// Reactor shard threads serving this node.
    pub reactor_shards: u64,
    /// Client GETs answered inline on a reactor shard (cache hit, no
    /// suspension).
    pub inline_gets: u64,
    /// Times a peer writer exhausted its credit window and had to wait for
    /// returns before sending.
    pub credit_stalls: u64,
    /// Total nanoseconds spent stalled on exhausted credit windows.
    pub credit_stall_ns: u64,
    /// 99th-percentile single credit stall in nanoseconds.
    pub credit_stall_p99_ns: u64,
    /// Latency-class frames (invalidations, Lin acks, RPC traffic) sent
    /// through the peer mesh's priority lane.
    pub priority_lane_frames: u64,
    /// `Credit` frames that rode a peer-mesh batch leaving anyway.
    pub credit_frames_piggybacked: u64,
    /// `Credit` frames that were a peer message of their own (return
    /// threshold reached, or the idle-tail tick).
    pub credit_frames_standalone: u64,
    /// Bulk corks flushed because the adaptive target size (or byte
    /// budget) was reached.
    pub cork_flush_full: u64,
    /// Bulk corks flushed because the oldest message waited out the
    /// `max_delay` deadline.
    pub cork_flush_deadline: u64,
    /// Bulk messages flushed immediately because the link was idle (the
    /// adaptive target had decayed to 1).
    pub cork_flush_idle: u64,
    /// Median flushed bulk-batch size chosen by the adaptive controller.
    pub adaptive_batch_p50: u64,
    /// 99th-percentile flushed bulk-batch size.
    pub adaptive_batch_p99: u64,
    /// Bulk flushes that served a nonzero cork wait.
    pub cork_wait_count: u64,
    /// Median time a corked bulk batch waited before flushing (ns).
    pub cork_wait_p50_ns: u64,
    /// 99th-percentile cork wait (ns).
    pub cork_wait_p99_ns: u64,
    /// Peer-link handshakes completed, dialed or accepted, with a peer this
    /// node had been connected to before.
    pub peer_reconnects: u64,
    /// Retained protocol messages replayed to peers after reconnects.
    pub peer_replayed: u64,
    /// Invalidations reissued toward restarted peers for pending writes.
    pub reissued_invalidations: u64,
    /// Protocol messages currently parked behind down peer links (gauge).
    pub parked_messages: u64,
    /// Messages dropped because a dead peer's park overflowed.
    pub parked_dropped: u64,
    /// Number of recorded latency samples.
    pub latency_count: usize,
    /// Mean operation latency in nanoseconds.
    pub latency_mean_ns: f64,
    /// Median operation latency in nanoseconds.
    pub latency_p50_ns: u64,
    /// 99th-percentile operation latency in nanoseconds.
    pub latency_p99_ns: u64,
    /// The full end-to-end latency distribution as
    /// `(inclusive upper edge ns, count)` bucket pairs.
    pub latency_buckets: Vec<(u64, u64)>,
    /// Lin writes that waited for invalidation acks.
    pub lin_ack_wait_count: u64,
    /// Median time a Lin write spent waiting for its ack round (ns).
    pub lin_ack_wait_p50_ns: u64,
    /// 99th-percentile Lin ack wait (ns).
    pub lin_ack_wait_p99_ns: u64,
    /// Suspended ops whose continuation resume was timed (replaces the
    /// retired worker-handoff phase: the continuation fire is the only
    /// hop left between an op's wake-up event and its response).
    pub continuation_fire_count: u64,
    /// Median time from a suspended op's wake-up event (final ack, RPC
    /// response, admin completion) to its continuation running on the
    /// owning shard (ns).
    pub continuation_fire_p50_ns: u64,
    /// 99th-percentile continuation fire (ns).
    pub continuation_fire_p99_ns: u64,
    /// Correlated RPCs awaiting a response right now (gauge). Leaked
    /// entries here mean a suspended op will hang until its deadline.
    pub pending_rpcs: u64,
    /// Writes whose coherence fan-out (enqueue toward every peer) was
    /// timed.
    pub fanout_count: u64,
    /// Median fan-out time (ns).
    pub fanout_p50_ns: u64,
    /// 99th-percentile fan-out time (ns).
    pub fanout_p99_ns: u64,
    /// Reactor shard loop laps run (one per return from the poll).
    pub loop_lap_count: u64,
    /// Median reactor shard loop lap (one poll + dispatch round, ns).
    pub loop_lap_p50_ns: u64,
    /// 99th-percentile reactor shard loop lap (ns).
    pub loop_lap_p99_ns: u64,
    /// Trace events recorded into this node's sink.
    pub trace_events: u64,
    /// Trace events dropped because a sink ring lane was full.
    pub trace_dropped: u64,
    /// Datagrams the node's own transport sent, by `/metrics` `kind`
    /// label (all zero on a stream fabric).
    pub udp_datagrams: [(&'static str, u64); 4],
    /// Per peer link that has been up, `peer → (data, ack)`: TCP segments
    /// the kernel sent on it carrying data, and pure ACKs (zero on UDP).
    pub peer_tcp_segments: BTreeMap<usize, (u64, u64)>,
}

impl MetricsSnapshot {
    /// Fraction of operations served by the symmetric cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    gets: AtomicU64,
    puts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    remote_reads: AtomicU64,
    remote_writes: AtomicU64,
    protocol_in: AtomicU64,
    protocol_out: AtomicU64,
    epoch: AtomicU64,
    installs: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    reactor_shards: AtomicU64,
    inline_gets: AtomicU64,
    credit_stalls: AtomicU64,
    credit_stall_ns: AtomicU64,
    peer_reconnects: AtomicU64,
    peer_replayed: AtomicU64,
    reissued_invalidations: AtomicU64,
    parked_messages: AtomicU64,
    parked_dropped: AtomicU64,
    pending_rpcs: AtomicU64,
    trace_events: AtomicU64,
    trace_dropped: AtomicU64,
    priority_lane_frames: AtomicU64,
    credit_frames_piggybacked: AtomicU64,
    credit_frames_standalone: AtomicU64,
    cork_flush_full: AtomicU64,
    cork_flush_deadline: AtomicU64,
    cork_flush_idle: AtomicU64,
    batch_sizes: AtomicHistogram,
    adaptive_batch: AtomicHistogram,
    credit_stall_hist: AtomicHistogram,
    cork_wait: AtomicHistogram,
    latency: ShardedHistogram,
    lin_ack_wait: ShardedHistogram,
    continuation_fire: ShardedHistogram,
    fanout: ShardedHistogram,
    loop_lap: ShardedHistogram,
    /// The census of the transport this registry's node serves on.
    udp: OnceLock<Arc<UdpStats>>,
    peer_tcp_segments: parking_lot::Mutex<BTreeMap<usize, (u64, u64)>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a client GET.
    pub fn record_get(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a client PUT.
    pub fn record_put(&self) {
        self.puts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records whether an operation hit the symmetric cache.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a miss-path read forwarded to a remote home shard.
    pub fn record_remote_read(&self) {
        self.remote_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss-path write forwarded to a remote home shard.
    pub fn record_remote_write(&self) {
        self.remote_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` protocol messages received from peers.
    pub fn record_protocol_in(&self, n: u64) {
        self.protocol_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` protocol messages sent to peers.
    pub fn record_protocol_out(&self, n: u64) {
        self.protocol_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Records that hot-set epoch `epoch` was applied (gauge; flips may be
    /// applied out of order when forced and automatic flips race, so the
    /// highest epoch wins).
    pub fn record_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Records `n` keys installed by a hot-set reconfiguration.
    pub fn record_installs(&self, n: u64) {
        self.installs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` keys evicted by a hot-set reconfiguration.
    pub fn record_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a dirty evicted value written back to its home shard.
    pub fn record_writeback(&self) {
        self.writebacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one coalesced wire batch carrying `ops` operations.
    pub fn record_batch(&self, ops: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_ops.fetch_add(ops, Ordering::Relaxed);
        self.batch_sizes.record(ops);
    }

    /// Records one accepted connection now registered with the reactor.
    pub fn record_conn_opened(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
        self.conns_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection leaving the reactor.
    pub fn record_conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the reactor topology gauge.
    pub fn set_reactor_shards(&self, shards: u64) {
        self.reactor_shards.store(shards, Ordering::Relaxed);
    }

    /// Records one client GET answered inline on a reactor shard.
    pub fn record_inline_get(&self) {
        self.inline_gets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one credit-window stall of `nanos` nanoseconds on a peer
    /// writer (the writer had traffic to send but no credits left).
    pub fn record_credit_stall_ns(&self, nanos: u64) {
        self.credit_stalls.fetch_add(1, Ordering::Relaxed);
        self.credit_stall_ns.fetch_add(nanos, Ordering::Relaxed);
        self.credit_stall_hist.record(nanos);
    }

    /// Records `n` latency-class frames (invalidations, Lin acks, RPC
    /// traffic) packed through a peer link's priority lane.
    pub fn record_priority_lane(&self, n: u64) {
        self.priority_lane_frames.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one `Credit` frame sent on a peer link: riding a batch
    /// (`piggybacked`) or as a message of its own.
    pub fn record_credit_frame(&self, piggybacked: bool) {
        let counter = if piggybacked {
            &self.credit_frames_piggybacked
        } else {
            &self.credit_frames_standalone
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one bulk cork flushed at its adaptive target size.
    pub fn record_cork_flush_full(&self) {
        self.cork_flush_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one bulk cork flushed by its `max_delay` deadline.
    pub fn record_cork_flush_deadline(&self) {
        self.cork_flush_deadline.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one bulk flush taken immediately on an idle link.
    pub fn record_cork_flush_idle(&self) {
        self.cork_flush_idle.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the size of one bulk batch the adaptive controller
    /// released (whatever the flush reason).
    pub fn record_adaptive_batch(&self, ops: u64) {
        self.adaptive_batch.record(ops);
    }

    /// Records the time a corked bulk batch waited before flushing.
    pub fn record_cork_wait_ns(&self, nanos: u64) {
        self.cork_wait.record(nanos);
    }

    /// Records one peer-link reconnect (a dialed or accepted handshake
    /// completed after the previous connection died).
    pub fn record_peer_reconnect(&self) {
        self.peer_reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` retained protocol messages replayed to a peer after a
    /// reconnect (the peer had not confirmed processing them).
    pub fn record_peer_replayed(&self, n: u64) {
        self.peer_replayed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` invalidations reissued toward a restarted peer on
    /// behalf of pending Lin writes it never acknowledged.
    pub fn record_reissued(&self, n: u64) {
        self.reissued_invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the parked-messages gauge: protocol traffic queued behind
    /// down peer links, waiting for a redial.
    pub fn set_parked(&self, n: u64) {
        self.parked_messages.store(n, Ordering::Relaxed);
    }

    /// Records one message dropped because a dead peer's park overflowed.
    pub fn record_parked_drop(&self) {
        self.parked_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one end-to-end operation latency in nanoseconds
    /// (lock-free: one atomic add into the calling thread's lane).
    pub fn record_latency_ns(&self, nanos: u64) {
        self.latency.record(nanos);
    }

    /// Records the time a Lin write spent blocked on its invalidation
    /// ack round (initiate → last ack).
    pub fn record_lin_ack_wait_ns(&self, nanos: u64) {
        self.lin_ack_wait.record(nanos);
    }

    /// Records the time from a suspended op's wake-up event (final ack
    /// delivered, RPC response arrived, admin job finished) to its
    /// continuation actually resuming on the owning shard.
    pub fn record_continuation_fire_ns(&self, nanos: u64) {
        self.continuation_fire.record(nanos);
    }

    /// Sets the pending correlated-RPC gauge (entries in the pending-RPC
    /// table awaiting a response).
    pub fn set_pending_rpcs(&self, n: u64) {
        self.pending_rpcs.store(n, Ordering::Relaxed);
    }

    /// Records the time a write spent enqueueing its coherence fan-out
    /// toward every peer link.
    pub fn record_fanout_ns(&self, nanos: u64) {
        self.fanout.record(nanos);
    }

    /// Records one reactor shard loop lap (poll + dispatch round).
    pub fn record_loop_lap_ns(&self, nanos: u64) {
        self.loop_lap.record(nanos);
    }

    /// Records `n` trace events captured into this node's sink.
    pub fn record_trace_events(&self, n: u64) {
        self.trace_events.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the cumulative count of trace events dropped by full rings.
    pub fn set_trace_dropped(&self, n: u64) {
        self.trace_dropped.store(n, Ordering::Relaxed);
    }

    /// The merged end-to-end latency distribution.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// Exports `stats` — the datagram census of the node's transport —
    /// with this registry (first call wins).
    pub fn attach_udp_stats(&self, stats: Arc<UdpStats>) {
        let _ = self.udp.set(stats);
    }

    /// Books TCP segments the kernel sent on the link to `peer` since the
    /// owning shard last looked: `data` carrying payload, `ack` pure ACKs.
    pub fn record_peer_tcp_segments(&self, peer: usize, data: u64, ack: u64) {
        let mut links = self.peer_tcp_segments.lock();
        let link = links.entry(peer).or_default();
        *link = (link.0 + data, link.1 + ack);
    }

    /// Takes a consistent snapshot (percentiles computed here).
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn quantiles(snap: &HistogramSnapshot) -> (u64, u64) {
            if snap.count == 0 {
                (0, 0)
            } else {
                (snap.percentile(50.0), snap.percentile(99.0))
            }
        }
        let latency = self.latency.snapshot();
        let latency_count = latency.count as usize;
        let (p50, p99) = quantiles(&latency);
        let mean = latency.mean();
        let (batch_ops_p50, batch_ops_p99) = quantiles(&self.batch_sizes.snapshot());
        let (adaptive_batch_p50, adaptive_batch_p99) = quantiles(&self.adaptive_batch.snapshot());
        let (_, credit_stall_p99_ns) = quantiles(&self.credit_stall_hist.snapshot());
        let cork_wait = self.cork_wait.snapshot();
        let (cork_wait_p50_ns, cork_wait_p99_ns) = quantiles(&cork_wait);
        let lin_ack_wait = self.lin_ack_wait.snapshot();
        let (lin_ack_wait_p50_ns, lin_ack_wait_p99_ns) = quantiles(&lin_ack_wait);
        let continuation_fire = self.continuation_fire.snapshot();
        let (continuation_fire_p50_ns, continuation_fire_p99_ns) = quantiles(&continuation_fire);
        let fanout = self.fanout.snapshot();
        let (fanout_p50_ns, fanout_p99_ns) = quantiles(&fanout);
        let loop_lap = self.loop_lap.snapshot();
        let (loop_lap_p50_ns, loop_lap_p99_ns) = quantiles(&loop_lap);
        MetricsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            remote_reads: self.remote_reads.load(Ordering::Relaxed),
            remote_writes: self.remote_writes.load(Ordering::Relaxed),
            protocol_in: self.protocol_in.load(Ordering::Relaxed),
            protocol_out: self.protocol_out.load(Ordering::Relaxed),
            epoch: self.epoch.load(Ordering::Relaxed),
            installs: self.installs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_ops: self.batched_ops.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            reactor_shards: self.reactor_shards.load(Ordering::Relaxed),
            inline_gets: self.inline_gets.load(Ordering::Relaxed),
            batch_ops_p50,
            batch_ops_p99,
            credit_stalls: self.credit_stalls.load(Ordering::Relaxed),
            credit_stall_ns: self.credit_stall_ns.load(Ordering::Relaxed),
            credit_stall_p99_ns,
            priority_lane_frames: self.priority_lane_frames.load(Ordering::Relaxed),
            credit_frames_piggybacked: self.credit_frames_piggybacked.load(Ordering::Relaxed),
            credit_frames_standalone: self.credit_frames_standalone.load(Ordering::Relaxed),
            cork_flush_full: self.cork_flush_full.load(Ordering::Relaxed),
            cork_flush_deadline: self.cork_flush_deadline.load(Ordering::Relaxed),
            cork_flush_idle: self.cork_flush_idle.load(Ordering::Relaxed),
            adaptive_batch_p50,
            adaptive_batch_p99,
            cork_wait_count: cork_wait.count,
            cork_wait_p50_ns,
            cork_wait_p99_ns,
            peer_reconnects: self.peer_reconnects.load(Ordering::Relaxed),
            peer_replayed: self.peer_replayed.load(Ordering::Relaxed),
            reissued_invalidations: self.reissued_invalidations.load(Ordering::Relaxed),
            parked_messages: self.parked_messages.load(Ordering::Relaxed),
            parked_dropped: self.parked_dropped.load(Ordering::Relaxed),
            latency_count,
            latency_mean_ns: mean,
            latency_p50_ns: p50,
            latency_p99_ns: p99,
            latency_buckets: latency.nonzero_buckets(),
            lin_ack_wait_count: lin_ack_wait.count,
            lin_ack_wait_p50_ns,
            lin_ack_wait_p99_ns,
            continuation_fire_count: continuation_fire.count,
            continuation_fire_p50_ns,
            continuation_fire_p99_ns,
            fanout_count: fanout.count,
            fanout_p50_ns,
            fanout_p99_ns,
            loop_lap_count: loop_lap.count,
            loop_lap_p50_ns,
            loop_lap_p99_ns,
            pending_rpcs: self.pending_rpcs.load(Ordering::Relaxed),
            trace_events: self.trace_events.load(Ordering::Relaxed),
            trace_dropped: self.trace_dropped.load(Ordering::Relaxed),
            udp_datagrams: self
                .udp
                .get()
                .map_or_else(|| UdpStats::default().snapshot(), |stats| stats.snapshot()),
            peer_tcp_segments: self.peer_tcp_segments.lock().clone(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self, node_label: &str) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(1024);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP cckvs_{name} {help}\n# TYPE cckvs_{name} counter\ncckvs_{name}{{node=\"{node_label}\"}} {value}\n"
            ));
        };
        counter("gets_total", "Client GET requests served.", snap.gets);
        counter("puts_total", "Client PUT requests served.", snap.puts);
        counter(
            "cache_hits_total",
            "Operations served by the symmetric cache.",
            snap.cache_hits,
        );
        counter(
            "cache_misses_total",
            "Operations that missed the symmetric cache.",
            snap.cache_misses,
        );
        counter(
            "remote_reads_total",
            "Miss-path reads forwarded to a remote home shard.",
            snap.remote_reads,
        );
        counter(
            "remote_writes_total",
            "Miss-path writes forwarded to a remote home shard.",
            snap.remote_writes,
        );
        counter(
            "protocol_in_total",
            "Consistency-protocol messages received.",
            snap.protocol_in,
        );
        counter(
            "protocol_out_total",
            "Consistency-protocol messages sent.",
            snap.protocol_out,
        );
        counter(
            "installs_total",
            "Keys installed into the symmetric cache by hot-set churn.",
            snap.installs,
        );
        counter(
            "evictions_total",
            "Keys evicted from the symmetric cache by hot-set churn.",
            snap.evictions,
        );
        counter(
            "writebacks_total",
            "Dirty evicted values written back to their home shards.",
            snap.writebacks,
        );
        counter(
            "batches_total",
            "Coalesced wire batches handled.",
            snap.batches,
        );
        counter(
            "batched_ops_total",
            "Operations carried inside coalesced wire batches.",
            snap.batched_ops,
        );
        counter(
            "conns_accepted_total",
            "Connections accepted over the node's lifetime.",
            snap.conns_accepted,
        );
        counter(
            "inline_gets_total",
            "Client GETs answered inline on a reactor shard.",
            snap.inline_gets,
        );
        counter(
            "credit_stalls_total",
            "Peer-writer stalls on an exhausted credit window.",
            snap.credit_stalls,
        );
        counter(
            "credit_stall_ns_total",
            "Nanoseconds spent stalled on exhausted credit windows.",
            snap.credit_stall_ns,
        );
        counter(
            "priority_lane_frames_total",
            "Latency-class frames sent through the peer mesh priority lane.",
            snap.priority_lane_frames,
        );
        counter(
            "cork_flush_full_total",
            "Bulk corks flushed at their adaptive target size.",
            snap.cork_flush_full,
        );
        counter(
            "cork_flush_deadline_total",
            "Bulk corks flushed by the max_delay deadline.",
            snap.cork_flush_deadline,
        );
        counter(
            "cork_flush_idle_total",
            "Bulk flushes taken immediately on an idle link.",
            snap.cork_flush_idle,
        );
        counter(
            "peer_reconnects_total",
            "Peer-link handshakes completed with a peer connected to before.",
            snap.peer_reconnects,
        );
        counter(
            "peer_replayed_total",
            "Retained protocol messages replayed to peers after reconnects.",
            snap.peer_replayed,
        );
        counter(
            "reissued_invalidations_total",
            "Invalidations reissued toward restarted peers for pending writes.",
            snap.reissued_invalidations,
        );
        counter(
            "parked_dropped_total",
            "Messages dropped because a dead peer's park overflowed.",
            snap.parked_dropped,
        );
        counter(
            "trace_events_total",
            "Trace events recorded into the node's sink.",
            snap.trace_events,
        );
        counter(
            "trace_dropped_total",
            "Trace events dropped because a sink ring lane was full.",
            snap.trace_dropped,
        );
        let credit_frames = [
            ("piggybacked", snap.credit_frames_piggybacked),
            ("standalone", snap.credit_frames_standalone),
        ];
        for (name, help, kinds) in [
            (
                "udp_datagrams_total",
                "UDP fabric datagrams sent by this node's transport, by kind.",
                &snap.udp_datagrams[..],
            ),
            (
                "credit_frames_total",
                "Credit frames sent on peer links: riding a batch, or alone.",
                &credit_frames[..],
            ),
        ] {
            out.push_str(&format!(
                "# HELP cckvs_{name} {help}\n# TYPE cckvs_{name} counter\n"
            ));
            for (kind, value) in kinds {
                out.push_str(&format!(
                    "cckvs_{name}{{node=\"{node_label}\",kind=\"{kind}\"}} {value}\n"
                ));
            }
        }
        out.push_str(
            "# HELP cckvs_peer_link_tcp_segments_total TCP segments the kernel sent per peer link: carrying data, or pure ACKs.\n\
             # TYPE cckvs_peer_link_tcp_segments_total counter\n",
        );
        for (peer, (data, ack)) in &snap.peer_tcp_segments {
            for (kind, value) in [("data", data), ("ack", ack)] {
                out.push_str(&format!(
                    "cckvs_peer_link_tcp_segments_total{{node=\"{node_label}\",peer=\"{peer}\",kind=\"{kind}\"}} {value}\n"
                ));
            }
        }
        for (suffix, value) in [
            ("batch_ops_p50", snap.batch_ops_p50),
            ("batch_ops_p99", snap.batch_ops_p99),
            ("credit_stall_p99_ns", snap.credit_stall_p99_ns),
            ("adaptive_batch_p50", snap.adaptive_batch_p50),
            ("adaptive_batch_p99", snap.adaptive_batch_p99),
            ("cork_wait_count", snap.cork_wait_count),
            ("cork_wait_p50_ns", snap.cork_wait_p50_ns),
            ("cork_wait_p99_ns", snap.cork_wait_p99_ns),
            ("conns_open", snap.conns_open),
            ("reactor_shards", snap.reactor_shards),
            ("parked_messages", snap.parked_messages),
            ("lin_ack_wait_count", snap.lin_ack_wait_count),
            ("lin_ack_wait_p50_ns", snap.lin_ack_wait_p50_ns),
            ("lin_ack_wait_p99_ns", snap.lin_ack_wait_p99_ns),
            ("continuation_fire_count", snap.continuation_fire_count),
            ("continuation_fire_p50_ns", snap.continuation_fire_p50_ns),
            ("continuation_fire_p99_ns", snap.continuation_fire_p99_ns),
            ("fanout_count", snap.fanout_count),
            ("fanout_p50_ns", snap.fanout_p50_ns),
            ("fanout_p99_ns", snap.fanout_p99_ns),
            ("loop_lap_count", snap.loop_lap_count),
            ("loop_lap_p50_ns", snap.loop_lap_p50_ns),
            ("loop_lap_p99_ns", snap.loop_lap_p99_ns),
            ("pending_rpcs", snap.pending_rpcs),
        ] {
            out.push_str(&format!(
                "# TYPE cckvs_{suffix} gauge\ncckvs_{suffix}{{node=\"{node_label}\"}} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP cckvs_epoch Highest hot-set epoch applied on this node.\n\
             # TYPE cckvs_epoch gauge\ncckvs_epoch{{node=\"{node_label}\"}} {}\n",
            snap.epoch
        ));
        out.push_str(&format!(
            "# HELP cckvs_hit_rate Fraction of operations served by the symmetric cache.\n\
             # TYPE cckvs_hit_rate gauge\ncckvs_hit_rate{{node=\"{node_label}\"}} {:.6}\n",
            snap.hit_rate()
        ));
        for (suffix, value) in [
            ("count", snap.latency_count as u64),
            ("p50_ns", snap.latency_p50_ns),
            ("p99_ns", snap.latency_p99_ns),
        ] {
            out.push_str(&format!(
                "# TYPE cckvs_latency_{suffix} gauge\ncckvs_latency_{suffix}{{node=\"{node_label}\"}} {value}\n"
            ));
        }
        // The full end-to-end distribution, Prometheus histogram style
        // (cumulative counts per inclusive upper edge).
        out.push_str("# TYPE cckvs_latency_ns histogram\n");
        let mut cumulative = 0u64;
        for (edge, count) in &snap.latency_buckets {
            cumulative += count;
            out.push_str(&format!(
                "cckvs_latency_ns_bucket{{node=\"{node_label}\",le=\"{edge}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "cckvs_latency_ns_bucket{{node=\"{node_label}\",le=\"+Inf\"}} {}\n",
            snap.latency_count
        ));
        out
    }
}

/// Handle to a running metrics HTTP endpoint.
pub struct MetricsServer {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    waker: Arc<Waker>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// The address the endpoint listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and joins its thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

/// Most concurrent scrape connections the endpoint holds; beyond this the
/// accept loop stops taking new sockets until one finishes. A scrape storm
/// therefore costs bounded memory and zero threads — the old
/// thread-per-scrape endpoint could be driven to thread exhaustion by
/// aggressive (or stuck) scrapers.
const MAX_SCRAPE_CONNS: usize = 128;

/// Request-head bytes read before answering regardless (a scrape target,
/// not a router — the path is irrelevant and giant heads are hostile).
const MAX_REQUEST_HEAD: usize = 8 * 1024;

const SCRAPE_TOKEN_WAKER: u64 = 0;
const SCRAPE_TOKEN_LISTENER: u64 = 1;

struct ScrapeConn {
    stream: TcpStream,
    head: Vec<u8>,
    response: WriteBuf,
    responding: bool,
}

/// Serves `metrics.render()` over HTTP/1.0 on `addr` (`0` port allowed),
/// from a single-thread reactor loop with a bounded connection set.
///
/// The endpoint answers every request path with the full registry — it is a
/// scrape target, not a router. Given a node's trace `sink` it also adopts
/// drain duty for it: the scrape thread periodically moves events out of
/// the lock-free rings into the sink's bounded store (and mirrors the
/// recorded/dropped totals into the registry), so ring lanes stay empty
/// even when nobody scrapes or dumps.
pub fn serve_http_traced(
    addr: SocketAddr,
    node_label: String,
    metrics: Arc<Metrics>,
    sink: Option<Arc<cckvs_trace::TraceSink>>,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poller = Poller::new()?;
    poller.register(
        listener.as_raw_fd(),
        Token(SCRAPE_TOKEN_LISTENER),
        Interest::READ,
    )?;
    let waker = Arc::new(Waker::new(&poller, Token(SCRAPE_TOKEN_WAKER))?);
    let running = Arc::new(AtomicBool::new(true));
    let thread_running = Arc::clone(&running);
    let thread_waker = Arc::clone(&waker);
    let handle = std::thread::Builder::new()
        .name(format!("cckvs-metrics-{node_label}"))
        .spawn(move || {
            scrape_loop(
                listener,
                poller,
                thread_waker,
                thread_running,
                node_label,
                metrics,
                sink,
            )
        })?;
    Ok(MetricsServer {
        addr: local,
        running,
        waker,
        handle: Some(handle),
    })
}

/// How often the scrape thread drains the trace rings when it also owns
/// a sink (bounds how long events sit in a ring lane).
const TRACE_DRAIN_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

#[allow(clippy::too_many_arguments)]
fn scrape_loop(
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    running: Arc<AtomicBool>,
    node_label: String,
    metrics: Arc<Metrics>,
    sink: Option<Arc<cckvs_trace::TraceSink>>,
) {
    let mut events = Events::with_capacity(64);
    let mut conns: HashMap<u64, ScrapeConn> = HashMap::new();
    let mut next_token = 16u64;
    let mut listener_paused = false;
    // With a sink to drain, wake on a timer even when nobody scrapes.
    let wait_timeout = sink.as_ref().map(|_| TRACE_DRAIN_INTERVAL);
    while running.load(Ordering::SeqCst) {
        if poller.wait(&mut events, wait_timeout).is_err() {
            continue;
        }
        waker.drain();
        if let Some(sink) = &sink {
            let drained = sink.drain();
            if drained > 0 {
                metrics.record_trace_events(drained as u64);
            }
            metrics.set_trace_dropped(sink.dropped());
        }
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let mut touched: Vec<u64> = Vec::new();
        let mut accept = false;
        for event in events.iter() {
            match event.token.0 {
                SCRAPE_TOKEN_WAKER => {}
                SCRAPE_TOKEN_LISTENER => accept = true,
                token => touched.push(token),
            }
        }
        if accept {
            while conns.len() < MAX_SCRAPE_CONNS {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let token = next_token;
                        next_token += 1;
                        if poller
                            .register(stream.as_raw_fd(), Token(token), Interest::READ)
                            .is_ok()
                        {
                            conns.insert(
                                token,
                                ScrapeConn {
                                    stream,
                                    head: Vec::new(),
                                    response: WriteBuf::new(),
                                    responding: false,
                                },
                            );
                            touched.push(token);
                        }
                    }
                    // WouldBlock and transient errors alike: retry on the
                    // next readiness event instead of dying.
                    Err(_) => break,
                }
            }
        }
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let mut done = false;
            if !conn.responding {
                // Accumulate the request head until a blank line (or the
                // cap, or EOF — tolerate clients that close early).
                let mut buf = [0u8; 1024];
                let complete = loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => break true,
                        Ok(n) => {
                            conn.head.extend_from_slice(&buf[..n]);
                            if conn.head.len() >= MAX_REQUEST_HEAD
                                || conn.head.windows(4).any(|w| w == b"\r\n\r\n")
                            {
                                break true;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            done = true;
                            break false;
                        }
                    }
                };
                if complete && !done {
                    let body = metrics.render(&node_label);
                    conn.response.push(
                        format!(
                            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                            body.len(),
                            body
                        )
                        .as_bytes(),
                    );
                    conn.responding = true;
                    let _ = poller.modify(conn.stream.as_raw_fd(), Token(token), Interest::WRITE);
                }
            }
            if conn.responding && !done {
                match conn.response.flush_to(&mut conn.stream) {
                    Ok(true) => done = true,
                    Ok(false) => {}
                    Err(_) => done = true,
                }
            }
            if done {
                let conn = conns.remove(&token).expect("present above");
                poller.deregister(conn.stream.as_raw_fd());
            }
        }
        // The bounded set acts as accept backpressure: pause the listener
        // registration while full so epoll does not spin on pending
        // connections, resume once a slot frees up.
        if !listener_paused && conns.len() >= MAX_SCRAPE_CONNS {
            poller.deregister(listener.as_raw_fd());
            listener_paused = true;
        } else if listener_paused
            && conns.len() < MAX_SCRAPE_CONNS
            && poller
                .register(
                    listener.as_raw_fd(),
                    Token(SCRAPE_TOKEN_LISTENER),
                    Interest::READ,
                )
                .is_ok()
        {
            listener_paused = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn counters_and_hit_rate() {
        let m = Metrics::new();
        for _ in 0..3 {
            m.record_get();
            m.record_cache(true);
        }
        m.record_put();
        m.record_cache(false);
        m.record_remote_read();
        m.record_protocol_out(2);
        let snap = m.snapshot();
        assert_eq!(snap.gets, 3);
        assert_eq!(snap.puts, 1);
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.remote_reads, 1);
        assert_eq!(snap.protocol_out, 2);
        assert!((snap.hit_rate() - 0.75).abs() < 1e-9);
    }

    /// Bucketed quantile estimates land within 1/16 above the exact
    /// sample (the bucket's inclusive upper edge).
    fn assert_close(estimate: u64, exact: u64) {
        assert!(
            estimate >= exact && estimate <= exact + exact / 16 + 1,
            "estimate {estimate} not within 1/16 above exact {exact}"
        );
    }

    #[test]
    fn latency_percentiles() {
        let m = Metrics::new();
        for ns in 1..=100u64 {
            m.record_latency_ns(ns * 1000);
        }
        let snap = m.snapshot();
        assert_eq!(snap.latency_count, 100);
        assert_close(snap.latency_p50_ns, 50_000);
        assert_close(snap.latency_p99_ns, 99_000);
        assert!((snap.latency_mean_ns - 50_500.0).abs() < 1e-9);
        // The exported buckets reconstruct the full count.
        let total: u64 = snap.latency_buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 100);
        assert!(
            snap.latency_buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "bucket edges must ascend"
        );
    }

    #[test]
    fn histogram_buckets_are_exact_small_and_log_linear_large() {
        let h = AtomicHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        // Small values are exact: percentile rank k+1 returns value k.
        assert_eq!(snap.percentile(50.0), 7);
        assert_eq!(snap.percentile(100.0), 15);
        // Large values are within 1/16.
        let h = AtomicHistogram::new();
        for v in [1_000_000u64, 2_000_000, u64::MAX / 2, u64::MAX] {
            h.record(v);
            let snap = h.snapshot();
            let p100 = snap.percentile(100.0);
            assert!(p100 >= v, "edge {p100} below sample {v}");
            assert!(
                (p100 as u128) <= (v as u128) + (v as u128) / 16 + 1,
                "edge {p100} too far above sample {v}"
            );
        }
    }

    #[test]
    fn sharded_histogram_merges_across_recording_threads() {
        let h = Arc::new(ShardedHistogram::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_close(snap.percentile(100.0), 3_000_999);
    }

    /// Satellite: a 10M-sample run holds constant memory. The previous
    /// raw-sample histogram grew 8 B per op (80 MB for this run); the
    /// fixed-bucket histogram's heap is identical before and after.
    #[test]
    fn ten_million_samples_hold_constant_memory() {
        let m = Metrics::new();
        let before = m.latency.heap_bytes() + m.credit_stall_hist.heap_bytes();
        for i in 0..10_000_000u64 {
            m.record_latency_ns(i & 0xFFFFF);
        }
        let after = m.latency.heap_bytes() + m.credit_stall_hist.heap_bytes();
        assert_eq!(before, after, "histogram memory must not grow with samples");
        assert!(
            after < 256 * 1024,
            "histogram footprint should be tens of KB, got {after}"
        );
        assert_eq!(m.snapshot().latency_count, 10_000_000);
    }

    #[test]
    fn per_phase_histograms_surface_in_snapshot_and_render() {
        let m = Metrics::new();
        m.record_lin_ack_wait_ns(120_000);
        m.record_continuation_fire_ns(3_000);
        m.record_fanout_ns(900);
        m.record_loop_lap_ns(40_000);
        m.set_pending_rpcs(5);
        m.record_trace_events(17);
        m.set_trace_dropped(2);
        let snap = m.snapshot();
        assert_eq!(snap.lin_ack_wait_count, 1);
        assert_close(snap.lin_ack_wait_p99_ns, 120_000);
        assert_eq!(snap.continuation_fire_count, 1);
        assert_close(snap.continuation_fire_p50_ns, 3_000);
        assert_eq!(snap.fanout_count, 1);
        assert_close(snap.fanout_p99_ns, 900);
        assert_eq!(snap.loop_lap_count, 1);
        assert_close(snap.loop_lap_p99_ns, 40_000);
        assert_eq!(snap.pending_rpcs, 5);
        assert_eq!(snap.trace_events, 17);
        assert_eq!(snap.trace_dropped, 2);
        let text = m.render("n7");
        assert!(text.contains("cckvs_lin_ack_wait_p99_ns{node=\"n7\"}"));
        assert!(text.contains("cckvs_continuation_fire_p50_ns{node=\"n7\"}"));
        assert!(text.contains("cckvs_fanout_p99_ns{node=\"n7\"}"));
        assert!(text.contains("cckvs_loop_lap_p99_ns{node=\"n7\"}"));
        assert!(text.contains("cckvs_loop_lap_count{node=\"n7\"} 1"));
        assert!(text.contains("cckvs_udp_datagrams_total{node=\"n7\",kind=\"retransmit\"}"));
        assert!(text.contains("cckvs_pending_rpcs{node=\"n7\"} 5"));
        assert!(text.contains("cckvs_trace_events_total{node=\"n7\"} 17"));
        assert!(text.contains("cckvs_latency_ns_bucket{node=\"n7\",le=\"+Inf\"} 0"));
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = Metrics::new();
        m.record_get();
        m.record_cache(true);
        let text = m.render("n0");
        assert!(text.contains("cckvs_gets_total{node=\"n0\"} 1"));
        assert!(text.contains("# TYPE cckvs_hit_rate gauge"));
        assert!(text.contains("cckvs_hit_rate{node=\"n0\"} 1.000000"));
    }

    #[test]
    fn churn_counters_surface_in_snapshot_and_render() {
        let m = Metrics::new();
        m.record_epoch(3);
        m.record_epoch(2); // out-of-order apply: the gauge keeps the max
        m.record_installs(5);
        m.record_evictions(4);
        m.record_writeback();
        m.record_writeback();
        let snap = m.snapshot();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.installs, 5);
        assert_eq!(snap.evictions, 4);
        assert_eq!(snap.writebacks, 2);
        let text = m.render("n1");
        assert!(text.contains("cckvs_epoch{node=\"n1\"} 3"));
        assert!(text.contains("cckvs_installs_total{node=\"n1\"} 5"));
        assert!(text.contains("cckvs_evictions_total{node=\"n1\"} 4"));
        assert!(text.contains("cckvs_writebacks_total{node=\"n1\"} 2"));
    }

    #[test]
    fn batch_and_credit_metrics_surface_in_snapshot_and_render() {
        let m = Metrics::new();
        for ops in [1u64, 8, 8, 16] {
            m.record_batch(ops);
        }
        m.record_credit_stall_ns(5_000);
        m.record_credit_stall_ns(15_000);
        let snap = m.snapshot();
        assert_eq!(snap.batches, 4);
        assert_eq!(snap.batched_ops, 33);
        assert_eq!(snap.batch_ops_p50, 8);
        assert_eq!(snap.batch_ops_p99, 16);
        assert_eq!(snap.credit_stalls, 2);
        assert_eq!(snap.credit_stall_ns, 20_000);
        assert_close(snap.credit_stall_p99_ns, 15_000);
        let text = m.render("n2");
        assert!(text.contains("cckvs_batches_total{node=\"n2\"} 4"));
        assert!(text.contains("cckvs_batched_ops_total{node=\"n2\"} 33"));
        assert!(text.contains("cckvs_credit_stalls_total{node=\"n2\"} 2"));
        assert!(text.contains("cckvs_batch_ops_p99{node=\"n2\"} 16"));
    }

    #[test]
    fn scrape_storm_is_served_without_extra_threads() {
        let metrics = Arc::new(Metrics::new());
        metrics.record_get();
        let server = serve_http_traced(
            "127.0.0.1:0".parse().unwrap(),
            "storm".to_string(),
            Arc::clone(&metrics),
            None,
        )
        .unwrap();
        let addr = server.addr();
        // Concurrent scrapers hammering the endpoint: every request gets a
        // complete, valid response, from the single reactor thread.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..40 {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
                        let mut response = String::new();
                        stream.read_to_string(&mut response).unwrap();
                        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
                        assert!(response.contains("cckvs_gets_total"));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn http_endpoint_serves_metrics() {
        let metrics = Arc::new(Metrics::new());
        metrics.record_get();
        metrics.record_cache(true);
        let server = serve_http_traced(
            "127.0.0.1:0".parse().unwrap(),
            "n9".to_string(),
            Arc::clone(&metrics),
            None,
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        assert!(response.contains("cckvs_gets_total{node=\"n9\"} 1"));
        server.shutdown();
    }
}
