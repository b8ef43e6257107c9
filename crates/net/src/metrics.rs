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

/// One metric family on `/metrics`: a row of [`Metrics::families`].
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The family's full name (`cckvs_…`).
    pub name: &'static str,
    /// Its `# TYPE`: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Its `# HELP` — for a plain family also the rustdoc of the
    /// [`MetricsSnapshot`] field it exports.
    pub help: &'static str,
    /// The snapshot field a plain family's one sample carries (`None`:
    /// labelled or derived, [`Metrics::render`] writes its samples out).
    pub value: Option<fn(&MetricsSnapshot) -> u64>,
}

/// A counter is `cckvs_<field>_total`, anything else `cckvs_<field>`.
macro_rules! family_name {
    (counter $field:ident) => {
        concat!("cckvs_", stringify!($field), "_total")
    };
    ($kind:ident $field:ident) => {
        concat!("cckvs_", stringify!($field))
    };
}

/// The recorder a counter or gauge row names: one relaxed atomic
/// operation, on the constant 1 or on the caller's `n`.
macro_rules! recorder {
    ($field:ident $rec:ident $op:ident(1)) => {
        #[doc = concat!("Relaxed `", stringify!($op), "(1)` on `", stringify!($field), "`.")]
        pub fn $rec(&self) {
            self.$field.$op(1, Ordering::Relaxed);
        }
    };
    ($field:ident $rec:ident $op:ident(n)) => {
        #[doc = concat!("Relaxed `", stringify!($op), "(n)` on `", stringify!($field), "`.")]
        pub fn $rec(&self, n: u64) {
            self.$field.$op(n, Ordering::Relaxed);
        }
    };
}

/// The registry's vocabulary, each family stated once: the macro expands
/// the rows to [`MetricsSnapshot`], [`Metrics`], the single-atomic
/// recorders, [`Metrics::snapshot`] and [`Metrics::families`], which
/// [`Metrics::render`] walks — `/metrics` serves the rows in this order.
///
/// * `atomics`: `counter|gauge <field>[: <recorder> = <atomic op>(1|n)],
///   "<help>";` — one `AtomicU64`, the same-named snapshot field (its
///   rustdoc is the help string) and the family [`family_name`] derives.
///   A row without a recorder is fed by a compound recorder written out
///   below the table.
/// * `histograms`: `<field>: <histogram type>[, <recorder>] { <count |
///   percentile(p)> <snapshot field>, "<help>"; … }` — one histogram, and
///   one gauge per [`HistogramSnapshot`] statistic it exports.
/// * `special`: `<kind> <name>, "<help>";` — a family whose storage, snapshot
///   fields and samples are written out by hand (labelled, derived, or the
///   latency distribution); the row is its place and its `# HELP`.
///
/// Adding a family is one row here and its name in `docs/METRICS.md`.
/// rustfmt leaves the invocation alone (brace-delimited macro body).
macro_rules! metric_families {
    (
        atomics {$(
            $kind:ident $afield:ident $(: $arec:ident = $op:ident($arg:tt))?, $ahelp:literal;
        )*}
        histograms {$(
            $hfield:ident: $hty:ident $(, $hrec:ident)? {$(
                $stat:ident$(($pct:literal))? $sfield:ident, $shelp:literal;
            )*}
        )*}
        special {$(
            $skind:ident $sname:ident, $sphelp:literal;
        )*}
    ) => {
        /// A point-in-time copy of every counter plus latency percentiles (ns).
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $(#[doc = $ahelp] pub $afield: u64,)*
            $($(#[doc = $shelp] pub $sfield: u64,)*)*
            /// `Credit` frames that rode a peer-mesh batch leaving anyway.
            pub credit_frames_piggybacked: u64,
            /// `Credit` frames that were a peer message of their own (return
            /// threshold reached, or the idle-tail tick).
            pub credit_frames_standalone: u64,
            /// Number of recorded latency samples.
            pub latency_count: usize,
            /// Mean operation latency in nanoseconds.
            pub latency_mean_ns: f64,
            /// The full end-to-end latency distribution as
            /// `(inclusive upper edge ns, count)` bucket pairs.
            pub latency_buckets: Vec<(u64, u64)>,
            /// Datagrams the node's own transport sent, by `/metrics` `kind`
            /// label (all zero on a stream fabric).
            pub udp_datagrams: [(&'static str, u64); 4],
            /// Per peer link that has been up, `peer → (data, ack)`: TCP segments
            /// the kernel sent on it carrying data, and pure ACKs (zero on UDP).
            pub peer_tcp_segments: BTreeMap<usize, (u64, u64)>,
        }

        /// The metrics registry.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($afield: AtomicU64,)*
            $($hfield: $hty,)*
            credit_frames_piggybacked: AtomicU64,
            credit_frames_standalone: AtomicU64,
            /// The census of the transport this registry's node serves on.
            udp: OnceLock<Arc<UdpStats>>,
            peer_tcp_segments: parking_lot::Mutex<BTreeMap<usize, (u64, u64)>>,
        }

        const FAMILIES: &[Family] = &[
            $(Family {
                name: family_name!($kind $afield),
                kind: stringify!($kind),
                help: $ahelp,
                value: Some(|snap| snap.$afield),
            },)*
            $($(Family {
                name: family_name!(gauge $sfield),
                kind: "gauge",
                help: $shelp,
                value: Some(|snap| snap.$sfield),
            },)*)*
            $(Family {
                name: family_name!($skind $sname),
                kind: stringify!($skind),
                help: $sphelp,
                value: None,
            },)*
        ];

        impl Metrics {
            $($(recorder!($afield $arec $op($arg));)?)*
            $($(
                #[doc = concat!("Records one sample into `", stringify!($hfield), "`.")]
                pub fn $hrec(&self, sample: u64) {
                    self.$hfield.record(sample);
                }
            )?)*

            /// Takes a consistent snapshot (percentiles computed here).
            pub fn snapshot(&self) -> MetricsSnapshot {
                struct Copies {$($hfield: HistogramSnapshot,)*}
                let hist = Copies {$($hfield: self.$hfield.snapshot(),)*};
                let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
                MetricsSnapshot {
                    $($afield: load(&self.$afield),)*
                    $($($sfield: hist.$hfield.$stat$(($pct))?,)*)*
                    credit_frames_piggybacked: load(&self.credit_frames_piggybacked),
                    credit_frames_standalone: load(&self.credit_frames_standalone),
                    latency_count: hist.latency.count as usize,
                    latency_mean_ns: hist.latency.mean(),
                    latency_buckets: hist.latency.nonzero_buckets(),
                    udp_datagrams: self
                        .udp
                        .get()
                        .map_or_else(|| UdpStats::default().snapshot(), |stats| stats.snapshot()),
                    peer_tcp_segments: self.peer_tcp_segments.lock().clone(),
                }
            }

            /// Every family `/metrics` serves, in the order it serves them.
            pub fn families() -> &'static [Family] {
                FAMILIES
            }
        }
    };
}

metric_families! {
    atomics {
        counter gets: record_get = fetch_add(1), "Client GET requests served.";
        counter puts: record_put = fetch_add(1), "Client PUT requests served.";
        counter cache_hits, "Operations served by the symmetric cache.";
        counter cache_misses, "Operations that missed the cache.";
        counter remote_reads: record_remote_read = fetch_add(1),
            "Miss-path reads forwarded to a remote home shard.";
        counter remote_writes: record_remote_write = fetch_add(1),
            "Miss-path writes forwarded to a remote home shard.";
        counter protocol_in: record_protocol_in = fetch_add(n),
            "Consistency-protocol messages received from peers.";
        counter protocol_out: record_protocol_out = fetch_add(n),
            "Consistency-protocol messages sent to peers.";
        counter installs: record_installs = fetch_add(n),
            "Keys installed into the symmetric cache by hot-set reconfigurations.";
        counter evictions: record_evictions = fetch_add(n),
            "Keys evicted from the symmetric cache by hot-set reconfigurations.";
        counter writebacks: record_writeback = fetch_add(1),
            "Dirty evicted values written back to their home shards.";
        counter batches,
            "Coalesced wire batches handled (client request batches served, or peer-mesh batches \
             written, depending on which side records).";
        counter batched_ops, "Total operations carried inside those batches.";
        counter conns_accepted,
            "Connections accepted over the node's lifetime (client sessions and peer links alike).";
        counter inline_gets: record_inline_get = fetch_add(1),
            "Client GETs answered inline on a reactor shard (cache hit, no suspension).";
        counter credit_stalls,
            "Times a peer writer exhausted its credit window and had to wait for returns before \
             sending.";
        counter credit_stall_ns, "Total nanoseconds spent stalled on exhausted credit windows.";
        counter priority_lane_frames: record_priority_lane = fetch_add(n),
            "Latency-class frames (invalidations, Lin acks, RPC traffic) sent through the peer \
             mesh's priority lane.";
        counter cork_flush_full: record_cork_flush_full = fetch_add(1),
            "Bulk corks flushed because the adaptive target size (or byte budget) was reached.";
        counter cork_flush_deadline: record_cork_flush_deadline = fetch_add(1),
            "Bulk corks flushed because the oldest message waited out the `max_delay` deadline.";
        counter cork_flush_idle: record_cork_flush_idle = fetch_add(1),
            "Bulk messages flushed immediately because the link was idle (the adaptive target had \
             decayed to 1).";
        counter peer_reconnects: record_peer_reconnect = fetch_add(1),
            "Peer-link handshakes completed, dialed or accepted, with a peer this node had been \
             connected to before.";
        counter peer_replayed: record_peer_replayed = fetch_add(n),
            "Retained protocol messages replayed to peers after reconnects.";
        counter reissued_invalidations: record_reissued = fetch_add(n),
            "Invalidations reissued toward restarted peers for pending writes.";
        counter parked_dropped: record_parked_drop = fetch_add(1),
            "Messages dropped because a dead peer's park overflowed.";
        counter trace_events: record_trace_events = fetch_add(n),
            "Trace events recorded into this node's sink.";
        counter trace_dropped: set_trace_dropped = store(n),
            "Trace events dropped because a sink ring lane was full.";
        gauge conns_open, "Connections currently registered with the reactor.";
        gauge reactor_shards: set_reactor_shards = store(n),
            "Reactor shard threads serving this node.";
        gauge parked_messages: set_parked = store(n),
            "Protocol messages currently parked behind down peer links (gauge).";
        gauge pending_rpcs: set_pending_rpcs = store(n),
            "Correlated RPCs awaiting a response right now (gauge). Leaked entries here mean a \
             suspended op will hang until its deadline.";
        gauge epoch: record_epoch = fetch_max(n),
            "Highest hot-set epoch applied (coordinator node only).";
    }
    histograms {
        batch_sizes: AtomicHistogram {
            percentile(50.0) batch_ops_p50, "Median batch size in ops.";
            percentile(99.0) batch_ops_p99, "99th-percentile batch size in ops.";
        }
        credit_stall_hist: AtomicHistogram {
            percentile(99.0) credit_stall_p99_ns,
                "99th-percentile single credit stall in nanoseconds.";
        }
        adaptive_batch: AtomicHistogram, record_adaptive_batch {
            percentile(50.0) adaptive_batch_p50,
                "Median flushed bulk-batch size chosen by the adaptive controller.";
            percentile(99.0) adaptive_batch_p99, "99th-percentile flushed bulk-batch size.";
        }
        cork_wait: AtomicHistogram, record_cork_wait_ns {
            count cork_wait_count, "Bulk flushes that served a nonzero cork wait.";
            percentile(50.0) cork_wait_p50_ns,
                "Median time a corked bulk batch waited before flushing (ns).";
            percentile(99.0) cork_wait_p99_ns, "99th-percentile cork wait (ns).";
        }
        lin_ack_wait: ShardedHistogram, record_lin_ack_wait_ns {
            count lin_ack_wait_count, "Lin writes that waited for invalidation acks.";
            percentile(50.0) lin_ack_wait_p50_ns,
                "Median time a Lin write spent waiting for its ack round (ns).";
            percentile(99.0) lin_ack_wait_p99_ns, "99th-percentile Lin ack wait (ns).";
        }
        continuation_fire: ShardedHistogram, record_continuation_fire_ns {
            count continuation_fire_count,
                "Suspended ops whose continuation resume was timed (replaces the retired \
                 worker-handoff phase: the continuation fire is the only hop left between an op's \
                 wake-up event and its response).";
            percentile(50.0) continuation_fire_p50_ns,
                "Median time from a suspended op's wake-up event (final ack, RPC response, admin \
                 completion) to its continuation running on the owning shard (ns).";
            percentile(99.0) continuation_fire_p99_ns, "99th-percentile continuation fire (ns).";
        }
        fanout: ShardedHistogram, record_fanout_ns {
            count fanout_count,
                "Writes whose coherence fan-out (enqueue toward every peer) was timed.";
            percentile(50.0) fanout_p50_ns, "Median fan-out time (ns).";
            percentile(99.0) fanout_p99_ns, "99th-percentile fan-out time (ns).";
        }
        loop_lap: ShardedHistogram, record_loop_lap_ns {
            count loop_lap_count, "Reactor shard loop laps run (one per return from the poll).";
            percentile(50.0) loop_lap_p50_ns,
                "Median reactor shard loop lap (one poll + dispatch round, ns).";
            percentile(99.0) loop_lap_p99_ns, "99th-percentile reactor shard loop lap (ns).";
        }
        latency: ShardedHistogram, record_latency_ns {
            percentile(50.0) latency_p50_ns, "Median operation latency in nanoseconds.";
            percentile(99.0) latency_p99_ns, "99th-percentile operation latency in nanoseconds.";
        }
    }
    special {
        counter udp_datagrams, "UDP fabric datagrams sent by this node's transport, by kind.";
        counter credit_frames,
            "`Credit` frames sent on peer links: riding a batch that was leaving anyway, or as a \
             peer message of their own.";
        counter peer_link_tcp_segments,
            "TCP segments the kernel sent per peer link: carrying data, or pure ACKs.";
        gauge hit_rate, "Fraction of operations served by the symmetric cache.";
        gauge latency_count, "Number of recorded latency samples.";
        histogram latency_ns,
            "The full end-to-end latency distribution: cumulative counts per inclusive upper edge \
             (ns), their sum and count.";
    }
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

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records whether an operation hit the symmetric cache.
    pub fn record_cache(&self, hit: bool) {
        let counter = if hit {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
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

    /// Records one credit-window stall of `nanos` nanoseconds on a peer
    /// writer (the writer had traffic to send but no credits left).
    pub fn record_credit_stall_ns(&self, nanos: u64) {
        self.credit_stalls.fetch_add(1, Ordering::Relaxed);
        self.credit_stall_ns.fetch_add(nanos, Ordering::Relaxed);
        self.credit_stall_hist.record(nanos);
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

    /// Renders the registry in the Prometheus text exposition format: the
    /// rows of [`Metrics::families`] in order, each with its `# HELP`, its
    /// `# TYPE` and its samples.
    pub fn render(&self, node_label: &str) -> String {
        let snap = self.snapshot();
        let latency = self.latency.snapshot();
        let mut out = String::with_capacity(8 * 1024);
        for family in Self::families() {
            let (name, help, kind) = (family.name, family.help, family.kind);
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            let mut sample = |series: &str, labels: &str, value: &dyn std::fmt::Display| {
                out.push_str(&format!(
                    "{name}{series}{{node=\"{node_label}\"{labels}}} {value}\n"
                ));
            };
            match (family.value, name) {
                (Some(value), _) => sample("", "", &value(&snap)),
                (None, "cckvs_udp_datagrams_total") => {
                    for (kind, value) in &snap.udp_datagrams {
                        sample("", &format!(",kind=\"{kind}\""), value);
                    }
                }
                (None, "cckvs_credit_frames_total") => {
                    sample("", ",kind=\"piggybacked\"", &snap.credit_frames_piggybacked);
                    sample("", ",kind=\"standalone\"", &snap.credit_frames_standalone);
                }
                (None, "cckvs_peer_link_tcp_segments_total") => {
                    for (peer, (data, ack)) in &snap.peer_tcp_segments {
                        sample("", &format!(",peer=\"{peer}\",kind=\"data\""), data);
                        sample("", &format!(",peer=\"{peer}\",kind=\"ack\""), ack);
                    }
                }
                (None, "cckvs_hit_rate") => sample("", "", &format_args!("{:.6}", snap.hit_rate())),
                (None, "cckvs_latency_count") => sample("", "", &snap.latency_count),
                // Prometheus histogram style: cumulative counts per
                // inclusive upper edge, then the sum and the count.
                (None, "cckvs_latency_ns") => {
                    let mut cumulative = 0u64;
                    for (edge, count) in latency.nonzero_buckets() {
                        cumulative += count;
                        sample("_bucket", &format!(",le=\"{edge}\""), &cumulative);
                    }
                    sample("_bucket", ",le=\"+Inf\"", &latency.count);
                    sample("_sum", "", &latency.sum);
                    sample("_count", "", &latency.count);
                }
                (None, other) => unreachable!("special family {other} has no samples"),
            }
        }
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

    /// Every recorder driven once, each family left with a value of its
    /// own: the sample line `/metrics` serves for a family carries exactly
    /// what the snapshot field of the same row holds.
    #[test]
    fn every_family_sample_carries_its_snapshot_field() {
        let m = Metrics::new();
        let times = |n: u64, record: &dyn Fn()| (0..n).for_each(|_| record());
        times(31, &|| m.record_get());
        times(32, &|| m.record_put());
        times(33, &|| m.record_cache(true));
        times(34, &|| m.record_cache(false));
        times(35, &|| m.record_remote_read());
        times(36, &|| m.record_remote_write());
        times(37, &|| m.record_writeback());
        times(38, &|| m.record_inline_get());
        times(39, &|| m.record_cork_flush_full());
        times(40, &|| m.record_cork_flush_deadline());
        times(41, &|| m.record_cork_flush_idle());
        times(42, &|| m.record_peer_reconnect());
        times(43, &|| m.record_parked_drop());
        times(45, &|| m.record_conn_opened());
        m.record_conn_closed();
        times(46, &|| m.record_credit_frame(true));
        times(47, &|| m.record_credit_frame(false));
        m.record_protocol_in(101);
        m.record_protocol_out(102);
        m.record_installs(103);
        m.record_evictions(104);
        m.record_priority_lane(105);
        m.record_peer_replayed(106);
        m.record_reissued(107);
        m.record_trace_events(108);
        m.set_trace_dropped(109);
        m.set_reactor_shards(110);
        m.set_parked(111);
        m.set_pending_rpcs(112);
        m.record_epoch(113);
        // Histograms: a different number of samples each, a decade apart.
        let samples =
            |n: u64, unit: u64, record: &dyn Fn(u64)| (1..=n).for_each(|i| record(i * unit));
        samples(2, 1_000, &|v| m.record_cork_wait_ns(v));
        samples(3, 10_000, &|v| m.record_lin_ack_wait_ns(v));
        samples(4, 100_000, &|v| m.record_continuation_fire_ns(v));
        samples(5, 1_000_000, &|v| m.record_fanout_ns(v));
        samples(6, 10_000_000, &|v| m.record_loop_lap_ns(v));
        samples(7, 100_000_000, &|v| m.record_credit_stall_ns(v));
        samples(8, 200, &|v| m.record_batch(v));
        samples(9, 3_000, &|v| m.record_adaptive_batch(v));
        samples(10, 1_000_000_000, &|v| m.record_latency_ns(v));
        m.record_peer_tcp_segments(2, 120, 7);

        let snap = m.snapshot();
        let text = m.render("n3");
        let mut values = std::collections::BTreeSet::new();
        for family in Metrics::families() {
            let Family {
                name, kind, help, ..
            } = family;
            assert!(
                text.contains(&format!(
                    "# HELP {name} {help}\n# TYPE {name} {kind}\n{name}"
                )),
                "{name} is not served under its own head"
            );
            let Some(value) = family.value.map(|field| field(&snap)) else {
                continue;
            };
            let line = format!("\n{name}{{node=\"n3\"}} {value}\n");
            assert!(text.contains(&line), "/metrics does not serve {line:?}");
            assert!(
                values.insert(value) && value != 0,
                "{name} = {value} proves nothing: zero, or another family's value"
            );
        }
        // The families `render` writes out by hand.
        for line in [
            "cckvs_credit_frames_total{node=\"n3\",kind=\"piggybacked\"} 46\n",
            "cckvs_credit_frames_total{node=\"n3\",kind=\"standalone\"} 47\n",
            "cckvs_peer_link_tcp_segments_total{node=\"n3\",peer=\"2\",kind=\"data\"} 120\n",
            "cckvs_peer_link_tcp_segments_total{node=\"n3\",peer=\"2\",kind=\"ack\"} 7\n",
            "cckvs_udp_datagrams_total{node=\"n3\",kind=\"retransmit\"} 0\n",
            "cckvs_hit_rate{node=\"n3\"} 0.492537\n",
            "cckvs_latency_count{node=\"n3\"} 10\n",
            "cckvs_latency_ns_bucket{node=\"n3\",le=\"+Inf\"} 10\n",
            "cckvs_latency_ns_sum{node=\"n3\"} 55000000000\n",
            "cckvs_latency_ns_count{node=\"n3\"} 10\n",
        ] {
            assert!(text.contains(line), "/metrics does not serve {line:?}");
        }
        assert_eq!(snap.latency_count, 10);
        assert_eq!(
            (
                snap.credit_frames_piggybacked,
                snap.credit_frames_standalone
            ),
            (46, 47)
        );
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
        assert!(text.contains("cckvs_udp_datagrams_total{node=\"n7\",kind=\"retransmit\"}"));
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
        // The scrape shows the same maximum, not the last epoch recorded.
        assert!(m.render("n1").contains("cckvs_epoch{node=\"n1\"} 3\n"));
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
