//! Boots the rack, loads the dataset, and drives the closed-loop windows.
//!
//! Closed loop, two sessions, one thread each: a KVS caller waits for its
//! reply before issuing the next request, so a slower rack receives less
//! load. Everything runs over the host's loopback interface, not a real
//! link, with one reactor shard per node so that the three nodes and the
//! two sessions do not oversubscribe a two-core host more than they must.
//!
//! The host this runs on is shared: its speed at this kind of work
//! (syscalls, loopback, wake-ups) drifts by tens of percent from one
//! second to the next. So every timed slice is half workload and half a
//! **reference loop** — a 64-byte echo over a loopback TCP connection
//! that uses none of the repository's code — and each slice's numbers are
//! scaled by how fast the reference ran next to them.

use crate::spec::{Keys, Workload};
use crate::stats::quantile;
use cckvs_net::{
    BatchConfig, BatchOutcome, Client, LoadBalancePolicy, Rack, RackConfig, ReactorConfig,
    SharedHistory, TransportConfig,
};
use consistency::messages::ConsistencyModel;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workload::{AccessDistribution, Dataset, Mix, WorkloadGen};

pub const KEYS: u64 = 200_000;
pub const VALUE_BYTES: usize = 40;
/// Ranks installed into every node's symmetric cache: ≈ 62 % of a
/// Zipf-0.99 stream over [`KEYS`] keys, the paper's ≈ 65 % operating point.
pub const HOT_KEYS: usize = 2_048;
pub const NODES: usize = 3;
pub const SESSIONS: u32 = 2;
/// Ops of the untimed, history-recorded pass checked for per-key SC/Lin.
pub const HISTORY_OPS: u64 = 20_000;
/// A traced session samples one op in this many.
pub const TRACE_EVERY: u64 = 64;
/// One slice: the workload for its first half, the reference loop for
/// its second.
pub const SLICE: Duration = Duration::from_secs(1);
/// What the reference loop reads on the host every slice is scaled to:
/// about what the host this was written on does when nothing else loads
/// it, so scaled numbers read like measured ones.
pub struct NominalEcho {
    /// Round trips per second over both sessions.
    pub round_trips_s: f64,
    /// Median round trip.
    pub p50_ns: f64,
    /// 99th-percentile round trip.
    pub p99_ns: f64,
}

pub const NOMINAL_ECHO: NominalEcho = NominalEcho {
    round_trips_s: 200_000.0,
    p50_ns: 9_000.0,
    p99_ns: 30_000.0,
};

const ZIPF: AccessDistribution = AccessDistribution::Zipfian { exponent: 0.99 };
/// Marks a PUT in a packed latency sample; latencies saturate below it.
const PUT_BIT: u32 = 1 << 31;
/// Writer tag of preloaded and installed values (sessions use 1 and 2).
const PRELOAD_WRITER: u64 = 0xFF;

/// The dataset and its keys by popularity rank: the [`HOT_KEYS`] hottest,
/// then the rest.
pub struct Data {
    dataset: Dataset,
    hot: Vec<u64>,
    cold: Vec<u64>,
}

impl Data {
    pub fn new() -> Data {
        let dataset = Dataset::new(KEYS, VALUE_BYTES);
        let mut hot: Vec<u64> = (0..KEYS).map(|rank| dataset.key_of_rank(rank).0).collect();
        let cold = hot.split_off(HOT_KEYS);
        Data { dataset, hot, cold }
    }
}

/// A value that names its key and its writer: bytes 0..8 are a tag unique
/// per write (what the history checkers match reads to writes by), bytes
/// 8..16 the key, the rest padding.
fn value_for(key: u64, tag: u64) -> [u8; VALUE_BYTES] {
    let mut value = [0u8; VALUE_BYTES];
    value[..8].copy_from_slice(&tag.to_le_bytes());
    value[8..16].copy_from_slice(&key.to_le_bytes());
    value
}

fn value_names_key(key: u64, value: &[u8]) -> bool {
    value.len() == VALUE_BYTES && value[8..16] == key.to_le_bytes()
}

/// The reference loop: one 64-byte round trip to an echo thread over
/// loopback TCP. Standard library only, so no change to the repository
/// moves it; what moves it is the host.
struct Echo {
    stream: TcpStream,
    server: Option<JoinHandle<()>>,
}

impl Echo {
    const MESSAGE: usize = 64;

    fn start() -> io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut far, _) = listener.accept()?;
        far.set_nodelay(true)?;
        let server = std::thread::spawn(move || {
            let mut buf = [0u8; Echo::MESSAGE];
            // Until the near end shuts the connection down.
            while far.read_exact(&mut buf).is_ok() && far.write_all(&buf).is_ok() {}
        });
        Ok(Echo {
            stream,
            server: Some(server),
        })
    }

    fn round_trip(&mut self) -> io::Result<()> {
        let mut buf = [7u8; Echo::MESSAGE];
        self.stream.write_all(&buf)?;
        self.stream.read_exact(&mut buf)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// One load-generating session: a generator and its connections.
pub struct Session {
    id: u32,
    gen: WorkloadGen,
    /// `[untraced]`, or `[untraced, traced]` in a traced run, which
    /// alternates between them slice by slice.
    clients: Vec<Client>,
    echo: Echo,
    /// Distinguishes this session's values from those of an earlier phase
    /// (the history pass) under the same session id.
    phase: u64,
    writes: u64,
}

impl Session {
    fn next_op(&mut self, w: &Workload, data: &Data) -> (u64, bool) {
        let op = self.gen.next_op();
        let key = match w.keys {
            Keys::HotZipf => data.hot[op.rank as usize],
            Keys::Uniform | Keys::Zipf => op.key.0,
        };
        (key, op.kind == workload::OpKind::Put)
    }

    fn next_value(&mut self, key: u64) -> [u8; VALUE_BYTES] {
        self.writes += 1;
        let tag = (u64::from(self.id) + 1) << 56 | self.phase << 48 | self.writes;
        value_for(key, tag)
    }
}

/// A sampled op as the session saw it, in the trace clock's domain.
pub struct TracedOp {
    pub id: u64,
    pub call_ns: u64,
    pub return_ns: u64,
    pub put: bool,
}

/// Durations in ns, in the order they ended, cut at slice boundaries.
#[derive(Default)]
struct Sliced {
    values: Vec<u32>,
    /// Index into `values` at which each slice begins.
    start: Vec<usize>,
}

impl Sliced {
    /// Reserves address space for more values than a session produces in
    /// `slices` slices, so that the window never stops to grow a vector.
    /// Untouched pages cost no memory.
    fn for_slices(slices: usize) -> Sliced {
        Sliced {
            values: Vec::with_capacity(slices * 250_000),
            start: Vec::with_capacity(slices),
        }
    }

    fn push(&mut self, slice: usize, value: u32) {
        while self.start.len() <= slice {
            self.start.push(self.values.len());
        }
        self.values.push(value);
    }

    fn slice(&self, slice: usize) -> &[u32] {
        let bound = |s: usize| self.start.get(s).copied().unwrap_or(self.values.len());
        &self.values[bound(slice)..bound(slice + 1)]
    }
}

fn saturating_ns(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).map_or(PUT_BIT - 1, |ns| ns.min(PUT_BIT - 1))
}

/// What one session measured over one window.
#[derive(Default)]
pub struct Samples {
    /// Latency of every op completed inside the window; [`PUT_BIT`] marks
    /// writes.
    ops: Sliced,
    /// Time of every reference round trip inside the window.
    echoes: Sliced,
    pub attempted: u64,
    pub failed: u64,
    pub traced: Vec<TracedOp>,
    /// `(ops, round trip ns)` of every flushed batch of reads (batched
    /// workloads).
    pub flushes: Vec<(u32, u32)>,
    /// Process CPU ns at the start of every half slice, and at the end of
    /// the window (session 0 only).
    cpu_marks: Vec<u64>,
}

impl Samples {
    fn for_slices(slices: usize) -> Samples {
        Samples {
            ops: Sliced::for_slices(slices),
            echoes: Sliced::for_slices(slices),
            ..Samples::default()
        }
    }

    /// Notes the process CPU time when `half` begins, once.
    fn mark_cpu(&mut self, half: usize) {
        if self.cpu_marks.len() <= half {
            let cpu = crate::host::process_cpu_ns();
            self.cpu_marks.resize(half + 1, cpu);
        }
    }

    fn record(&mut self, slice: usize, slices: usize, latency: Duration, put: bool) {
        if slice < slices {
            let ns = saturating_ns(latency);
            self.ops.push(slice, if put { ns | PUT_BIT } else { ns });
        }
    }

    /// Latencies of the ops completed in `slice`: `(ns, is_put)`.
    pub fn slice(&self, slice: usize) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.ops
            .slice(slice)
            .iter()
            .map(|&p| (p & !PUT_BIT, p & PUT_BIT != 0))
    }

    pub fn all(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.ops
            .values
            .iter()
            .map(|&p| (p & !PUT_BIT, p & PUT_BIT != 0))
    }
}

/// The columns of [`series`], in order.
pub const SERIES: [&str; 8] = [
    "ops",
    "ops_s",
    "get_p50_ns",
    "op_p99_ns",
    "cpu_ns_per_op",
    "echo_round_trips_s",
    "echo_p50_ns",
    "echo_p99_ns",
];

/// What every slice of a window measured, over all sessions and before
/// any scaling: one vector per [`SERIES`] column, one value per slice.
/// Rates are per second of the half slice they were measured in.
pub fn series(samples: &[Samples], seconds: u64) -> [Vec<f64>; 8] {
    let cpu_marks = samples
        .iter()
        .map(|s| &s.cpu_marks)
        .find(|marks| !marks.is_empty())
        .expect("session 0 marks the process CPU time");
    let half_secs = SLICE.as_secs_f64() / 2.0;
    let mut series: [Vec<f64>; 8] = Default::default();
    for slice in 0..seconds as usize {
        let mut all: Vec<u32> = Vec::new();
        let mut reads: Vec<u32> = Vec::new();
        for (ns, put) in samples.iter().flat_map(|s| s.slice(slice)) {
            all.push(ns);
            if !put {
                reads.push(ns);
            }
        }
        let mut echoes: Vec<u32> = samples
            .iter()
            .flat_map(|s| s.echoes.slice(slice))
            .copied()
            .collect();
        let cpu_ns = cpu_marks[slice * 2 + 1] - cpu_marks[slice * 2];
        let ops = all.len() as f64;
        let row = [
            ops,
            ops / half_secs,
            quantile(&mut reads, 0.5),
            quantile(&mut all, 0.99),
            cpu_ns as f64 / ops.max(1.0),
            echoes.len() as f64 / half_secs,
            quantile(&mut echoes, 0.5),
            quantile(&mut echoes, 0.99),
        ];
        for (column, value) in series.iter_mut().zip(row) {
            column.push(value);
        }
    }
    series
}

/// What bounds one run of the session loops.
struct Plan<'a> {
    w: &'a Workload,
    data: &'a Data,
    start: Instant,
    end: Instant,
    slices: usize,
    /// Stop after this many ops per session (the history pass).
    max_ops: u64,
    /// Odd slices use the traced client.
    alternate: bool,
}

impl Plan<'_> {
    fn slice_of(&self, at: Instant) -> usize {
        self.half_of(at) / 2
    }

    /// Even halves run the workload, odd halves the reference loop.
    fn half_of(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.start).as_nanos() * 2 / SLICE.as_nanos()) as usize
    }

    fn side(&self, at: Instant) -> usize {
        usize::from(self.alternate && self.slice_of(at) % 2 == 1)
    }
}

#[allow(clippy::needless_update)] // struct-update keeps new config fields from breaking the benchmark
fn rack_config(w: &Workload) -> RackConfig {
    RackConfig {
        cache_capacity: HOT_KEYS,
        kvs_capacity: KEYS as usize,
        metrics: false,
        epochs: None,
        reactor: ReactorConfig {
            shards: 1,
            ..Default::default()
        },
        transport: if w.udp {
            TransportConfig::udp()
        } else {
            TransportConfig::tcp()
        },
        ..RackConfig::small(ConsistencyModel::Lin, NODES)
    }
}

fn batching(w: &Workload) -> BatchConfig {
    if w.batched {
        // On one CPU a 32-op flush round-trips in ≈ 200 µs. A deadline
        // under that keeps the client's AIMD doorbell at ≈ 4 ops and makes
        // it amplify host noise (64 k to 127 k ops/s across ten runs at
        // 120 µs); 1 ms lets the doorbell saturate, which is the
        // CPU-bound regime this workload exists for.
        BatchConfig {
            max_ops: 32,
            max_delay: Some(Duration::from_millis(1)),
            ..Default::default()
        }
    } else {
        BatchConfig::default()
    }
}

fn generator(w: &Workload, data: &Data, seed: u64) -> WorkloadGen {
    let mix = Mix::with_write_ratio(w.write_ratio);
    match w.keys {
        Keys::HotZipf => {
            WorkloadGen::new(&Dataset::new(HOT_KEYS as u64, VALUE_BYTES), ZIPF, mix, seed)
        }
        Keys::Uniform => WorkloadGen::new(&data.dataset, AccessDistribution::Uniform, mix, seed),
        Keys::Zipf => WorkloadGen::new(&data.dataset, ZIPF, mix, seed),
    }
}

/// Writes every cold key once, each node's keys through a session pinned
/// to that node so that no write crosses the mesh.
fn preload(rack: &Rack, data: &Data) -> io::Result<()> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..rack.nodes())
            .map(|node| {
                scope.spawn(move || -> io::Result<()> {
                    let mut client = rack
                        .client()
                        .session(100 + node as u32)
                        .policy(LoadBalancePolicy::Pinned(node))
                        .batching(BatchConfig {
                            max_ops: 64,
                            ..Default::default()
                        })
                        .connect()?;
                    let home = rack.server(node).node();
                    for &key in data.cold.iter().filter(|&&key| home.is_home(key)) {
                        client.queue_put(key, &value_for(key, PRELOAD_WRITER << 56 | key))?;
                        if client.queued() == 0 {
                            client.flush()?;
                        }
                    }
                    client.flush().map(|_| ())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })
}

/// One complete set-up: rack launch and peer mesh, hot-set install over
/// the wire, preload of every cold key, and the sessions' connections.
pub fn set_up(
    w: &Workload,
    data: &Data,
    seed: u64,
    traced: bool,
) -> io::Result<(Rack, Vec<Session>)> {
    let rack = Rack::launch(rack_config(w))?;
    let hot: Vec<(u64, Vec<u8>)> = data
        .hot
        .iter()
        .map(|&key| (key, value_for(key, PRELOAD_WRITER << 56 | key).to_vec()))
        .collect();
    rack.install_hot_set(&hot)?;
    preload(&rack, data)?;
    let sessions = (0..SESSIONS)
        .map(|id| {
            let builder = rack.client().session(id).batching(batching(w));
            let mut clients = vec![builder.clone().connect()?];
            if traced {
                clients.push(builder.trace_sampling(TRACE_EVERY).connect()?);
            }
            Ok(Session {
                id,
                gen: generator(w, data, seed ^ u64::from(id) << 32),
                clients,
                echo: Echo::start()?,
                phase: 1,
                writes: 0,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok((rack, sessions))
}

/// Reference round trips per second over all sessions, right now.
pub fn echo_rate(sessions: &mut [Session]) -> f64 {
    const SPAN: Duration = Duration::from_millis(150);
    let end = Instant::now() + SPAN;
    let round_trips: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                scope.spawn(move || {
                    let mut done = 0;
                    while Instant::now() < end {
                        done += u64::from(session.echo.round_trip().is_ok());
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .sum()
    });
    round_trips.max(1) as f64 / SPAN.as_secs_f64()
}

/// The untimed pass whose recorded history the per-key SC and Lin
/// checkers judge. It must be the first traffic to write the hot keys:
/// the checkers are sound only when they see every write a read can
/// return.
pub fn history_pass(
    rack: &Rack,
    w: &Workload,
    data: &Data,
    seed: u64,
) -> io::Result<(Vec<Samples>, Result<(), String>)> {
    let history = Arc::new(SharedHistory::new());
    let mut sessions = (0..SESSIONS)
        .map(|id| {
            Ok(Session {
                id,
                gen: generator(w, data, !seed ^ u64::from(id) << 32),
                clients: vec![rack
                    .client()
                    .session(id)
                    .batching(batching(w))
                    .history(Arc::clone(&history))
                    .connect()?],
                echo: Echo::start()?,
                phase: 0,
                writes: 0,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    let plan = Plan {
        w,
        data,
        start,
        end: start + Duration::from_secs(60),
        slices: 0,
        max_ops: HISTORY_OPS / u64::from(SESSIONS),
        alternate: false,
    };
    let samples = run(&mut sessions, &plan, || ());
    let history = history.snapshot();
    let verdict = history
        .check_per_key_sc()
        .and_then(|()| history.check_per_key_lin())
        .map_err(|violation| violation.to_string());
    Ok((samples, verdict))
}

/// Drives every session for `seconds` from a common start; per-session
/// samples are cut into [`SLICE`]-long slices. The calling thread runs
/// `tick` every 100 ms meanwhile.
pub fn window(
    sessions: &mut [Session],
    w: &Workload,
    data: &Data,
    seconds: u64,
    alternate: bool,
    tick: impl FnMut(),
) -> Vec<Samples> {
    // A start slightly ahead lets both threads spawn before the clock runs.
    let start = Instant::now() + Duration::from_millis(5);
    let plan = Plan {
        w,
        data,
        start,
        end: start + SLICE * seconds as u32,
        slices: seconds as usize,
        max_ops: u64::MAX,
        alternate,
    };
    run(sessions, &plan, tick)
}

fn run(sessions: &mut [Session], plan: &Plan, mut tick: impl FnMut()) -> Vec<Samples> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                scope.spawn(move || {
                    while Instant::now() < plan.start {
                        std::hint::spin_loop();
                    }
                    if plan.w.batched {
                        drive_batched(session, plan)
                    } else {
                        drive_unbatched(session, plan)
                    }
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            tick();
            std::thread::sleep(Duration::from_millis(100));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    })
}

/// Runs the reference loop through any reference half the clock is in.
/// Returns the instant the next workload op starts at, or `None` once the
/// window is over.
fn reference_half(session: &mut Session, plan: &Plan, out: &mut Samples) -> Option<Instant> {
    let mut now = Instant::now();
    loop {
        if now >= plan.end {
            if session.id == 0 {
                out.mark_cpu(plan.slices * 2);
            }
            return None;
        }
        let half = plan.half_of(now);
        if session.id == 0 && plan.slices > 0 {
            out.mark_cpu(half);
        }
        // The history pass (no slices) is all workload.
        if half.is_multiple_of(2) || plan.slices == 0 {
            return Some(now);
        }
        let answered = session.echo.round_trip().is_ok();
        let done = Instant::now();
        if answered {
            out.echoes.push(half / 2, saturating_ns(done - now));
        }
        now = done;
    }
}

/// One frame per op: the latency is call → return.
fn drive_unbatched(session: &mut Session, plan: &Plan) -> Samples {
    let mut out = Samples::for_slices(plan.slices);
    while out.attempted < plan.max_ops {
        let Some(called) = reference_half(session, plan, &mut out) else {
            break;
        };
        let (key, put) = session.next_op(plan.w, plan.data);
        let value = put.then(|| session.next_value(key));
        let side = plan.side(called);
        let client = &mut session.clients[side];
        let call_ns = if side == 1 { cckvs_trace::now_ns() } else { 0 };
        let last_trace = client.last_trace_id();
        out.attempted += 1;
        let ok = match value {
            Some(value) => client.put(key, &value).is_ok(),
            None => client.get(key).is_ok_and(|v| value_names_key(key, &v)),
        };
        let returned = Instant::now();
        if !ok {
            out.failed += 1;
            continue;
        }
        out.record(plan.slice_of(returned), plan.slices, returned - called, put);
        if let Some(id) = client.last_trace_id().filter(|&id| Some(id) != last_trace) {
            out.traced.push(TracedOp {
                id,
                call_ns,
                return_ns: cckvs_trace::now_ns(),
                put,
            });
        }
    }
    out
}

/// An op queued on the batching client and not yet answered.
struct Pending {
    key: u64,
    put: bool,
    queued: Instant,
    call_ns: u64,
    trace: Option<u64>,
}

/// Collects the outcomes of a flush that just completed and records every
/// pending op against them; the latency is queue → outcome.
fn settle(
    outcomes: io::Result<Vec<BatchOutcome>>,
    flush_began: Instant,
    pending: &mut Vec<Pending>,
    plan: &Plan,
    out: &mut Samples,
) {
    let done = Instant::now();
    let outcomes = outcomes.unwrap_or_default();
    if outcomes.len() != pending.len() {
        // A failed flush loses the op-outcome correspondence of the batch.
        out.failed += pending.len() as u64;
        pending.clear();
        return;
    }
    // Like the client's doorbell, count read batches only: a write
    // travels alone and its round trip is the Lin round, not the batch.
    if pending.iter().all(|op| !op.put) {
        let rtt = u32::try_from((done - flush_began).as_nanos()).unwrap_or(u32::MAX);
        out.flushes.push((pending.len() as u32, rtt));
    }
    let slice = plan.slice_of(done);
    for (op, outcome) in pending.drain(..).zip(outcomes) {
        let ok = match outcome {
            BatchOutcome::Get { value, .. } => !op.put && value_names_key(op.key, &value),
            BatchOutcome::Put { .. } => op.put,
        };
        if !ok {
            out.failed += 1;
            continue;
        }
        out.record(slice, plan.slices, done - op.queued, op.put);
        if let Some(id) = op.trace {
            out.traced.push(TracedOp {
                id,
                call_ns: op.call_ns,
                return_ns: cckvs_trace::now_ns(),
                put: op.put,
            });
        }
    }
}

/// Flushes what `side`'s client has queued and settles it.
fn flush(
    session: &mut Session,
    side: usize,
    pending: &mut Vec<Pending>,
    plan: &Plan,
    out: &mut Samples,
) {
    if !pending.is_empty() {
        let began = Instant::now();
        settle(session.clients[side].flush(), began, pending, plan, out);
    }
}

/// Deadline-batched client: ops queue until the doorbell or the deadline
/// flushes them.
fn drive_batched(session: &mut Session, plan: &Plan) -> Samples {
    let mut out = Samples::for_slices(plan.slices);
    let mut pending: Vec<Pending> = Vec::with_capacity(64);
    let mut side = 0;
    while out.attempted < plan.max_ops {
        let (key, put) = session.next_op(plan.w, plan.data);
        let value = put.then(|| session.next_value(key));
        // The deadline client ships queued reads ahead of a write on its
        // own; doing it here stamps the reads before the write's round
        // instead of after it. Leaving the workload half, or switching
        // clients, settles what is queued too.
        let at = Instant::now();
        if put || plan.half_of(at) % 2 == 1 || plan.side(at) != side {
            flush(session, side, &mut pending, plan, &mut out);
        }
        let Some(now) = reference_half(session, plan, &mut out) else {
            break;
        };
        side = plan.side(now);
        let client = &mut session.clients[side];
        let call_ns = if side == 1 { cckvs_trace::now_ns() } else { 0 };
        let last_trace = client.last_trace_id();
        out.attempted += 1;
        let queued = match value {
            Some(value) => client.queue_put(key, &value),
            None => client.queue_get(key),
        };
        pending.push(Pending {
            key,
            put,
            queued: now,
            call_ns,
            trace: client.last_trace_id().filter(|&id| Some(id) != last_trace),
        });
        if queued.is_err() {
            out.failed += pending.len() as u64;
            pending.clear();
        } else if client.queued() == 0 {
            // The doorbell rang inside `queue_*`: the round trip began
            // when this op was queued.
            settle(client.flush(), now, &mut pending, plan, &mut out);
        }
    }
    flush(session, side, &mut pending, plan, &mut out);
    out
}
