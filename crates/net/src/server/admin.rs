use super::*;
use crate::churn::{Outcome, Transition};
use crate::client::open_all;

/// A hot-set reconfiguration job for the coordinator's applier thread.
pub(super) enum FlipJob {
    /// Apply this published hot set to the deployment.
    Apply(HotSet),
    /// A client-forced [`Frame::FlipEpoch`]: apply `hot` (closed on the
    /// serving shard) and resume the suspended connection with the
    /// response. Never coalesced — each forced flip owes its own answer.
    Forced {
        hot: HotSet,
        shard: usize,
        token: u64,
    },
    /// Stop the applier (server teardown).
    Shutdown,
}

/// Per-node state of the epoch-coordinator role (present on exactly one
/// node of a deployment).
pub(super) struct Churn {
    /// The popularity tracker fed by every client request this node serves.
    pub(super) coord: Mutex<CacheCoordinator>,
    /// Lock-free sampling counter on the serving path: only one request in
    /// `sampling` ever touches the tracker's lock.
    pub(super) observe_seq: AtomicU64,
    /// Copy of the tracker's sampling factor (hot-path use).
    pub(super) sampling: u64,
    /// Keys this coordinator believes are currently installed. Maintained
    /// by the `InstallHot` handler and the `Evict` op (reconfigurations
    /// are driven over the wire and pass through this node's own
    /// connections, so the books stay right no matter who drives — the
    /// applier thread, a forced `FlipEpoch`, or an external admin client).
    pub(super) installed: Mutex<HashSet<u64>>,
    /// Serialises whole reconfigurations (the applier thread and forced
    /// flips may race).
    pub(super) reconfig: Mutex<()>,
    /// Highest epoch successfully applied: a forced flip can overtake an
    /// auto-closed epoch still queued for the applier thread, and applying
    /// the stale one afterwards would revert the hot set.
    pub(super) applied_epoch: AtomicU64,
    /// Feeds the applier thread when an epoch closes on the serving path.
    pub(super) flip_tx: Sender<FlipJob>,
}

impl ServerInner {
    /// Reconfigures the deployment's symmetric caches to hold `hot`: one
    /// [`Transition::evict`] per departing key, then one
    /// [`Transition::install`] per arriving key, hottest first, over one
    /// client connection per node, this one included (so the coordinator's
    /// own handlers keep its books). An [`Outcome::Abandoned`] key stays in
    /// the books, fenced, for the next delta to evict; the flip fails.
    /// Returns `(installed, evicted)` key counts.
    fn apply_hot_set(&self, hot: &HotSet) -> io::Result<(u64, u64)> {
        let churn = self.churn.as_ref().expect("the coordinator role");
        let _serial = churn.reconfig.lock();
        // A forced flip can overtake an auto-closed epoch still queued for
        // the applier; applying the stale set afterwards would revert the
        // caches to outdated popularity data. Epoch numbers are unique and
        // monotone (one counter issues them), so skip anything not newer.
        if hot.epoch <= churn.applied_epoch.load(Ordering::Acquire) {
            return Ok((0, 0));
        }
        let target: HashSet<u64> = hot.keys.iter().copied().collect();
        let current = churn.installed.lock().clone();
        let nodes = self.node.config().nodes;
        let gone = current.difference(&target);
        let evicts = gone.map(|&key| Transition::evict(key, nodes));
        let installs = hot.keys.iter().filter(|k| !current.contains(k));
        let installs = installs.map(|&key| Transition::install(key, nodes));
        let addrs = self.peer_addrs.lock().clone();
        let mut conns = open_all(&*self.transport, &addrs)?;
        let (mut installed, mut evicted) = (0u64, 0u64);
        for t in evicts.chain(installs) {
            let key = t.key();
            match t.run(|node, frame| conns[node].call(frame).ok()) {
                Outcome::Evicted => evicted += 1,
                Outcome::Installed => installed += 1,
                // A full cache: the colder keys after it would fail too.
                Outcome::RolledBack => break,
                Outcome::Abandoned => {
                    churn.installed.lock().insert(key);
                    let message = format!("transition of key {key} abandoned, its home fenced");
                    return Err(io::Error::other(message));
                }
            }
        }
        churn.applied_epoch.fetch_max(hot.epoch, Ordering::Release);
        self.metrics.record_epoch(hot.epoch);
        self.metrics.record_installs(installed);
        self.metrics.record_evictions(evicted);
        Ok((installed, evicted))
    }

    /// Evicts every *remote-homed* cached key, shipping dirty values back
    /// to their home shards, so the last committed write of each hot key
    /// is durable at a surviving process before this one exits: one
    /// `Evict` per key, asked of this node over one client connection.
    /// Bounded by `budget` — a key whose pending write cannot resolve
    /// (e.g. a peer down mid-drain) fails or outlives it rather than
    /// hanging the shutdown. Returns the number of dirty values shipped.
    ///
    /// Locally-homed keys are left alone: their write-back target dies
    /// with this process either way (the KVS shard is in-memory), and the
    /// surviving replicas still cache their latest values.
    pub(super) fn drain_dirty_writebacks(&self, budget: Duration) -> u64 {
        let deadline = Instant::now() + budget;
        let node = &self.node;
        let mut keys = node.cache().keys();
        keys.retain(|&key| !node.is_home(key));
        if keys.is_empty() {
            return 0;
        }
        let written_back = || self.metrics.snapshot().writebacks;
        let before = written_back();
        let addr = self.peer_addrs.lock().get(node.node()).copied();
        let addr = addr.unwrap_or(self.listen_addr);
        if let Ok(mut conn) = Conn::open(&*self.transport, addr, &Frame::ClientHello) {
            for key in keys {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
                    break;
                }
                match conn.call(&Frame::Evict { key }) {
                    // An `Error` answer gave up on this key only.
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::InvalidInput => {}
                    // Out of budget mid-answer, or the node is gone.
                    Err(_) => break,
                }
            }
        }
        written_back() - before
    }
}

/// The coordinator's reconfiguration thread: applies hot sets published by
/// the popularity tracker, coalescing a backlog of timer-driven flips to
/// the newest set. A client-forced flip ([`FlipJob::Forced`]) is never
/// coalesced — each one answers exactly one suspended client connection.
/// Errors on the timer path are swallowed deliberately — the
/// installed-set bookkeeping lives in the node's own handlers, so a partially
/// applied epoch simply leaves a smaller delta for the next one (the
/// system converges instead of wedging).
pub(super) fn epoch_applier_loop(inner: Arc<ServerInner>, rx: Receiver<FlipJob>) {
    let mut lookahead: Option<FlipJob> = None;
    loop {
        let job = match lookahead.take() {
            Some(job) => job,
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        match job {
            FlipJob::Shutdown => return,
            FlipJob::Forced { hot, shard, token } => {
                let response = match inner.apply_hot_set(&hot) {
                    Ok((installed, evicted)) => Frame::FlipEpochResp {
                        epoch: hot.epoch,
                        installed: installed as u32,
                        evicted: evicted as u32,
                    },
                    Err(e) => Frame::Error {
                        message: format!("epoch flip failed: {e}"),
                    },
                };
                inner.shard(shard).send(ShardMsg::Resume {
                    token,
                    sent_at: Instant::now(),
                    event: ResumeEvent::Admin { response },
                });
            }
            FlipJob::Apply(hot) => {
                let mut latest = hot;
                while let Ok(next) = rx.try_recv() {
                    match next {
                        FlipJob::Apply(newer) => latest = newer,
                        other => {
                            lookahead = Some(other);
                            break;
                        }
                    }
                }
                let _ = inner.apply_hot_set(&latest);
            }
        }
    }
}
