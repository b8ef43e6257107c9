//! Named model-checking scenarios.
//!
//! A [`ScenarioSpec`] fixes everything about a run except the schedule: the
//! rack shape, the per-node client programs, the admin script (hot-set
//! transitions), and the fault budgets the scheduler may spend. The
//! explorer then enumerates interleavings within those bounds.
//!
//! Scenario keys are chosen by probing the deployment's shard map
//! ([`key_homed_at`]) so each spec controls which node homes which key —
//! the interesting races (cold write vs. write-back, miss RPC vs. crash)
//! all depend on where a key's home is relative to its writers.

use cckvs::{CcNode, NodeConfig};
use cckvs_net::server::FlowConfig;
use consistency::ConsistencyModel::{self, Lin, Sc};

/// One client operation in a node's program. Values are globally unique
/// `u64`s so a history ties every read to exactly one write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOp {
    /// Write `value` to `key`.
    Put {
        /// Key to write.
        key: u64,
        /// The (globally unique) value.
        value: u64,
    },
    /// Read `key`.
    Get {
        /// Key to read.
        key: u64,
    },
}

impl ProgOp {
    /// The key the operation touches.
    pub fn key(&self) -> u64 {
        match self {
            ProgOp::Put { key, .. } | ProgOp::Get { key } => *key,
        }
    }
}

/// One step of a session's program: one request frame on its connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgStep {
    /// One operation, sent once everything before it has been answered.
    Op(ProgOp),
    /// Several operations coalesced into one `Frame::Batch`, sent once
    /// everything before it has been answered.
    Batch(Vec<ProgOp>),
    /// One operation sent without waiting for the answers still owed.
    Pipelined(ProgOp),
}

impl ProgStep {
    /// The operations the step carries.
    pub fn ops(&self) -> &[ProgOp] {
        match self {
            ProgStep::Op(op) | ProgStep::Pipelined(op) => std::slice::from_ref(op),
            ProgStep::Batch(ops) => ops,
        }
    }
}

/// A program of bare operations, each waiting for the one before it.
fn each(ops: impl IntoIterator<Item = ProgOp>) -> Vec<ProgStep> {
    ops.into_iter().map(ProgStep::Op).collect()
}

/// One entry of a scenario's admin script: a [`cckvs_net::churn::Transition`]
/// the epoch coordinator would run, one call per `Admin` action, so the
/// scheduler interleaves client and protocol traffic between its calls.
/// Entries run strictly in script order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminStep {
    /// Turn a cold key hot on every node.
    Install(u64),
    /// Turn a hot key cold on every node.
    Evict(u64),
}

/// Everything about a model-checking run except the schedule.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (stable; part of replay seeds).
    pub name: &'static str,
    /// One-line description printed by `--list`.
    pub about: &'static str,
    /// Consistency model of the symmetric caches.
    pub model: ConsistencyModel,
    /// Rack size.
    pub nodes: usize,
    /// Keys installed hot (at every node) before the first step.
    pub hot_keys: Vec<u64>,
    /// Per-node client programs (`programs[n]` runs as session `n`).
    pub programs: Vec<Vec<ProgStep>>,
    /// The admin script, executed in order as `Admin` actions fire.
    pub admin_script: Vec<AdminStep>,
    /// How many datagrams the scheduler may drop.
    pub drop_budget: u32,
    /// How many datagrams the scheduler may duplicate.
    pub dup_budget: u32,
    /// How many node crashes the scheduler may inject.
    pub crash_budget: u32,
    /// How many frames each directed link may have on the wire
    /// unconfirmed: the production default unless the scenario narrows it.
    pub credit_window: u64,
    /// Disables the crash-safety gates (see `harness::RackModel::can_crash`)
    /// so crashes may land inside the protocol windows the production
    /// system does **not** survive (ack-then-die, committed-value-only-in-
    /// cache, in-memory cold data). Used by the negative scenario to prove
    /// the checker detects the resulting violations.
    pub unsafe_crashes: bool,
    /// Skips the survivors' in-doubt miss-RPC reissue on a peer's restart
    /// (see `harness::RackModel::restart`). Test-only, like
    /// `unsafe_crashes`: the negative twin of `miss-rpc-crash` sets it to
    /// prove the checker sees the op that never completes.
    pub skip_rpc_reissue: bool,
    /// A node whose cache holds one key: a second install there is full.
    pub tiny_cache: Option<usize>,
    /// Fills every install's replicas active, not warm. Test-only, like
    /// `unsafe_crashes`: the `install-unwarmed` negative scenario sets it.
    pub unwarmed_install: bool,
    /// Whether the scenario is *expected* to produce violations (negative
    /// scenarios assert the checker's discrimination; the CI gate inverts
    /// for them).
    pub expect_violation: bool,
}

/// Finds a key `>= salt` homed at `home` under an `nodes`-node shard map.
pub fn key_homed_at(nodes: usize, home: usize, salt: u64) -> u64 {
    // The shard map is a pure function of (key, deployment size); any node
    // answers for the whole deployment.
    let probe = CcNode::new(NodeConfig::small(ConsistencyModel::Sc, 0, nodes));
    (salt..salt + 10_000)
        .find(|k| probe.home_node(*k) == home)
        .expect("a key homed at every node exists in any 10k-key window")
}

/// All named scenarios, in the order the binary runs them.
pub fn all() -> Vec<ScenarioSpec> {
    vec![
        lin_commit(),
        dirty_evict_writeback(),
        hot_transition_bounce(),
        crash_mid_commit(),
        udp_drop_dup_reorder(),
        miss_rpc_crash(),
        batch_prefetch(),
        conn_order(),
        credit_window_crash(),
        install_rollback(),
        ack_then_die(),
        miss_rpc_no_reissue(),
        install_unwarmed(),
    ]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

fn put(key: u64, value: u64) -> ProgOp {
    ProgOp::Put { key, value }
}

fn get(key: u64) -> ProgOp {
    ProgOp::Get { key }
}

impl ScenarioSpec {
    /// A fault-free rack of idle sessions with nothing cached: each
    /// scenario names what it adds.
    fn new(name: &'static str, about: &'static str, model: ConsistencyModel, nodes: usize) -> Self {
        ScenarioSpec {
            name,
            about,
            model,
            nodes,
            hot_keys: vec![],
            programs: vec![vec![]; nodes],
            admin_script: vec![],
            drop_budget: 0,
            dup_budget: 0,
            crash_budget: 0,
            credit_window: FlowConfig::default().credit_window,
            unsafe_crashes: false,
            skip_rpc_reissue: false,
            tiny_cache: None,
            unwarmed_install: false,
            expect_violation: false,
        }
    }
}

/// Concurrent Lin writers on one hot key: every interleaving of the
/// invalidation/ack/update rounds must commit in a per-key-linearizable
/// order.
pub fn lin_commit() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 100);
    let about = "two Lin writers and a reader race on one hot key; no faults";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            each([put(h, 101), get(h)]),
            each([put(h, 201), get(h)]),
            each([get(h), get(h)]),
        ],
        ..ScenarioSpec::new("lin-commit", about, Lin, 3)
    }
}

/// A hot key is evicted to cold mid-traffic: dirty replicas write back over
/// scheduled RPCs, the home bounces cold ops until the unmark, and no
/// acknowledged write may be lost across the transition.
pub fn dirty_evict_writeback() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 300);
    let about = "hot key evicted to cold mid-traffic; dirty write-backs race client ops";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            each([get(h)]),
            each([put(h, 311), get(h)]),
            each([put(h, 321), get(h)]),
        ],
        admin_script: vec![AdminStep::Evict(h)],
        ..ScenarioSpec::new("dirty-evict-writeback", about, Lin, 3)
    }
}

/// A cold key turns hot mid-traffic under SC: miss RPCs bounce off the
/// transition mark, warm installs stay invisible until activation, and
/// cold-assigned versions must thread monotonically into the hot epoch.
pub fn hot_transition_bounce() -> ScenarioSpec {
    let c = key_homed_at(2, 0, 500);
    let about = "cold key turns hot mid-traffic (SC); miss RPCs bounce off the mark";
    ScenarioSpec {
        programs: vec![each([put(c, 511), get(c)]), each([put(c, 521), get(c)])],
        admin_script: vec![AdminStep::Install(c)],
        ..ScenarioSpec::new("hot-transition-bounce", about, Sc, 2)
    }
}

/// [`hot_transition_bounce`] with node 1's cache already full: the install
/// rolls back off node 0, which took the key, and lifts the fence while
/// both nodes write and read the key cold. The caches must end symmetric.
pub fn install_rollback() -> ScenarioSpec {
    ScenarioSpec {
        name: "install-rollback",
        about: "an install meets a full cache on one node and rolls back; caches stay symmetric",
        hot_keys: vec![key_homed_at(2, 1, 1900)],
        tiny_cache: Some(1),
        ..hot_transition_bounce()
    }
}

/// Negative scenario for the warm phase: a Lin install that fills every
/// replica active. A write that commits against the half-installed hot set
/// collects a vacuous ack from a replica filled after it, whose stale fill
/// then shadows it; the checker must flag it.
pub fn install_unwarmed() -> ScenarioSpec {
    let c = key_homed_at(3, 2, 2100);
    let about = "installs skip the warm phase (negative): a write shadowed by a stale fill";
    ScenarioSpec {
        programs: vec![
            each([put(c, 2101), put(c, 2102)]),
            each([put(c, 2111), get(c)]),
            each([get(c), get(c)]),
        ],
        admin_script: vec![AdminStep::Install(c)],
        unwarmed_install: true,
        expect_violation: true,
        ..ScenarioSpec::new("install-unwarmed", about, Lin, 3)
    }
}

/// A replica crashes in the middle of Lin commit rounds (inside the
/// windows the production system survives), restarts with a fresh process
/// and a new generation, receives the survivors' retained-frame replay and
/// reissued invalidations, acknowledges vacuously, and the rack heals —
/// every schedule must still be linearizable with no lost acked write.
pub fn crash_mid_commit() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 700);
    let about = "replica crashes mid Lin round; restart + replay + vacuous acks must heal";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            each([put(h, 701), get(h)]),
            each([put(h, 711), get(h)]),
            each([get(h)]),
        ],
        crash_budget: 1,
        ..ScenarioSpec::new("crash-mid-commit", about, Lin, 3)
    }
}

/// The UDP failure modes — loss, duplication, reordering — on both the
/// coherence lane and the miss-RPC lane of a two-node rack, repaired by the
/// retained-until-confirmed replay machinery (sequence dedup at the
/// receiver, scheduler-triggered retransmits).
pub fn udp_drop_dup_reorder() -> ScenarioSpec {
    let h = key_homed_at(2, 0, 900);
    let c = key_homed_at(2, 1, 950);
    let about = "datagram drop/dup/reorder on coherence + miss lanes; replay must repair";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            each([put(h, 901), put(c, 902), get(h)]),
            each([put(c, 911), get(c), get(h)]),
        ],
        drop_budget: 2,
        dup_budget: 1,
        ..ScenarioSpec::new("udp-drop-dup-reorder", about, Lin, 2)
    }
}

/// [`crash_mid_commit`] with one frame per link on the wire: frames queue
/// behind an unconfirmed one, a crash can land while a survivor retains
/// one with more queued behind it, and the restart must replay it first.
/// Two crashes, because the first lands before any traffic in most walks.
pub fn credit_window_crash() -> ScenarioSpec {
    ScenarioSpec {
        name: "credit-window-crash",
        about: "window of 1: frames queue behind a retained tail; the restart replays it first",
        credit_window: 1,
        crash_budget: 2,
        ..crash_mid_commit()
    }
}

/// Negative scenario: crashes with the safety gates OFF, so the scheduler
/// can kill a node inside the known-unsurvivable windows (a committed
/// value living only in the dead cache and its in-flight updates; a dead
/// writer leaving peers wedged-invalid; in-memory cold data). The checker
/// must find violations here — a clean pass would mean the harness cannot
/// see the very bugs it exists to catch.
pub fn ack_then_die() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 1100);
    let about = "ungated crashes (negative): the checker must catch lost writes / wedges";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            each([put(h, 1101), put(h, 1102)]),
            each([put(h, 1111), get(h)]),
            each([get(h), put(h, 1121)]),
        ],
        crash_budget: 1,
        unsafe_crashes: true,
        expect_violation: true,
        ..ScenarioSpec::new("ack-then-die", about, Lin, 3)
    }
}

/// Every node reads cold keys homed at the other two, and one node
/// crashes. Nothing is ever written, so every crash is survivable and no
/// crash gate applies; the window of interest is a home that confirmed a
/// `MissGet` on the link and died before its `RpcResp` was delivered. The
/// link's replay cannot repair that (the confirmation trimmed the request
/// from the retained tail): the origin's op completes only because its
/// RPC table names the request in doubt and asks the replacement again.
pub fn miss_rpc_crash() -> ScenarioSpec {
    let keys: Vec<u64> = (0..3).map(|home| key_homed_at(3, home, 1300)).collect();
    let reads = |a: usize, b: usize| each([get(keys[a]), get(keys[b]), get(keys[a])]);
    let about = "home dies owing a confirmed MissGet its answer; in-doubt reissue must complete it";
    ScenarioSpec {
        programs: vec![reads(1, 2), reads(2, 0), reads(0, 1)],
        crash_budget: 1,
        ..ScenarioSpec::new("miss-rpc-crash", about, Lin, 3)
    }
}

/// Negative twin of [`miss_rpc_crash`]: the same rack with the in-doubt
/// reissue skipped. Some schedule must strand an op forever (reported as a
/// deadlock) — a clean pass would mean the positive scenario never reaches
/// the window it is named for.
pub fn miss_rpc_no_reissue() -> ScenarioSpec {
    ScenarioSpec {
        name: "miss-rpc-no-reissue",
        about: "in-doubt reissue skipped (negative): the checker must catch the stranded op",
        skip_rpc_reissue: true,
        expect_violation: true,
        ..miss_rpc_crash()
    }
}

/// One session sends `Batch[Get i, Put k, Get k, Get j, Get i]` — all
/// three keys cold and homed at the other node — while that node writes
/// `j` and an install of `j` starts mid-batch. Batch prefetch issues the
/// reads of `j` and `i` at decode and must skip `k` (the batch writes it
/// first); the first `Get i` parks on the slot prefetched for the last;
/// `j`'s answer arrives ahead of its turn as a value, as a bounce off the
/// install fence, or is passed over because `j` turned hot meanwhile.
pub fn batch_prefetch() -> ScenarioSpec {
    let [i, j, k] = [1500, 1530, 1560].map(|salt| key_homed_at(2, 1, salt));
    let about = "a batch's prefetched cold reads race its own write, a remote writer, an install";
    let batch = vec![get(i), put(k, 1501), get(k), get(j), get(i)];
    ScenarioSpec {
        programs: vec![vec![ProgStep::Batch(batch)], each([put(j, 1511), get(j)])],
        admin_script: vec![AdminStep::Install(j)],
        ..ScenarioSpec::new("batch-prefetch", about, Lin, 2)
    }
}

/// One session pipelines `Put h` (hot, Lin), `Get h` and `Get c` (cold,
/// homed where it is asked) without waiting for answers, against a second
/// writer of `h`. The put suspends on its acknowledgements; the reads
/// behind it must wait their turn — answers leave in request order, and
/// the `Get h` sees that put or a newer one.
pub fn conn_order() -> ScenarioSpec {
    let h = key_homed_at(3, 1, 1700);
    let c = key_homed_at(3, 0, 1750);
    let about = "pipelined requests behind a suspended Lin put are answered in request order";
    ScenarioSpec {
        hot_keys: vec![h],
        programs: vec![
            vec![
                ProgStep::Op(put(h, 1701)),
                ProgStep::Pipelined(get(h)),
                ProgStep::Pipelined(get(c)),
            ],
            each([put(h, 1711), get(h)]),
            each([put(c, 1721), get(h)]),
        ],
        ..ScenarioSpec::new("conn-order", about, Lin, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_keys_are_homed_where_the_specs_assume() {
        for spec in all() {
            let probe = CcNode::new(NodeConfig::small(spec.model, 0, spec.nodes));
            for op in spec.programs.iter().flatten().flat_map(ProgStep::ops) {
                assert!(probe.home_node(op.key()) < spec.nodes);
            }
        }
        assert_eq!(
            CcNode::new(NodeConfig::small(ConsistencyModel::Lin, 0, 3))
                .home_node(key_homed_at(3, 1, 0)),
            1
        );
    }

    #[test]
    fn scenario_names_are_unique_and_resolvable() {
        let specs = all();
        for s in &specs {
            assert_eq!(by_name(s.name).unwrap().name, s.name);
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }
}
