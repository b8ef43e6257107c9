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
use consistency::ConsistencyModel;

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

/// One step of a scenario's admin script — the epoch coordinator's actions
/// (hot-set transitions), decomposed so the scheduler can interleave client
/// and protocol traffic between them. Steps execute strictly in script
/// order; a step whose preconditions are not yet met is a no-op when
/// chosen (it retries on a later pick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminStep {
    /// Begin evicting a hot key: set the hot-transition mark at its home
    /// (cold ops bounce with `MissRetry` until the unmark).
    MarkEvict {
        /// Key leaving the hot set.
        key: u64,
    },
    /// Evict the key from one node's cache; a dirty non-home copy ships a
    /// `WriteBack` RPC to the home over the scheduled links.
    EvictAt {
        /// Node to evict at.
        node: usize,
        /// Key being evicted.
        key: u64,
    },
    /// Finish the eviction: requires every replica evicted and every
    /// write-back RPC resolved, then clears the mark (the key is cold).
    UnmarkEvict {
        /// Key that left the hot set.
        key: u64,
    },
    /// Begin installing a cold key: mark its home and snapshot the
    /// authoritative value+version the caches will be filled with.
    MarkInstall {
        /// Key entering the hot set.
        key: u64,
    },
    /// Warm-install the snapshot into one node's cache (invisible to
    /// client ops until activated, but participating in coherence).
    WarmAt {
        /// Node to warm at.
        node: usize,
        /// Key being installed.
        key: u64,
    },
    /// Activate the warming entry at one node (requires every node warmed
    /// first, mirroring the two-phase install of the live rack).
    ActivateAt {
        /// Node to activate at.
        node: usize,
        /// Key being installed.
        key: u64,
    },
    /// Finish the install: clears the mark (the key is hot everywhere).
    UnmarkInstall {
        /// Key that entered the hot set.
        key: u64,
    },
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
    pub programs: Vec<Vec<ProgOp>>,
    /// The admin script, executed in order as `Admin` actions fire.
    pub admin_script: Vec<AdminStep>,
    /// How many datagrams the scheduler may drop.
    pub drop_budget: u32,
    /// How many datagrams the scheduler may duplicate.
    pub dup_budget: u32,
    /// How many node crashes the scheduler may inject.
    pub crash_budget: u32,
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
        ack_then_die(),
        miss_rpc_no_reissue(),
    ]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    all().into_iter().find(|s| s.name == name)
}

/// Concurrent Lin writers on one hot key: every interleaving of the
/// invalidation/ack/update rounds must commit in a per-key-linearizable
/// order.
pub fn lin_commit() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 100);
    ScenarioSpec {
        name: "lin-commit",
        about: "two Lin writers and a reader race on one hot key; no faults",
        model: ConsistencyModel::Lin,
        nodes: 3,
        hot_keys: vec![h],
        programs: vec![
            vec![ProgOp::Put { key: h, value: 101 }, ProgOp::Get { key: h }],
            vec![ProgOp::Put { key: h, value: 201 }, ProgOp::Get { key: h }],
            vec![ProgOp::Get { key: h }, ProgOp::Get { key: h }],
        ],
        admin_script: vec![],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 0,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
    }
}

/// A hot key is evicted to cold mid-traffic: dirty replicas write back over
/// scheduled RPCs, the home bounces cold ops until the unmark, and no
/// acknowledged write may be lost across the transition.
pub fn dirty_evict_writeback() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 300);
    ScenarioSpec {
        name: "dirty-evict-writeback",
        about: "hot key evicted to cold mid-traffic; dirty write-backs race client ops",
        model: ConsistencyModel::Lin,
        nodes: 3,
        hot_keys: vec![h],
        programs: vec![
            vec![ProgOp::Get { key: h }],
            vec![ProgOp::Put { key: h, value: 311 }, ProgOp::Get { key: h }],
            vec![ProgOp::Put { key: h, value: 321 }, ProgOp::Get { key: h }],
        ],
        admin_script: vec![
            AdminStep::MarkEvict { key: h },
            AdminStep::EvictAt { node: 0, key: h },
            AdminStep::EvictAt { node: 1, key: h },
            AdminStep::EvictAt { node: 2, key: h },
            AdminStep::UnmarkEvict { key: h },
        ],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 0,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
    }
}

/// A cold key turns hot mid-traffic under SC: miss RPCs bounce off the
/// transition mark, warm installs stay invisible until activation, and
/// cold-assigned versions must thread monotonically into the hot epoch.
pub fn hot_transition_bounce() -> ScenarioSpec {
    let c = key_homed_at(2, 0, 500);
    ScenarioSpec {
        name: "hot-transition-bounce",
        about: "cold key turns hot mid-traffic (SC); miss RPCs bounce off the mark",
        model: ConsistencyModel::Sc,
        nodes: 2,
        hot_keys: vec![],
        programs: vec![
            vec![ProgOp::Put { key: c, value: 511 }, ProgOp::Get { key: c }],
            vec![ProgOp::Put { key: c, value: 521 }, ProgOp::Get { key: c }],
        ],
        admin_script: vec![
            AdminStep::MarkInstall { key: c },
            AdminStep::WarmAt { node: 0, key: c },
            AdminStep::WarmAt { node: 1, key: c },
            AdminStep::ActivateAt { node: 0, key: c },
            AdminStep::ActivateAt { node: 1, key: c },
            AdminStep::UnmarkInstall { key: c },
        ],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 0,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
    }
}

/// A replica crashes in the middle of Lin commit rounds (inside the
/// windows the production system survives), restarts with a fresh process
/// and a new generation, receives the survivors' retained-frame replay and
/// reissued invalidations, acknowledges vacuously, and the rack heals —
/// every schedule must still be linearizable with no lost acked write.
pub fn crash_mid_commit() -> ScenarioSpec {
    let h = key_homed_at(3, 0, 700);
    ScenarioSpec {
        name: "crash-mid-commit",
        about: "replica crashes mid Lin round; restart + replay + vacuous acks must heal",
        model: ConsistencyModel::Lin,
        nodes: 3,
        hot_keys: vec![h],
        programs: vec![
            vec![ProgOp::Put { key: h, value: 701 }, ProgOp::Get { key: h }],
            vec![ProgOp::Put { key: h, value: 711 }, ProgOp::Get { key: h }],
            vec![ProgOp::Get { key: h }],
        ],
        admin_script: vec![],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 1,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
    }
}

/// The UDP failure modes — loss, duplication, reordering — on both the
/// coherence lane and the miss-RPC lane of a two-node rack, repaired by the
/// retained-until-confirmed replay machinery (sequence dedup at the
/// receiver, scheduler-triggered retransmits).
pub fn udp_drop_dup_reorder() -> ScenarioSpec {
    let h = key_homed_at(2, 0, 900);
    let c = key_homed_at(2, 1, 950);
    ScenarioSpec {
        name: "udp-drop-dup-reorder",
        about: "datagram drop/dup/reorder on coherence + miss lanes; replay must repair",
        model: ConsistencyModel::Lin,
        nodes: 2,
        hot_keys: vec![h],
        programs: vec![
            vec![
                ProgOp::Put { key: h, value: 901 },
                ProgOp::Put { key: c, value: 902 },
                ProgOp::Get { key: h },
            ],
            vec![
                ProgOp::Put { key: c, value: 911 },
                ProgOp::Get { key: c },
                ProgOp::Get { key: h },
            ],
        ],
        admin_script: vec![],
        drop_budget: 2,
        dup_budget: 1,
        crash_budget: 0,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
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
    ScenarioSpec {
        name: "ack-then-die",
        about: "ungated crashes (negative): the checker must catch lost writes / wedges",
        model: ConsistencyModel::Lin,
        nodes: 3,
        hot_keys: vec![h],
        programs: vec![
            vec![
                ProgOp::Put {
                    key: h,
                    value: 1101,
                },
                ProgOp::Put {
                    key: h,
                    value: 1102,
                },
            ],
            vec![
                ProgOp::Put {
                    key: h,
                    value: 1111,
                },
                ProgOp::Get { key: h },
            ],
            vec![
                ProgOp::Get { key: h },
                ProgOp::Put {
                    key: h,
                    value: 1121,
                },
            ],
        ],
        admin_script: vec![],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 1,
        unsafe_crashes: true,
        skip_rpc_reissue: false,
        expect_violation: true,
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
    let reads = |a: usize, b: usize| {
        vec![
            ProgOp::Get { key: keys[a] },
            ProgOp::Get { key: keys[b] },
            ProgOp::Get { key: keys[a] },
        ]
    };
    ScenarioSpec {
        name: "miss-rpc-crash",
        about: "home dies owing a confirmed MissGet its answer; in-doubt reissue must complete it",
        model: ConsistencyModel::Lin,
        nodes: 3,
        hot_keys: vec![],
        programs: vec![reads(1, 2), reads(2, 0), reads(0, 1)],
        admin_script: vec![],
        drop_budget: 0,
        dup_budget: 0,
        crash_budget: 1,
        unsafe_crashes: false,
        skip_rpc_reissue: false,
        expect_violation: false,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_keys_are_homed_where_the_specs_assume() {
        for spec in all() {
            let probe = CcNode::new(NodeConfig::small(spec.model, 0, spec.nodes));
            for prog in &spec.programs {
                for op in prog {
                    assert!(probe.home_node(op.key()) < spec.nodes);
                }
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
