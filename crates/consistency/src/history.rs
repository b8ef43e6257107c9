//! Recorded-history validation of the consistency models (§5.1).
//!
//! The paper defines the two models over sessions issuing gets and puts:
//!
//! * **Per-key SC**: every put eventually propagates, all sessions agree on
//!   the order of puts to the same key, and gets/puts of a session appear in
//!   session order (Fig. 6 shows a violation: two sessions observing the
//!   writes of a key in different orders).
//! * **Per-key Lin**: additionally preserves real time — a put returns only
//!   after it is visible everywhere, and a get may only return a value whose
//!   put has (or could have) already taken effect (Fig. 5 shows a stale read
//!   that SC allows but Lin forbids).
//!
//! ccKVS serialises writes with unique Lamport timestamps, so every operation
//! in a recorded history carries the timestamp of the value it wrote or read.
//! Under that (checked) uniqueness assumption, the model conditions reduce to
//! efficiently checkable per-session and real-time ordering constraints,
//! which is what [`History::check_per_key_sc`] and
//! [`History::check_per_key_lin`] implement. The checks are *sound*: any
//! reported violation is a real violation of the model.

use crate::lamport::Timestamp;
use crate::messages::Value;
use std::collections::HashMap;

/// The kind of a recorded, completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A get that returned `value` (carrying the timestamp of that value).
    Get {
        /// The value returned.
        value: Value,
    },
    /// A put of `value`.
    Put {
        /// The value written.
        value: Value,
    },
}

/// The [`Value`] a history records for value bytes: a writer records the
/// tag of what it wrote and a reader the tag of what it got, so the
/// checkers can match reads to writes. Values of eight bytes or more carry
/// their tag in the first eight; shorter ones are hashed.
pub fn value_tag_of(value: &[u8]) -> Value {
    match value.get(..8) {
        Some(tag) => u64::from_le_bytes(tag.try_into().expect("8 bytes")),
        None => value.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        }),
    }
}

/// One completed operation in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The issuing session.
    pub session: u32,
    /// The key operated on.
    pub key: u64,
    /// Get or put, with the value involved.
    pub kind: RecordKind,
    /// Timestamp of the value read / written (as assigned by the protocol).
    pub ts: Timestamp,
    /// Real time at which the operation was invoked.
    pub invoked_at: u64,
    /// Real time at which the operation returned.
    pub completed_at: u64,
    /// Position of the operation within its session (session order).
    pub session_seq: u64,
}

/// A violation found in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description of the violated condition.
    pub description: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.description)
    }
}

impl std::error::Error for Violation {}

/// A recorded multi-session history of completed operations.
#[derive(Debug, Clone, Default)]
pub struct History {
    ops: Vec<OpRecord>,
    /// Puts whose call failed, as `(key, value, invoked_at)`.
    pub indeterminate: Vec<(u64, Value, u64)>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed operation.
    pub fn record(&mut self, op: OpRecord) {
        self.ops.push(op);
    }

    /// Appends a put of `value` to `key`, invoked at `invoked_at`, whose
    /// call failed: it may or may not have taken effect (a crash can apply
    /// a write and lose its answer). It never completed and its timestamp
    /// is unknown, so it binds no timestamp until a read returns its value
    /// ([`History::check_reads_return_written_values`]).
    pub fn record_indeterminate_put(&mut self, key: u64, value: Value, invoked_at: u64) {
        self.indeterminate.push((key, value, invoked_at));
    }

    /// The recorded operations.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Checks the timestamp-uniqueness invariant of §5.2: no two distinct
    /// puts of the same key carry the same Lamport timestamp, and every put
    /// has a non-zero timestamp.
    pub fn check_unique_write_timestamps(&self) -> Result<(), Violation> {
        let mut seen: HashMap<(u64, Timestamp), Value> = HashMap::new();
        for op in &self.ops {
            if let RecordKind::Put { value } = op.kind {
                if op.ts == Timestamp::ZERO {
                    return Err(Violation {
                        description: format!(
                            "put of key {} completed with the zero timestamp",
                            op.key
                        ),
                    });
                }
                if let Some(prev) = seen.insert((op.key, op.ts), value) {
                    if prev != value {
                        return Err(Violation {
                            description: format!(
                                "two different puts of key {} share timestamp {} (values {} and {})",
                                op.key, op.ts, prev, value
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks that every read returns a value actually written (or the
    /// initial value at timestamp zero) and that the value↔timestamp binding
    /// is consistent across the history — i.e. no "mishmash" values (§5.1:
    /// updates happen atomically). A read at a timestamp no completed put
    /// produced may return the value of an indeterminate put of the key
    /// invoked before the read completed: that put took effect, at that
    /// timestamp, which binds it like a completed put's.
    pub fn check_reads_return_written_values(&self) -> Result<(), Violation> {
        let mut written: HashMap<(u64, Timestamp), Value> = HashMap::new();
        for op in &self.ops {
            if let RecordKind::Put { value } = op.kind {
                written.insert((op.key, op.ts), value);
            }
        }
        for op in &self.ops {
            if let RecordKind::Get { value } = op.kind {
                if op.ts == Timestamp::ZERO {
                    continue; // Initial value; nothing to cross-check.
                }
                let witnessed = |&(key, v, invoked_at): &(u64, Value, u64)| {
                    key == op.key && v == value && invoked_at < op.completed_at
                };
                match written.get(&(op.key, op.ts)) {
                    None if self.indeterminate.iter().any(witnessed) => {
                        written.insert((op.key, op.ts), value);
                    }
                    Some(w) if *w == value => {}
                    Some(w) => {
                        return Err(Violation {
                            description: format!(
                                "get of key {} returned value {} but the put with timestamp {} wrote {}",
                                op.key, value, op.ts, w
                            ),
                        })
                    }
                    None => {
                        return Err(Violation {
                            description: format!(
                                "get of key {} returned timestamp {} that no recorded put produced",
                                op.key, op.ts
                            ),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks per-key Sequential Consistency.
    ///
    /// Conditions (all per key): unique write timestamps, reads return
    /// written values, and within each session the sequence of observed
    /// timestamps (its own puts and the values its gets return) is
    /// non-decreasing — which is exactly "all sessions agree on the order of
    /// writes" plus "session order is respected" when writes are totally
    /// ordered by their unique timestamps.
    pub fn check_per_key_sc(&self) -> Result<(), Violation> {
        self.check_unique_write_timestamps()?;
        self.check_reads_return_written_values()?;
        // Per (session, key): observed timestamps must be non-decreasing in
        // session order.
        let mut per_session: HashMap<(u32, u64), Vec<&OpRecord>> = HashMap::new();
        for op in &self.ops {
            per_session
                .entry((op.session, op.key))
                .or_default()
                .push(op);
        }
        for ((session, key), mut ops) in per_session {
            ops.sort_by_key(|o| o.session_seq);
            let mut last = Timestamp::ZERO;
            for op in ops {
                if op.ts < last {
                    return Err(Violation {
                        description: format!(
                            "session {session} observed key {key} go backwards: {} after {}",
                            op.ts, last
                        ),
                    });
                }
                last = op.ts;
            }
        }
        Ok(())
    }

    /// Checks per-key Linearizability.
    ///
    /// In addition to the SC conditions, real time must be preserved:
    ///
    /// * a get that *starts* after a put *completed* must return that put's
    ///   value or a newer one (no stale reads after a completed write — the
    ///   Fig. 5 scenario);
    /// * a get must not return a value whose put had not yet been invoked
    ///   when the get completed (no reads from the future).
    pub fn check_per_key_lin(&self) -> Result<(), Violation> {
        self.check_per_key_sc()?;
        // Group by key.
        let mut per_key: HashMap<u64, Vec<&OpRecord>> = HashMap::new();
        for op in &self.ops {
            per_key.entry(op.key).or_default().push(op);
        }
        for (key, ops) in per_key {
            let puts: Vec<&OpRecord> = ops
                .iter()
                .copied()
                .filter(|o| matches!(o.kind, RecordKind::Put { .. }))
                .collect();
            for get in ops
                .iter()
                .filter(|o| matches!(o.kind, RecordKind::Get { .. }))
            {
                for put in &puts {
                    if put.completed_at < get.invoked_at && get.ts < put.ts {
                        return Err(Violation {
                            description: format!(
                                "linearizability violation on key {key}: a get invoked at {} returned \
                                 timestamp {} although the put with timestamp {} completed at {}",
                                get.invoked_at, get.ts, put.ts, put.completed_at
                            ),
                        });
                    }
                    if get.ts == put.ts && put.invoked_at > get.completed_at {
                        return Err(Violation {
                            description: format!(
                                "linearizability violation on key {key}: a get completed at {} returned \
                                 the value of a put only invoked at {}",
                                get.completed_at, put.invoked_at
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lamport::NodeId;

    fn put(
        session: u32,
        key: u64,
        value: Value,
        ts: Timestamp,
        t0: u64,
        t1: u64,
        seq: u64,
    ) -> OpRecord {
        OpRecord {
            session,
            key,
            kind: RecordKind::Put { value },
            ts,
            invoked_at: t0,
            completed_at: t1,
            session_seq: seq,
        }
    }

    fn get(
        session: u32,
        key: u64,
        value: Value,
        ts: Timestamp,
        t0: u64,
        t1: u64,
        seq: u64,
    ) -> OpRecord {
        OpRecord {
            session,
            key,
            kind: RecordKind::Get { value },
            ts,
            invoked_at: t0,
            completed_at: t1,
            session_seq: seq,
        }
    }

    fn ts(clock: u32, node: u8) -> Timestamp {
        Timestamp::new(clock, NodeId(node))
    }

    #[test]
    fn fig5_stale_read_is_sc_but_not_lin() {
        // Session A: PUT(K,1) at t0, GET(K)->1 at t1. Session B: GET(K)->0 at
        // t2 (initial value). SC allows it, Lin forbids it.
        let mut h = History::new();
        h.record(put(0, 1, 1, ts(1, 0), 0, 5, 0));
        h.record(get(0, 1, 1, ts(1, 0), 10, 12, 1));
        h.record(get(1, 1, 0, Timestamp::ZERO, 20, 22, 0));
        assert!(h.check_per_key_sc().is_ok());
        let err = h.check_per_key_lin().unwrap_err();
        assert!(err.description.contains("linearizability violation"));
    }

    #[test]
    fn fig6_disagreeing_sessions_violate_sc() {
        // Sessions B and C observe the two writes of key K in opposite
        // orders: an SC (and hence Lin) violation.
        let w1 = ts(1, 0);
        let w2 = ts(1, 3); // concurrent write by another node, ordered after w1
        let mut h = History::new();
        h.record(put(0, 1, 1, w1, 0, 10, 0));
        h.record(put(3, 1, 2, w2, 0, 10, 0));
        // Session B sees 1 then 2 (fine).
        h.record(get(1, 1, 1, w1, 11, 12, 0));
        h.record(get(1, 1, 2, w2, 13, 14, 1));
        // Session C sees 2 then 1 (order reversal).
        h.record(get(2, 1, 2, w2, 11, 12, 0));
        h.record(get(2, 1, 1, w1, 13, 14, 1));
        assert!(h.check_per_key_sc().is_err());
        assert!(h.check_per_key_lin().is_err());
    }

    #[test]
    fn read_your_writes_is_required() {
        // A session that reads an older value after its own newer write
        // violates session order (part of both models).
        let mut h = History::new();
        h.record(put(0, 1, 1, ts(1, 0), 0, 1, 0));
        h.record(put(0, 1, 2, ts(2, 0), 2, 3, 1));
        h.record(get(0, 1, 1, ts(1, 0), 4, 5, 2));
        assert!(h.check_per_key_sc().is_err());
    }

    #[test]
    fn duplicate_write_timestamps_are_flagged() {
        let mut h = History::new();
        h.record(put(0, 1, 1, ts(1, 0), 0, 1, 0));
        h.record(put(1, 1, 2, ts(1, 0), 0, 1, 0));
        assert!(h.check_unique_write_timestamps().is_err());
    }

    #[test]
    fn read_of_never_written_value_is_flagged() {
        let mut h = History::new();
        h.record(put(0, 1, 1, ts(1, 0), 0, 1, 0));
        h.record(get(1, 1, 7, ts(9, 9), 2, 3, 0));
        assert!(h.check_reads_return_written_values().is_err());
    }

    #[test]
    fn a_read_may_witness_an_indeterminate_put() {
        // Session 0's put of 5 failed (its node died with the answer); a
        // read at a timestamp no completed put produced returns 5.
        let mut h = History::new();
        h.record(put(1, 1, 4, ts(1, 1), 0, 1, 0));
        h.record_indeterminate_put(1, 5, 2);
        h.record(get(2, 1, 5, ts(2, 0), 3, 4, 0));
        assert!(h.check_per_key_lin().is_ok());
        // That timestamp is now 5's: a second read of it with another
        // value is a mishmash.
        let mut twice = h.clone();
        twice.record(get(2, 1, 4, ts(2, 0), 5, 6, 1));
        assert!(twice.check_reads_return_written_values().is_err());
        // A value no put wrote, determinate or not, is still flagged, and
        // so is a read completed before the put was invoked.
        let mut never = h.clone();
        never.record(get(3, 1, 6, ts(3, 0), 5, 6, 0));
        assert!(never.check_reads_return_written_values().is_err());
        let mut early = History::new();
        early.record_indeterminate_put(1, 5, 9);
        early.record(get(2, 1, 5, ts(2, 0), 3, 4, 0));
        assert!(early.check_reads_return_written_values().is_err());
    }

    #[test]
    fn well_formed_concurrent_history_passes_lin() {
        // Two writers, a reader that always observes monotonically newer
        // values, and real time respected.
        let w1 = ts(1, 0);
        let w2 = ts(2, 1);
        let mut h = History::new();
        h.record(put(0, 5, 10, w1, 0, 10, 0));
        h.record(put(1, 5, 20, w2, 12, 20, 0));
        h.record(get(2, 5, 10, w1, 5, 11, 0)); // overlaps w1: may see it
        h.record(get(2, 5, 20, w2, 21, 22, 1)); // after w2 completed: sees w2
        assert!(h.check_per_key_lin().is_ok());
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn keys_are_independent() {
        // Per-key models: disagreement across *different* keys is fine.
        let mut h = History::new();
        h.record(put(0, 1, 1, ts(1, 0), 0, 1, 0));
        h.record(put(0, 2, 2, ts(1, 0), 2, 3, 1));
        h.record(get(1, 2, 2, ts(1, 0), 4, 5, 0));
        h.record(get(1, 1, 0, Timestamp::ZERO, 6, 7, 1));
        // Reading key 1's initial value after key 2's new value is allowed by
        // per-key SC (no cross-key guarantees)...
        assert!(h.check_per_key_sc().is_ok());
        // ...but the stale read of key 1 after its put completed still
        // violates per-key Lin.
        assert!(h.check_per_key_lin().is_err());
    }

    #[test]
    fn empty_history_is_trivially_consistent() {
        let h = History::new();
        assert!(h.is_empty());
        assert!(h.check_per_key_sc().is_ok());
        assert!(h.check_per_key_lin().is_ok());
    }
}
