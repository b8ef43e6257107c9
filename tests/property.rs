//! Property-based tests of core data structures and protocol invariants.

use consistency::engine::{Destination, NodeEngine, ProtocolEngine};
use consistency::lamport::{NodeId, Timestamp};
use consistency::messages::{ConsistencyModel, ProtocolMsg};
use kvstore::object::{ObjectHeader, StoredObject};
use kvstore::{ConcurrencyModel, NodeKvs, SeqLock};
use proptest::prelude::*;
use std::collections::HashMap;
use workload::{zipf_cdf, Dataset, ShardMap, ZipfGenerator};

proptest! {
    /// A seqlock read always returns exactly the last payload written.
    #[test]
    fn seqlock_roundtrips_arbitrary_payloads(payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..20)) {
        let lock = SeqLock::with_capacity(64);
        for payload in &payloads {
            lock.write(payload);
            let (read, version) = lock.read_with(|p| p.to_vec(0));
            prop_assert_eq!(&read, payload);
            prop_assert_eq!(version % 2, 0);
        }
        prop_assert_eq!(lock.write_count(), payloads.len() as u64);
    }

    /// Object headers encode/decode losslessly.
    #[test]
    fn object_header_roundtrip(state in any::<u8>(), clock in any::<u32>(), writer in any::<u8>(), acks in any::<u8>()) {
        let header = ObjectHeader { state, clock, last_writer: writer, acks };
        prop_assert_eq!(ObjectHeader::decode(&header.encode()), header);
    }

    /// A stored object never returns a header/value pair it was not given.
    #[test]
    fn stored_object_snapshots_are_never_torn(values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..10)) {
        let object = StoredObject::with_value_capacity(32);
        for (i, value) in values.iter().enumerate() {
            let header = ObjectHeader { clock: i as u32 + 1, ..ObjectHeader::default() };
            object.write(7, header, value);
            let snap = object.read(7).expect("key 7's object");
            prop_assert_eq!(snap.header.clock, i as u32 + 1);
            prop_assert_eq!(&snap.value, value);
        }
    }

    /// The KVS behaves like a map: the latest put wins, under both
    /// concurrency models.
    #[test]
    fn kvs_matches_a_model_map(ops in prop::collection::vec((0u64..64, prop::collection::vec(any::<u8>(), 1..16)), 1..200),
                               crcw in any::<bool>()) {
        let model_kind = if crcw { ConcurrencyModel::Crcw } else { ConcurrencyModel::Erew };
        let kvs = NodeKvs::new(model_kind, 4, 1 << 12);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (version, (key, value)) in ops.iter().enumerate() {
            kvs.put(*key, value, version as u32 + 1).expect("capacity is sufficient");
            model.insert(*key, value.clone());
        }
        for (key, expected) in &model {
            let got = kvs.get(*key).expect("present");
            prop_assert_eq!(&got.value, expected);
        }
        prop_assert_eq!(kvs.len(), model.len());
    }

    /// Lamport timestamps are totally ordered and `next_for` is monotone.
    #[test]
    fn lamport_timestamps_are_monotone(clock in 0u32..u32::MAX - 2, a in any::<u8>(), b in any::<u8>()) {
        let base = Timestamp::new(clock, NodeId(a));
        let next = base.next_for(NodeId(b));
        prop_assert!(next > base);
        let again = next.next_for(NodeId(a));
        prop_assert!(again > next);
    }

    /// The Zipfian CDF is monotone in the cached fraction and bounded by 1.
    #[test]
    fn zipf_cdf_is_monotone(n in 100u64..50_000, top1 in 1u64..100, extra in 0u64..1000, theta in 0.5f64..1.3) {
        let theta = if (theta - 1.0).abs() < 1e-6 { 1.01 } else { theta };
        let c1 = zipf_cdf(n, top1, theta);
        let c2 = zipf_cdf(n, top1 + extra, theta);
        prop_assert!(c1 <= c2 + 1e-12);
        prop_assert!(c2 <= 1.0 + 1e-9);
        prop_assert!(c1 >= 0.0);
    }

    /// Zipf samples always fall inside the dataset and rank 0 is sampled at
    /// least as often as any other single rank in aggregate.
    #[test]
    fn zipf_samples_are_in_range(n in 10u64..10_000, seed in any::<u64>()) {
        use rand::SeedableRng;
        let zipf = ZipfGenerator::new(n, 0.99);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut hottest = 0u64;
        for _ in 0..200 {
            let rank = zipf.sample(&mut rng);
            prop_assert!(rank < n);
            if rank == 0 {
                hottest += 1;
            }
        }
        // No strict bound on a small sample; just ensure the pmf agrees that
        // rank 0 carries the largest probability mass.
        prop_assert!(zipf.pmf(0) >= zipf.pmf(n - 1));
        let _ = hottest;
    }

    /// Key-to-shard routing is deterministic and within bounds.
    #[test]
    fn shard_routing_is_stable(keys in prop::collection::vec(any::<u64>(), 1..200), nodes in 1usize..32, threads in 1usize..32) {
        let dataset = Dataset::new(u64::MAX, 40);
        let _ = dataset;
        let shards = ShardMap::new(nodes, threads);
        for key in keys {
            let a = shards.home_core(workload::KeyId(key));
            let b = shards.home_core(workload::KeyId(key));
            prop_assert_eq!(a, b);
            prop_assert!(a.0 < nodes && a.1 < threads);
        }
    }

    /// The analytical model is monotone: more writes or more servers never
    /// increase ccKVS per-server efficiency relative to Uniform.
    #[test]
    fn analytical_model_is_monotone(nodes in 2usize..64, w1 in 0.0f64..0.2, dw in 0.0f64..0.2) {
        let p1 = analytical::ModelParams::paper_small_objects(nodes, w1);
        let p2 = analytical::ModelParams::paper_small_objects(nodes, (w1 + dw).min(1.0));
        prop_assert!(analytical::throughput_sc_mrps(&p2) <= analytical::throughput_sc_mrps(&p1) + 1e-9);
        prop_assert!(analytical::throughput_lin_mrps(&p2) <= analytical::throughput_sc_mrps(&p2) + 1e-9);
        prop_assert!((analytical::throughput_uniform_mrps(&p2) - analytical::throughput_uniform_mrps(&p1)).abs() < 1e-9);
    }
}

/// Delivers every outgoing message in a pseudo-random (seeded) order until
/// quiescence, returning the number of deliveries.
fn drain_randomly(
    engines: &mut [NodeEngine],
    mut pending: Vec<(usize, Destination, ProtocolMsg)>,
    seed: u64,
) -> usize {
    let mut deliveries = 0;
    let mut state = seed | 1;
    while !pending.is_empty() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let idx = (state as usize) % pending.len();
        let (from, dest, msg) = pending.swap_remove(idx);
        let targets: Vec<usize> = match dest {
            Destination::Broadcast => (0..engines.len()).filter(|&n| n != from).collect(),
            Destination::To(node) => vec![node.0 as usize],
        };
        for target in targets {
            let out = engines[target].deliver(msg);
            deliveries += 1;
            for (d, m) in out.outgoing {
                pending.push((target, d, m));
            }
        }
    }
    deliveries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever order messages are delivered in, concurrent writes under both
    /// protocols leave every replica converged on the same highest-timestamp
    /// value, and under Lin every write eventually completes (no deadlock).
    #[test]
    fn protocols_converge_under_random_delivery(
        writes in prop::collection::vec((0usize..4, 1u64..1_000_000), 1..6),
        seed in any::<u64>(),
        lin in any::<bool>(),
    ) {
        let model = if lin { ConsistencyModel::Lin } else { ConsistencyModel::Sc };
        let nodes = 4;
        let mut engines: Vec<NodeEngine> = (0..nodes)
            .map(|i| NodeEngine::new(model, NodeId(i as u8), nodes))
            .collect();
        for e in engines.iter_mut() {
            e.seed(1, 0);
        }
        // Issue all writes up front (they race with each other).
        let mut pending = Vec::new();
        for (node, value) in &writes {
            let out = engines[*node].client_put(1, *value);
            for (d, m) in out.outgoing {
                pending.push((*node, d, m));
            }
        }
        drain_randomly(&mut engines, pending, seed);
        // All replicas readable and identical.
        let reference = engines[0].inspect(1).expect("key tracked");
        for e in &engines {
            let (value, ts, readable) = e.inspect(1).expect("key tracked");
            prop_assert!(readable, "replica not readable after quiescence");
            prop_assert_eq!(value, reference.0);
            prop_assert_eq!(ts, reference.1);
        }
        // The winning value is one of the written values (or the seed if no
        // write happened, which cannot occur here).
        prop_assert!(writes.iter().any(|(_, v)| *v == reference.0));
    }
}
