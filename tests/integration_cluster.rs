//! End-to-end integration tests: workload generation + coordinator-driven
//! cache fill + a loopback rack + consistency checking.

use scale_out_ccnuma::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boots a rack whose hot set was chosen by the epoch-based coordinator
/// from a sampled Zipfian stream, exactly like a ccKVS deployment would.
fn rack_with_learned_hot_set(model: ConsistencyModel) -> (Rack, Vec<u64>) {
    let dataset = Dataset::new(50_000, 40);
    let mut coordinator = CacheCoordinator::new(EpochConfig {
        cache_entries: 32,
        counter_capacity: 256,
        sampling: 2,
        epoch_length: 5_000,
    });
    let mut gen = WorkloadGen::new(
        &dataset,
        AccessDistribution::ycsb_default(),
        Mix::read_only(),
        3,
    );
    let hot = loop {
        if let Some(hot) = coordinator.observe(gen.next_op().rank) {
            break hot;
        }
    };
    let rack = Rack::launch(RackConfig::small(model, 3)).expect("launch rack");
    let entries: Vec<(u64, Vec<u8>)> = hot
        .keys
        .iter()
        .map(|&rank| (dataset.key_of_rank(rank).0, rank.to_le_bytes().to_vec()))
        .collect();
    rack.install_hot_set(&entries).expect("install hot set");
    let keys = entries.into_iter().map(|(key, _)| key).collect();
    (rack, keys)
}

/// A session of `rack` recording into `history`.
fn session(
    rack: &Rack,
    session: u32,
    policy: LoadBalancePolicy,
    history: &Arc<SharedHistory>,
) -> Client {
    rack.client()
        .session(session)
        .policy(policy)
        .history(Arc::clone(history))
        .connect()
        .expect("connect")
}

#[test]
fn learned_hot_set_serves_reads_from_every_node() {
    let (rack, keys) = rack_with_learned_hot_set(ConsistencyModel::Sc);
    assert!(!keys.is_empty());
    for node in 0..rack.nodes() {
        let metrics = Arc::new(Metrics::new());
        let mut client = rack
            .client()
            .policy(LoadBalancePolicy::Pinned(node))
            .metrics(Arc::clone(&metrics))
            .connect()
            .expect("connect");
        for key in &keys {
            let value = client.get(*key).expect("get");
            assert_eq!(value.len(), 8, "seeded 8-byte values");
            assert!(rack.server(node).node().is_cached(*key));
        }
        // Every read was answered from the entry node's own cache.
        let snap = metrics.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (keys.len() as u64, 0));
    }
    rack.shutdown();
}

#[test]
fn mixed_workload_history_is_linearizable_under_lin() {
    let (rack, keys) = rack_with_learned_hot_set(ConsistencyModel::Lin);
    let history = Arc::new(SharedHistory::new());
    let keys = Arc::new(keys);
    let handles: Vec<_> = (0..4u32)
        .map(|id| {
            // Lin is a real-time guarantee: sessions spread over the nodes.
            let mut client = session(&rack, id, LoadBalancePolicy::RoundRobin, &history);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for i in 0..150u64 {
                    let key = keys[(i as usize + id as usize) % keys.len().min(4)];
                    if i % 4 == 0 {
                        let mut value = [0u8; 12];
                        value[..8].copy_from_slice(&((u64::from(id) << 40) | i).to_le_bytes());
                        client.put(key, &value).expect("put");
                    } else {
                        client.get(key).expect("get");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let history = history.snapshot();
    assert!(history.len() >= 600);
    history
        .check_per_key_lin()
        .expect("per-key linearizability");
    rack.shutdown();
}

#[test]
fn sc_cluster_converges_after_concurrent_writes() {
    let rack = Rack::launch(RackConfig::small(ConsistencyModel::Sc, 3)).expect("launch rack");
    rack.install_hot_set(&[(9, 0u64.to_le_bytes().to_vec())])
        .expect("install hot set");
    let history = Arc::new(SharedHistory::new());
    let writers: Vec<_> = (0..3u32)
        .map(|id| {
            // Per-key SC is a per-session guarantee through one replica.
            let node = id as usize % rack.nodes();
            let mut client = session(&rack, id, LoadBalancePolicy::Pinned(node), &history);
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    let value = ((u64::from(id) << 32) | i).to_le_bytes();
                    client.put(9, &value).expect("put");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    // SC updates propagate asynchronously: all replicas converge on the
    // same value once the last broadcasts have landed.
    let replica = |node: usize| rack.server(node).node().cache().read(9);
    let deadline = Instant::now() + Duration::from_secs(5);
    while (1..rack.nodes()).any(|node| replica(node) != replica(0)) {
        assert!(Instant::now() < deadline, "replicas did not converge");
        std::thread::yield_now();
    }
    assert!(matches!(replica(0), symcache::ReadOutcome::Hit { .. }));
    history.snapshot().check_per_key_sc().expect("per-key SC");
    rack.shutdown();
}

#[test]
fn write_back_on_eviction_reaches_the_home_shard() {
    // Evicting a dirty key from the symmetric cache must not lose the write:
    // the miss path then serves the latest value from the key's home shard,
    // whichever node the read enters through.
    let rack = Rack::launch(RackConfig::small(ConsistencyModel::Sc, 3)).expect("launch rack");
    rack.install_hot_set(&[(77, b"original".to_vec())])
        .expect("install hot set");
    let via = |node| {
        rack.client()
            .policy(LoadBalancePolicy::Pinned(node))
            .connect()
            .expect("connect")
    };
    via(1).put(77, b"dirty!!!").expect("put");
    rack.evict_hot_set(&[77]).expect("evict");
    for node in 0..rack.nodes() {
        assert!(!rack.server(node).node().is_cached(77));
        assert_eq!(via(node).get(77).expect("get"), b"dirty!!!");
    }
    rack.shutdown();
}
