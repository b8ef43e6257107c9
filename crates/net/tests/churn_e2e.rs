//! End-to-end hot-set churn over the wire.
//!
//! These tests exercise the dynamic-reconfiguration subsystem: a real
//! 3-node rack whose epoch coordinator installs and evicts hot keys *while
//! Zipfian traffic with writes runs*, with dirty evicted values written
//! back to their (remote) home shards over the `WriteBack` RPC. The
//! acceptance bar: the recorded history passes the per-key linearizability
//! checker across ≥ 3 epoch flips, and a final sweep finds no key whose
//! last acknowledged write was lost.

use cckvs_net::client::SharedHistory;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symcache::EpochConfig;
use workload::{Dataset, Mix, OpKind, ShiftingHotspot};

const SESSIONS: u32 = 3;
const OPS_PER_SESSION: u64 = 6_000;
const DATASET_KEYS: u64 = 4_096;
const VALUE_SIZE: usize = 40;
const CACHE_CAPACITY: usize = 64;
const HOT_SET: usize = 48;

fn churn_rack_config() -> RackConfig {
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.cache_capacity = CACHE_CAPACITY;
    cfg.kvs_capacity = DATASET_KEYS as usize * 2;
    cfg.value_capacity = VALUE_SIZE;
    // Short epochs: the coordinator closes them automatically from its
    // serving path, so the hot set catches up with the shifting hotspot
    // mid-phase and cached writes (→ dirty evictions) actually happen.
    cfg.epochs = Some(EpochConfig {
        cache_entries: HOT_SET,
        counter_capacity: HOT_SET * 4,
        sampling: 2,
        epoch_length: 600,
    });
    cfg
}

/// The acceptance test: live traffic across ≥ 3 epoch flips on a 3-node
/// rack; history linearizable, zero lost updates.
#[test]
fn churn_rack_preserves_every_acknowledged_write() {
    let rack = Rack::launch(churn_rack_config()).expect("launch rack");
    let dataset = Dataset::new(DATASET_KEYS, VALUE_SIZE);
    let history = Arc::new(SharedHistory::new());
    let ops_done = Arc::new(AtomicU64::new(0));

    let base = rack.client();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|session| {
            let base = base.clone();
            let history = Arc::clone(&history);
            let ops_done = Arc::clone(&ops_done);
            // The hotspot shifts every 1500 ops by 600 ranks: each session
            // sees ~4 distinct hot sets over its run, so the coordinator
            // must install and evict while the session keeps writing.
            let mut gen = ShiftingHotspot::new(
                &dataset,
                0.99,
                Mix::with_write_ratio(0.15),
                1_500,
                600,
                0xC0FFEE ^ u64::from(session),
            );
            std::thread::spawn(move || {
                let mut client = base
                    .session(session)
                    .policy(LoadBalancePolicy::RoundRobin)
                    .history(history)
                    .connect()
                    .expect("connect");
                // Keys are write-partitioned across sessions so "the last
                // acknowledged write" of a key is well defined for the final
                // sweep; reads stay shared.
                let mut last_written: HashMap<u64, Vec<u8>> = HashMap::new();
                for _ in 0..OPS_PER_SESSION {
                    let op = gen.next_op();
                    let owned = op.key.0 % u64::from(SESSIONS) == u64::from(session);
                    match op.kind {
                        OpKind::Put if owned => {
                            let value = op.value_bytes(session, VALUE_SIZE);
                            client.put(op.key.0, &value).expect("put");
                            last_written.insert(op.key.0, value);
                        }
                        _ => {
                            client.get(op.key.0).expect("get");
                        }
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                }
                last_written
            })
        })
        .collect();

    // Force epoch flips while the traffic runs (the coordinator also flips
    // by itself when enough sampled requests close an epoch).
    let total = u64::from(SESSIONS) * OPS_PER_SESSION;
    let mut last_epoch = 0;
    for threshold in [total / 4, total / 2, 3 * total / 4] {
        while ops_done.load(Ordering::Relaxed) < threshold {
            std::thread::sleep(Duration::from_millis(5));
        }
        let flip = rack.flip_epoch().expect("flip epoch under live traffic");
        last_epoch = flip.epoch;
    }
    assert!(
        last_epoch >= 3,
        "expected >= 3 epoch flips, got {last_epoch}"
    );

    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    for handle in handles {
        // Sessions write disjoint keys, so merging never overwrites.
        expected.extend(handle.join().expect("session thread"));
    }
    assert!(!expected.is_empty(), "workload produced no writes");

    // The churn machinery actually ran: keys were installed, evicted, and
    // dirty values written back (15% writes on a Zipfian head guarantee
    // dirty evictions across 3+ flips).
    let totals: Vec<_> = (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot())
        .collect();
    let installs: u64 = totals.iter().map(|s| s.installs).sum();
    let evictions: u64 = totals.iter().map(|s| s.evictions).sum();
    let writebacks: u64 = totals.iter().map(|s| s.writebacks).sum();
    assert!(installs > 0, "no hot keys were ever installed");
    assert!(evictions > 0, "the hot set never churned");
    assert!(writebacks > 0, "no dirty eviction ever wrote back");

    // Consistency of everything the clients observed, across every flip.
    let history = history.snapshot();
    assert!(history.len() > 1_000, "too few operations recorded");
    history
        .check_per_key_sc()
        .unwrap_or_else(|v| panic!("per-key SC violated under churn: {v}"));
    history
        .check_per_key_lin()
        .unwrap_or_else(|v| panic!("per-key Lin violated under churn: {v}"));

    // Zero lost updates: every key's last acknowledged write survives the
    // install/evict/write-back cycles, wherever it now lives.
    let mut sweeper = rack
        .client()
        .session(SESSIONS + 1)
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    let mut lost = 0;
    for (&key, value) in &expected {
        let read = sweeper.get(key).expect("sweep get");
        if &read != value {
            lost += 1;
            eprintln!("lost update: key {key} holds {read:?}, expected {value:?}");
        }
    }
    assert_eq!(
        lost,
        0,
        "{lost}/{} keys lost their last write",
        expected.len()
    );
    rack.shutdown();
}

/// Deterministic delta check: the coordinator installs what got popular and
/// evicts what stopped being popular, and a dirty evicted key's last write
/// lands on its home shard over the wire.
#[test]
fn epoch_flip_moves_the_hot_set_and_writes_back_dirty_keys() {
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.epochs = Some(EpochConfig {
        cache_entries: 8,
        counter_capacity: 64,
        // Sample everything, never auto-close: flips below are explicit.
        sampling: 1,
        epoch_length: u64::MAX,
    });
    let rack = Rack::launch(cfg).expect("launch rack");
    // Only traffic served by the coordinator node feeds the tracker.
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(cckvs_net::COORDINATOR_NODE))
        .connect()
        .expect("connect");

    // Phase A: keys 0..8 are the hot set.
    for _ in 0..50 {
        for key in 0..8u64 {
            client.get(key).expect("get");
        }
    }
    let flip = rack.flip_epoch().expect("first flip");
    assert_eq!(flip.epoch, 1);
    assert_eq!(flip.installed, 8, "phase-A keys must be installed");
    assert_eq!(flip.evicted, 0);
    for key in 0..8u64 {
        assert!(
            rack.server(1).node().is_cached(key),
            "key {key} not cached on node 1 after install"
        );
    }

    // Write one of the hot keys through the cache (round-robin would do;
    // the pinned session works too) — this makes its entry dirty on every
    // replica.
    let ts = client
        .put(3, b"dirty-hot-value")
        .expect("put")
        .expect("cache-path write");

    // Phase B: keys 100..116 take over; every phase-A key must be evicted
    // (space-saving counts: 100 observations each vs 50).
    for _ in 0..100 {
        for key in 100..116u64 {
            client.get(key).expect("get");
        }
    }
    let flip = rack.flip_epoch().expect("second flip");
    assert_eq!(flip.epoch, 2);
    assert_eq!(flip.installed, 8, "hot set must refill with phase-B keys");
    assert_eq!(flip.evicted, 8, "every phase-A key must be evicted");
    for key in 0..8u64 {
        assert!(
            !rack.server(2).node().is_cached(key),
            "key {key} still cached after eviction"
        );
    }

    // The dirty write survived eviction: it reached key 3's home shard with
    // its protocol timestamp, over the wire when the home is remote.
    let home = rack.server(0).node().home_node(3);
    let (value, stored_ts) = rack.server(home).node().kvs_get_versioned(3);
    assert_eq!(value, b"dirty-hot-value", "dirty eviction lost the write");
    assert_eq!(stored_ts, ts, "write-back must carry the protocol version");
    assert_eq!(client.get(3).expect("get"), b"dirty-hot-value");

    let writebacks: u64 = (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().writebacks)
        .sum();
    assert!(writebacks > 0, "no write-back recorded");
    rack.shutdown();
}

/// Regression for the original bug, driven purely through admin frames:
/// evicting a dirty key via `Frame::Evict` on a node that is *not* the
/// key's home must not lose the write.
#[test]
fn admin_eviction_of_dirty_non_home_keys_keeps_the_write() {
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let addrs = rack.client_addrs();
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");

    let keys: Vec<u64> = (0..24).collect();
    let entries: Vec<(u64, Vec<u8>)> = keys.iter().map(|&k| (k, vec![0u8; 16])).collect();
    rack.install_hot_set(&entries).expect("install");
    for &key in &keys {
        let mut value = key.to_le_bytes().to_vec();
        value.extend_from_slice(b"-written");
        client.put(key, &value).expect("put");
    }
    // Evict everywhere: each node's copy is dirty, only one replica per key
    // is the home — the others must ship their value over the WriteBack RPC.
    rack.evict_hot_set(&keys).expect("evict");
    for &key in &keys {
        let home = rack.server(0).node().home_node(key);
        let mut expected = key.to_le_bytes().to_vec();
        expected.extend_from_slice(b"-written");
        assert_eq!(
            rack.server(home).node().kvs_get(key),
            expected,
            "home shard of key {key} lost the write after eviction"
        );
        assert_eq!(client.get(key).expect("get"), expected);
    }

    // Re-install from the home shards at their stored versions (writes are
    // quiescent here): a fresh cached write must order after everything the
    // shards accepted, then survive another eviction round.
    let reinstall: Vec<(u64, Vec<u8>, consistency::lamport::Timestamp)> = keys
        .iter()
        .map(|&k| {
            let home = rack.server(0).node().home_node(k);
            let (value, ts) = rack.server(home).node().kvs_get_versioned(k);
            (k, value, ts)
        })
        .collect();
    cckvs_net::install_hot_set_versioned_via(&*rack.transport().build(), &addrs, &reinstall)
        .expect("reinstall");
    let key = keys[5];
    client.put(key, b"post-reinstall").expect("put");
    rack.evict_hot_set(&[key]).expect("evict again");
    assert_eq!(client.get(key).expect("get"), b"post-reinstall");
    rack.shutdown();
}

/// The home shard's hot-transition fence, observed at the wire level: while
/// a key is marked (`HotMark`), cold reads and writes bounce with
/// `MissRetry` — the freshest value may be in the caches or in a write-back
/// still in flight — and `HotUnmark` re-opens the cold path.
#[test]
fn hot_transition_fence_bounces_cold_ops_at_the_home_shard() {
    use cckvs_net::wire::{read_frame, write_frame, Frame};
    use std::io::{BufReader, BufWriter, Write};

    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 3)).expect("launch rack");
    let addrs = rack.client_addrs();
    let key = 4242u64;
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    client.put(key, b"cold-value").expect("put");

    // Send the home-shard frames bare on a client connection to the
    // key's home, as the supervisor's heal does — over whatever fabric
    // the rack runs on.
    let home = rack.server(0).node().home_node(key);
    let stream = rack
        .transport()
        .build()
        .dial(addrs[home], Duration::from_secs(5))
        .expect("connect home");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    // The hello gets no response of its own.
    write_frame(&mut writer, &Frame::ClientHello).expect("hello");
    writer.flush().expect("flush");
    let mut call = |frame: &Frame| -> Frame {
        write_frame(&mut writer, frame).expect("write");
        writer.flush().expect("flush");
        read_frame(&mut reader).expect("read").expect("open")
    };
    let marked = call(&Frame::HotMark { key });
    let Frame::HotMarkResp { value, ts } = marked else {
        panic!("expected HotMarkResp, got {marked:?}");
    };
    assert_eq!(value, b"cold-value");
    assert_ne!(ts.clock, 0, "cold write must have versioned the key");
    // While marked, cold reads and writes bounce.
    assert_eq!(call(&Frame::MissGet { key }), Frame::MissRetry);
    assert_eq!(
        call(&Frame::MissPut {
            key,
            tag: 1,
            writer: 9,
            value: b"racer".to_vec(),
        }),
        Frame::MissRetry
    );
    assert_eq!(call(&Frame::HotUnmark { key }), Frame::HotUnmarkResp);
    // Fence lifted: the cold path serves again, nothing was lost.
    assert_eq!(
        call(&Frame::MissGet { key }),
        Frame::MissGetResp {
            value: b"cold-value".to_vec()
        }
    );
    rack.shutdown();
}

/// A put racing the coordinator's install/evict rounds never hangs and
/// never loses its value: either it commits through the cache (and the
/// eviction writes it back), or the home shard's hot-transition fence
/// bounces it onto whichever side of the transition wins. The churn is
/// driven through the epoch coordinator — the only reconfiguration path
/// that fences the cold writes it races with.
#[test]
fn puts_racing_epoch_flips_neither_hang_nor_lose_writes() {
    let mut cfg = RackConfig::small_from_env(ConsistencyModel::Lin, 3);
    cfg.epochs = Some(EpochConfig {
        cache_entries: 4,
        counter_capacity: 64,
        // Sample everything, flip only when told to.
        sampling: 1,
        epoch_length: u64::MAX,
    });
    let rack = Rack::launch(cfg).expect("launch rack");
    let key = 7u64;

    let stop = Arc::new(AtomicU64::new(0));
    let writer_stop = Arc::clone(&stop);
    let writer_base = rack.client();
    let writer = std::thread::spawn(move || {
        let mut client = writer_base
            .policy(LoadBalancePolicy::RoundRobin)
            .connect()
            .expect("connect");
        let mut seq = 0u64;
        let deadline = Instant::now() + Duration::from_secs(5);
        while writer_stop.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            seq += 1;
            client.put(key, &seq.to_le_bytes()).expect("put");
        }
        seq
    });

    // Alternate the popularity between `key` and a fresh decoy set every
    // round, flipping the epoch each time: the key churns into and out of
    // the hot set while the writer hammers it.
    let mut heater = rack
        .client()
        .session(1)
        .policy(LoadBalancePolicy::Pinned(cckvs_net::COORDINATOR_NODE))
        .connect()
        .expect("connect");
    for round in 0u64..12 {
        if round % 2 == 0 {
            for _ in 0..3_000 {
                heater.get(key).expect("get");
            }
        } else {
            for _ in 0..1_500 {
                for decoy in 0..6u64 {
                    heater.get(1_000 + round * 8 + decoy).expect("get");
                }
            }
        }
        rack.flip_epoch().expect("flip under racing writer");
    }
    stop.store(1, Ordering::Relaxed);
    let last_seq = writer.join().expect("writer thread");
    assert!(last_seq > 0, "writer made no progress under churn");

    // The hot set did churn under the writer...
    let evictions: u64 = (0..rack.nodes())
        .map(|n| rack.server(n).metrics().snapshot().evictions)
        .sum();
    assert!(evictions > 0, "the alternating popularity never churned");
    // ...and the last acknowledged write survived it, wherever it landed.
    let mut client = rack
        .client()
        .session(2)
        .policy(LoadBalancePolicy::RoundRobin)
        .connect()
        .expect("connect");
    assert_eq!(
        client.get(key).expect("get"),
        last_seq.to_le_bytes(),
        "last acknowledged write lost in the eviction/install race"
    );
    rack.shutdown();
}
