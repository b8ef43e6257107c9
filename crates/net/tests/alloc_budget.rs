//! The allocation budget of the per-op path, as counts.
//!
//! What a rack op costs this repository is CPU, and a good share of that
//! CPU used to be `malloc`: ten allocations on the shard thread for one
//! cached GET. The budget now is one — the value handed out — and this
//! suite holds it there by counting, with no clock involved: a counting
//! `#[global_allocator]` over `System`, a thread-local switch and count
//! for the calling thread (the codec rows), and a count over every
//! `cckvs-shard` thread of an in-process rack (the per-op rows).
//!
//! Each count is printed as `alloc_budget <name> <value>` before anything
//! is asserted, so a run against another commit reports its numbers too.

use cckvs_net::wire::{encode_frame_into, read_frame, write_frame, Frame};
use cckvs_net::{Rack, RackConfig};
use consistency::messages::ConsistencyModel;
use kvstore::Partition;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

mod common;

struct Counting;

/// Whether allocations on `cckvs-shard` threads are being counted.
static SHARDS_ON: AtomicBool = AtomicBool::new(false);
static SHARD_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Held by a test while its rack runs: the shard count is process-wide.
static ONE_RACK: Mutex<()> = Mutex::new(());

thread_local! {
    /// This thread's own switch and count: `Some(n)` while counting.
    static LOCAL: Cell<Option<u64>> = const { Cell::new(None) };
    /// 0: not looked at yet; 1: a `cckvs-shard` thread; 2: any other.
    static CLASS: Cell<u8> = const { Cell::new(0) };
}

fn on_shard_thread() -> bool {
    CLASS
        .try_with(|class| {
            if class.get() == 0 {
                // Whatever the lookup allocates is not a shard's.
                class.set(2);
                let shard = std::thread::current()
                    .name()
                    .is_some_and(|name| name.starts_with("cckvs-shard"));
                class.set(if shard { 1 } else { 2 });
            }
            class.get() == 1
        })
        .unwrap_or(false)
}

fn count_one() {
    let _ = LOCAL.try_with(|local| local.set(local.get().map(|n| n + 1)));
    if SHARDS_ON.load(Ordering::Relaxed) && on_shard_thread() {
        SHARD_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only atomics and destructor-less thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations the calling thread makes while `work` runs.
fn allocations_of<R>(work: impl FnOnce() -> R) -> (u64, R) {
    LOCAL.with(|local| local.set(Some(0)));
    let result = work();
    let count = LOCAL
        .with(|local| local.replace(None))
        .expect("switched on above");
    (count, result)
}

/// Allocations every shard thread of the process makes while `work` runs.
fn shard_allocations_of(work: impl FnOnce()) -> u64 {
    SHARD_ALLOCS.store(0, Ordering::Relaxed);
    SHARDS_ON.store(true, Ordering::SeqCst);
    work();
    SHARDS_ON.store(false, Ordering::SeqCst);
    SHARD_ALLOCS.load(Ordering::Relaxed)
}

fn report(name: &str, value: f64) {
    println!("alloc_budget {name} {value:.3}");
}

fn batch_of_gets(key: u64, ops: usize) -> Frame {
    Frame::Batch {
        frames: vec![Frame::Get { key }; ops],
    }
}

#[test]
fn the_codec_appends_and_borrows() {
    let mut buf = Vec::new();
    let mut worst = 0;
    for frame in common::all_frames() {
        // Once to size the buffer, once counted.
        encode_frame_into(&mut buf, &frame);
        buf.clear();
        let (allocs, ()) = allocations_of(|| encode_frame_into(&mut buf, &frame));
        buf.clear();
        worst = worst.max(allocs);
    }
    report("encode_warm_buffer_worst_frame", worst as f64);

    let encoded = batch_of_gets(7, 32).encode();
    let (decode, frame) = allocations_of(|| Frame::decode(&encoded));
    assert_eq!(frame, Ok(batch_of_gets(7, 32)));
    report("decode_batch32", decode as f64);

    assert_eq!(worst, 0, "encoding into a warmed buffer allocates nothing");
    assert_eq!(
        decode, 1,
        "a batch of 32 GETs decodes into its `frames` and nothing else"
    );
}

/// A blocking request-response client of node 0.
fn client_of(rack: &Rack) -> impl FnMut(&Frame) -> Frame {
    let stream = rack
        .transport()
        .build()
        .dial(rack.client_addrs()[0], Duration::from_secs(5))
        .expect("dial node 0");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // The hello gets no response of its own.
    write_frame(&mut writer, &Frame::ClientHello).expect("hello");
    move |frame: &Frame| -> Frame {
        write_frame(&mut writer, frame).expect("write");
        writer.flush().expect("flush");
        read_frame(&mut reader).expect("read").expect("open")
    }
}

#[test]
fn a_partition_is_built_in_a_few_allocations() {
    let (allocs, partition) = allocations_of(|| Partition::new(100_000, 64));
    assert_eq!(partition.capacity(), 100_000);
    report("partition_new_allocs", allocs as f64);
    assert!(
        allocs <= 4,
        "the slab and the index, in one allocation each"
    );
}

/// A cached PUT on a 3-node rack, under each model: the shard threads of
/// all three nodes are counted, since a Lin PUT is a round across them.
/// An SC PUT answers before its updates land, so peers' queues and
/// batches vary from run to run: its budget carries most of an allocation
/// per op of slack, the Lin round's a tenth.
#[test]
fn what_a_cached_put_costs_the_shard_threads() {
    const OPS: usize = 1_000;
    let _one_rack = ONE_RACK.lock().unwrap_or_else(|poison| poison.into_inner());
    for (model, name, budget) in [
        (ConsistencyModel::Lin, "lin_put_shard_allocs_per_op", 22.1),
        (ConsistencyModel::Sc, "sc_put_shard_allocs_per_op", 8.0),
    ] {
        let mut cfg = RackConfig::small(model, 3);
        cfg.metrics = false;
        let rack = Rack::launch(cfg).expect("launch rack");
        let hot = 1u64;
        rack.install_hot_set(&[(hot, vec![7; 40])])
            .expect("install");
        let mut call = client_of(&rack);
        let put = Frame::Put {
            key: hot,
            value: vec![8; 40],
        };
        let mut cached_put = || assert!(matches!(call(&put), Frame::PutResp { cached: true, .. }));
        for _ in 0..200 {
            cached_put();
        }
        let allocs = shard_allocations_of(|| (0..OPS).for_each(|_| cached_put()));
        rack.shutdown();
        let per_op = allocs as f64 / OPS as f64;
        report(name, per_op);
        assert!(per_op <= budget, "{name}: {per_op} allocations per op");
    }
}

#[test]
fn what_one_op_costs_a_shard_thread() {
    const OPS: usize = 1_000;
    const BATCH: usize = 32;
    let _one_rack = ONE_RACK.lock().unwrap_or_else(|poison| poison.into_inner());
    let mut cfg = RackConfig::small(ConsistencyModel::Lin, 3);
    cfg.metrics = false;
    let rack = Rack::launch(cfg).expect("launch rack");
    let node = rack.server(0).node();
    let hot = 1u64;
    let cold = (2u64..)
        .find(|key| node.home_node(*key) == 0)
        .expect("node 0 homes keys");
    rack.install_hot_set(&[(hot, vec![7; 40])])
        .expect("install");

    let mut call = client_of(&rack);
    let put = Frame::Put {
        key: cold,
        value: vec![9; 40],
    };
    assert!(matches!(call(&put), Frame::PutResp { cached: false, .. }));

    let get_hot = Frame::Get { key: hot };
    let get_cold = Frame::Get { key: cold };
    let batch = batch_of_gets(hot, BATCH);
    let cached = |frame: &Frame| matches!(frame, Frame::GetResp { cached: true, value, .. } if value == &[7; 40]);
    // Warm the connection: its buffers, queues and request slot reach the
    // size these requests need.
    for _ in 0..200 {
        assert!(cached(&call(&get_hot)));
        assert!(matches!(
            call(&get_cold),
            Frame::GetResp { cached: false, .. }
        ));
        call(&batch);
    }

    let per_op = |allocs: u64, ops: usize| allocs as f64 / ops as f64;
    let hit = shard_allocations_of(|| {
        for _ in 0..OPS {
            assert!(cached(&call(&get_hot)));
        }
    });
    report("cached_get_shard_allocs_per_op", per_op(hit, OPS));
    let batched = shard_allocations_of(|| {
        for _ in 0..OPS / BATCH {
            let Frame::Batch { frames } = call(&batch) else {
                panic!("a batch answers a batch");
            };
            assert!(frames.len() == BATCH && frames.iter().all(cached));
        }
    });
    report(
        "batch32_cached_get_shard_allocs_per_batch",
        per_op(batched, OPS / BATCH),
    );
    let cold_get = shard_allocations_of(|| {
        for _ in 0..OPS {
            let response = call(&get_cold);
            assert!(
                matches!(response, Frame::GetResp { cached: false, value, .. } if value == [9; 40])
            );
        }
    });
    report("local_cold_get_shard_allocs_per_op", per_op(cold_get, OPS));
    rack.shutdown();

    // The budgets, with a hundredth of an allocation per op of slack for
    // what a timer tick on an idle shard may do inside the window.
    assert!(
        per_op(hit, OPS) <= 1.01,
        "a cached GET allocates its value and nothing else"
    );
    assert!(per_op(batched, OPS / BATCH) <= (BATCH + 4) as f64 + 0.01);
    assert!(per_op(cold_get, OPS) <= 2.01);
}
