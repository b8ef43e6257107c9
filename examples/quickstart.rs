//! Quickstart: boot a ccKVS rack on loopback, install hot keys, read and
//! write them from several client sessions with strong consistency.
//!
//! Run with `cargo run --release --example quickstart`.

use scale_out_ccnuma::prelude::*;
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    // A 3-node deployment whose symmetric caches are kept per-key
    // linearizable by the fully distributed Lin protocol.
    let rack = Rack::launch(RackConfig::small(ConsistencyModel::Lin, 3))?;

    // The cache coordinator has decided keys 0..16 are hot: install them in
    // every node's symmetric cache (and seed the backing shards).
    let hot: Vec<(u64, Vec<u8>)> = (0..16u64)
        .map(|key| (key, format!("value-{key}").into_bytes()))
        .collect();
    rack.install_hot_set(&hot)?;

    // Clients load-balance requests over the nodes; any node can serve any
    // key thanks to the symmetric cache + NUMA abstraction. Every session
    // records what it saw on cached keys into one shared history.
    let history = Arc::new(SharedHistory::new());
    let session = |id, policy| {
        rack.client()
            .session(id)
            .policy(policy)
            .history(Arc::clone(&history))
            .connect()
    };
    let mut via_node2 = session(0, LoadBalancePolicy::Pinned(2))?;
    let mut via_node0 = session(1, LoadBalancePolicy::Pinned(0))?;
    let mut spread = session(2, LoadBalancePolicy::RoundRobin)?;

    // Cold keys live only in their home shard.
    via_node2.put(10_000, b"cold value")?;

    println!(
        "initial read of key 3 via node 2: {:?}",
        text(via_node2.get(3)?)
    );

    // A linearizable write: once put() returns, every subsequent read on any
    // node observes the new value.
    via_node0.put(3, b"updated-by-session-1")?;
    for _ in 0..rack.nodes() {
        println!("read key 3 via the next node: {:?}", text(spread.get(3)?));
    }

    // Cache misses transparently fall through to the key's home shard.
    println!("cold key via node 0: {:?}", text(via_node0.get(10_000)?));

    // The recorded history of operations on cached keys satisfies per-key
    // linearizability (checked mechanically).
    let history = history.snapshot();
    history
        .check_per_key_lin()
        .expect("history is linearizable");
    println!(
        "recorded {} operations; per-key linearizability holds",
        history.len()
    );
    rack.shutdown();
    Ok(())
}

fn text(value: Vec<u8>) -> String {
    String::from_utf8_lossy(&value).into_owned()
}
