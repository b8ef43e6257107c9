//! Consistency models in action: per-key SC vs per-key linearizability.
//!
//! Demonstrates the semantic difference the paper's §5.1 illustrates with
//! Figures 5 and 6: exercises the verified protocol state machines through
//! the explicit-state model checker, and shows a loopback rack enforcing
//! each model under concurrent writers.
//!
//! Run with `cargo run --release --example consistency_models`.

use scale_out_ccnuma::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Model-check both protocols on a bounded configuration (the paper
    //    verifies the Lin protocol in Murphi with 3 processors).
    for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
        match check(&CheckerConfig::paper_default(model)) {
            CheckOutcome::Verified(stats) => println!(
                "{:?}: verified over {} reachable states ({} terminal)",
                model, stats.states, stats.terminal_states
            ),
            CheckOutcome::Violation { description, .. } => {
                panic!("{model:?} failed verification: {description}")
            }
        }
    }

    // 2. Concurrent writers on a live loopback rack: both models serialise
    //    writes, and Lin additionally guarantees that a completed write is
    //    visible to every subsequent read, anywhere.
    for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
        let rack = Rack::launch(RackConfig::small(model, 3)).expect("launch rack");
        rack.install_hot_set(&[(7, b"seed\0\0\0\0".to_vec())])
            .expect("install hot set");
        let history = Arc::new(SharedHistory::new());
        let writers: Vec<_> = (0..3u32)
            .map(|session| {
                let mut client = rack
                    .client()
                    .session(session)
                    .policy(LoadBalancePolicy::Pinned(session as usize % rack.nodes()))
                    .history(Arc::clone(&history))
                    .connect()
                    .expect("connect");
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let mut value = [0u8; 16];
                        value[..8].copy_from_slice(&(u64::from(session) << 32 | i).to_le_bytes());
                        client.put(7, &value).expect("put");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let history = history.snapshot();
        history.check_per_key_sc().expect("per-key SC holds");
        if model == ConsistencyModel::Lin {
            history
                .check_per_key_lin()
                .expect("per-key linearizability holds");
        }
        println!(
            "{:?}: {} concurrent operations recorded, consistency checks passed",
            model,
            history.len()
        );
        rack.shutdown();
    }
}
