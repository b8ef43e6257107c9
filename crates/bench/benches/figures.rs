//! Criterion wrappers around the figure experiments.
//!
//! One benchmark per evaluation figure family, each measuring the simulated
//! experiment that regenerates it (with a shortened horizon so Criterion's
//! repeated sampling stays fast). The full series are produced by the
//! `figures` binary (`src/bin/figures.rs`).

use cckvs::{PerfConfig, SystemKind};
use cckvs_bench::system;
use consistency::messages::ConsistencyModel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::MICROSECOND;

fn quick(kind: SystemKind) -> PerfConfig {
    PerfConfig {
        horizon: 30 * MICROSECOND,
        inflight_per_node: 1024,
        ..PerfConfig::paper_default(system(kind))
    }
}

fn fig8_read_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig08_read_only_throughput");
    group.sample_size(10);
    for kind in [
        SystemKind::Uniform,
        SystemKind::BaseErew,
        SystemKind::Base,
        SystemKind::CcKvs(ConsistencyModel::Sc),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| b.iter(|| cckvs::run_experiment(&quick(kind))),
        );
    }
    group.finish();
}

fn fig10_write_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_write_sensitivity");
    group.sample_size(10);
    for write_pct in [1u32, 5] {
        for model in [ConsistencyModel::Sc, ConsistencyModel::Lin] {
            let mut cfg = quick(SystemKind::CcKvs(model));
            cfg.system.write_ratio = f64::from(write_pct) / 100.0;
            group.bench_with_input(
                BenchmarkId::new(model.label(), format!("{write_pct}pct")),
                &cfg,
                |b, cfg| b.iter(|| cckvs::run_experiment(cfg)),
            );
        }
    }
    group.finish();
}

fn fig13_coalescing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_coalescing");
    group.sample_size(10);
    for (label, coalesce) in [("off", None), ("x8", Some(8u32))] {
        let mut cfg = quick(SystemKind::CcKvs(ConsistencyModel::Sc));
        cfg.coalesce = coalesce;
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| cckvs::run_experiment(cfg))
        });
    }
    group.finish();
}

fn fig14_scalability_model(c: &mut Criterion) {
    c.bench_function("fig14_analytical_model_sweep", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for servers in 5..=40 {
                let p = analytical::ModelParams::paper_small_objects(servers, 0.01);
                total += analytical::throughput_sc_mrps(&p)
                    + analytical::throughput_lin_mrps(&p)
                    + analytical::throughput_uniform_mrps(&p);
            }
            total
        })
    });
}

criterion_group!(
    figures,
    fig8_read_only,
    fig10_write_ratio,
    fig13_coalescing,
    fig14_scalability_model
);
criterion_main!(figures);
