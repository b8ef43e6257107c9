//! `rackbench` — the repository's benchmark.
//!
//! ```text
//! rackbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! rackbench --all [--seed <u64>] [--seconds <n>]
//! rackbench --noise <runs> [--seconds <n>]
//! rackbench --layers
//! ```
//!
//! The first form is one run of one workload in this process: it prints
//! each metric as `metric <name> <value> <unit>`, a run record, and as
//! the last line the result object the acceptance driver reads. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones. The other forms
//! start one fresh process per workload run and wait for each.

mod drive;
mod host;
mod layers;
mod spec;
mod stats;
mod traced;

use drive::Samples;
use spec::Workload;
use stats::{median, quartiles};
use std::io;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Timed window when `--seconds` is absent: `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 24;
/// The workload runs for this long before anything is measured.
const WARMUP_SECONDS: u64 = 2;
/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let option = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |name: &str, default: u64| match option(name) {
        None => Ok(default),
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| format!("{name} takes a whole number, got {text:?}")),
    };
    let outcome = (|| -> Result<bool, String> {
        let seed = number("--seed", 1)?;
        let seconds = number("--seconds", RUN_SECONDS)?;
        if !(1..=3_600).contains(&seconds) {
            return Err("--seconds must be between 1 and 3600".to_string());
        }
        if let Some(name) = option("--workload") {
            let w = spec::workload(name).ok_or_else(|| {
                let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; one of {names:?}")
            })?;
            let traced = number("--trace", 0)? != 0;
            run_one(w, seed, seconds, traced).map_err(|e| format!("{}: {e}", w.name))
        } else if args.iter().any(|a| a == "--all") {
            run_all(seed, seconds)
        } else if option("--noise").is_some() {
            noise(number("--noise", 0)?, seconds)
        } else if args.iter().any(|a| a == "--layers") {
            pin();
            print_metrics(&layers::metrics());
            Ok(true)
        } else {
            Err(
                "usage: rackbench --workload <name> --seed <u64> --seconds <n> --trace <0|1> \
                 | --all | --noise <runs> | --layers"
                    .to_string(),
            )
        }
    })();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("rackbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Pins this thread, and so every thread started after it, to one CPU.
/// A host that refuses is measured unpinned: noisier, still correct.
/// Returns the CPU as a JSON value for the run record.
fn pin() -> String {
    match host::pin_to_one_cpu() {
        Ok(cpu) => cpu.to_string(),
        Err(e) => {
            eprintln!("rackbench: not pinned to one CPU: {e}");
            "null".to_string()
        }
    }
}

/// The unit [`spec`] gives `name`.
fn unit(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(&spec::LAYER_LOOPS)
        .chain(&spec::TRACED)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("{name} is not a metric spec.rs names"))
}

fn print_metrics(values: &[(&str, f64)]) {
    for (name, value) in values {
        println!("metric {name} {value} {}", unit(name));
    }
}

/// One run of one workload in this process. `Ok(false)` when an output
/// was wrong or an op failed.
fn run_one(w: &Workload, seed: u64, seconds: u64, traced: bool) -> io::Result<bool> {
    // Before pinning, so that `nproc` is the host's.
    let host = host::fingerprint_json();
    let pinned_cpu = pin();
    let data = drive::Data::new();
    // Seconds one complete set-up took, as measured and scaled by the
    // reference loop run right after it.
    let timed_set_up = || -> io::Result<_> {
        let began = Instant::now();
        let (rack, mut sessions) = drive::set_up(w, &data, seed, traced)?;
        let secs = began.elapsed().as_secs_f64();
        let slowdown = drive::NOMINAL_ECHO.round_trips_s / drive::echo_rate(&mut sessions);
        Ok((rack, sessions, [secs, secs / slowdown]))
    };
    let (rack, mut sessions, first_setup) = timed_set_up()?;
    let mut setups = vec![first_setup];

    let (history_samples, verdict) = drive::history_pass(&rack, w, &data, seed)?;
    if let Err(violation) = &verdict {
        eprintln!("rackbench: {} consistency violated: {violation}", w.name);
    }
    let warmup = drive::window(&mut sessions, w, &data, WARMUP_SECONDS, false, || ());

    let before = traced::snapshots(&rack);
    let samples = drive::window(&mut sessions, w, &data, seconds, traced, || {
        // Nothing else empties the per-shard trace rings when the metrics
        // endpoint is off, and a full ring drops events.
        if traced {
            for node in 0..rack.nodes() {
                rack.server(node).trace_sink().drain();
            }
        }
    });
    let after = traced::snapshots(&rack);
    let dumps = if traced {
        cckvs_net::collect_traces_via(&*rack.transport().build(), &rack.client_addrs())?
    } else {
        Vec::new()
    };
    // One rack and its load: the set-ups repeated below would add what
    // the allocator keeps of each earlier rack.
    let peak_rss_mb = host::peak_rss_mb();
    drop(sessions);
    rack.shutdown();

    let all_samples = || history_samples.iter().chain(&warmup).chain(&samples);
    let attempted: u64 = all_samples().map(|s| s.attempted).sum();
    let failed: u64 = all_samples().map(|s| s.failed).sum::<u64>() + u64::from(verdict.is_err());
    let correct = failed == 0;
    let (values, counts) = if traced {
        let mut values = layers::metrics();
        values.extend(traced::metrics(&samples, seconds, &before, &after, &dumps));
        (values, String::new())
    } else {
        while setups.len() < SETUPS {
            let (rack, sessions, setup) = timed_set_up()?;
            setups.push(setup);
            drop(sessions);
            rack.shutdown();
        }
        let scaled: Vec<f64> = setups.iter().map(|[_, scaled]| *scaled).collect();
        end_to_end(&samples, seconds, peak_rss_mb, median(&scaled))
    };

    print_metrics(&values);
    println!(
        "record {{{host},\"pinned_cpu\":{pinned_cpu},\"workload\":\"{}\",\"seed\":{seed},\
         \"traced\":{traced},\"window_s\":{seconds},\"slice_s\":{},\"warmup_s\":{WARMUP_SECONDS},\
         \"sessions\":{},\"setups_measured_and_scaled_s\":{setups:?}{counts}}}",
        w.name,
        drive::SLICE.as_secs(),
        drive::SESSIONS,
    );
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                unit(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(correct)
}

/// The end-to-end metrics, in the order of [`spec::END_TO_END`], and what
/// is behind them — sample counts, per-slice series and the unscaled
/// medians — as run-record members.
///
/// Each slice's rate, median and p99 are scaled by the same statistic of
/// the reference loop in that slice's second half, to a host on which the
/// reference reads [`drive::NOMINAL_ECHO`]; each metric is the median
/// over the slices.
fn end_to_end(
    samples: &[Samples],
    seconds: u64,
    peak_rss_mb: f64,
    setup_s: f64,
) -> (Vec<(&'static str, f64)>, String) {
    let series = drive::series(samples, seconds);
    let [ops, rate, get_p50, op_p99, _, echo_rate, echo_p50, echo_p99] = &series;
    // Median over slices of `value` × nominal reference ÷ measured reference.
    let scaled = |values: &[f64], nominal: f64, reference: &[f64]| -> f64 {
        let scaled: Vec<f64> = values
            .iter()
            .zip(reference)
            .map(|(value, reference)| value * nominal / reference.max(1.0))
            .collect();
        median(&scaled)
    };
    let nominal = drive::NOMINAL_ECHO;
    let values = vec![
        (
            "throughput_ops_s",
            scaled(rate, nominal.round_trips_s, echo_rate),
        ),
        (
            "get_p50_us",
            scaled(get_p50, nominal.p50_ns, echo_p50) / 1_000.0,
        ),
        (
            "op_p99_us",
            scaled(op_p99, nominal.p99_ns, echo_p99) / 1_000.0,
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", setup_s),
    ];
    let mut counts = format!(",\"ops\":{}", ops.iter().sum::<f64>());
    counts += ",\"unscaled_medians\":{";
    let medians: Vec<String> = drive::SERIES
        .iter()
        .zip(&series)
        .skip(1)
        .map(|(name, column)| format!("\"{name}\":{}", median(column)))
        .collect();
    counts += &medians.join(",");
    counts += "},\"slices\":{";
    let columns: Vec<String> = drive::SERIES
        .iter()
        .zip(&series)
        .map(|(name, column)| format!("\"{name}\":{column:?}"))
        .collect();
    counts += &columns.join(",");
    counts += "}";
    (values, counts)
}

/// Runs `rackbench --workload …` in a fresh process and returns its
/// standard output once it has ended.
fn child(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    Ok((output.status.success(), stdout))
}

/// Every workload, untraced then traced: every metric of the benchmark.
fn run_all(seed: u64, seconds: u64) -> Result<bool, String> {
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        for traced in [false, true] {
            println!(
                "== {} {} ==",
                w.name,
                if traced { "traced" } else { "untraced" }
            );
            let (ok, stdout) = child(w, seed, seconds, traced)?;
            print!("{stdout}");
            all_correct &= ok;
        }
    }
    Ok(all_correct)
}

/// Runs the untraced suite `runs` times on this binary, each time with
/// another seed, and prints the spread of every end-to-end metric as a
/// Markdown table (`benchmark/NOISE.md` is this output).
fn noise(runs: u64, seconds: u64) -> Result<bool, String> {
    if runs < 2 {
        return Err("--noise needs at least 2 runs".to_string());
    }
    println!("# Same-binary spread of the end-to-end metrics\n");
    println!(
        "`rackbench --noise {runs} --seconds {seconds}`: {runs} runs per workload, seeds 1..={runs}.\n\n\
         `range` is (max − min) ÷ median; `iqr` is the distance between the first and third \
         quartile (`statistics.quantiles(values, n=4)`) ÷ median.\n"
    );
    println!("host: `{{{}}}`\n", host::fingerprint_json());
    println!("| workload | metric | unit | median | min | max | range | iqr |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_correct = true;
    for w in &spec::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for seed in 1..=runs {
            let (ok, stdout) = child(w, seed, seconds, false)?;
            all_correct &= ok;
            for line in stdout.lines() {
                let mut words = line.split_whitespace();
                if words.next() != Some("metric") {
                    continue;
                }
                let (Some(name), Some(value)) = (words.next(), words.next()) else {
                    continue;
                };
                if let Some(i) = spec::END_TO_END.iter().position(|(n, _)| *n == name) {
                    values[i].extend(value.parse::<f64>().ok());
                }
            }
        }
        for ((name, unit), values) in spec::END_TO_END.iter().zip(&values) {
            if values.len() != runs as usize {
                return Err(format!(
                    "{}: {name} printed {} times in {runs} runs",
                    w.name,
                    values.len()
                ));
            }
            let mid = median(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (q1, q3) = quartiles(values);
            println!(
                "| {} | {name} | {unit} | {mid:.4} | {min:.4} | {max:.4} | {:.2}% | {:.2}% |",
                w.name,
                (max - min) / mid * 100.0,
                (q3 - q1) / mid * 100.0,
            );
        }
    }
    println!(
        "\nfailed ops in any run: {}",
        if all_correct { "none" } else { "SOME" }
    );
    Ok(all_correct)
}
