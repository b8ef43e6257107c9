//! `cckvs-modelcheck` — bounded deterministic model checking of the rack
//! protocol over the simnet-backed fabric.
//!
//! ```text
//! cckvs-modelcheck --list
//! cckvs-modelcheck --scenario all --schedules 200 --depth 400 --seed 1
//! cckvs-modelcheck --replay crash-mid-commit:000000000000002a
//! ```
//!
//! Exit status is fail-closed for CI: non-zero when any positive scenario
//! finds a violation, when a negative scenario (`ack-then-die`, which
//! disables the crash-safety gates; `miss-rpc-no-reissue`, which skips the
//! in-doubt RPC reissue) finds **no** violation, or when the total
//! distinct-schedule count falls short of `--min-distinct`.

use std::process::ExitCode;
use std::str::FromStr;

use cckvs_modelcheck::explore::{explore, replay};
use cckvs_modelcheck::scenario::{all, by_name, ScenarioSpec};
use cckvs_modelcheck::sched::Seed;

struct Args {
    scenario: String,
    schedules: usize,
    depth: usize,
    seed: u64,
    replay: Option<Seed>,
    list: bool,
    min_distinct: usize,
    fail_seed_file: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            scenario: "all".to_string(),
            schedules: 200,
            depth: 400,
            seed: 1,
            replay: None,
            list: false,
            min_distinct: 0,
            fail_seed_file: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scenario" => args.scenario = value("--scenario")?,
                "--schedules" => {
                    args.schedules = value("--schedules")?
                        .parse()
                        .map_err(|e| format!("--schedules: {e}"))?;
                }
                "--depth" => {
                    args.depth = value("--depth")?
                        .parse()
                        .map_err(|e| format!("--depth: {e}"))?;
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--replay" => args.replay = Some(Seed::from_str(&value("--replay")?)?),
                "--list" => args.list = true,
                "--min-distinct" => {
                    args.min_distinct = value("--min-distinct")?
                        .parse()
                        .map_err(|e| format!("--min-distinct: {e}"))?;
                }
                "--fail-seed-file" => args.fail_seed_file = Some(value("--fail-seed-file")?),
                "--help" | "-h" => {
                    print_help();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        Ok(args)
    }
}

fn print_help() {
    println!(
        "cckvs-modelcheck: bounded deterministic model checking of the rack protocol

USAGE:
    cckvs-modelcheck [--scenario NAME|all] [--schedules N] [--depth N] [--seed N]
                     [--min-distinct N] [--fail-seed-file PATH]
    cckvs-modelcheck --replay scenario:hexseed [--depth N]
    cckvs-modelcheck --list

OPTIONS:
    --scenario NAME     scenario to explore, or 'all' (default: all)
    --schedules N       seeded walks per scenario (default: 200)
    --depth N           scheduler choices per walk before the drain (default: 400)
    --seed N            base seed; walk i uses seed N+i (default: 1)
    --min-distinct N    fail unless >= N distinct schedules explored in total
    --fail-seed-file P  write failing seeds (one per line) to P for CI artifacts
    --replay S          replay one seed (scenario:hex), print its event log
    --list              list scenarios and exit"
    );
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cckvs-modelcheck: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for spec in all() {
            println!(
                "{:<24} {} nodes, {:?}, {}{}",
                spec.name,
                spec.nodes,
                spec.model,
                spec.about,
                if spec.expect_violation {
                    " [negative: a violation is the pass condition]"
                } else {
                    ""
                }
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(seed) = args.replay {
        let Some(spec) = by_name(&seed.scenario) else {
            eprintln!("cckvs-modelcheck: unknown scenario {:?}", seed.scenario);
            return ExitCode::from(2);
        };
        println!("replaying {seed} (depth {})", args.depth);
        let outcome = replay(&spec, &seed, args.depth);
        for e in &outcome.events {
            println!("  {e}");
        }
        println!(
            "replay {seed}: {} events, fingerprint {:016x}, determinism verified (two identical runs)",
            outcome.events.len(),
            outcome.fingerprint
        );
        return match outcome.violation {
            Some(v) if spec.expect_violation => {
                println!("violation (expected for this scenario): {v}");
                ExitCode::SUCCESS
            }
            Some(v) => {
                eprintln!("VIOLATION: {v}");
                ExitCode::FAILURE
            }
            None => {
                println!("no violation");
                ExitCode::SUCCESS
            }
        };
    }

    let specs: Vec<ScenarioSpec> = if args.scenario == "all" {
        all()
    } else {
        match by_name(&args.scenario) {
            Some(s) => vec![s],
            None => {
                eprintln!(
                    "cckvs-modelcheck: unknown scenario {:?} (try --list)",
                    args.scenario
                );
                return ExitCode::from(2);
            }
        }
    };

    let mut total_distinct = 0usize;
    let mut failing_seeds: Vec<String> = Vec::new();
    let mut failed = false;
    for spec in &specs {
        let report = explore(spec, args.seed, args.schedules, args.depth);
        total_distinct += report.distinct;
        let verdict = if spec.expect_violation {
            if report.violations.is_empty() {
                failed = true;
                "FAIL (negative scenario found no violation — the checker is blind)"
            } else {
                "ok (checker caught the planted hole)"
            }
        } else if report.violations.is_empty() {
            "ok"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "{:<24} {:>5} runs, {:>5} distinct schedules, {:>3} violations  {}",
            report.scenario,
            report.runs,
            report.distinct,
            report.violations.len(),
            verdict
        );
        if !spec.expect_violation {
            for (seed, why) in &report.violations {
                println!("    failing seed {seed}: {why}");
                failing_seeds.push(seed.to_string());
            }
        }
    }
    println!("total: {total_distinct} distinct schedules explored");

    if args.min_distinct > 0 && total_distinct < args.min_distinct {
        eprintln!(
            "cckvs-modelcheck: only {total_distinct} distinct schedules (< --min-distinct {})",
            args.min_distinct
        );
        failed = true;
    }

    if let Some(path) = &args.fail_seed_file {
        if !failing_seeds.is_empty() {
            let body = failing_seeds.join("\n") + "\n";
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("cckvs-modelcheck: cannot write {path}: {e}");
            } else {
                println!("failing seeds written to {path}");
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
