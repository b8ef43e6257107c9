//! Shared helpers for the figure-regeneration harness.
//!
//! The `figures` binary (`figures <name>|all`) has one function per figure
//! of the paper's evaluation: it sweeps the relevant parameter, prints the
//! series the paper plots, and writes a machine-readable CSV to
//! `results/`. The experiment construction and reporting code lives here.

use cckvs::{run_experiment, ExperimentResult, PerfConfig, SystemConfig, SystemKind};
use consistency::messages::ConsistencyModel;
use std::fmt::Write as _;
use std::path::PathBuf;

/// All evaluated system variants in the order the paper lists them (§7.1).
pub fn all_systems() -> Vec<SystemKind> {
    vec![
        SystemKind::Uniform,
        SystemKind::BaseErew,
        SystemKind::Base,
        SystemKind::CcKvs(ConsistencyModel::Sc),
        SystemKind::CcKvs(ConsistencyModel::Lin),
    ]
}

/// The dataset / cache scale used by the harness.
///
/// The paper uses 250 M keys with a 250 K-entry cache (0.1 %); the harness
/// keeps the same cache *fraction* over a smaller dataset so that Zipfian
/// setup stays cheap while every reported trend (hit rate, load imbalance,
/// who wins and by how much) is preserved.
pub const DATASET_KEYS: u64 = 4_000_000;
/// Cache entries corresponding to 0.1 % of [`DATASET_KEYS`].
pub const CACHE_ENTRIES: usize = 4_000;

/// Builds the standard 9-node system configuration for a variant.
pub fn system(kind: SystemKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(kind);
    cfg.dataset_keys = DATASET_KEYS;
    cfg.cache_entries = CACHE_ENTRIES;
    cfg
}

/// Builds the standard experiment configuration for a variant.
///
/// `Base-EREW` uses a longer simulated window: its bottleneck is the single
/// core owning the hottest key, and the closed-loop client population takes
/// several hundred microseconds to pile up behind that core before the
/// steady-state (core-limited) throughput emerges.
pub fn experiment(kind: SystemKind) -> PerfConfig {
    let mut cfg = PerfConfig::paper_default(system(kind));
    if kind == SystemKind::BaseErew {
        cfg.horizon = 1_000 * simnet::MICROSECOND;
    }
    cfg
}

/// Runs an experiment and returns its result (thin wrapper re-exported for
/// the binaries).
pub fn run(cfg: &PerfConfig) -> ExperimentResult {
    run_experiment(cfg)
}

/// A simple fixed-width table printer for the figure series.
#[derive(Debug, Default)]
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with a title (e.g. `"Figure 8: ..."`).
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            ..Self::default()
        }
    }

    /// Sets the column header.
    pub fn header(&mut self, columns: &[&str]) -> &mut Self {
        self.header = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Appends a row of already-formatted cells.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the report as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Prints the table to stdout and writes the CSV next to the repository
    /// root under `results/<name>.csv`.
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = results_dir();
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(series written to {})\n", path.display());
            }
        }
    }
}

/// The directory where the harness drops its CSV series.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CCKVS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Formats a float with a fixed number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_serialises() {
        let mut r = Report::new("Figure X: demo");
        r.header(&["skew", "MRPS"]);
        r.row(&[fmt(0.99, 2), fmt(123.456, 1)]);
        r.row(&["1.01".to_string(), "130.0".to_string()]);
        let text = r.render();
        assert!(text.contains("Figure X"));
        assert!(text.contains("123.5"));
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("skew,MRPS"));
    }

    #[test]
    fn standard_configs_validate() {
        for kind in all_systems() {
            assert!(system(kind).validate().is_ok());
            let exp = experiment(kind);
            assert_eq!(exp.system.dataset_keys, DATASET_KEYS);
        }
        assert_eq!(all_systems().len(), 5);
    }
}
