//! Keeps `docs/METRICS.md` honest: the families and kinds its table names
//! must be exactly the rows of `Metrics::families()`, and a live node's
//! `/metrics` must serve exactly those rows, each under its `# HELP` and
//! `# TYPE`. Adding, renaming, dropping or re-typing a family without
//! updating the doc fails here.

use cckvs_net::metrics::Metrics;
use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;

/// `(family, kind)` pairs.
type Families = BTreeSet<(String, String)>;

fn table() -> Families {
    Metrics::families()
        .iter()
        .map(|family| (family.name.to_string(), family.kind.to_string()))
        .collect()
}

/// Every `cckvs_…` name in `text` (a label set or a backtick ends the name).
fn names(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices("cckvs_").map(move |(at, _)| {
        text[at..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
            .collect()
    })
}

#[test]
fn metrics_doc_table_matches_the_family_table() {
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/METRICS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));
    // Rows of the form `| families | kind | meaning |`.
    let documented: Families = doc
        .lines()
        .filter(|line| line.starts_with("| `cckvs_"))
        .flat_map(|line| {
            let mut cells = line.split(" | ");
            let metrics = cells.next().expect("metric cell");
            let kind = cells.next().expect("kind cell").to_string();
            names(metrics).map(move |name| (name, kind.clone()))
        })
        .collect();
    let table = table();
    let undocumented: Vec<_> = table.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "in Metrics::families() but not (or under another kind) in docs/METRICS.md: {undocumented:?}"
    );
    let vanished: Vec<_> = documented.difference(&table).collect();
    assert!(
        vanished.is_empty(),
        "in docs/METRICS.md but not (or under another kind) in Metrics::families(): {vanished:?}"
    );
}

#[test]
fn metrics_doc_table_matches_a_live_scrape() {
    let rack =
        Rack::launch(RackConfig::small_from_env(ConsistencyModel::Lin, 2)).expect("launch rack");
    rack.install_hot_set(&[(1, b"x".to_vec())])
        .expect("install");
    let mut client = rack
        .client()
        .policy(LoadBalancePolicy::Pinned(0))
        .connect()
        .expect("connect");
    client.get(1).expect("get");
    let metrics_addr = rack.metrics_addrs()[0].expect("metrics enabled");
    let mut stream = std::net::TcpStream::connect(metrics_addr).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut scrape = String::new();
    stream.read_to_string(&mut scrape).expect("response");
    rack.shutdown();

    // The endpoint serves the table: every family typed once, under the
    // table's kind and help, and no sample outside a family.
    let served: Families = scrape
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|typed| typed.split_once(' '))
        .map(|(name, kind)| (name.to_string(), kind.to_string()))
        .collect();
    assert_eq!(served, table(), "/metrics and Metrics::families() disagree");
    for family in Metrics::families() {
        let head = format!("# HELP {} {}\n# TYPE {0} ", family.name, family.help);
        assert!(scrape.contains(&head), "{head:?} is not on the scrape");
    }
    let samples = scrape.lines().filter(|line| line.starts_with("cckvs_"));
    assert!(
        samples.clone().count() > 40,
        "implausibly small scrape — did the exposition format change?\n{scrape}"
    );
    for sample in samples {
        let name = names(sample).next().expect("starts with a name");
        assert!(
            Metrics::families()
                .iter()
                .any(|family| name.starts_with(family.name)),
            "{sample:?} belongs to no family of the table"
        );
    }
}
