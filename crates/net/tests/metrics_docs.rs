//! Keeps `docs/METRICS.md` honest: every `cckvs_*` metric family a live
//! node serves on `/metrics` must appear in the document's table, and
//! every family the table names must be on the scrape. Adding, renaming
//! or dropping a family without updating the doc fails here.

use cckvs_net::rack::{Rack, RackConfig};
use cckvs_net::LoadBalancePolicy;
use consistency::messages::ConsistencyModel;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;

/// Every `cckvs_…` name on `lines` (a label set or a value ends the name).
fn families<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
    lines
        .flat_map(|line| line.match_indices("cckvs_").map(move |(at, _)| &line[at..]))
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect()
        })
        .collect()
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

    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/METRICS.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));

    let served = families(scrape.lines().filter(|line| line.starts_with("cckvs_")));
    let documented = families(doc.lines().filter(|line| line.starts_with('|')));
    assert!(
        served.len() > 40,
        "implausibly small scrape — did the exposition format change?\n{scrape}"
    );
    let undocumented: Vec<_> = served.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "on /metrics but not in docs/METRICS.md: {undocumented:?}"
    );
    let vanished: Vec<_> = documented.difference(&served).collect();
    assert!(
        vanished.is_empty(),
        "in docs/METRICS.md but not on /metrics: {vanished:?}"
    );
}
