//! Keeps `docs/WIRE.md` honest: the opcode table in the document must
//! match `wire::opcode_table()` exactly — same names, same values, no
//! frame missing from either side, and for every frame `wire.rs` writes
//! from its table the same `name: type` fields in the same (wire) order.
//! Renumbering, adding, or removing an opcode, or reordering a frame's
//! fields, without updating the doc fails here. Likewise the "UDP datagram
//! envelope" table against the tag and header-size constants of
//! `transport.rs` (handshake) and `envelope.rs` (the rest),
//! the credit-return policy's two constants and the redial backoff's.

use cckvs_net::envelope::{DG_ACK, DG_CTRL_LEN, DG_DATA, DG_DATA_HDR, DG_FIN, UDP_ACK_EVERY};
use cckvs_net::link::CREDIT_RETURN_DIVISOR;
use cckvs_net::server::{CREDIT_RETURN_TICK, REDIAL_BACKOFF_MAX, REDIAL_BACKOFF_START};
use cckvs_net::transport::{DG_SYN, DG_SYNACK};
use cckvs_net::wire::opcode_table;
use std::path::Path;

/// Parses rows of the form `| \`0xNN\` | \`Name\` | ... |` out of the
/// document's opcode table.
fn doc_opcodes(markdown: &str) -> Vec<(String, u8)> {
    let mut out = Vec::new();
    for line in markdown.lines() {
        let Some(rest) = line.strip_prefix("| `0x") else {
            continue;
        };
        let Some((hex, rest)) = rest.split_once('`') else {
            continue;
        };
        let Ok(op) = u8::from_str_radix(hex.trim(), 16) else {
            panic!("opcode row with unparseable hex: {line:?}");
        };
        let name = rest
            .split('`')
            .nth(1)
            .unwrap_or_else(|| panic!("opcode row without a frame name: {line:?}"));
        out.push((name.to_string(), op));
    }
    out
}

fn wire_doc() -> String {
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/WIRE.md");
    std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()))
}

#[test]
fn wire_doc_opcode_table_matches_the_code() {
    let markdown = wire_doc();
    let documented = doc_opcodes(&markdown);
    let actual: Vec<(String, u8)> = opcode_table()
        .into_iter()
        .map(|(name, op, _)| (name.to_string(), op))
        .collect();

    assert!(
        !documented.is_empty(),
        "docs/WIRE.md contains no parseable opcode rows — was the table reformatted?"
    );

    for (name, op) in &actual {
        assert!(
            documented.iter().any(|(n, o)| n == name && o == op),
            "opcode {name} = {op:#04x} exists in wire.rs but docs/WIRE.md \
             does not document it (or documents a different value)"
        );
    }
    for (name, op) in &documented {
        assert!(
            actual.iter().any(|(n, o)| n == name && o == op),
            "docs/WIRE.md documents {name} = {op:#04x} but wire.rs has no \
             such opcode — stale documentation"
        );
    }
    assert_eq!(
        documented.len(),
        actual.len(),
        "docs/WIRE.md documents a different number of opcodes than wire.rs exports"
    );

    // The doc table is sorted by opcode, like `opcode_table()` — keeps the
    // reference scannable.
    let mut sorted = documented.clone();
    sorted.sort_by_key(|&(_, op)| op);
    assert_eq!(
        documented, sorted,
        "docs/WIRE.md opcode rows are not in ascending opcode order"
    );
}

/// The leading `` `name: type` `` items of an opcode row's Payload column
/// (whatever prose follows them is the document's own).
fn doc_payload_fields(row: &str) -> Vec<(String, String)> {
    let payload = row.split(" | ").nth(3).expect("four columns");
    let mut fields = Vec::new();
    let mut rest = payload;
    while let Some((item, after)) = rest.strip_prefix('`').and_then(|open| open.split_once('`')) {
        let Some((name, ty)) = item.split_once(": ") else {
            break;
        };
        fields.push((name.to_string(), ty.to_string()));
        rest = after.strip_prefix(", ").unwrap_or("");
    }
    fields
}

#[test]
fn wire_doc_payloads_match_the_frame_table() {
    let markdown = wire_doc();
    let mut wrong = Vec::new();
    for (name, op, fields) in opcode_table() {
        // A custom frame's payload is prose, and its codec hand-written.
        let Some(fields) = fields else { continue };
        let row = markdown
            .lines()
            .find(|line| line.starts_with(&format!("| `{op:#04X}` | `{name}` |")))
            .unwrap_or_else(|| panic!("docs/WIRE.md has no row `{op:#04X}` `{name}`"));
        let documented = doc_payload_fields(row);
        if !documented
            .iter()
            .map(|(field, ty)| (field.as_str(), ty.as_str()))
            .eq(fields.iter().copied())
        {
            wrong.push(format!(
                "{name}: documented {documented:?}, written {fields:?}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "docs/WIRE.md states other payloads than wire.rs writes:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn wire_doc_datagram_envelope_matches_the_code() {
    let markdown = wire_doc();
    let envelope = markdown
        .split("## UDP datagram envelope")
        .nth(1)
        .expect("docs/WIRE.md has a `UDP datagram envelope` section");
    // Rows of the form `| \`NAME\` | tag | header bytes | layout |`.
    let documented: Vec<(String, u8, usize)> = envelope
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|').map(str::trim);
            let name = cells.next()?.trim_end_matches('`').to_string();
            Some((
                name,
                cells.next()?.parse().ok()?,
                cells.next()?.parse().ok()?,
            ))
        })
        .collect();
    let actual = [
        ("SYN", DG_SYN, DG_CTRL_LEN),
        ("SYN-ACK", DG_SYNACK, DG_CTRL_LEN),
        ("DATA", DG_DATA, DG_DATA_HDR),
        ("ACK", DG_ACK, DG_CTRL_LEN),
        ("FIN", DG_FIN, DG_DATA_HDR),
    ]
    .map(|(name, tag, header)| (name.to_string(), tag, header));
    assert_eq!(
        documented, actual,
        "docs/WIRE.md's datagram table and the DG_* constants disagree"
    );
    assert!(
        envelope.contains(&format!("`UDP_ACK_EVERY` = {UDP_ACK_EVERY} in-order")),
        "docs/WIRE.md's ack policy does not state UDP_ACK_EVERY = {UDP_ACK_EVERY}"
    );
}

#[test]
fn wire_doc_credit_return_and_redial_policies_match_the_code() {
    // Line breaks may fall anywhere in the prose.
    let markdown = wire_doc().split_whitespace().collect::<Vec<_>>().join(" ");
    let millis = |name: &str, d: std::time::Duration| format!("`{name}` = {} ms", d.as_millis());
    for stated in [
        format!("`CREDIT_RETURN_DIVISOR` = {CREDIT_RETURN_DIVISOR}"),
        millis("CREDIT_RETURN_TICK", CREDIT_RETURN_TICK),
        millis("REDIAL_BACKOFF_START", REDIAL_BACKOFF_START),
        millis("REDIAL_BACKOFF_MAX", REDIAL_BACKOFF_MAX),
    ] {
        assert!(
            markdown.contains(&stated),
            "docs/WIRE.md's reliability stack does not state {stated}"
        );
    }
}
