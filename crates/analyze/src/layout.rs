//! Checker 4: wire-layout pinning.
//!
//! The serving protocol promises bitwise-stable frames: kind bytes,
//! header constants, and the telemetry payload's 20 counter slots at
//! fixed byte offsets. This checker parses those facts straight out of
//! `crates/serve/src/protocol.rs` and diffs them against a checked-in
//! golden spec (`wire_layout.golden`), so an accidental constant edit
//! or a reordered stats field fails analysis with a field-level message
//! — naming the slot and payload byte offset — instead of a cryptic
//! decode-test assertion. The counter order is spelled out once, in
//! `stats_values`; the telemetry payload encodes through it.
//!
//! Changing the wire format deliberately means editing the golden file
//! in the same PR — which is exactly the reviewable diff we want.

use crate::lexer::{Tok, Token};
use crate::report::Finding;
use crate::source::SourceFile;

/// Telemetry-payload byte offset of stats slot `i`: the u64 counter
/// count, then 8 bytes per slot.
fn stats_offset(slot: usize) -> usize {
    8 + 8 * slot
}

/// True for constants the golden file pins.
fn is_pinned_const(name: &str) -> bool {
    name.starts_with("KIND_")
        || matches!(
            name,
            "RESPONSE_BIT" | "FRAME_MAGIC" | "MAX_FRAME_BYTES" | "TELEMETRY_PAYLOAD_VERSION"
        )
}

/// What the checker extracted from the protocol source.
pub struct ActualLayout {
    /// Pinned constants in declaration order: `(name, value, line)`.
    pub consts: Vec<(String, String, u32)>,
    /// Field order in `fn stats_values`, with the fn's line.
    pub stats_fields: Vec<String>,
    pub stats_line: u32,
}

/// The golden spec: pinned constants and the expected stats order.
pub struct GoldenLayout {
    pub consts: Vec<(String, String)>,
    pub stats_fields: Vec<String>,
}

impl GoldenLayout {
    /// Parses the golden file: `const <NAME> <value…>` and
    /// `stats <slot> <field>` lines, `#` comments.
    pub fn parse(text: &str) -> Result<GoldenLayout, String> {
        let mut consts = Vec::new();
        let mut stats: Vec<(usize, String)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |what: &str| format!("golden line {}: {what}: {raw:?}", idx + 1);
            let mut parts = line.splitn(2, ' ');
            match parts.next() {
                Some("const") => {
                    let rest = parts.next().ok_or_else(|| err("missing name"))?;
                    let (name, value) = rest.split_once(' ').ok_or_else(|| err("missing value"))?;
                    consts.push((name.to_string(), value.trim().to_string()));
                }
                Some("stats") => {
                    let rest = parts.next().ok_or_else(|| err("missing slot"))?;
                    let (slot, field) = rest.split_once(' ').ok_or_else(|| err("missing field"))?;
                    let slot: usize = slot.parse().map_err(|_| err("bad slot number"))?;
                    stats.push((slot, field.trim().to_string()));
                }
                _ => return Err(err("unknown directive")),
            }
        }
        stats.sort_by_key(|&(slot, _)| slot);
        for (i, (slot, _)) in stats.iter().enumerate() {
            if *slot != i {
                return Err(format!("golden stats slots not contiguous at {slot}"));
            }
        }
        Ok(GoldenLayout {
            consts,
            stats_fields: stats.into_iter().map(|(_, f)| f).collect(),
        })
    }
}

/// Extracts the actual layout from the lexed protocol source.
pub fn extract(file: &SourceFile) -> ActualLayout {
    let tokens = &file.lexed.tokens;
    let mut consts = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !matches!(&t.tok, Tok::Ident(kw) if kw == "const") {
            continue;
        }
        let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) else {
            continue;
        };
        if !is_pinned_const(name) {
            continue;
        }
        if !matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            continue; // not a const item
        }
        // Value: tokens between `=` and `;`.
        let mut j = i + 3;
        while !matches!(tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('=')) | None) {
            j += 1;
        }
        let start = j + 1;
        let mut end = start;
        while !matches!(
            tokens.get(end).map(|t| &t.tok),
            Some(Tok::Punct(';')) | None
        ) {
            end += 1;
        }
        consts.push((name.clone(), render(&tokens[start..end]), t.line));
    }

    let (stats_fields, stats_line) = fields_in_fn(file, "stats_values");
    ActualLayout {
        consts,
        stats_fields,
        stats_line,
    }
}

/// Renders value tokens: space-separated, except consecutive
/// punctuation sticks together (`16 << 20`, not `16 < < 20`).
fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_punct = false;
    for t in tokens {
        let (text, is_punct) = match &t.tok {
            Tok::Ident(s) | Tok::Num(s) => (s.clone(), false),
            Tok::Lifetime(s) => (format!("'{s}"), false),
            Tok::Literal(s) => (format!("\"{s}\""), false),
            Tok::Punct(c) => (c.to_string(), true),
        };
        if !(out.is_empty() || prev_punct && is_punct) {
            out.push(' ');
        }
        out.push_str(&text);
        prev_punct = is_punct;
    }
    out
}

/// `x.field` field names, in order, inside the body of `fn name`.
fn fields_in_fn(file: &SourceFile, name: &str) -> (Vec<String>, u32) {
    let tokens = &file.lexed.tokens;
    let Some(fn_idx) = tokens.windows(2).position(|w| {
        matches!(&w[0].tok, Tok::Ident(kw) if kw == "fn")
            && matches!(&w[1].tok, Tok::Ident(n) if n == name)
    }) else {
        return (Vec::new(), 0);
    };
    let fn_line = tokens[fn_idx].line;
    // Body: first `{` after the signature to its matching `}`.
    let mut i = fn_idx;
    while !matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct('{')) | None) {
        i += 1;
    }
    let mut depth = 0u32;
    let mut fields = Vec::new();
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct('.') => {
                if let (Some(Tok::Ident(_)), Some(Tok::Ident(field))) = (
                    tokens.get(i - 1).map(|t| &t.tok),
                    tokens.get(i + 1).map(|t| &t.tok),
                ) {
                    fields.push(field.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (fields, fn_line)
}

/// Diffs actual vs golden, appending field-level findings.
pub fn check(
    file: &SourceFile,
    golden: &GoldenLayout,
    allow: &crate::allowlist::Allowlist,
    findings: &mut Vec<Finding>,
) {
    let actual = extract(file);
    let push = |findings: &mut Vec<Finding>, line: u32, key: String, message: String| {
        if allow.allows("layout", &file.rel_path, &key) {
            return;
        }
        findings.push(Finding {
            checker: "layout",
            path: file.rel_path.clone(),
            line,
            key,
            message,
        });
    };

    for (name, want) in &golden.consts {
        match actual.consts.iter().find(|(n, _, _)| n == name) {
            None => push(
                findings,
                0,
                format!("const:{name}"),
                format!(
                    "pinned constant `{name}` missing from protocol source (golden pins `{want}`)"
                ),
            ),
            Some((_, got, line)) if got != want => push(
                findings,
                *line,
                format!("const:{name}"),
                format!("pinned constant `{name}` changed: golden `{want}`, source `{got}`"),
            ),
            Some(_) => {}
        }
    }
    for (name, got, line) in &actual.consts {
        if !golden.consts.iter().any(|(n, _)| n == name) {
            push(
                findings,
                *line,
                format!("const:{name}"),
                format!(
                    "new wire constant `{name}` = `{got}` is not pinned — add it to the golden file"
                ),
            );
        }
    }

    if actual.stats_fields.is_empty() {
        push(
            findings,
            0,
            "stats:missing".to_string(),
            "could not find `fn stats_values` in protocol source".to_string(),
        );
    } else {
        let n = golden.stats_fields.len().max(actual.stats_fields.len());
        for slot in 0..n {
            let want = golden.stats_fields.get(slot);
            let got = actual.stats_fields.get(slot);
            if want == got {
                continue;
            }
            let at = format!("slot {slot} (payload byte offset {})", stats_offset(slot));
            let message = match (want, got) {
                (Some(w), Some(g)) => {
                    format!("stats field at {at}: golden `{w}`, source `{g}`")
                }
                (Some(w), None) => {
                    format!("stats field `{w}` at {at} missing from source")
                }
                (None, Some(g)) => {
                    format!("stats field `{g}` at {at} not pinned in golden")
                }
                (None, None) => unreachable!(),
            };
            push(
                findings,
                actual.stats_line,
                format!("stats:{slot}"),
                message,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"
pub const FRAME_MAGIC: [u8; 4] = *b"DMSV";
pub const MAX_FRAME_BYTES: usize = 16 << 20;
const KIND_PING: u8 = 0;
const KIND_STATS: u8 = 4;
const RESPONSE_BIT: u8 = 0x80;

fn stats_values(s: &StatsSnapshot) -> [u64; 2] {
    [s.requests, s.rows]
}
"#;

    const GOLDEN: &str = "\
const FRAME_MAGIC * \"DMSV\"
const MAX_FRAME_BYTES 16 << 20
const KIND_PING 0
const KIND_STATS 4
const RESPONSE_BIT 0x80
stats 0 requests
stats 1 rows
";

    fn run(src: &str, golden: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("crates/serve/src/protocol.rs".into(), src);
        let golden = GoldenLayout::parse(golden).unwrap();
        let mut findings = Vec::new();
        check(
            &file,
            &golden,
            &crate::allowlist::Allowlist::empty(),
            &mut findings,
        );
        findings
    }

    #[test]
    fn matching_layout_is_clean() {
        let findings = run(FIXTURE, GOLDEN);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reordered_stats_field_names_slot_and_offset() {
        let reordered = FIXTURE.replace("[s.requests, s.rows]", "[s.rows, s.requests]");
        let findings = run(&reordered, GOLDEN);
        let stats: Vec<_> = findings
            .iter()
            .filter(|f| f.key.starts_with("stats:"))
            .collect();
        assert_eq!(stats.len(), 2, "{findings:?}");
        assert!(
            stats[0].message.contains("slot 0 (payload byte offset 8)"),
            "{}",
            stats[0].message
        );
        assert!(stats[0]
            .message
            .contains("golden `requests`, source `rows`"));
    }

    #[test]
    fn changed_constant_is_a_finding() {
        let edited = FIXTURE.replace("const KIND_STATS: u8 = 4;", "const KIND_STATS: u8 = 5;");
        let findings = run(&edited, GOLDEN);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].key, "const:KIND_STATS");
        assert!(findings[0].message.contains("golden `4`, source `5`"));
    }

    #[test]
    fn new_unpinned_constant_is_a_finding() {
        let edited = FIXTURE.replace(
            "const RESPONSE_BIT: u8 = 0x80;",
            "const RESPONSE_BIT: u8 = 0x80;\nconst KIND_FLUSH: u8 = 9;",
        );
        let findings = run(&edited, GOLDEN);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("KIND_FLUSH"));
        assert!(findings[0].message.contains("not pinned"));
    }

    #[test]
    fn golden_rejects_gapped_slots() {
        assert!(GoldenLayout::parse("stats 0 a\nstats 2 b\n").is_err());
    }
}
