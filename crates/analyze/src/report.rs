//! Findings and report rendering (human text and `--json`).

use deepmorph_json::Json;

/// One analysis finding. `key` is the stable identifier an allowlist
/// entry must quote to suppress it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which checker produced it: `unsafe`, `atomics`, `alloc`, or
    /// `allowlist` (stale entries).
    pub checker: &'static str,
    /// Root-relative file path.
    pub path: String,
    /// 1-based line (0 when the finding is file-level).
    pub line: u32,
    /// Allowlist suppression key.
    pub key: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Renders `path:line: [checker] message (allow key: k)`.
    pub fn render_text(&self) -> String {
        let loc = if self.line > 0 {
            format!("{}:{}", self.path, self.line)
        } else {
            self.path.clone()
        };
        format!(
            "{loc}: [{}] {} (allow key: {})",
            self.checker, self.message, self.key
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("checker", Json::str(self.checker)),
            ("path", Json::str(self.path.as_str())),
            ("line", Json::usize(self.line as usize)),
            ("key", Json::str(self.key.as_str())),
            ("message", Json::str(self.message.as_str())),
        ])
    }
}

/// One entry in the machine-readable unsafe inventory: every unsafe
/// site in the workspace, documented or not.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub path: String,
    pub line: u32,
    /// `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
    /// Enclosing function, when inside one.
    pub context: Option<String>,
    /// Whether a SAFETY justification was found.
    pub documented: bool,
}

impl UnsafeSite {
    fn to_json(&self) -> Json {
        Json::obj([
            ("path", Json::str(self.path.as_str())),
            ("line", Json::usize(self.line as usize)),
            ("kind", Json::str(self.kind)),
            (
                "context",
                match &self.context {
                    Some(c) => Json::str(c.as_str()),
                    None => Json::Null,
                },
            ),
            ("documented", Json::Bool(self.documented)),
        ])
    }
}

/// The full run report.
pub struct Report {
    pub findings: Vec<Finding>,
    pub unsafe_inventory: Vec<UnsafeSite>,
    pub files_scanned: usize,
    pub allow_entries: usize,
}

impl Report {
    /// True when the run should exit 0.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report: findings sorted by path/line, then a
    /// one-line summary with the unsafe-site tally.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut findings: Vec<&Finding> = self.findings.iter().collect();
        findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        for f in &findings {
            out.push_str(&f.render_text());
            out.push('\n');
        }
        let documented = self
            .unsafe_inventory
            .iter()
            .filter(|s| s.documented)
            .count();
        out.push_str(&format!(
            "deepmorph-analyze: {} finding(s) in {} file(s); {} unsafe site(s) ({} documented); {} allowlist entr{}\n",
            self.findings.len(),
            self.files_scanned,
            self.unsafe_inventory.len(),
            documented,
            self.allow_entries,
            if self.allow_entries == 1 { "y" } else { "ies" },
        ));
        out
    }

    /// Machine-readable report for `--json`.
    pub fn render_json(&self) -> String {
        let mut findings: Vec<&Finding> = self.findings.iter().collect();
        findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        Json::obj([
            ("clean", Json::Bool(self.clean())),
            ("files_scanned", Json::usize(self.files_scanned)),
            ("allow_entries", Json::usize(self.allow_entries)),
            ("findings", Json::arr(findings.iter().map(|f| f.to_json()))),
            (
                "unsafe_inventory",
                Json::arr(self.unsafe_inventory.iter().map(|s| s.to_json())),
            ),
        ])
        .to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_json::Json;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                checker: "alloc",
                path: "crates/x.rs".into(),
                line: 7,
                key: "fn:hot:Vec::new".into(),
                message: "hot path calls Vec::new".into(),
            }],
            unsafe_inventory: vec![UnsafeSite {
                path: "crates/y.rs".into(),
                line: 3,
                kind: "block",
                context: Some("poll".into()),
                documented: true,
            }],
            files_scanned: 2,
            allow_entries: 0,
        }
    }

    #[test]
    fn text_report_names_path_line_and_key() {
        let text = sample().render_text();
        assert!(text.contains("crates/x.rs:7: [alloc]"), "{text}");
        assert!(text.contains("allow key: fn:hot:Vec::new"), "{text}");
        assert!(text.contains("1 unsafe site(s) (1 documented)"), "{text}");
    }

    #[test]
    fn json_report_round_trips() {
        let json = Json::parse(&sample().render_json()).unwrap();
        assert_eq!(json.req("clean").unwrap().as_bool(), Some(false));
        let findings = json.req("findings").unwrap().as_arr().unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].req("checker").unwrap().as_str(), Some("alloc"));
        let inv = json.req("unsafe_inventory").unwrap().as_arr().unwrap();
        assert_eq!(inv[0].req("documented").unwrap().as_bool(), Some(true));
    }
}
