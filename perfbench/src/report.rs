//! What one workload run measured, checked and counted, and how it is
//! printed and recorded.

use std::fmt::Write as _;

use deepmorph_json::Json;

/// Which report a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: measured with tracing off, declared in
    /// `BENCHMARK.json`'s `end_to_end`.
    EndToEnd,
    /// Per-layer: measured in the traced run, declared in `per_layer`.
    Layer,
    /// Printed and recorded, but not part of either declared set (the
    /// workload-specific names behind the shared end-to-end metrics).
    Info,
}

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples the value summarizes.
    pub samples: usize,
    pub kind: Kind,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (requests, calls, checks).
    pub attempted: u64,
    /// Operations that failed or were refused (failed checks included).
    pub failed: u64,
    /// Per-phase generator accounting and other structured detail.
    pub phases: Vec<Json>,
    /// Why a declared per-layer metric has no value on this workload.
    pub unavailable: Vec<(String, String)>,
    pub notes: Vec<String>,
}

impl Run {
    fn push(&mut self, kind: Kind, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            kind,
        });
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.push(Kind::EndToEnd, name, value, unit, samples);
    }

    /// Records a timed end-to-end metric scaled to the reference host by
    /// `scale` (see [`crate::gauge`]), with the time as measured as
    /// detail.
    pub fn e2e_scaled(
        &mut self,
        name: &str,
        measured: f64,
        unit: &str,
        samples: usize,
        scale: f64,
    ) {
        self.e2e(name, measured * scale, unit, samples);
        self.info(&format!("{name}.measured"), measured, unit, samples);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.push(Kind::Layer, name, value, unit, samples);
    }

    /// Records an informational metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.push(Kind::Info, name, value, unit, samples);
    }

    /// Marks a declared per-layer metric as not measurable here.
    pub fn unavailable(&mut self, name: &str, reason: &str) {
        self.unavailable
            .push((name.to_string(), reason.to_string()));
    }

    /// [`Run::unavailable`] for several metrics sharing one reason.
    pub fn unavailable_all(&mut self, names: &[&str], reason: &str) {
        for name in names {
            self.unavailable(name, reason);
        }
    }

    /// Records an output check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// Adds operation counts from a load phase or a call sequence.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `true` when every check passed.
    pub fn checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Failed operations over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric named `name` of `kind`, if recorded.
    pub fn find(&self, kind: Kind, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .find(|m| m.kind == kind && m.name == name)
    }

    /// Human-readable report: every metric with unit and sample count,
    /// then the checks and the unavailable per-layer metrics.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (kind, title) in [
            (Kind::EndToEnd, "end-to-end"),
            (Kind::Info, "workload detail"),
            (Kind::Layer, "per-layer"),
        ] {
            let metrics: Vec<&Metric> = self.metrics.iter().filter(|m| m.kind == kind).collect();
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for m in metrics {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>16.6} {:<8} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for (name, reason) in &self.unavailable {
            let _ = writeln!(out, "  {name:<40} unavailable: {reason}");
        }
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed (error_rate {:.6})",
            self.attempted,
            self.failed,
            self.error_rate()
        );
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Every metric, check and phase as JSON (the run record body).
    pub fn to_json(&self) -> Json {
        let metric = |m: &Metric| {
            Json::obj([
                ("name", Json::str(m.name.clone())),
                ("value", Json::num(m.value)),
                ("unit", Json::str(m.unit.clone())),
                ("samples", Json::usize(m.samples)),
                (
                    "kind",
                    Json::str(match m.kind {
                        Kind::EndToEnd => "end_to_end",
                        Kind::Layer => "per_layer",
                        Kind::Info => "info",
                    }),
                ),
            ])
        };
        Json::obj([
            ("metrics", Json::arr(self.metrics.iter().map(metric))),
            (
                "unavailable",
                Json::arr(self.unavailable.iter().map(|(n, r)| {
                    Json::obj([
                        ("name", Json::str(n.clone())),
                        ("reason", Json::str(r.clone())),
                    ])
                })),
            ),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("error_rate", Json::num(self.error_rate())),
            (
                "checks",
                Json::arr(self.checks.iter().map(|c| {
                    Json::obj([
                        ("name", Json::str(c.name.clone())),
                        ("passed", Json::Bool(c.passed)),
                        ("detail", Json::str(c.detail.clone())),
                    ])
                })),
            ),
            ("phases", Json::arr(self.phases.iter().cloned())),
            (
                "notes",
                Json::arr(self.notes.iter().map(|n| Json::str(n.clone()))),
            ),
        ])
    }
}

/// The metric names and units `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Declared {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Reads the declarations from `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str);
                    let unit = m.get("unit").and_then(Json::as_str);
                    match (name, unit) {
                        (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                        _ => Err(format!("BENCHMARK.json `{key}` entry lacks name/unit")),
                    }
                })
                .collect()
        };
        Ok(Declared {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The result line's `metrics` object for `kind`, in declaration
    /// order. A declared per-layer metric the workload could not measure
    /// is reported as 0 (its reason is in the text report and the run
    /// record); a missing end-to-end metric or a unit mismatch is an
    /// error in the benchmark itself.
    pub fn result_metrics(&self, run: &mut Run, kind: Kind) -> Result<Json, String> {
        let declared = match kind {
            Kind::EndToEnd => &self.end_to_end,
            _ => &self.per_layer,
        };
        let mut pairs = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = match run.find(kind, name) {
                Some(m) if &m.unit != unit => {
                    return Err(format!(
                        "metric `{name}` measured in `{}`, declared in `{unit}`",
                        m.unit
                    ))
                }
                Some(m) => m.value,
                None if kind == Kind::Layer => {
                    if !run.unavailable.iter().any(|(n, _)| n == name) {
                        run.unavailable(name, "not on this workload's path");
                    }
                    0.0
                }
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            pairs.push((
                name.clone(),
                Json::obj([
                    ("value", Json::num(value)),
                    ("unit", Json::str(unit.clone())),
                ]),
            ));
        }
        Ok(Json::Obj(pairs))
    }
}
