//! Spans around the benchmark's own calls into the program's layers.
//!
//! Every span has a name, a start, an end, the span that caused it and
//! the run id of its workload. Spans stay in memory and are written out
//! once, when the run ends, as one tree per workload. Each tree node
//! carries its children's sum and a named residual (`<name>.self`), so
//! time nothing below a node accounts for is reported, never dropped.
//!
//! Spans are recorded only from the driving thread; load-generator
//! threads report counts and latencies instead. With tracing off,
//! [`Tracer::time`] still returns the wall time of the call (the
//! end-to-end metrics need it) but records nothing.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use deepmorph_json::Json;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    run_id: String,
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder for run `run_id`; records only when `enabled`.
    pub fn new(run_id: String, enabled: bool) -> Tracer {
        Tracer {
            run_id,
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span) and returns its result with its wall time in seconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                parent: self.open.borrow().last().copied(),
                start,
                end: start,
            });
            self.open.borrow_mut().push(spans.len() - 1);
            spans.len() - 1
        });
        let out = f();
        let end = Instant::now();
        if let Some(index) = index {
            self.open.borrow_mut().pop();
            self.spans.borrow_mut()[index].end = end;
        }
        (out, (end - start).as_secs_f64())
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn duration(&self, index: usize) -> f64 {
        let span = &self.spans.borrow()[index];
        (span.end - span.start).as_secs_f64()
    }

    fn child_sum(&self, children: &[usize]) -> f64 {
        children.iter().map(|&c| self.duration(c)).sum()
    }

    fn children(&self, parent: Option<usize>) -> Vec<usize> {
        let spans = self.spans.borrow();
        (0..spans.len())
            .filter(|&i| spans[i].parent == parent)
            .collect()
    }

    fn node_json(&self, index: usize) -> Json {
        let span = self.spans.borrow()[index].clone();
        let duration = self.duration(index);
        let children = self.children(Some(index));
        let child_sum = self.child_sum(&children);
        let mut pairs = vec![
            ("id", Json::usize(index)),
            ("parent", span.parent.map_or(Json::Null, Json::usize)),
            ("run", Json::str(self.run_id.clone())),
            ("name", Json::str(span.name.clone())),
            ("start_s", Json::num(self.secs(span.start))),
            ("end_s", Json::num(self.secs(span.end))),
            ("duration_s", Json::num(duration)),
        ];
        if !children.is_empty() {
            pairs.push(("children_sum_s", Json::num(child_sum)));
            pairs.push((
                "residual",
                Json::obj([
                    ("name", Json::str(format!("{}.self", span.name))),
                    ("seconds", Json::num(duration - child_sum)),
                ]),
            ));
            pairs.push((
                "children",
                Json::arr(children.into_iter().map(|c| self.node_json(c))),
            ));
        }
        Json::obj(pairs)
    }

    /// The span forest as JSON: one root per top-level span.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("run", Json::str(self.run_id.clone())),
            (
                "roots",
                Json::arr(self.children(None).into_iter().map(|r| self.node_json(r))),
            ),
        ])
    }

    /// The span forest as indented text, one line per span plus one
    /// residual line under every span that has children.
    pub fn tree_text(&self) -> String {
        let mut out = String::new();
        for root in self.children(None) {
            self.write_node(&mut out, root, 0);
        }
        out
    }

    fn write_node(&self, out: &mut String, index: usize, depth: usize) {
        let name = self.spans.borrow()[index].name.clone();
        let duration = self.duration(index);
        let children = self.children(Some(index));
        let pad = "  ".repeat(depth);
        if children.is_empty() {
            let _ = writeln!(out, "{pad}{name}  {:.3} ms", duration * 1e3);
            return;
        }
        let child_sum = self.child_sum(&children);
        let _ = writeln!(
            out,
            "{pad}{name}  {:.3} ms  (children {:.3} ms)",
            duration * 1e3,
            child_sum * 1e3
        );
        for child in children {
            self.write_node(out, child, depth + 1);
        }
        let _ = writeln!(
            out,
            "{pad}  {name}.self  {:.3} ms (residual)",
            (duration - child_sum) * 1e3
        );
    }
}
