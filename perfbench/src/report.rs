//! Metric names, the result line, order statistics, host readings, and the
//! traced run's spans with the per-layer self-time table built from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use grimp::TrainReport;
use grimp_obs::{Event, EventKind};

/// End-to-end metrics, printed by every workload with `--trace 0`. Each
/// workload times one unit a user waits for (see `BENCHMARK.json`):
/// `latency_ms` is the fastest fit + impute on a fit workload and the
/// median `/impute` latency on a serving one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("accuracy", "fraction"),
    ("rmse", "normalized"),
    ("peak_rss_mb", "MB"),
];

/// The layers of the self-time table, in report order. grimp-obs has no
/// spans of its own; its cost is `obs.trace_overhead_pct`.
pub const LAYERS: &[&str] = &["table", "graph", "gnn", "tensor", "core", "serve"];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("table.csv_parse_ms", "ms"),
    ("table.csv_write_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.fasttext_ms", "ms"),
    ("graph.sample_epoch_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.sampled_edges", "count"),
    ("gnn.forward_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_tn_ms", "ms"),
    ("tensor.matmul_nt_ms", "ms"),
    ("tensor.scatter_mean_ms", "ms"),
    ("tensor.softmax_ce_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.allocs_after_epoch1", "count"),
    ("core.train.forward_s", "s"),
    ("core.train.backward_s", "s"),
    ("core.train.optim_s", "s"),
    ("core.train.epoch_ms", "ms"),
    ("core.train.first_epoch_ms", "ms"),
    ("core.train.fwd_bwd_share", "fraction"),
    ("core.impute_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("core.append_ms", "ms"),
    ("core.append.finetune_epochs", "count"),
    ("core.checkpoint_bytes", "bytes"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.stalled_share", "fraction"),
    ("serve.impute_p99_ms", "ms"),
    ("serve.impute_samples", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.goodput_rps", "req/s"),
    ("serve.append_p50_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("env.steal_pct", "%"),
    ("layer.table.self_ms", "ms"),
    ("layer.table.share", "fraction"),
    ("layer.graph.self_ms", "ms"),
    ("layer.graph.share", "fraction"),
    ("layer.gnn.self_ms", "ms"),
    ("layer.gnn.share", "fraction"),
    ("layer.tensor.self_ms", "ms"),
    ("layer.tensor.share", "fraction"),
    ("layer.core.self_ms", "ms"),
    ("layer.core.share", "fraction"),
    ("layer.serve.self_ms", "ms"),
    ("layer.serve.share", "fraction"),
    ("layer.unattributed_share", "fraction"),
];

/// What one run hands back: operation counts, output-check failures, and
/// every measured metric by name.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Count one operation; a failed one also records why.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            self.problem(why);
        }
    }

    /// Record a failed output check that is not an operation of its own.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {why}");
        }
        self.problems.push(why);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly the metrics of `table`, unexercised
    /// per-layer ones as 0, non-finite values as a failed check.
    pub fn json_line(&mut self, table: &[(&'static str, &'static str)]) -> String {
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() {
                v
            } else {
                self.problem(format!("metric {name} is not finite"));
                0.0
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The metrics of the traced fits' `TrainReport`s, each the median over
/// `reports`; `core.train.fwd_bwd_share` is forward plus backward over
/// `wall_s`, the timed wall time of one fit.
pub fn train_metrics(reports: &[TrainReport], wall_s: f64, out: &mut RunResult) {
    let pick =
        |f: &dyn Fn(&TrainReport) -> f64| median(&reports.iter().map(f).collect::<Vec<f64>>());
    out.set("core.train.forward_s", pick(&|r| r.forward_s));
    out.set("core.train.backward_s", pick(&|r| r.backward_s));
    out.set("core.train.optim_s", pick(&|r| r.optim_s));
    out.set(
        "core.train.first_epoch_ms",
        pick(&|r| r.epochs[0].seconds * 1e3),
    );
    out.set(
        "core.train.epoch_ms",
        pick(&|r| {
            median(
                &r.epochs[1..]
                    .iter()
                    .map(|e| e.seconds)
                    .collect::<Vec<f64>>(),
            ) * 1e3
        }),
    );
    out.set(
        "core.train.fwd_bwd_share",
        pick(&|r| r.forward_s + r.backward_s) / wall_s,
    );
    out.set(
        "graph.sampled_edges",
        pick(&|r| r.epochs.iter().map(|e| e.sampled_edges as f64).sum()),
    );
    out.set(
        "tensor.allocs_after_epoch1",
        pick(&|r| r.epoch_allocs().iter().skip(1).sum::<u64>() as f64),
    );
    out.set(
        "core.checkpoint_bytes",
        pick(&|r| r.checkpoint_bytes as f64),
    );
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU time counters `(steal, total)` from the `cpu` line of
/// `/proc/stat`, in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so only the first 8 add up.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Host steal between two [`cpu_ticks`] readings, in percent of CPU time.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// One recorded span: name, layer, the timed unit (fit or request) it
/// belongs to, start and end, and the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: u64,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

/// The traced run's spans, kept in memory and written out when it ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

/// Layer of a span the program emits through `fit_traced`/`impute_traced`:
/// graph build and feature init belong to grimp-graph, model build and the
/// model's forward pass (GNN, merge and heads on the tape) to grimp-gnn,
/// backward, optimizer and tape reset to grimp-tensor, and the rest of the
/// epoch loop, fit and impute bookkeeping to grimp-core.
fn event_layer(name: &str) -> &'static str {
    match name {
        "graph_build" | "feature_init" => "graph",
        "model_build" | "forward" => "gnn",
        "backward" | "optim" | "tape_reset" => "tensor",
        _ => "core",
    }
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        unit: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            unit,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Fold a program event stream recorded from `origin` (the instant its
    /// `Trace` started) into nested spans under `parent`.
    pub fn fold_events(&mut self, events: &[Event], origin: Instant, unit: u64, parent: usize) {
        let mut open: Vec<usize> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::SpanEnter => {
                    let at = origin + std::time::Duration::from_nanos(e.t_ns);
                    let up = open.last().copied().unwrap_or(parent);
                    let id = self.push(e.name, event_layer(e.name), unit, at, at, Some(up));
                    open.push(id);
                }
                EventKind::SpanExit => {
                    if let Some(id) = open.pop() {
                        let span = &mut self.spans[id];
                        span.end =
                            span.start + std::time::Duration::from_secs_f64(e.value.max(0.0));
                    }
                }
                _ => {}
            }
        }
    }

    fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end.saturating_duration_since(s.start).as_secs_f64()
    }

    /// Self time per layer over the trees under `roots`, plus the roots'
    /// total wall time. A span's self time is its duration minus the part
    /// its children cover; a root's own self time stays unattributed.
    fn layer_table(&self, roots: &[usize]) -> (BTreeMap<&'static str, f64>, f64) {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut table: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        let mut wall = 0.0;
        let mut stack: Vec<usize> = Vec::new();
        for &root in roots {
            wall += self.seconds(root);
            stack.extend(&children[root]);
            while let Some(id) = stack.pop() {
                let covered: f64 = children[id].iter().map(|&c| self.seconds(c)).sum();
                *table.entry(self.spans[id].layer).or_insert(0.0) +=
                    (self.seconds(id) - covered).max(0.0);
                stack.extend(&children[id]);
            }
        }
        (table, wall)
    }

    /// Put the layer table of `roots` into `out` and return its text form.
    pub fn report_layers(&self, roots: &[usize], out: &mut RunResult) -> String {
        let (table, wall) = self.layer_table(roots);
        let n = roots.len().max(1) as f64;
        let mut text = format!(
            "layer self time over {} timed units ({:.1} ms each):\n",
            roots.len(),
            wall * 1e3 / n
        );
        let mut attributed = 0.0;
        for &layer in LAYERS {
            let s = table.get(layer).copied().unwrap_or(0.0);
            attributed += s;
            let share = if wall > 0.0 { s / wall } else { 0.0 };
            out.set(layer_metric(layer, "self_ms"), s * 1e3 / n);
            out.set(layer_metric(layer, "share"), share);
            let _ = writeln!(
                text,
                "  {layer:<8} {:>10.3} ms  {:>6.2} %",
                s * 1e3 / n,
                share * 100.0
            );
        }
        let rest = if wall > 0.0 {
            (wall - attributed).max(0.0) / wall
        } else {
            0.0
        };
        out.set("layer.unattributed_share", rest);
        let _ = writeln!(text, "  {:<8} {:>10} {:>9.2} %", "(rest)", "", rest * 100.0);
        text
    }

    /// The spans as JSON lines: name, layer, unit, start and end in
    /// microseconds since the run's origin, and the parent's index.
    pub fn to_jsonl(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"unit\": {}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}}}",
                s.name,
                s.layer,
                s.unit,
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

/// The interned name of a `layer.<layer>.<what>` metric.
fn layer_metric(layer: &str, what: &str) -> &'static str {
    let want = format!("layer.{layer}.{what}");
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == want)
        .expect("every layer has self_ms and share metrics")
}
