//! Metric collection, summary printing and the final JSON line.

use std::process::ExitCode;

use ssr_core::QueryStats;

use crate::trace::Tracer;
use crate::Args;

/// End-to-end metrics every workload reports on an untraced run, in the
/// order of `BENCHMARK.json`.
pub const END_TO_END: [&str; 7] = [
    "query_p50_ms",
    "query_p90_ms",
    "queries_per_s",
    "op_p50_ms",
    "op_p90_ms",
    "setup_s",
    "index_bytes_per_window",
];

/// Per-layer metrics every workload reports on a traced run, in the order
/// of `BENCHMARK.json`. Figures only some workloads can produce (WAL
/// append, compaction, index insert, cluster and serve overhead) and the
/// tracing overhead, a difference of medians that can read exactly 0, are
/// printed in the summary instead, so every value here is measured on
/// every workload.
pub const PER_LAYER: [&str; 35] = [
    "distance.ns_per_cell",
    "distance.cells_per_call",
    "distance.lb_prune_frac",
    "index.filter_ms.eps2",
    "index.filter_ms.eps4",
    "index.filter_ms.eps8",
    "index.calls.eps2",
    "index.calls.eps4",
    "index.calls.eps8",
    "index.cells.eps2",
    "index.cells.eps4",
    "index.cells.eps8",
    "index.matches_per_call.eps2",
    "index.matches_per_call.eps4",
    "index.matches_per_call.eps8",
    "index.calls_vs_scan.eps2",
    "index.calls_vs_scan.eps4",
    "index.calls_vs_scan.eps8",
    "index.cells_vs_scan.eps2",
    "index.cells_vs_scan.eps4",
    "index.cells_vs_scan.eps8",
    "index.build_ms",
    "candidates.chain_us",
    "candidates.count",
    "query.verify_ms",
    "query.verify_calls",
    "query.verify_ns_per_call",
    "batch.memo_entries",
    "batch.overhead_frac",
    "wire.encode_us",
    "wire.decode_us",
    "wire.request_bytes",
    "wire.response_bytes",
    "storage.snapshot_load_ms",
    "storage.snapshot_bytes_per_window",
];

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (1 for a single measurement).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued during the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused or failed a correctness check.
    pub failed: u64,
    /// Broken correctness checks and workload premises; any entry fails
    /// the run.
    pub problems: Vec<String>,
    /// Reported in the JSON line (end-to-end or per-layer, by mode).
    pub metrics: Vec<Metric>,
    /// Printed in the summary only: deterministic counts, self times and
    /// the layer figures only some workloads have.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The end-to-end metrics of an untraced run. `ops` are the latencies
    /// of the workload's primary operation.
    pub fn end_to_end(
        &mut self,
        queries_ms: &[f64],
        queries_per_s: f64,
        ops_ms: &[f64],
        setup_s: &[f64],
        bytes_per_window: f64,
    ) {
        let n = queries_ms.len();
        self.metric("query_p50_ms", median(queries_ms), "ms", n);
        self.metric("query_p90_ms", percentile(queries_ms, 90.0), "ms", n);
        self.metric("queries_per_s", queries_per_s, "1/s", n);
        self.metric("op_p50_ms", median(ops_ms), "ms", ops_ms.len());
        self.metric("op_p90_ms", percentile(ops_ms, 90.0), "ms", ops_ms.len());
        self.metric("setup_s", median(setup_s), "s", setup_s.len());
        self.metric("index_bytes_per_window", bytes_per_window, "B", 1);
    }

    /// Deterministic per-query counts from the queries' own statistics.
    pub fn counts<'a>(
        &mut self,
        stats: impl IntoIterator<Item = &'a QueryStats>,
        bytes_per_window: f64,
    ) {
        let stats: Vec<&QueryStats> = stats.into_iter().collect();
        let n = stats.len();
        let per = |f: fn(&QueryStats) -> u64| {
            stats.iter().map(|s| f(s)).sum::<u64>() as f64 / n.max(1) as f64
        };
        self.note(
            "count.index_calls",
            per(|s| s.index_distance_calls),
            "count",
            n,
        );
        self.note("count.dp_cells", per(|s| s.dp_cells_evaluated), "count", n);
        self.note("count.candidates", per(|s| s.candidates as u64), "count", n);
        self.note(
            "count.verify_calls",
            per(|s| s.verification_calls),
            "count",
            n,
        );
        self.note("count.index_bytes_per_window", bytes_per_window, "B", 1);
    }

    /// Tracing overhead (median query latency with recording on minus
    /// off) and each span name's mean self time.
    pub fn trace_notes(&mut self, tracer: &Tracer, on_ms: &[f64], off_ms: &[f64]) {
        let n = on_ms.len().min(off_ms.len());
        self.note("trace.overhead_ms", median(on_ms) - median(off_ms), "ms", n);
        for (name, t) in tracer.totals() {
            let self_us = t.self_ns as f64 / t.count as f64 / 1e3;
            self.note(&format!("self.{name}"), self_us, "us", t.count as usize);
        }
    }

    /// Records a failed check; `failed` counts it against `attempted`.
    pub fn problem(&mut self, what: String) {
        eprintln!("# CHECK FAILED: {what}");
        self.failed += 1;
        self.problems.push(what);
    }

    /// Asserts a check, recording a problem when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Prints the human-readable summary, then the JSON result line.
    pub fn print(mut self, args: &Args) -> ExitCode {
        let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
        for name in expected {
            if !self.metrics.iter().any(|m| m.name == *name) {
                self.problem(format!("metric {name} was not measured"));
            }
        }
        let infinite: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name))
            .collect();
        infinite.into_iter().for_each(|p| self.problem(p));
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# workload={} seed={} seconds={} trace={} threads_available={}",
            args.workload,
            args.seed,
            args.run.as_secs(),
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        for m in self.metrics.iter().chain(&self.notes) {
            println!(
                "{:<34} {:>16} {:<6} n={}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "{:<34} {:>16} {:<6} n={}",
            "error_rate",
            format!("{error_rate:.4}"),
            "ratio",
            self.attempted
        );
        let correct = self.problems.is_empty();
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            let mut first = true;
            for name in expected {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("presence checked above");
                if !first {
                    json.push_str(", ");
                }
                first = false;
                json.push_str(&format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                ));
            }
        }
        json.push_str("}}");
        println!("{json}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Linear-interpolated percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
