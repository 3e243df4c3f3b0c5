//! The repository benchmark of the TZ-LLM reproduction.
//!
//! One binary runs one workload from a seed, measures it for a fixed number
//! of host seconds, checks its outputs and prints every metric.  Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) record spans around each call into a layer and report the
//! per-layer metrics.  Everything is driven through the public API of the
//! workspace crates; nothing inside them is instrumented.
//!
//! Two kinds of time appear, and every metric says which it is
//! ([`metrics::Kind`]): *simulated* numbers are what the modelled device
//! would take and are deterministic for a seed; *host* numbers are what the
//! simulator takes to run and are noisy.

pub mod analyse;
pub mod fleet;
pub mod metrics;
pub mod paper;
pub mod plan;
pub mod single;
pub mod trace;

use std::time::Instant;

use metrics::{Kind, Metrics};
use trace::Span;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cold_fleet", "chat_kv", "agent_decode", "paper_grid"];

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the measurement loop runs for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Input scale: 1.0 is the benchmark; the self-tests shrink it.
    pub scale: f64,
}

impl Options {
    /// `n` scaled by [`Options::scale`], at least `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(min)
    }
}

/// Named pass/fail output checks.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool, String)>);

impl Checks {
    /// Records check `name`; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let detail = if ok { String::new() } else { detail() };
        self.0.push((name.to_string(), ok, detail));
    }

    /// Whether every check passed.
    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or evaluations) the simulated unit of work submitted.
    pub attempted: u64,
    /// Of which rejected or never finished.
    pub failed: u64,
    /// Canonical digest of the simulated results.
    pub digest: String,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Checks,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Measurement iterations run.
    pub iterations: usize,
    /// Worker threads the workload ran on.
    pub threads: usize,
}

/// Runs `iteration` until `seconds` have passed and at least `min` times
/// have run.  The iteration index is passed in.
pub fn measure<T>(seconds: f64, min: usize, mut iteration: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(iteration(out.len()));
    }
    out
}

/// Set-up repetitions behind every `setup_s` median: set-up is short, so
/// one run repeats it on its own to steady the median.
pub const SETUP_REPS: usize = 21;

/// Host seconds of [`SETUP_REPS`] calls of `setup`.
pub fn setup_samples(mut setup: impl FnMut() -> f64) -> Vec<f64> {
    (0..SETUP_REPS).map(|_| setup()).collect()
}

/// Adds the host metrics every untraced run reports: simulated requests per
/// host second (median over iterations, set-up excluded), set-up time
/// (median) and the process's peak resident memory.
pub fn host_end_to_end(metrics: &mut Metrics, work: f64, run_s: &[f64], setup_s: &[f64]) {
    let rates: Vec<f64> = run_s.iter().map(|s| work / s).collect();
    metrics.host("sim_req_per_host_s", analyse::median(&rates), "1/s");
    metrics.host("setup_s", analyse::median(setup_s), "s");
    metrics.host("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// `(traced / untraced - 1) × 100` over the medians of paired iterations.
pub fn overhead_pct(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    (analyse::median(traced_s) / analyse::median(untraced_s) - 1.0) * 100.0
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs workload `name`.
pub fn run(name: &str, opts: &Options) -> Option<Outcome> {
    Some(match name {
        "cold_fleet" => fleet::run(opts),
        "chat_kv" => single::chat_kv().run(opts),
        "agent_decode" => single::agent_decode().run(opts),
        "paper_grid" => paper::run(opts),
        _ => return None,
    })
}

/// Completes a run's metric set against `BENCHMARK.json`: checks every
/// emitted metric is declared with the same unit, and adds every declared
/// metric of the section the run did not emit as 0 — the reading of a
/// layer that is idle on this workload.  End-to-end metrics are never
/// filled: a missing one fails the run.
pub fn complete_metrics(outcome: &mut Outcome, trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared = metrics::declared(metrics::BENCHMARK_JSON, section);
    let mut undeclared = Vec::new();
    for m in &outcome.metrics.0 {
        match declared.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            _ => undeclared.push(format!("{} [{}]", m.name, m.unit)),
        }
    }
    outcome
        .checks
        .check("metrics.declared", undeclared.is_empty(), || {
            format!(
                "emitted but not declared in {section}: {}",
                undeclared.join(", ")
            )
        });
    let mut missing = Vec::new();
    let mut completed = Metrics::default();
    for (name, unit) in &declared {
        match outcome.metrics.get(name) {
            Some(m) => completed.0.push(m.clone()),
            None if trace => completed.push(name.clone(), 0.0, unit, Kind::Idle, None),
            None => missing.push(name.clone()),
        }
    }
    outcome
        .checks
        .check("metrics.all_emitted", missing.is_empty(), || {
            format!("not emitted: {}", missing.join(", "))
        });
    let non_finite: Vec<&str> = completed
        .0
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    outcome
        .checks
        .check("metrics.finite", non_finite.is_empty(), || {
            format!("non-finite: {}", non_finite.join(", "))
        });
    outcome.metrics = completed;
}
