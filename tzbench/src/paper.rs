//! The `paper_grid` workload: the paper's single-request measurement.
//!
//! Every catalogue model × prompts sampled from UltraChat, PersonaChat and
//! DroidTask (drawn from the seed) × the four systems, each evaluated alone
//! through `tzllm::evaluate` — the Fig. 10 grid.  This is the only traffic
//! through `tzllm::baseline` and the one-request serving path behind
//! `system::evaluate_tzllm`.  The traced run also evaluates the fixed Fig. 9
//! and Fig. 11 cells to compare every figure against the paper's ranges.

use std::time::Instant;

use llm::ModelSpec;
use sim_core::stats::geomean;
use sim_core::{DetRng, SimDuration};
use tz_crypto::Sha256;
use tz_hal::PlatformProfile;
use tzllm::{evaluate, InferenceConfig, SystemKind};
use workloads::Benchmark;

use crate::analyse::{median, objective, percentiles};
use crate::trace::{SpanId, Tracer};
use crate::{host_end_to_end, measure, overhead_pct, setup_samples, Options, Outcome};

/// Systems in evaluation order; indexes the per-cell result arrays.
const SYSTEMS: [SystemKind; 4] = [
    SystemKind::TzLlm,
    SystemKind::Strawman,
    SystemKind::ReeLlmFlash,
    SystemKind::ReeLlmMemory,
];
const TAGS: [&str; 4] = ["tzllm", "strawman", "ree_flash", "ree_memory"];
const TZ: usize = 0;
const STRAW: usize = 1;
const FLASH: usize = 2;

/// The paper's reported ranges, in percent, as the figure binaries print
/// them: (metric, low, high).
const PAPER_RANGES: [(&str, f64, f64); 4] = [
    ("fig09_reduction_pp", 77.1, 91.1),
    ("fig10_reduction_pp", 76.1, 90.9),
    ("fig10_overhead_pp", 5.2, 28.3),
    ("fig11_speedup_pp", 0.9, 23.2),
];

/// One grid cell: a model, the benchmark its prompt came from, the config.
struct Cell {
    model: usize,
    benchmark: usize,
    config: InferenceConfig,
}

/// One system's result on one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Eval {
    ttft: SimDuration,
    decode_tps: f64,
}

fn profile() -> PlatformProfile {
    PlatformProfile::rk3588()
}

/// Set-up: sample `per_benchmark` prompts per (model, benchmark) from the
/// seed and build each cell's paper-default config.  Each prompt's output
/// length is drawn uniformly from ½ to 1½ times the benchmark's typical
/// output length: TZ-LLM decode is memory-bound, so every token of a model
/// takes the same time, and fixed output lengths would pin the latency
/// percentiles to a few values shared by every seed.
fn grid(seed: u64, per_benchmark: usize) -> Vec<Cell> {
    let mut rng = DetRng::new(seed);
    let mut cells = Vec::new();
    for (m, model) in ModelSpec::catalogue().into_iter().enumerate() {
        for (b, benchmark) in Benchmark::all().into_iter().enumerate() {
            for len in benchmark.sample_prompt_lengths(per_benchmark, &mut rng) {
                let typical = benchmark.output_len() as u64;
                let mut config = InferenceConfig::paper_default(model.clone(), len);
                config.output_len = rng.gen_range(typical / 2, typical * 3 / 2 + 1) as usize;
                cells.push(Cell {
                    model: m,
                    benchmark: b,
                    config,
                });
            }
        }
    }
    cells
}

/// Evaluates every system on every cell; also returns host microseconds
/// spent per system.
fn evaluate_grid(
    cells: &[Cell],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Vec<[Eval; 4]>, [f64; 4]) {
    let profile = profile();
    let mut host_us = [0.0; 4];
    let results = cells
        .iter()
        .map(|cell| {
            let mut row = [Eval {
                ttft: SimDuration::ZERO,
                decode_tps: 0.0,
            }; 4];
            for (s, system) in SYSTEMS.into_iter().enumerate() {
                let start = Instant::now();
                let report = tracer.span("paper.evaluate", parent, |_| {
                    evaluate(system, &profile, &cell.config)
                });
                host_us[s] += start.elapsed().as_secs_f64() * 1e6;
                row[s] = Eval {
                    ttft: report.ttft,
                    decode_tps: report.decode_tokens_per_sec,
                };
            }
            row
        })
        .collect();
    (results, host_us)
}

/// SHA-256 over every result's TTFT nanoseconds and decode-rate bits.
fn digest(results: &[[Eval; 4]]) -> String {
    let mut hasher = Sha256::new();
    for row in results {
        for e in row {
            hasher.update(&e.ttft.as_nanos().to_le_bytes());
            hasher.update(&e.decode_tps.to_bits().to_le_bytes());
        }
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// `1 - geomean(tz / other)` over TTFTs, percent.
fn reduction_pct(rows: &[&[Eval; 4]], other: usize) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r[TZ].ttft.as_secs_f64() / r[other].ttft.as_secs_f64())
        .collect();
    (1.0 - geomean(&ratios).unwrap_or(1.0)) * 100.0
}

/// `geomean(tz_tps / straw_tps) - 1`, percent.
fn decode_speedup_pct(rows: &[&[Eval; 4]]) -> f64 {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r[TZ].decode_tps / r[STRAW].decode_tps)
        .collect();
    (geomean(&ratios).unwrap_or(1.0) - 1.0) * 100.0
}

/// Percentage points by which `value` lies outside `[low, high]`.
fn outside(value: f64, low: f64, high: f64) -> f64 {
    (low - value).max(value - high).max(0.0)
}

/// The worst distance outside the paper's range over each figure's cells.
fn paper_errors(cells: &[Cell], results: &[[Eval; 4]]) -> [f64; 4] {
    let profile = profile();
    let catalogue = ModelSpec::catalogue();
    let eval_all = |model: &ModelSpec, len: usize| -> [Eval; 4] {
        let config = InferenceConfig::paper_default(model.clone(), len);
        SYSTEMS.map(|system| {
            let r = evaluate(system, &profile, &config);
            Eval {
                ttft: r.ttft,
                decode_tps: r.decode_tokens_per_sec,
            }
        })
    };
    let mut worst = [0.0f64; 4];
    let mut note = |i: usize, value: f64| {
        let (_, low, high) = PAPER_RANGES[i];
        worst[i] = worst[i].max(outside(value, low, high));
    };
    for model in &catalogue {
        for len in [32, 128, 512] {
            let row = eval_all(model, len);
            note(0, reduction_pct(&[&row], STRAW));
        }
        let row = eval_all(model, 128);
        note(3, decode_speedup_pct(&[&row]));
    }
    for m in 0..catalogue.len() {
        for b in 0..Benchmark::all().len() {
            let rows: Vec<&[Eval; 4]> = cells
                .iter()
                .zip(results)
                .filter(|(c, _)| c.model == m && c.benchmark == b)
                .map(|(_, r)| r)
                .collect();
            note(1, reduction_pct(&rows, STRAW));
            note(2, -reduction_pct(&rows, FLASH));
        }
    }
    worst
}

/// Runs `paper_grid`.
pub fn run(opts: &Options) -> Outcome {
    let per_benchmark = opts.scaled(150, 1);
    let tracer = Tracer::on();
    let off = Tracer::off();
    let mut first: Option<(Vec<Cell>, Vec<[Eval; 4]>)> = None;
    let samples = measure(opts.seconds, if opts.trace { 4 } else { 3 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        let start = Instant::now();
        let cells = grid(opts.seed, per_benchmark);
        let setup_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (results, host_us) = if traced {
            tracer.span("bench.iteration", None, |root| {
                evaluate_grid(&cells, &tracer, root)
            })
        } else {
            evaluate_grid(&cells, &off, None)
        };
        let run_s = start.elapsed().as_secs_f64();
        let digest = digest(&results);
        if first.is_none() {
            first = Some((cells, results));
        }
        (traced, setup_s, run_s, digest, host_us)
    });
    let (cells, results) = first.expect("at least one iteration");
    let evaluations = (results.len() * SYSTEMS.len()) as u64;
    let mut out = Outcome {
        attempted: evaluations,
        threads: 1,
        iterations: samples.len(),
        digest: samples[0].3.clone(),
        ..Outcome::default()
    };
    out.checks.check(
        "iterations.same_digest",
        samples.iter().all(|s| s.3 == out.digest),
        || "an iteration's evaluations differ from the first".to_string(),
    );
    let bad = results
        .iter()
        .flatten()
        .filter(|e| {
            e.ttft == SimDuration::ZERO || !(e.decode_tps.is_finite() && e.decode_tps > 0.0)
        })
        .count();
    out.checks.check("paper.results_positive", bad == 0, || {
        format!("{bad} evaluations with a zero TTFT or a bad decode rate")
    });
    let slower = results
        .iter()
        .filter(|r| r[TZ].ttft >= r[STRAW].ttft)
        .count();
    out.checks
        .check("paper.tzllm_beats_strawman_ttft", slower == 0, || {
            format!("{slower} cells where TZ-LLM is not faster than the strawman")
        });

    let (untraced, traced): (Vec<_>, Vec<_>) = samples.iter().partition(|s| !s.0);
    if !opts.trace {
        // One request at a time on one device: each takes its TTFT plus its
        // decode.
        let tz: Vec<(f64, f64, f64)> = cells
            .iter()
            .zip(&results)
            .map(|(c, r)| {
                let ttft = r[TZ].ttft.as_secs_f64();
                let decode = c.config.output_len as f64 / r[TZ].decode_tps;
                (ttft, ttft + decode, 1.0 / r[TZ].decode_tps)
            })
            .collect();
        let ttft: Vec<f64> = tz.iter().map(|t| t.0).collect();
        let latency: Vec<f64> = tz.iter().map(|t| t.1).collect();
        let m = &mut out.metrics;
        percentiles(m, &mut out.checks, "ttft", &ttft, "s");
        percentiles(m, &mut out.checks, "latency", &latency, "s");
        m.sim(
            "throughput_rps",
            tz.len() as f64 / latency.iter().sum::<f64>(),
            "1/s",
        );
        let ttft_limit = objective("ttft_cold").as_secs_f64();
        let tbt_limit = objective("tbt").as_secs_f64();
        let met = tz
            .iter()
            .filter(|&&(ttft, _, tbt)| ttft <= ttft_limit && tbt <= tbt_limit)
            .count();
        m.sim_n(
            "slo_attainment",
            met as f64 / tz.len() as f64,
            "ratio",
            tz.len(),
        );
        let run_s: Vec<f64> = untraced.iter().map(|s| s.2).collect();
        let setup_s = setup_samples(|| {
            let start = Instant::now();
            let cells = std::hint::black_box(grid(opts.seed, per_benchmark));
            let elapsed = start.elapsed().as_secs_f64();
            drop(cells);
            elapsed
        });
        host_end_to_end(m, evaluations as f64, &run_s, &setup_s);
        return out;
    }

    let errors = paper_errors(&cells, &results);
    out.spans = tracer.into_spans();
    let m = &mut out.metrics;
    let rows: Vec<&[Eval; 4]> = results.iter().collect();
    for (s, tag) in TAGS.iter().enumerate() {
        let per_call: Vec<f64> = traced
            .iter()
            .map(|t| t.4[s] / results.len() as f64)
            .collect();
        m.host(format!("paper.eval_us.{tag}"), median(&per_call), "us");
        let ttft: Vec<f64> = results.iter().map(|r| r[s].ttft.as_secs_f64()).collect();
        m.sim_n(
            format!("paper.ttft_s_geomean.{tag}"),
            geomean(&ttft).unwrap_or(0.0),
            "s",
            ttft.len(),
        );
    }
    m.sim(
        "paper.ttft_reduction_vs_strawman_pct",
        reduction_pct(&rows, STRAW),
        "%",
    );
    m.sim(
        "paper.decode_speedup_vs_strawman_pct",
        decode_speedup_pct(&rows),
        "%",
    );
    m.sim(
        "paper.overhead_vs_ree_flash_pct",
        -reduction_pct(&rows, FLASH),
        "%",
    );
    for (i, (name, _, _)) in PAPER_RANGES.iter().enumerate() {
        m.sim(format!("paper.err.{name}"), errors[i], "pp");
    }
    let total = |v: &[&(bool, f64, f64, String, [f64; 4])]| -> Vec<f64> {
        v.iter().map(|s| s.1 + s.2).collect()
    };
    m.host(
        "trace.overhead_pct",
        overhead_pct(&total(&traced), &total(&untraced)),
        "%",
    );
    out
}
