//! The `cold_fleet` workload: an open-loop heterogeneous fleet.
//!
//! 8 device shards (RK3588/RK3576/RK3566 by `DeviceMix::heterogeneous_default`)
//! on up to 2 worker threads serve the 3-model `standard_multi` traffic at a
//! Poisson 0.1 rps per device with 60 s windowed metrics on; after the run
//! the benchmark merges the metrics and calls `slo::evaluate` and
//! `slo::openmetrics`.  Every dispatch switches models, so parameters are
//! restored through the paper's pipeline.
//!
//! Besides `fleet::run_fleet`, the benchmark runs the same shards by hand
//! through `WorkloadSpec::partition` and one `Server` per shard seeded with
//! `shard_seed(seed, i)`.  That keeps every request record for the output
//! checks and the exact SLO accounting, gives the traced run a span per
//! shard, and its digest must equal `run_fleet`'s.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use llm::ModelSpec;
use sim_core::{shard_seed, SimDuration};
use tz_hal::PlatformProfile;
use tzllm::fleet::{run_fleet, FleetConfig, FleetStats, ShardStats};
use tzllm::serving::{Server, ServingConfig};
use tzllm::slo::{self, SloConfig, SloTarget};
use workloads::{ArrivalProcess, DeviceMix, WorkloadSpec};

use crate::analyse::{self, Device};
use crate::metrics::Metrics;
use crate::trace::{self, SpanId, Tracer};
use crate::{
    host_cores, host_end_to_end, measure, overhead_pct, plan, setup_samples, Options, Outcome,
};

const SHARDS: usize = 8;
const MAX_THREADS: usize = 2;
const RATE_PER_DEVICE: f64 = 0.1;
const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];
const METRICS_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Per-device rates the SLO capacity search tries, around the knee.
const CAPACITY_LADDER: [f64; 5] = [0.05, 0.1, 0.15, 0.2, 0.3];

fn workload(requests: usize, rate_per_device: f64) -> WorkloadSpec {
    WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson {
            rate_per_sec: rate_per_device * SHARDS as f64,
        },
        requests,
        &MODELS,
    )
}

fn catalogue() -> Vec<ModelSpec> {
    MODELS
        .iter()
        .map(|m| ModelSpec::by_name(m).expect("a catalogue model"))
        .collect()
}

fn serving_config(profile: &PlatformProfile, metrics: bool) -> ServingConfig {
    let mut config = ServingConfig::paper_default(profile.clone());
    config.metrics = metrics.then_some(METRICS_WINDOW);
    config
}

fn fleet_config(threads: usize) -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        threads,
        mix: DeviceMix::heterogeneous_default(),
    }
}

/// The post-run steps and their results.
struct Post {
    digest: String,
    series: usize,
    burn_rate_peak: f64,
    exposition_lines: usize,
}

/// Digest, metrics merge, SLO evaluation and OpenMetrics exposition of a
/// finished fleet, each under its span.
fn finish(stats: &FleetStats, tracer: &Tracer, parent: Option<SpanId>) -> Post {
    let digest = tracer.span("fleet.digest", parent, |_| stats.digest());
    let merged = tracer.span("metrics.merged", parent, |_| stats.merged_metrics());
    let report = tracer.span("slo.evaluate", parent, |_| {
        slo::evaluate(
            &merged,
            &SloTarget::defaults_for(&merged),
            &SloConfig::default(),
        )
    });
    let exposition = tracer.span("slo.openmetrics", parent, |_| {
        slo::openmetrics(&merged, &report)
    });
    Post {
        digest,
        series: merged.series_count(),
        burn_rate_peak: report.peak_burn_rate(),
        exposition_lines: exposition.lines().count(),
    }
}

/// Set-up of shard `i`: its config, traffic generation, `Server::new` and
/// submit.  Returns the loaded server, its config and the requests
/// generated.
fn load_shard(
    part: &WorkloadSpec,
    i: usize,
    profile: &PlatformProfile,
    seed: u64,
    metrics: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (Server, ServingConfig, usize) {
    let config = serving_config(profile, metrics);
    let scripts = tracer.span("traffic.generate", parent, |_| {
        part.generate(shard_seed(seed, i as u64))
    });
    let generated = scripts.iter().map(|s| s.requests.len()).sum();
    let mut server = tracer.span("serving.new", parent, |_| {
        Server::new(config.clone(), catalogue())
    });
    tracer.span("serving.submit", parent, |_| {
        for script in scripts {
            server.submit_script(script);
        }
    });
    (server, config, generated)
}

/// Set-up alone, for every shard in turn.  Returns host seconds.
fn setup(spec: &WorkloadSpec, seed: u64) -> f64 {
    let start = Instant::now();
    let mix = DeviceMix::heterogeneous_default();
    let off = Tracer::off();
    let servers: Vec<(Server, ServingConfig, usize)> = spec
        .partition(SHARDS)
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let profile = mix.profile_for_shard(i as u64);
            load_shard(part, i, profile, seed, true, &off, None)
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    drop(servers);
    elapsed
}

/// Runs every shard by hand on up to `threads` workers, keeping each
/// shard's full report.  Returns the devices in shard order and their
/// shard stats.
fn run_shards(
    spec: &WorkloadSpec,
    seed: u64,
    threads: usize,
    metrics: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Shards {
    let parts = spec.partition(SHARDS);
    let mix = DeviceMix::heterogeneous_default();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Device, ShardStats, usize)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, SHARDS) {
            scope.spawn(|| loop {
                // The counter hands out shard indices; it publishes no data.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= SHARDS {
                    break;
                }
                let result = tracer.span("fleet.shard", parent, |shard| {
                    let profile = mix.profile_for_shard(i as u64);
                    let (server, config, generated) =
                        load_shard(&parts[i], i, profile, seed, metrics, tracer, shard);
                    let report = tracer.span("serving.run", shard, |_| server.run());
                    let stats = tracer.span("fleet.shard_stats", shard, |_| {
                        ShardStats::from_report(i as u32, profile.soc, &report)
                    });
                    (Device { config, report }, stats, generated)
                });
                done.lock()
                    .expect("a sibling shard worker panicked")
                    .push((i, result.0, result.1, result.2));
            });
        }
    });
    let mut done = done.into_inner().expect("shard workers joined");
    done.sort_by_key(|(i, _, _, _)| *i);
    let mut shards = Shards {
        devices: Vec::with_capacity(SHARDS),
        stats: Vec::with_capacity(SHARDS),
        generated: 0,
    };
    for (_, device, stats, generated) in done {
        shards.devices.push(device);
        shards.stats.push(stats);
        shards.generated += generated;
    }
    shards
}

/// Hand-run shards: full reports, mergeable stats, requests generated.
struct Shards {
    devices: Vec<Device>,
    stats: Vec<ShardStats>,
    generated: usize,
}

/// Share of `submitted` requests meeting both SLO limits, over hand-run
/// shards at `rate` per device.
fn attainment_at(rate: f64, requests: usize, seed: u64, threads: usize) -> f64 {
    let shards = run_shards(
        &workload(requests, rate),
        seed,
        threads,
        false,
        &Tracer::off(),
        None,
    );
    let met: usize = shards
        .devices
        .iter()
        .flat_map(|d| &d.report.records)
        .filter(|r| analyse::meets_slo(r))
        .count();
    met as f64 / requests as f64
}

/// One hand-run of every shard plus the post-run steps, under spans when
/// `tracer` records.
fn hand_run(
    spec: &WorkloadSpec,
    seed: u64,
    threads: usize,
    tracer: &Tracer,
) -> (Vec<Device>, FleetStats, usize, Post) {
    tracer.span("bench.iteration", None, |root| {
        let mut shards = tracer.span("fleet.run_shards", root, |id| {
            run_shards(spec, seed, threads, true, tracer, id)
        });
        let stats = tracer.span("fleet.from_shards", root, |_| {
            FleetStats::from_shards(std::mem::take(&mut shards.stats))
        });
        let post = finish(&stats, tracer, root);
        (shards.devices, stats, shards.generated, post)
    })
}

/// `run_fleet` over `spec`, with windowed metrics on or off.
fn fleet(spec: &WorkloadSpec, seed: u64, threads: usize, metrics: bool) -> FleetStats {
    run_fleet(spec, &catalogue(), seed, &fleet_config(threads), |p| {
        serving_config(p, metrics)
    })
}

/// Runs `cold_fleet`.
///
/// Untraced, the timed iterations are `run_fleet` + the post-run steps,
/// followed by one untimed hand-run for the output checks.  Traced, the
/// timed iterations alternate an untraced and a traced hand-run (the same
/// code, so their difference is the tracing overhead), followed by
/// `run_fleet` with metrics off and on, the SLO capacity ladder and the
/// plan replay.
pub fn run(opts: &Options) -> Outcome {
    let threads = host_cores().min(MAX_THREADS);
    let requests = opts.scaled(8_000, 2 * SHARDS);
    let spec = workload(requests, RATE_PER_DEVICE);
    let submitted = requests as u64;
    let mut out = Outcome {
        threads,
        attempted: submitted,
        ..Outcome::default()
    };
    let tracer = Tracer::on();
    let off = Tracer::off();

    let mut kept: Option<(Vec<Device>, FleetStats, usize)> = None;
    let samples = measure(opts.seconds, if opts.trace { 4 } else { 3 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        let start = Instant::now();
        let post = if opts.trace {
            let (devices, stats, generated, post) = hand_run(
                &spec,
                opts.seed,
                threads,
                if traced { &tracer } else { &off },
            );
            if traced && kept.is_none() {
                kept = Some((devices, stats, generated));
            }
            post
        } else {
            finish(&fleet(&spec, opts.seed, threads, true), &off, None)
        };
        (traced, start.elapsed().as_secs_f64(), post)
    });
    out.iterations = samples.len();
    out.digest = samples[0].2.digest.clone();
    out.checks.check(
        "iterations.same_digest",
        samples.iter().all(|s| s.2.digest == out.digest),
        || "an iteration's fleet digest differs from the first".to_string(),
    );
    out.checks.check(
        "slo.openmetrics_nonempty",
        samples.iter().all(|s| s.2.exposition_lines > 0),
        || "an OpenMetrics exposition was empty".to_string(),
    );

    // Metrics on against off on `run_fleet`, alternating (traced only).
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let mut fleet_digest = None;
    for i in 0..if opts.trace { 6 } else { 0 } {
        let metrics = i % 2 == 1;
        let start = Instant::now();
        let stats = tracer.span("fleet.run_fleet", None, |_| {
            fleet(&spec, opts.seed, threads, metrics)
        });
        if metrics { &mut on_s } else { &mut off_s }.push(start.elapsed().as_secs_f64());
        if metrics {
            fleet_digest = Some(stats.digest());
        }
    }
    let (devices, stats, generated) = kept.unwrap_or_else(|| {
        let (devices, stats, generated, _) = hand_run(&spec, opts.seed, threads, &off);
        (devices, stats, generated)
    });
    let run_fleet_digest = fleet_digest.unwrap_or_else(|| out.digest.clone());
    let hand_digest = stats.digest();
    out.checks.check(
        "fleet.hand_run_digest_matches_run_fleet",
        hand_digest == run_fleet_digest && hand_digest == out.digest,
        || "hand-run shards digest differently from run_fleet".to_string(),
    );
    out.checks.check(
        "traffic.generated_all",
        generated as u64 == submitted,
        || format!("generated {generated} of {submitted} requests"),
    );
    let (completed, failed) = analyse::check(&devices, submitted, &mut out.checks);
    out.failed = failed;

    let seconds = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.0 == traced)
            .map(|s| s.1)
            .collect()
    };
    if !opts.trace {
        analyse::end_to_end(&devices, submitted, &mut out.metrics, &mut out.checks);
        let setup_s = setup_samples(|| setup(&spec, opts.seed));
        host_end_to_end(
            &mut out.metrics,
            completed as f64,
            &seconds(false),
            &setup_s,
        );
        return out;
    }

    let capacity = CAPACITY_LADDER
        .iter()
        .copied()
        .filter(|&rate| {
            attainment_at(rate, opts.scaled(2_000, 2 * SHARDS), opts.seed, threads) >= 0.9
        })
        .fold(0.0, f64::max);
    let replay = plan::replay(&devices, 400, &tracer, None, &mut out.checks);

    out.spans = tracer.into_spans();
    let spans = &out.spans;
    let n = seconds(true).len() as f64;
    let m: &mut Metrics = &mut out.metrics;
    analyse::layers(&devices, submitted, m);
    analyse::host_layers(
        m,
        spans,
        seconds(true).len(),
        generated,
        stats.counter(|s| s.batch_steps) as f64,
        stats.counter(|s| s.plan_cache_misses) as f64,
        replay.build_us,
    );
    m.host(
        "fleet.run_s",
        trace::total_s(spans, "fleet.run_shards") / n,
        "s",
    );
    let shard_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "fleet.shard")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    let slowest: f64 = shard_s
        .chunks(SHARDS)
        .map(|c| c.iter().copied().fold(0.0, f64::max))
        .sum();
    m.host("fleet.shard_s_max", slowest / n, "s");
    m.host("fleet.shard_s_mean", analyse::mean(&shard_s), "s");
    m.host(
        "fleet.merge_s",
        trace::total_s(spans, "fleet.from_shards") / n,
        "s",
    );
    m.host(
        "fleet.digest_s",
        trace::total_s(spans, "fleet.digest") / n,
        "s",
    );
    for (soc, summary) in stats.ttft_ms_by_soc() {
        m.sim_n(
            format!("fleet.ttft_p50_s.{soc}"),
            summary.p50 / 1e3,
            "s",
            summary.count,
        );
    }
    let post = &samples[0].2;
    m.host(
        "metrics.merge_s",
        trace::total_s(spans, "metrics.merged") / n,
        "s",
    );
    m.sim("metrics.series", post.series as f64, "count");
    m.host("metrics.overhead_pct", overhead_pct(&on_s, &off_s), "%");
    m.host(
        "slo.evaluate_s",
        trace::total_s(spans, "slo.evaluate") / n,
        "s",
    );
    m.host(
        "slo.openmetrics_s",
        trace::total_s(spans, "slo.openmetrics") / n,
        "s",
    );
    m.sim("slo.burn_rate_peak", post.burn_rate_peak, "ratio");
    m.sim("slo.capacity_rps", capacity, "1/s");
    m.host(
        "trace.overhead_pct",
        overhead_pct(&seconds(true), &seconds(false)),
        "%",
    );
    out
}
