//! Simulated metrics and output checks over finished serving reports.
//!
//! Every number here is read from the public [`ServingReport`] of one or
//! more devices (`fleet`, `records[].report`, `resources`) plus
//! [`tzllm::critical_path_report`], so it is deterministic for a seed.

use std::collections::BTreeMap;

use sim_core::stats::percentile;
use sim_core::{SimDuration, MIB};
use tzllm::fleet::{FleetStats, ShardStats};
use tzllm::serving::{RequestRecord, ServingConfig, ServingReport};
use tzllm::slo::DEFAULT_OBJECTIVES;
use tzllm::telemetry::lifecycle_segments;

use crate::metrics::Metrics;
use crate::trace::{total_s, Span};
use crate::Checks;

/// One simulated device: its configuration and its finished report.
pub struct Device {
    /// The configuration the device ran.
    pub config: ServingConfig,
    /// What it produced.
    pub report: ServingReport,
}

/// The `permille` quantile of `values`, reported only when at least ten
/// samples lie beyond it.
pub fn tail(values: &[f64], permille: u32) -> Option<f64> {
    let beyond = values.len() as u64 * u64::from(1000 - permille);
    if values.is_empty() || beyond < 10_000 {
        return None;
    }
    percentile(values, f64::from(permille) / 10.0)
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    sim_core::stats::mean(values).unwrap_or(0.0)
}

/// The per-request mean inter-token gap, as `tzllm::slo` records `tbt`:
/// the decode time divided by the output gaps, in integer nanoseconds.
pub fn tbt(record: &RequestRecord) -> Option<SimDuration> {
    let gaps = record
        .request
        .output_len
        .checked_sub(1)
        .filter(|&g| g > 0)?;
    let decode_ns = record
        .completed
        .saturating_since(record.first_token)
        .as_nanos();
    Some(SimDuration::from_nanos(decode_ns / gaps as u64))
}

/// The latency limit [`DEFAULT_OBJECTIVES`] sets for `metric`.
pub fn objective(metric: &str) -> SimDuration {
    DEFAULT_OBJECTIVES
        .iter()
        .find(|(m, _, _)| *m == metric)
        .map(|&(_, threshold, _)| threshold)
        .expect("a default objective")
}

/// Whether `record` met its TTFT limit (cold or follow-up) and the TBT
/// limit of [`DEFAULT_OBJECTIVES`].
pub fn meets_slo(record: &RequestRecord) -> bool {
    let ttft_limit = if record.request.shared_prefix_len == 0 {
        objective("ttft_cold")
    } else {
        objective("ttft_followup")
    };
    record.ttft_e2e() <= ttft_limit && tbt(record).is_none_or(|t| t <= objective("tbt"))
}

/// The canonical digest of the devices' simulated results:
/// [`ShardStats::from_report`] per device, merged with
/// [`FleetStats::from_shards`].
pub fn digest(devices: &[Device]) -> String {
    FleetStats::from_shards(
        devices
            .iter()
            .enumerate()
            .map(|(i, d)| ShardStats::from_report(i as u32, d.config.profile.soc, &d.report)),
    )
    .digest()
}

/// Output checks on every device: records match the counters, lanes stay
/// within capacity, lifecycle segments tile every TTFT, and requests are
/// conserved (completed + rejected ≤ submitted; the rest never finished).
/// Returns (completed, failed), failed being rejected + unfinished.
pub fn check(devices: &[Device], submitted: u64, checks: &mut Checks) -> (u64, u64) {
    let (mut completed, mut rejected) = (0u64, 0u64);
    for (i, d) in devices.iter().enumerate() {
        let r = &d.report;
        checks.check(
            &format!("device{i}.records_match_counters"),
            r.records.len() == r.fleet.completed && r.rejected.len() == r.fleet.rejected,
            || {
                format!(
                    "{} records vs {} completed, {} rejected vs {}",
                    r.records.len(),
                    r.fleet.completed,
                    r.rejected.len(),
                    r.fleet.rejected
                )
            },
        );
        for lane in &r.resources {
            checks.check(
                &format!("device{i}.lane_{}_within_capacity", lane.name),
                lane.peak_in_use <= lane.capacity,
                || format!("peak {} > capacity {}", lane.peak_in_use, lane.capacity),
            );
        }
        let untiled = r
            .records
            .iter()
            .filter(|rec| {
                lifecycle_segments(rec)
                    .iter()
                    .map(|&(_, d)| d)
                    .sum::<SimDuration>()
                    != rec.ttft_e2e()
            })
            .count();
        checks.check(
            &format!("device{i}.lifecycle_tiles_ttft"),
            untiled == 0,
            || format!("{untiled} records whose segments do not sum to their TTFT"),
        );
        completed += r.fleet.completed as u64;
        rejected += r.fleet.rejected as u64;
    }
    checks.check(
        "requests.conserved",
        completed + rejected <= submitted,
        || format!("{completed} completed + {rejected} rejected > {submitted} submitted"),
    );
    (completed, submitted.saturating_sub(completed))
}

/// Adds the p50 and p99 of `values` as `<name>_p50_<unit>` and
/// `<name>_p99_<unit>`, with their sample count; a percentile without ten
/// samples beyond it fails `checks`.
pub fn percentiles(
    metrics: &mut Metrics,
    checks: &mut Checks,
    name: &str,
    values: &[f64],
    unit: &'static str,
) {
    for (q, permille) in [("p50", 500), ("p99", 990)] {
        let metric = format!("{name}_{q}_{unit}");
        let value = tail(values, permille);
        checks.check(
            &format!("{metric}.has_tail_samples"),
            value.is_some(),
            || format!("only {} samples", values.len()),
        );
        metrics.sim_n(metric, value.unwrap_or(0.0), unit, values.len());
    }
}

/// The end-to-end simulated metrics of a serving workload: TTFT and
/// request latency (arrival to last token) percentiles, throughput, and
/// SLO attainment over the submitted requests.
pub fn end_to_end(devices: &[Device], submitted: u64, e2e: &mut Metrics, checks: &mut Checks) {
    let records: Vec<&RequestRecord> = devices.iter().flat_map(|d| &d.report.records).collect();
    let ttft: Vec<f64> = records.iter().map(|r| r.ttft_e2e().as_secs_f64()).collect();
    let latency: Vec<f64> = records
        .iter()
        .map(|r| r.completed.saturating_since(r.arrival).as_secs_f64())
        .collect();
    percentiles(e2e, checks, "ttft", &ttft, "s");
    percentiles(e2e, checks, "latency", &latency, "s");
    let throughput: f64 = devices.iter().map(|d| d.report.fleet.throughput_rps).sum();
    e2e.sim("throughput_rps", throughput, "1/s");
    let met = records.iter().filter(|r| meets_slo(r)).count();
    e2e.sim_n(
        "slo_attainment",
        met as f64 / submitted.max(1) as f64,
        "ratio",
        submitted as usize,
    );
}

/// Mean of `f` over devices, weighted by completed requests.
fn weighted(devices: &[Device], f: impl Fn(&tzllm::FleetStats) -> f64) -> f64 {
    let total: usize = devices.iter().map(|d| d.report.fleet.completed).sum();
    if total == 0 {
        return 0.0;
    }
    devices
        .iter()
        .map(|d| f(&d.report.fleet) * d.report.fleet.completed as f64)
        .sum::<f64>()
        / total as f64
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(devices: &[Device], f: impl Fn(&tzllm::FleetStats) -> u64) -> f64 {
    devices.iter().map(|d| f(&d.report.fleet)).sum::<u64>() as f64
}

/// Adds the `permille` quantile of `values` as `name`, or 0 when fewer than
/// ten samples lie beyond it; the sample count is stated either way.
fn layer_tail(layers: &mut Metrics, name: &str, values: &[f64], permille: u32, unit: &'static str) {
    layers.sim_n(
        name,
        tail(values, permille).unwrap_or(0.0),
        unit,
        values.len(),
    );
}

/// The simulated per-layer metrics of a serving workload: step loop,
/// speculation, plan cache, restoration stages and critical paths, KV.
pub fn layers(devices: &[Device], submitted: u64, layers: &mut Metrics) {
    let records: Vec<&RequestRecord> = devices.iter().flat_map(|d| &d.report.records).collect();
    let completed = records.len() as u64;
    layers.sim_n(
        "serving.failed_frac",
        ratio(submitted.saturating_sub(completed) as f64, submitted as f64),
        "ratio",
        submitted as usize,
    );

    // The batched step loop.
    let steps = sum(devices, |f| f.batch_steps);
    layers.sim("serving.batch_steps", steps, "count");
    let occupancy = ratio(
        devices
            .iter()
            .map(|d| d.report.fleet.mean_batch_occupancy * d.report.fleet.batch_steps as f64)
            .sum(),
        steps,
    );
    layers.sim("serving.batch_occupancy_mean", occupancy, "seqs");
    let tbt_ms: Vec<f64> = records
        .iter()
        .filter_map(|r| tbt(r))
        .map(|t| t.as_millis_f64())
        .collect();
    layer_tail(layers, "serving.tbt_p50_ms", &tbt_ms, 500, "ms");
    layer_tail(layers, "serving.tbt_p99_ms", &tbt_ms, 990, "ms");
    let wait: Vec<f64> = records
        .iter()
        .map(|r| r.queue_wait().as_secs_f64())
        .collect();
    layer_tail(layers, "serving.queue_wait_p50_s", &wait, 500, "s");
    layer_tail(layers, "serving.queue_wait_p99_s", &wait, 990, "s");
    let depth = devices.iter().map(|d| d.report.fleet.max_queue_depth).max();
    layers.sim(
        "serving.queue_depth_max",
        depth.unwrap_or(0) as f64,
        "count",
    );
    let n = devices.len().max(1) as f64;
    let util = |f: fn(&tzllm::FleetStats) -> f64| {
        devices.iter().map(|d| f(&d.report.fleet)).sum::<f64>() / n
    };
    layers.sim("serving.npu_util", util(|f| f.npu_utilisation), "ratio");
    layers.sim("serving.flash_util", util(|f| f.flash_utilisation), "ratio");
    layers.sim(
        "serving.decode_stall_ms_mean",
        weighted(devices, |f| f.mean_decode_stall_ms),
        "ms",
    );
    layers.sim(
        "serving.prefill_stall_ms_mean",
        weighted(devices, |f| f.mean_prefill_stall_ms),
        "ms",
    );

    // Speculation.
    let proposed = sum(devices, |f| f.spec_proposed_tokens);
    let accepted = sum(devices, |f| f.spec_accepted_tokens);
    layers.sim("spec.accept_rate", ratio(accepted, proposed), "ratio");
    layers.sim(
        "spec.draft_overhead",
        weighted(devices, |f| f.spec_draft_overhead),
        "ratio",
    );
    layers.sim(
        "spec.tokens_per_step",
        weighted(devices, |f| f.spec_mean_emitted_per_step),
        "tokens",
    );

    // The dispatch plan cache.
    let hits = sum(devices, |f| f.plan_cache_hits);
    let misses = sum(devices, |f| f.plan_cache_misses);
    layers.sim("plan.lookups", hits + misses, "count");
    layers.sim("plan.misses", misses, "count");
    layers.sim("plan.hit_ratio", ratio(hits, hits + misses), "ratio");

    // The restoration pipeline, per cold dispatch (one that restored
    // parameters).
    let cold: Vec<&&RequestRecord> = records
        .iter()
        .filter(|r| r.report.restored_bytes > 0)
        .collect();
    let stage = |f: fn(&RequestRecord) -> SimDuration| -> Vec<f64> {
        cold.iter().map(|r| f(r).as_millis_f64()).collect()
    };
    for (name, values) in [
        ("init", stage(|r| r.report.breakdown.framework_init)),
        ("alloc", stage(|r| r.report.breakdown.working_alloc)),
        ("pipeline", stage(|r| r.report.breakdown.pipeline)),
        ("npu_switch", stage(|r| r.report.breakdown.npu_overhead)),
        ("kv_unseal", stage(|r| r.report.breakdown.kv_restore)),
    ] {
        layer_tail(layers, &format!("stage.{name}_ms_p50"), &values, 500, "ms");
        layer_tail(layers, &format!("stage.{name}_ms_p99"), &values, 990, "ms");
    }
    for (name, values) in [
        ("io", stage(|r| r.report.critical_paths.io)),
        ("cpu", stage(|r| r.report.critical_paths.cpu)),
        ("compute", stage(|r| r.report.critical_paths.compute)),
    ] {
        layer_tail(
            layers,
            &format!("restore.{name}_path_ms_p50"),
            &values,
            500,
            "ms",
        );
    }
    let pipeline: f64 = stage(|r| r.report.breakdown.pipeline).iter().sum();
    let bound: f64 = stage(|r| r.report.critical_paths.lower_bound())
        .iter()
        .sum();
    layers.sim_n(
        "restore.gap_to_bound_pct",
        ratio(pipeline - bound, bound) * 100.0,
        "%",
        cold.len(),
    );
    let restored: f64 = cold.iter().map(|r| r.report.restored_bytes as f64).sum();
    layers.sim_n(
        "restore.restored_mib_mean",
        ratio(restored, cold.len() as f64) / MIB as f64,
        "MiB",
        cold.len(),
    );
    layers.sim_n(
        "restore.cached_fraction_mean",
        ratio(
            records.iter().map(|r| r.cached_fraction).sum(),
            completed as f64,
        ),
        "ratio",
        records.len(),
    );
    layers.sim(
        "restore.cold_starts",
        sum(devices, |f| f.cold_starts as u64),
        "count",
    );
    layers.sim(
        "restore.ahead_mib",
        sum(devices, |f| f.restore_ahead_bytes) / MIB as f64,
        "MiB",
    );

    // Critical-path attribution of cold TTFT to lanes.
    let mut lane_totals: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut total, mut attributed) = (0.0, 0.0);
    for d in devices {
        let cp = tzllm::critical_path_report(&d.report);
        for (lane, t) in &cp.lane_totals {
            *lane_totals.entry(lane).or_default() += t.as_secs_f64();
        }
        total += cp.total_ttft.as_secs_f64();
        attributed += cp.total_attributed.as_secs_f64();
    }
    for lane in ["flash", "decrypt", "npu", "init", "alloc"] {
        let share = lane_totals.get(lane).copied().unwrap_or(0.0);
        layers.sim(format!("cp.share.{lane}"), ratio(share, total), "ratio");
    }
    layers.sim("cp.attributed_pct", ratio(attributed, total) * 100.0, "%");

    // The secure KV cache.
    layers.sim("kv.hit_rate", weighted(devices, |f| f.kv_hit_rate), "ratio");
    layers.sim(
        "kv.shared_hit_rate",
        weighted(devices, |f| f.kv_shared_hit_rate),
        "ratio",
    );
    layers.sim(
        "kv.reused_tokens",
        sum(devices, |f| f.kv_reused_tokens),
        "tokens",
    );
    for (name, value) in [
        ("kv.spilled_mib", sum(devices, |f| f.kv_spilled_bytes)),
        ("kv.unsealed_mib", sum(devices, |f| f.kv_unsealed_bytes)),
        (
            "kv.restore_ahead_mib",
            sum(devices, |f| f.kv_restore_ahead_bytes),
        ),
        ("kv.dropped_mib", sum(devices, |f| f.kv_dropped_bytes)),
        ("kv.deduped_mib", sum(devices, |f| f.kv_deduped_bytes)),
    ] {
        layers.sim(name, value / MIB as f64, "MiB");
    }
    layers.sim(
        "kv.peak_sealed_pages",
        devices
            .iter()
            .map(|d| d.report.fleet.kv_peak_sealed_pages)
            .max()
            .unwrap_or(0) as f64,
        "pages",
    );
    let followup: Vec<f64> = records
        .iter()
        .filter(|r| r.request.shared_prefix_len > 0)
        .map(|r| r.ttft_e2e().as_secs_f64())
        .collect();
    layer_tail(layers, "kv.followup_ttft_p50_s", &followup, 500, "s");
    layer_tail(layers, "kv.followup_ttft_p99_s", &followup, 990, "s");
}

/// The host-side serving metrics of a traced run, per traced iteration:
/// traffic generation and step-loop time from the spans, host time per
/// batched step, and the share of the step loop spent building plans
/// (misses × the replayed mean build time).
pub fn host_layers(
    layers: &mut Metrics,
    spans: &[Span],
    traced: usize,
    generated: usize,
    batch_steps: f64,
    plan_misses: f64,
    build_us: f64,
) {
    let n = traced as f64;
    layers.sim("traffic.requests", generated as f64, "count");
    layers.host(
        "traffic.generate_s",
        total_s(spans, "traffic.generate") / n,
        "s",
    );
    let run_s = total_s(spans, "serving.run") / n;
    layers.host("serving.run_s", run_s, "s");
    layers.host(
        "serving.host_us_per_step",
        ratio(run_s * 1e6, batch_steps),
        "us",
    );
    layers.host("plan.build_us", build_us, "us");
    layers.host(
        "plan.host_share",
        ratio(plan_misses * build_us, run_s * 1e6),
        "ratio",
    );
}
