//! Replays the dispatch plans a serving run built, to time plan building
//! from outside the serving layer.
//!
//! A plan-cache miss at dispatch builds the prefill graph, extends it into a
//! [`RestorePlan`] and simulates the pipeline schedule.  This module rebuilds
//! the same plans through the same public calls for a sample of the run's
//! distinct dispatch keys, checks each replay reproduces the makespan and
//! restored bytes the run recorded, and reports the mean build time.

use std::collections::BTreeMap;
use std::time::Instant;

use llm::{ComputationGraph, CostModel, ModelSpec};
use sim_core::SimDuration;
use tzllm::pipeline::{simulate, PipelineConfig};
use tzllm::restore::{RestorePlan, RestoreRates};
use tzllm::system::cma_occupancy;

use crate::analyse::Device;
use crate::trace::{SpanId, Tracer};
use crate::Checks;

/// Everything a dispatch plan depends on, as the serving layer keys it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    device: usize,
    model: String,
    prompt_len: usize,
    reused_prefix: usize,
    cached_bytes: u64,
}

/// What the run recorded for a key.
#[derive(Debug, Clone, Copy)]
struct Recorded {
    pipeline: SimDuration,
    restored_bytes: u64,
}

/// Plans built, untimed, before the timed replay.
const WARM_UP: usize = 20;

/// Result of a replay.
pub struct Replay {
    /// Plans rebuilt.
    pub builds: usize,
    /// Mean host microseconds per rebuilt plan.
    pub build_us: f64,
}

/// Rebuilds at most `cap` of the run's distinct dispatch plans, spread
/// evenly over the sorted key set, under a `plan.replay` span.
pub fn replay(
    devices: &[Device],
    cap: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
    checks: &mut Checks,
) -> Replay {
    let mut keys: BTreeMap<Key, Recorded> = BTreeMap::new();
    let mut specs: BTreeMap<String, (ModelSpec, u64)> = BTreeMap::new();
    for (device, d) in devices.iter().enumerate() {
        for r in &d.report.records {
            let (_, total) = specs.entry(r.request.model.clone()).or_insert_with(|| {
                let spec = ModelSpec::by_name(&r.request.model).expect("a catalogue model");
                let total = ComputationGraph::prefill(&spec, 1).total_param_bytes();
                (spec, total)
            });
            let cached = (*total as f64 * r.cached_fraction.clamp(0.0, 1.0)) as u64;
            keys.entry(Key {
                device,
                model: r.request.model.clone(),
                prompt_len: r.request.prompt_len,
                reused_prefix: r.kv_reused_tokens,
                cached_bytes: cached,
            })
            .or_insert(Recorded {
                pipeline: r.report.breakdown.pipeline,
                restored_bytes: r.report.restored_bytes,
            });
        }
    }
    let stride = keys.len().div_ceil(cap.max(1)).max(1);
    let sample: Vec<(&Key, &Recorded)> = keys.iter().step_by(stride).collect();
    let cost = CostModel::rk3588();
    let build = |key: &Key| {
        let config = &devices[key.device].config;
        let profile = &config.profile;
        let spec = &specs[&key.model].0;
        let new_tokens = key.prompt_len.saturating_sub(key.reused_prefix).max(1);
        let graph = ComputationGraph::prefill_suffix(spec, new_tokens, key.prompt_len);
        let rates = RestoreRates::from_profile(
            profile,
            cma_occupancy(spec, config.memory_pressure),
            profile.cma_migration_threads,
        );
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let plan = RestorePlan::build(&graph, |i| times[i], &rates, key.cached_bytes);
        let result = simulate(
            &plan,
            &PipelineConfig {
                cpu_cores: profile.big_cores,
                preempt_quantum: SimDuration::from_millis(2),
                policy: config.policy,
                record_trace: false,
            },
        );
        (result.makespan, plan.restored_bytes)
    };
    // An untimed warm-up pass, so first-touch allocation is not billed to
    // the builds.
    for &(key, _) in sample.iter().take(WARM_UP) {
        std::hint::black_box(build(key));
    }
    let mut mismatched = 0usize;
    let start = Instant::now();
    tracer.span("plan.replay", parent, |_| {
        for &(key, recorded) in &sample {
            let (makespan, restored) = build(key);
            if makespan != recorded.pipeline || restored != recorded.restored_bytes {
                mismatched += 1;
            }
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    checks.check("plan.replay_matches_run", mismatched == 0, || {
        format!(
            "{mismatched} of {} replayed plans differ from the run",
            sample.len()
        )
    });
    Replay {
        builds: sample.len(),
        build_us: if sample.is_empty() {
            0.0
        } else {
            elapsed * 1e6 / sample.len() as f64
        },
    }
}
