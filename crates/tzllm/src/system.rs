//! End-to-end TZ-LLM inference evaluation.
//!
//! Assembles the pieces — checkpoint restore, secure-memory scaling costs,
//! pipelined restoration, NPU co-driver overhead, decoding — into the
//! per-request metrics the paper reports: time-to-first-token (TTFT) and
//! decoding speed, with a breakdown of where the time went.

use std::collections::HashMap;

use sim_core::SimDuration;
use tz_hal::PlatformProfile;

use llm::{ComputationGraph, CostModel, Device, ModelSpec};

use crate::cache::CacheController;
use crate::pipeline::{simulate, PipelineConfig, Policy};
use crate::restore::{CriticalPaths, RestorePlan, RestoreRates};

/// Configuration of one evaluated inference request.
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// The model.
    pub model: ModelSpec,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to generate (for decode-speed reporting).
    pub output_len: usize,
    /// REE memory pressure in bytes (drives CMA migration cost).
    pub memory_pressure: u64,
    /// Fraction of the parameters already cached in secure memory (§7.2.3).
    pub cached_fraction: f64,
    /// Pipeline scheduling policy (for the Figure 13 ablations).
    pub policy: Policy,
    /// Whether the framework-state checkpoint exists (TZ-LLM) or a full cold
    /// initialisation is required.
    pub use_checkpoint: bool,
}

impl InferenceConfig {
    /// A default configuration matching the paper's worst-case setup for the
    /// given model: cold cache, per-model memory pressure (13/11/10/6 GB for
    /// the four catalogue models), preemptive scheduling, checkpoint present.
    pub fn paper_default(model: ModelSpec, prompt_len: usize) -> Self {
        let pressure_gib: u64 = match model.name.as_str() {
            "tinyllama-1.1b" => 13,
            "qwen2.5-3b" => 11,
            "phi-3-3.8b" => 10,
            "llama-3-8b" => 6,
            _ => 8,
        };
        InferenceConfig {
            model,
            prompt_len,
            output_len: 64,
            memory_pressure: pressure_gib * sim_core::GIB,
            cached_fraction: 0.0,
            policy: Policy::PriorityPreemptive,
            use_checkpoint: true,
        }
    }
}

/// Where the TTFT of one request went.
#[derive(Debug, Clone, Copy, Default)]
pub struct TtftBreakdown {
    /// Framework initialisation (cold init or checkpoint restore).
    pub framework_init: SimDuration,
    /// KV-cache and activation allocation in the working region.
    pub working_alloc: SimDuration,
    /// The restoration + prefill pipeline makespan.
    pub pipeline: SimDuration,
    /// NPU world-switch overhead attributable to the prefill.
    pub npu_overhead: SimDuration,
    /// KV-prefix unsealing time *not* hidden behind the pipeline: sealed KV
    /// pages decrypt on the CPU while the (shorter) prefill computes on the
    /// NPU, so only the excess beyond the NPU-busy window surfaces in TTFT.
    pub kv_restore: SimDuration,
}

impl TtftBreakdown {
    /// The total TTFT.
    pub fn total(&self) -> SimDuration {
        self.framework_init
            + self.working_alloc
            + self.pipeline
            + self.npu_overhead
            + self.kv_restore
    }
}

/// The outcome of evaluating one inference request on one system.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Time to first token.
    pub ttft: SimDuration,
    /// Decoding speed in tokens per second.
    pub decode_tokens_per_sec: f64,
    /// TTFT breakdown.
    pub breakdown: TtftBreakdown,
    /// CPU time spent on restoration (allocation migration + decryption),
    /// which is what interferes with concurrent REE applications (Figure 16).
    pub restoration_cpu: SimDuration,
    /// The three candidate critical paths of the pipeline (Figure 12).
    pub critical_paths: CriticalPaths,
    /// NPU busy time inside the prefill pipeline — the slice of the TTFT
    /// during which the NPU is genuinely occupied (the serving dispatcher
    /// pauses concurrent decodes only for this window plus the world-switch
    /// overhead).
    pub npu_busy: SimDuration,
    /// Parameter bytes this request had to restore from flash (zero for a
    /// fully cached dispatch); the serving dispatcher uses this to decide
    /// whether the request occupies the flash/decrypt lanes.
    pub restored_bytes: u64,
}

impl InferenceReport {
    /// The exclusive NPU hold at the tail of the TTFT: the prefill's NPU
    /// busy time plus its world-switch overhead.  What precedes it is the
    /// pre-NPU window that framework init, working allocation, KV unseal
    /// and the rest of the restoration pipeline fill.
    pub fn npu_hold(&self) -> SimDuration {
        let hold = self.npu_busy + self.breakdown.npu_overhead;
        // The NPU is one server inside the pipeline, so the makespan covers
        // its busy time, and the TTFT covers the makespan and the overhead.
        debug_assert!(hold <= self.ttft, "the NPU hold exceeds the TTFT");
        hold
    }
}

/// Memoises the expensive middle of the crate-internal `evaluate_service`
/// step: building the prefill graph, extending it into a [`RestorePlan`]
/// (hundreds of operators) and simulating the pipeline schedule.
///
/// The result is fully determined by `(model, prompt_len, cached_bytes,
/// output_len, memory pressure, policy)`, all of which recur heavily in
/// serving sweeps — prompt lengths are drawn from a few hundred distinct
/// benchmark values and cache states cluster on the retention policy's
/// targets — so a dispatch is usually a lookup instead of a fresh
/// simulation.  Eviction is wholesale (`clear` on overflow) to stay
/// deterministic: no iteration-order-dependent victim selection.
#[derive(Debug, Default)]
pub struct PlanCache {
    capacity: usize,
    map: HashMap<PlanKey, PlanEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Interned model identity (the serving layer's `ModelId`).
    model: u32,
    prompt_len: u32,
    /// Prompt tokens served from a reused KV prefix (the prefill graph only
    /// covers the remaining `prompt_len - reused_prefix` tokens).
    reused_prefix: u32,
    output_len: u32,
    cached_bytes: u64,
    memory_pressure: u64,
    policy: Policy,
}

/// The memoised products of one graph-build + plan-build + pipeline run.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    pipeline: SimDuration,
    npu_busy: SimDuration,
    restoration_cpu: SimDuration,
    critical_paths: CriticalPaths,
    restored_bytes: u64,
    decode_tokens_per_sec: f64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            ..Default::default()
        }
    }

    /// Lookups that were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build and simulate a fresh plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cached entry for `key`, or a freshly built one (memoised
    /// unless the cache is disabled).
    fn get_or_build(&mut self, key: PlanKey, build: impl FnOnce() -> PlanEntry) -> PlanEntry {
        if let Some(entry) = self.map.get(&key) {
            self.hits += 1;
            return *entry;
        }
        self.misses += 1;
        let entry = build();
        if self.capacity > 0 {
            if self.map.len() >= self.capacity {
                self.map.clear();
            }
            self.map.insert(key, entry);
        }
        entry
    }
}

/// One evaluated system as data.  The four systems of §7 differ only in
/// these inputs to [`SystemSpec::plan`] and [`SystemSpec::report`], the one
/// path from a prefill to an [`InferenceReport`].
pub(crate) struct SystemSpec {
    /// Whether the system computes on the NPU.  Without one (no NPU in the
    /// TEE) every operator is priced, scheduled and decoded on the CPU.
    pub npu: bool,
    /// Allocation, flash and decryption rates of the restoration operators.
    pub rates: RestoreRates,
    /// Fraction of the parameter blob already resident.
    pub cached_fraction: f64,
    /// Pipeline scheduling policy.
    pub policy: Policy,
    /// Framework initialisation before the pipeline starts.
    pub framework_init: SimDuration,
    /// World-switch overhead of the prefill's NPU jobs.
    pub npu_overhead: SimDuration,
    /// Extra time every decoded token pays (TZ-LLM's NPU handoffs).
    pub decode_handoff: SimDuration,
}

impl SystemSpec {
    /// Evaluates this system on one fresh request (no reused KV prefix).
    pub fn evaluate(&self, profile: &PlatformProfile, config: &InferenceConfig) -> InferenceReport {
        let graph = ComputationGraph::prefill(&config.model, config.prompt_len);
        let entry = self.plan(profile, graph, config.prompt_len + config.output_len);
        self.report(profile, &entry, SimDuration::ZERO)
    }

    /// The evaluation core: prefill graph → op times → [`RestorePlan`] →
    /// critical paths → pipeline schedule, plus the decode rate at a
    /// `decode_len`-token context.
    fn plan(
        &self,
        profile: &PlatformProfile,
        mut graph: ComputationGraph,
        decode_len: usize,
    ) -> PlanEntry {
        let cost = CostModel::rk3588();
        if !self.npu {
            // Every operator is priced and scheduled on the CPU.
            graph.ops.iter_mut().for_each(|op| op.device = Device::Cpu);
        }
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let cached =
            (graph.total_param_bytes() as f64 * self.cached_fraction.clamp(0.0, 1.0)) as u64;
        let plan = RestorePlan::build(&graph, |i| times[i], &self.rates, cached);
        let pipe_cfg = PipelineConfig {
            cpu_cores: profile.big_cores,
            preempt_quantum: SimDuration::from_millis(2),
            policy: self.policy,
            record_trace: false,
        };
        let result = simulate(&plan, &pipe_cfg);
        let decode_token =
            cost.decode_token_time(&graph.model, decode_len, self.npu) + self.decode_handoff;
        PlanEntry {
            pipeline: result.makespan,
            npu_busy: result.busy_npu_compute,
            restoration_cpu: result.restoration_cpu_time(),
            critical_paths: plan.critical_paths(),
            restored_bytes: plan.restored_bytes,
            decode_tokens_per_sec: 1.0 / decode_token.as_secs_f64(),
        }
    }

    /// The report of a simulated plan.  `kv_unseal` is the time to verify
    /// and decrypt the sealed part of a reused KV prefix.
    fn report(
        &self,
        profile: &PlatformProfile,
        entry: &PlanEntry,
        kv_unseal: SimDuration,
    ) -> InferenceReport {
        let breakdown = TtftBreakdown {
            framework_init: self.framework_init,
            working_alloc: profile.kv_cache_alloc + profile.activation_alloc,
            pipeline: entry.pipeline,
            npu_overhead: self.npu_overhead,
            // Unsealing streams on the CPU decrypt threads while the prefill
            // computes on the NPU; only the part the NPU window cannot hide
            // is serial TTFT.
            kv_restore: kv_unseal.saturating_sub(entry.npu_busy),
        };
        InferenceReport {
            ttft: breakdown.total(),
            decode_tokens_per_sec: entry.decode_tokens_per_sec,
            breakdown,
            restoration_cpu: entry.restoration_cpu,
            critical_paths: entry.critical_paths,
            npu_busy: entry.npu_busy,
            restored_bytes: entry.restored_bytes,
        }
    }
}

/// Dispatch-time inputs of one service evaluation (the serving layer
/// borrows the model from its interned table: no per-dispatch clone).
pub(crate) struct ServiceParams<'a> {
    pub model: &'a ModelSpec,
    pub prompt_len: usize,
    /// Leading prompt tokens whose KV state is reused from the secure KV
    /// pool (multi-turn prefix reuse): the prefill graph only processes the
    /// remaining suffix, while decoding still attends over the full context.
    /// Always `< prompt_len` — at least one token is prefilled.
    pub reused_prefix: usize,
    pub output_len: usize,
    pub memory_pressure: u64,
    pub cached_fraction: f64,
    pub policy: Policy,
}

/// A plan cache together with what keys the dispatched model's entries.
pub(crate) struct PlanLookup<'c> {
    pub cache: &'c mut PlanCache,
    /// Interned model identity (the serving layer's `ModelId`).
    pub model_key: u32,
    /// `ComputationGraph::total_param_bytes()` for this model, precomputed
    /// once per model (prompt-length independent) so cache hits never build
    /// a graph just to turn the cached fraction into a byte count.
    pub total_param_bytes: u64,
}

/// The CMA occupancy implied by a given memory pressure: the fraction of the
/// to-be-allocated parameter region that must be migrated.
pub fn cma_occupancy(model: &ModelSpec, memory_pressure: u64) -> f64 {
    if model.total_q8_bytes() == 0 {
        return 0.0;
    }
    (memory_pressure as f64 / model.total_q8_bytes() as f64).clamp(0.0, 1.0)
}

/// Evaluates the service time of one TZ-LLM request: the entry point of
/// both [`evaluate_tzllm`] and the serving layer ([`crate::serving`]),
/// running the [`SystemSpec`] core the baselines use.
///
/// `params.cached_fraction` is the one source of truth for the cache state
/// (the serving layer sets it from the live [`CacheController`]).
/// `framework_init` (a warm TA restores cheaply) and `kv_unseal` (verifying
/// and decrypting the sealed part of a reused KV prefix; only its excess
/// over the prefill's NPU window surfaces in the TTFT) are dispatch-time
/// state.  `plan_cache` (if any) memoises the graph/plan/pipeline work,
/// which is deterministic in the remaining inputs, so warm and cold
/// dispatches share entries.
pub(crate) fn evaluate_service(
    profile: &PlatformProfile,
    params: &ServiceParams<'_>,
    framework_init: SimDuration,
    kv_unseal: SimDuration,
    plan_cache: Option<PlanLookup<'_>>,
) -> InferenceReport {
    let model = params.model;
    debug_assert!(params.reused_prefix < params.prompt_len.max(1));
    let new_tokens = params
        .prompt_len
        .saturating_sub(params.reused_prefix)
        .max(1);
    // One fused secure NPU job per layer, in prefill and per decoded token:
    // each pays the co-driver switch in both directions plus the completion
    // SMC.
    let handoffs = profile.codriver_switch_cost() * 2 * model.layers as u64;
    let occupancy = cma_occupancy(model, params.memory_pressure);
    let spec = SystemSpec {
        npu: true,
        rates: RestoreRates::from_profile(profile, occupancy, profile.cma_migration_threads),
        cached_fraction: params.cached_fraction,
        policy: params.policy,
        framework_init,
        npu_overhead: handoffs,
        decode_handoff: handoffs,
    };
    let plan = || {
        // Only the suffix's tokens are processed, but their attention still
        // spans the reused context.
        let graph = ComputationGraph::prefill_suffix(model, new_tokens, params.prompt_len);
        spec.plan(profile, graph, params.prompt_len + params.output_len)
    };
    let entry = match plan_cache {
        None => plan(),
        Some(lookup) => {
            let key = PlanKey {
                model: lookup.model_key,
                prompt_len: params.prompt_len as u32,
                reused_prefix: params.reused_prefix as u32,
                output_len: params.output_len as u32,
                cached_bytes: (lookup.total_param_bytes as f64
                    * params.cached_fraction.clamp(0.0, 1.0)) as u64,
                memory_pressure: params.memory_pressure,
                policy: params.policy,
            };
            lookup.cache.get_or_build(key, plan)
        }
    };
    spec.report(profile, &entry, kv_unseal)
}

/// Evaluates TZ-LLM on one inference request: the first dispatch of a
/// one-model serial [`crate::serving::Server`] whose cache is seeded to
/// `config.cached_fraction` of the model's Q8 blob — a cold TA, no reused
/// KV prefix, no plan cache.  The `evaluate_tzllm_matches_a_one_request_server`
/// integration test keeps the two bit-for-bit equal.
pub fn evaluate_tzllm(profile: &PlatformProfile, config: &InferenceConfig) -> InferenceReport {
    let total_q8 = config.model.total_q8_bytes();
    let mut cache = CacheController::new(total_q8);
    cache.seed((total_q8 as f64 * config.cached_fraction.clamp(0.0, 1.0)) as u64);
    let framework_init = if config.use_checkpoint {
        profile.checkpoint_restore
    } else {
        profile.framework_init_total()
    };
    let params = ServiceParams {
        model: &config.model,
        prompt_len: config.prompt_len,
        reused_prefix: 0,
        output_len: config.output_len,
        memory_pressure: config.memory_pressure,
        cached_fraction: cache.cached_fraction(),
        policy: config.policy,
    };
    evaluate_service(profile, &params, framework_init, SimDuration::ZERO, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> PlatformProfile {
        PlatformProfile::rk3588()
    }

    #[test]
    fn ttft_decreases_with_caching() {
        let mut cfg = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
        let cold = evaluate_tzllm(&profile(), &cfg);
        cfg.cached_fraction = 1.0;
        let warm = evaluate_tzllm(&profile(), &cfg);
        assert!(warm.ttft < cold.ttft);
        assert_eq!(warm.restoration_cpu, SimDuration::ZERO);
    }

    /// The request-sequence extension of `ttft_decreases_with_caching`: under
    /// adaptive retention, consecutive warm requests strictly improve TTFT
    /// until the cache saturates, then TTFT stays flat.
    #[test]
    fn ttft_improves_across_warm_request_sequence_until_saturation() {
        use crate::serving::{RetentionPolicy, Server, ServingConfig};

        let mut config = ServingConfig::paper_default(profile());
        config.retention = RetentionPolicy::Adaptive {
            step_fraction: 0.25,
        };
        // No REE pressure headroom cap: the cache can grow to the whole model.
        config.memory_pressure = 8 * sim_core::GIB;
        let mut server = Server::new(config, vec![ModelSpec::qwen2_5_3b()]);
        // Identical requests, spaced far enough apart that nothing queues.
        for i in 0..8u64 {
            server.submit_at(
                sim_core::SimTime::from_secs(i * 300),
                i,
                "qwen2.5-3b",
                128,
                8,
            );
        }
        let report = server.run();
        assert_eq!(report.records.len(), 8);

        let fractions: Vec<f64> = report.records.iter().map(|r| r.cached_fraction).collect();
        let ttfts: Vec<SimDuration> = report.records.iter().map(|r| r.report.ttft).collect();
        // The cache warms in 25 % steps: 0, 0.25, 0.5, 0.75, 1.0, 1.0, ...
        assert_eq!(fractions[0], 0.0);
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "cache must warm monotonically: {fractions:?}");
        }
        assert!(
            fractions[4] >= 1.0 - 1e-9,
            "cache fully warm by request 4: {fractions:?}"
        );

        // TTFT saturates when the remaining restoration hides entirely behind
        // computation (§7.2.3) — possibly *before* the whole blob is cached.
        // Until that plateau every warm request is strictly faster; after it,
        // TTFT stays exactly flat.
        let plateau = (1..ttfts.len())
            .find(|&i| ttfts[i] >= ttfts[i - 1])
            .expect("TTFT saturates within the sequence")
            - 1;
        assert!(
            plateau >= 2,
            "expected several strictly-improving warm requests: {ttfts:?}"
        );
        for i in 1..=plateau {
            assert!(
                ttfts[i] < ttfts[i - 1],
                "warm request {i} must strictly improve TTFT: {ttfts:?}"
            );
        }
        for i in (plateau + 1)..ttfts.len() {
            assert_eq!(
                ttfts[i], ttfts[plateau],
                "past saturation TTFT is flat: {ttfts:?}"
            );
        }
        // The plateau TTFT matches the hand-set fully-cached knob: caching
        // beyond the saturation proportion buys nothing more.
        let mut knob = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
        knob.output_len = 8;
        knob.cached_fraction = 1.0;
        let warm = evaluate_tzllm(&profile(), &knob);
        assert_eq!(ttfts[plateau], warm.ttft);
    }

    #[test]
    fn checkpoint_restore_saves_seconds() {
        let mut cfg = InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128);
        let with = evaluate_tzllm(&profile(), &cfg);
        cfg.use_checkpoint = false;
        let without = evaluate_tzllm(&profile(), &cfg);
        let saved = without.ttft.as_secs_f64() - with.ttft.as_secs_f64();
        assert!(saved > 1.5 && saved < 3.0, "saved = {saved}");
    }

    #[test]
    fn preemptive_policy_is_at_least_as_good() {
        let mut cfg = InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128);
        cfg.policy = Policy::Sequential;
        let seq = evaluate_tzllm(&profile(), &cfg);
        cfg.policy = Policy::Priority;
        let pri = evaluate_tzllm(&profile(), &cfg);
        cfg.policy = Policy::PriorityPreemptive;
        let pre = evaluate_tzllm(&profile(), &cfg);
        assert!(pri.ttft < seq.ttft);
        assert!(pre.ttft <= pri.ttft);
    }

    #[test]
    fn decode_speed_increases_for_smaller_models() {
        let tiny = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::tinyllama_1_1b(), 128),
        );
        let llama = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128),
        );
        assert!(tiny.decode_tokens_per_sec > llama.decode_tokens_per_sec * 4.0);
    }

    #[test]
    fn npu_overhead_is_a_tiny_fraction_of_ttft() {
        let report = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::llama3_8b(), 512),
        );
        let frac = report.breakdown.npu_overhead.as_secs_f64() / report.ttft.as_secs_f64();
        assert!(frac < 0.01, "frac = {frac}");
    }
}
