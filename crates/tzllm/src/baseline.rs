//! The evaluated systems: TZ-LLM and the three baselines of §7.
//!
//! * **REE-LLM-Memory** — unmodified llama.cpp in the REE with all parameters
//!   preloaded (theoretical best; no protection, memory-inefficient).
//! * **REE-LLM-Flash** — unmodified llama.cpp in the REE, loading parameters
//!   with pipelined restoration at inference start (buddy allocation, no
//!   decryption; practical but unprotected).
//! * **Strawman** — LLM inference in the TEE without TZ-LLM's optimisations:
//!   full cold start (framework init, sequential CMA allocation, load,
//!   decryption) and CPU-only computation.
//! * **TZ-LLM** — this paper's system (see [`crate::system`]).
//!
//! Each baseline here is only data: a `SystemSpec` run by the one plan →
//! simulate → report core in [`crate::system`] that TZ-LLM also uses.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;

#[cfg(test)]
use llm::ModelSpec;
use llm::{ComputationGraph, CostModel};

use crate::pipeline::Policy;
use crate::restore::RestoreRates;
use crate::system::{cma_occupancy, evaluate_tzllm, InferenceConfig, InferenceReport, SystemSpec};

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Parameters preloaded in REE memory.
    ReeLlmMemory,
    /// Parameters restored from flash in the REE (buddy allocation, no
    /// decryption).
    ReeLlmFlash,
    /// TEE inference without pipelining or NPU support.
    Strawman,
    /// The full TZ-LLM system.
    TzLlm,
}

impl SystemKind {
    /// All systems in the order the figures plot them.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::ReeLlmMemory,
            SystemKind::ReeLlmFlash,
            SystemKind::TzLlm,
            SystemKind::Strawman,
        ]
    }

    /// The label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::ReeLlmMemory => "REE-LLM-Memory",
            SystemKind::ReeLlmFlash => "REE-LLM-Flash",
            SystemKind::Strawman => "Strawman",
            SystemKind::TzLlm => "TZ-LLM",
        }
    }
}

/// The Strawman as data: a full cold start, restoration with a single CMA
/// migration thread, sequential scheduling and CPU-only computation.
fn strawman(profile: &PlatformProfile, config: &InferenceConfig) -> SystemSpec {
    let occupancy = cma_occupancy(&config.model, config.memory_pressure);
    SystemSpec {
        npu: false,
        rates: RestoreRates::from_profile(profile, occupancy, 1),
        cached_fraction: 0.0,
        policy: Policy::Sequential,
        framework_init: profile.framework_init_total(),
        npu_overhead: SimDuration::ZERO,
        decode_handoff: SimDuration::ZERO,
    }
}

/// Evaluates any of the four systems on one request.
pub fn evaluate(
    system: SystemKind,
    profile: &PlatformProfile,
    config: &InferenceConfig,
) -> InferenceReport {
    let spec = match system {
        SystemKind::TzLlm => return evaluate_tzllm(profile, config),
        SystemKind::Strawman => strawman(profile, config),
        // Unmodified llama.cpp in the REE: warm framework, NPU without world
        // switches.  REE-LLM-Memory has every parameter preloaded.
        SystemKind::ReeLlmMemory | SystemKind::ReeLlmFlash => SystemSpec {
            npu: true,
            // Buddy-system allocation (no migration), no decryption (modelled
            // as effectively free).
            rates: RestoreRates {
                flash: profile.flash_bandwidth(),
                alloc_secs_per_byte: profile.page_alloc_ns as f64 * 1e-9 / tz_hal::PAGE_SIZE as f64,
                alloc_fixed: SimDuration::ZERO,
                decrypt: sim_core::Bandwidth::from_bytes_per_sec(1e18),
            },
            cached_fraction: if system == SystemKind::ReeLlmMemory {
                1.0
            } else {
                config.cached_fraction
            },
            policy: Policy::PriorityPreemptive,
            framework_init: SimDuration::ZERO,
            npu_overhead: SimDuration::ZERO,
            decode_handoff: SimDuration::ZERO,
        },
    };
    spec.evaluate(profile, config)
}

/// The Figure-1 style cold-start breakdown of the strawman workflow.
pub fn strawman_breakdown(
    profile: &PlatformProfile,
    config: &InferenceConfig,
) -> Vec<(String, SimDuration)> {
    let cost = CostModel::rk3588();
    let graph = ComputationGraph::prefill(&config.model, config.prompt_len);
    let total_bytes = graph.total_param_bytes();
    let rates = strawman(profile, config).rates;

    let cpu_prefill: SimDuration = graph.ops.iter().map(|o| cost.op_time_cpu_only(o)).sum();
    vec![
        ("llama.cpp meta init".into(), profile.framework_meta_init),
        ("tokenizer init".into(), profile.tokenizer_init),
        ("kv cache allocation (CMA)".into(), profile.kv_cache_alloc),
        (
            "activation allocation (CMA)".into(),
            profile.activation_alloc,
        ),
        (
            "param allocation (CMA)".into(),
            rates.alloc_fixed * graph.ops.len() as u64
                + SimDuration::from_secs_f64(total_bytes as f64 * rates.alloc_secs_per_byte),
        ),
        ("param load".into(), rates.flash.time_for_bytes(total_bytes)),
        (
            "param decryption".into(),
            rates.decrypt.time_for_bytes(total_bytes),
        ),
        ("CPU prefill".into(), cpu_prefill),
    ]
}

/// Decode-speed label helper for Figure 11: which device the system decodes on.
pub fn decode_uses_npu(system: SystemKind) -> bool {
    !matches!(system, SystemKind::Strawman)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::reduction;

    fn profile() -> PlatformProfile {
        PlatformProfile::rk3588()
    }

    #[test]
    fn ttft_ordering_matches_the_paper() {
        for model in ModelSpec::catalogue() {
            let cfg = InferenceConfig::paper_default(model.clone(), 128);
            let memory = evaluate(SystemKind::ReeLlmMemory, &profile(), &cfg);
            let flash = evaluate(SystemKind::ReeLlmFlash, &profile(), &cfg);
            let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
            let straw = evaluate(SystemKind::Strawman, &profile(), &cfg);
            assert!(memory.ttft <= flash.ttft, "{}", model.name);
            assert!(flash.ttft <= tz.ttft, "{}", model.name);
            assert!(tz.ttft < straw.ttft, "{}", model.name);
        }
    }

    #[test]
    fn tzllm_reduces_ttft_by_at_least_three_quarters_vs_strawman() {
        // Paper: 76.1% - 90.9% across models and benchmarks.
        for model in ModelSpec::catalogue() {
            for prompt in [32usize, 128, 512] {
                let cfg = InferenceConfig::paper_default(model.clone(), prompt);
                let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
                let straw = evaluate(SystemKind::Strawman, &profile(), &cfg);
                let red = reduction(straw.ttft.as_secs_f64(), tz.ttft.as_secs_f64());
                assert!(
                    red > 0.70 && red < 0.97,
                    "{} @{prompt}: reduction {red:.3} (tz {}, straw {})",
                    model.name,
                    tz.ttft,
                    straw.ttft
                );
            }
        }
    }

    #[test]
    fn tzllm_overhead_vs_ree_flash_is_moderate() {
        // Paper: 5.2% - 28.3% average overhead vs REE-LLM-Flash.
        for model in ModelSpec::catalogue() {
            let cfg = InferenceConfig::paper_default(model.clone(), 128);
            let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
            let flash = evaluate(SystemKind::ReeLlmFlash, &profile(), &cfg);
            let overhead = tz.ttft.as_secs_f64() / flash.ttft.as_secs_f64() - 1.0;
            assert!(
                overhead > 0.0 && overhead < 0.7,
                "{}: overhead {overhead:.3}",
                model.name
            );
        }
    }

    #[test]
    fn decoding_speed_relations_match_figure_11() {
        for model in ModelSpec::catalogue() {
            let cfg = InferenceConfig::paper_default(model.clone(), 128);
            let ree = evaluate(SystemKind::ReeLlmMemory, &profile(), &cfg);
            let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
            let straw = evaluate(SystemKind::Strawman, &profile(), &cfg);
            // TZ-LLM is slightly slower than the REE baseline...
            let slowdown = 1.0 - tz.decode_tokens_per_sec / ree.decode_tokens_per_sec;
            assert!(
                slowdown > 0.0 && slowdown < 0.08,
                "{}: slowdown {slowdown:.3}",
                model.name
            );
            // ...and faster than the CPU-only strawman.
            let gain = tz.decode_tokens_per_sec / straw.decode_tokens_per_sec - 1.0;
            assert!(gain > 0.0 && gain < 0.45, "{}: gain {gain:.3}", model.name);
        }
    }

    #[test]
    fn strawman_breakdown_matches_figure_1_shape() {
        let cfg = InferenceConfig::paper_default(ModelSpec::llama3_8b(), 512);
        let breakdown = strawman_breakdown(&profile(), &cfg);
        let get = |name: &str| {
            breakdown
                .iter()
                .find(|(n, _)| n.contains(name))
                .map(|(_, d)| d.as_secs_f64())
                .unwrap()
        };
        // Figure 1 anchors (8-bit Llama-3-8B, 512-token prompt).
        assert!(
            (get("param load") - 4.05).abs() < 0.6,
            "{}",
            get("param load")
        );
        assert!(
            (get("decryption") - 0.89).abs() < 0.3,
            "{}",
            get("decryption")
        );
        assert!(get("param allocation") > 2.0 && get("param allocation") < 6.0);
        assert!(get("CPU prefill") > 130.0 && get("CPU prefill") < 210.0);
        assert!((get("tokenizer") - 1.8).abs() < 0.1);
        // The full strawman TTFT is dominated by the CPU prefill.
        let total: f64 = breakdown.iter().map(|(_, d)| d.as_secs_f64()).sum();
        assert!(total > 140.0 && total < 230.0, "total = {total}");
    }

    /// Pins every field of every `evaluate` report, for all four systems,
    /// over a grid of models, prompts, cache states, policies, checkpoint
    /// presence, memory pressure and SoCs.  Any change to what `evaluate`
    /// returns — even one ULP of the decode rate — moves the digest.
    #[test]
    fn evaluate_reports_match_the_golden_digest() {
        use tz_crypto::Sha256;

        let mut reports = Vec::new();
        for profile in [PlatformProfile::rk3588(), PlatformProfile::rk3566()] {
            for model in ModelSpec::catalogue() {
                for prompt_len in [1usize, 32, 128, 512] {
                    for cached_fraction in [0.0, 0.37, 1.0] {
                        for policy in [
                            Policy::Sequential,
                            Policy::Priority,
                            Policy::PriorityPreemptive,
                        ] {
                            for use_checkpoint in [true, false] {
                                let mut cfg =
                                    InferenceConfig::paper_default(model.clone(), prompt_len);
                                cfg.cached_fraction = cached_fraction;
                                cfg.policy = policy;
                                cfg.use_checkpoint = use_checkpoint;
                                for memory_pressure in [cfg.memory_pressure, 0] {
                                    cfg.memory_pressure = memory_pressure;
                                    for system in SystemKind::all() {
                                        reports.push(evaluate(system, &profile, &cfg));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(reports.len(), 2 * 4 * 4 * 3 * 3 * 2 * 2 * 4);
        let mut hasher = Sha256::new();
        let mut put = |word: u64| hasher.update(&word.to_le_bytes());
        for r in &reports {
            let b = r.breakdown;
            let c = r.critical_paths;
            for d in [
                r.ttft,
                b.framework_init,
                b.working_alloc,
                b.pipeline,
                b.npu_overhead,
                b.kv_restore,
                r.restoration_cpu,
                c.io,
                c.cpu,
                c.compute,
                r.npu_busy,
            ] {
                put(d.as_nanos());
            }
            put(r.decode_tokens_per_sec.to_bits());
            put(r.restored_bytes);
        }
        let hex: String = hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "08632c2a15fa2ee8295a8a20424cf53b5fc1a6fe2d87eea933d7a09e898ce0d1"
        );
    }

    #[test]
    fn decode_device_flags() {
        assert!(decode_uses_npu(SystemKind::TzLlm));
        assert!(decode_uses_npu(SystemKind::ReeLlmMemory));
        assert!(!decode_uses_npu(SystemKind::Strawman));
    }
}
