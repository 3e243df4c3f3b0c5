//! Restoration operators and the extended computation graph (§4.1).
//!
//! Pipelined restoration extends the LLM computation graph by inserting three
//! restoration operators in front of every prefill computation operator that
//! needs parameters which are not yet resident:
//!
//! * **Allocation** — extend the contiguous secure memory (CMA migration +
//!   `extend_allocated`/`extend_protected`), runs on a CPU core;
//! * **Loading** — read the encrypted parameter bytes from flash into the
//!   allocated-but-unprotected window, runs on the I/O engine;
//! * **Decryption** — AES-CTR decrypt in place after protection, runs on a
//!   CPU core.
//!
//! The restoration order follows the topological order of the computation
//! graph, so the secure region grows exactly in blob-offset order and stays
//! contiguous.  Parameters inside the partially-cached prefix (§4.1, partial
//! parameter caching) need no restoration at all.

use llm::{ComputationGraph, Device};
use sim_core::{Bandwidth, SimDuration};

/// Timing inputs for building a restoration plan.
#[derive(Debug, Clone)]
pub struct RestoreRates {
    /// Flash sequential-read bandwidth.
    pub flash: Bandwidth,
    /// CMA allocation: CPU time per byte allocated (migration share included).
    pub alloc_secs_per_byte: f64,
    /// Fixed per-allocation-call overhead (SMC + TZASC reconfiguration).
    pub alloc_fixed: SimDuration,
    /// Decryption bandwidth.
    pub decrypt: Bandwidth,
}

impl RestoreRates {
    /// Builds rates from the platform profile and the current CMA occupancy
    /// (fraction of the to-be-allocated range that must be migrated).
    pub fn from_profile(
        profile: &tz_hal::PlatformProfile,
        cma_occupancy: f64,
        migration_threads: usize,
    ) -> Self {
        let migration_bw = profile
            .cma_bandwidth_threads(migration_threads)
            .bytes_per_sec();
        let per_byte_migration = cma_occupancy.clamp(0.0, 1.0) / migration_bw;
        let per_byte_bookkeeping = profile.page_alloc_ns as f64 * 1e-9 / tz_hal::PAGE_SIZE as f64;
        RestoreRates {
            flash: profile.flash_bandwidth(),
            alloc_secs_per_byte: per_byte_migration + per_byte_bookkeeping,
            alloc_fixed: profile.smc_switch * 2 + profile.tzasc_config,
            decrypt: profile.decrypt_bandwidth(),
        }
    }
}

/// What kind of work a pipeline operator performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeOpKind {
    /// Contiguous secure-memory allocation (CPU).
    Alloc,
    /// Flash read of encrypted parameters (I/O engine).
    Load,
    /// In-place decryption (CPU).
    Decrypt,
    /// LLM computation on a CPU core.
    CpuCompute,
    /// LLM computation on the NPU.
    NpuCompute,
}

impl PipeOpKind {
    /// Whether this operator is a restoration operator.
    pub fn is_restoration(self) -> bool {
        matches!(
            self,
            PipeOpKind::Alloc | PipeOpKind::Load | PipeOpKind::Decrypt
        )
    }

    /// Whether the operator runs on a CPU core.
    pub fn runs_on_cpu(self) -> bool {
        matches!(
            self,
            PipeOpKind::Alloc | PipeOpKind::Decrypt | PipeOpKind::CpuCompute
        )
    }
}

/// A lazily-rendered operator label.
///
/// Plans for real models carry hundreds of operators and the serving layer
/// builds (or replays) plans on every dispatch, so labels must cost nothing
/// until somebody actually reads them: the label is a `Copy` bundle of static
/// strings and indices, and the full `"alloc[3] qkv#2"` form is only
/// materialised by its [`std::fmt::Display`] impl (trace recording, test
/// failure messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLabel {
    stage: &'static str,
    op: &'static str,
    compute_index: u32,
    /// Micro-operator ordinal within a split preemptible operator;
    /// `u32::MAX` means the operator was not split.
    micro: u32,
}

impl OpLabel {
    /// A label for stage `stage` (e.g. `"alloc"`) serving computation
    /// operator `compute_index` of kind `op` (e.g. `"qkv"`).
    pub fn new(stage: &'static str, op: &'static str, compute_index: usize) -> Self {
        OpLabel {
            stage,
            op,
            compute_index: compute_index as u32,
            micro: u32::MAX,
        }
    }

    /// The same label tagged as the `i`-th micro-operator of its chain.
    pub fn with_micro(self, i: usize) -> Self {
        OpLabel {
            micro: i as u32,
            ..self
        }
    }
}

impl std::fmt::Display for OpLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}] {}", self.stage, self.compute_index, self.op)?;
        if self.micro != u32::MAX {
            write!(f, "#{}", self.micro)?;
        }
        Ok(())
    }
}

/// One operator of the extended (restoration + computation) graph.
#[derive(Debug, Clone)]
pub struct PipeOp {
    /// Index in the extended graph.
    pub id: usize,
    /// Work kind.
    pub kind: PipeOpKind,
    /// Index of the *computation* operator this operator belongs to / serves.
    /// Restoration operators inherit the index of the computation operator
    /// whose parameters they restore; this is the priority key (§4.1).
    pub compute_index: usize,
    /// Execution time on its resource.
    pub duration: SimDuration,
    /// Bytes processed (parameters restored / loaded / decrypted); zero for
    /// computation operators.
    pub bytes: u64,
    /// Operators that must complete before this one starts.
    pub deps: Vec<usize>,
    /// Whether the operator may be split into micro-operators and preempted
    /// (allocation and decryption, §4.1 "Preemptive pipeline scheduling").
    pub preemptible: bool,
    /// Human-readable label, rendered lazily.
    pub label: OpLabel,
}

/// The extended graph handed to the pipeline scheduler.
#[derive(Debug, Clone)]
pub struct RestorePlan {
    /// All operators, ids dense from zero, dependencies acyclic.
    pub ops: Vec<PipeOp>,
    /// Bytes that were already cached and needed no restoration.
    pub cached_bytes: u64,
    /// Bytes that have to be restored by this plan.
    pub restored_bytes: u64,
}

impl RestorePlan {
    /// Builds the extended graph for `graph`, given per-operator compute
    /// durations, restoration rates and a cached prefix of `cached_bytes`
    /// (parameters with blob offsets below this are already resident).
    ///
    /// `compute_time` maps a computation-op index to its duration.
    pub fn build(
        graph: &ComputationGraph,
        compute_time: impl Fn(usize) -> SimDuration,
        rates: &RestoreRates,
        cached_bytes: u64,
    ) -> Self {
        let mut ops: Vec<PipeOp> = Vec::new();
        let mut restored_bytes = 0u64;
        let mut cached_used = 0u64;

        // Chain heads for the three restoration resources: allocations must
        // happen in order (contiguity), loads are sequential on the flash
        // queue, decrypts must follow the corresponding protection.
        let mut last_alloc: Option<usize> = None;
        let mut last_load: Option<usize> = None;
        let mut last_compute: Option<usize> = None;

        for (ci, cop) in graph.ops.iter().enumerate() {
            // Bytes of this op's parameters that still need restoration.
            let mut op_restore_bytes = 0u64;
            for p in &cop.params {
                if p.end() <= cached_bytes {
                    cached_used += p.bytes;
                } else if p.offset >= cached_bytes {
                    op_restore_bytes += p.bytes;
                } else {
                    // Straddles the cache boundary.
                    cached_used += cached_bytes - p.offset;
                    op_restore_bytes += p.end() - cached_bytes;
                }
            }

            let mut decrypt_id: Option<usize> = None;
            if op_restore_bytes > 0 {
                restored_bytes += op_restore_bytes;
                // Allocation.
                let alloc_id = ops.len();
                ops.push(PipeOp {
                    id: alloc_id,
                    kind: PipeOpKind::Alloc,
                    compute_index: ci,
                    duration: rates.alloc_fixed
                        + SimDuration::from_secs_f64(
                            op_restore_bytes as f64 * rates.alloc_secs_per_byte,
                        ),
                    bytes: op_restore_bytes,
                    deps: last_alloc.into_iter().collect(),
                    preemptible: true,
                    label: OpLabel::new("alloc", cop.kind_label(), ci),
                });
                last_alloc = Some(alloc_id);

                // Loading (depends on its allocation and on the previous load).
                let load_id = ops.len();
                let mut load_deps = vec![alloc_id];
                if let Some(l) = last_load {
                    load_deps.push(l);
                }
                ops.push(PipeOp {
                    id: load_id,
                    kind: PipeOpKind::Load,
                    compute_index: ci,
                    duration: rates.flash.time_for_bytes(op_restore_bytes),
                    bytes: op_restore_bytes,
                    deps: load_deps,
                    preemptible: false,
                    label: OpLabel::new("load", cop.kind_label(), ci),
                });
                last_load = Some(load_id);

                // Decryption (depends on the load).
                let dec_id = ops.len();
                ops.push(PipeOp {
                    id: dec_id,
                    kind: PipeOpKind::Decrypt,
                    compute_index: ci,
                    duration: rates.decrypt.time_for_bytes(op_restore_bytes),
                    bytes: op_restore_bytes,
                    deps: vec![load_id],
                    preemptible: true,
                    label: OpLabel::new("decrypt", cop.kind_label(), ci),
                });
                decrypt_id = Some(dec_id);
            }

            // The computation operator itself.
            let comp_id = ops.len();
            let mut deps: Vec<usize> = decrypt_id.into_iter().collect();
            if let Some(prev) = last_compute {
                deps.push(prev);
            }
            ops.push(PipeOp {
                id: comp_id,
                kind: if cop.device == Device::Npu {
                    PipeOpKind::NpuCompute
                } else {
                    PipeOpKind::CpuCompute
                },
                compute_index: ci,
                duration: compute_time(ci),
                bytes: 0,
                deps,
                preemptible: false,
                label: OpLabel::new("compute", cop.kind_label(), ci),
            });
            last_compute = Some(comp_id);
        }

        RestorePlan {
            ops,
            cached_bytes: cached_used,
            restored_bytes,
        }
    }

    /// Total duration of all operators of a given kind (sequential sum — the
    /// critical-path inputs of Figure 12).
    pub fn total_of(&self, kind: PipeOpKind) -> SimDuration {
        self.ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.duration)
            .sum()
    }

    /// The three candidate critical paths of §4.1: total loading time, total
    /// CPU time (allocation + decryption + CPU compute), and total
    /// computation time (CPU + NPU compute).
    pub fn critical_paths(&self) -> CriticalPaths {
        CriticalPaths {
            io: self.total_of(PipeOpKind::Load),
            cpu: self.total_of(PipeOpKind::Alloc)
                + self.total_of(PipeOpKind::Decrypt)
                + self.total_of(PipeOpKind::CpuCompute),
            compute: self.total_of(PipeOpKind::CpuCompute) + self.total_of(PipeOpKind::NpuCompute),
        }
    }

    /// Verifies structural invariants: dense ids, acyclic backward deps, and
    /// a `compute_index` that never decreases with id (the pipeline
    /// scheduler's ready queues take the lowest id as the lowest
    /// `compute_index`).
    pub fn validate(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            if op.id != i {
                return Err(format!("op {i} has id {}", op.id));
            }
            if op.deps.iter().any(|&d| d >= i) {
                return Err(format!("op {i} has a forward dependency"));
            }
            if i > 0 && op.compute_index < self.ops[i - 1].compute_index {
                return Err(format!(
                    "op {i} has compute index {} below op {}'s {}",
                    op.compute_index,
                    i - 1,
                    self.ops[i - 1].compute_index
                ));
            }
        }
        Ok(())
    }
}

/// The three candidate pipeline critical paths (§4.1 / Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPaths {
    /// Total latency of all loading (I/O) operators.
    pub io: SimDuration,
    /// Total latency of all CPU operators (allocation, decryption, CPU compute).
    pub cpu: SimDuration,
    /// Total latency of all computation operators (CPU + NPU).
    pub compute: SimDuration,
}

impl CriticalPaths {
    /// The theoretical lower bound on TTFT for any scheduling policy: the
    /// longest of the three paths.
    pub fn lower_bound(&self) -> SimDuration {
        self.io.max(self.cpu).max(self.compute)
    }
}

/// Helper: a short label for a computation operator kind.
trait KindLabel {
    fn kind_label(&self) -> &'static str;
}

impl KindLabel for llm::ComputeOp {
    fn kind_label(&self) -> &'static str {
        match self.kind {
            llm::OpKind::Embed => "embed",
            llm::OpKind::RmsNorm => "norm",
            llm::OpKind::QkvProj => "qkv",
            llm::OpKind::Attention => "attn",
            llm::OpKind::OutProj => "wo",
            llm::OpKind::FfnUpGate => "ffn_up_gate",
            llm::OpKind::FfnDown => "ffn_down",
            llm::OpKind::FinalNorm => "final_norm",
            llm::OpKind::LmHead => "lm_head",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::{CostModel, ModelSpec};

    fn plan_for(model: &ModelSpec, prompt: usize, cached: u64) -> (ComputationGraph, RestorePlan) {
        let graph = ComputationGraph::prefill(model, prompt);
        let cost = CostModel::rk3588();
        let profile = tz_hal::PlatformProfile::rk3588();
        let rates = RestoreRates::from_profile(&profile, 0.8, 4);
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let plan = RestorePlan::build(&graph, |i| times[i], &rates, cached);
        (graph, plan)
    }

    #[test]
    fn plan_is_valid_and_covers_all_bytes() {
        let model = ModelSpec::qwen2_5_3b();
        let (graph, plan) = plan_for(&model, 128, 0);
        plan.validate().unwrap();
        assert_eq!(plan.restored_bytes, graph.total_param_bytes());
        assert_eq!(plan.cached_bytes, 0);
        // Every computation op appears exactly once.
        let comps = plan.ops.iter().filter(|o| !o.kind.is_restoration()).count();
        assert_eq!(comps, graph.ops.len());
    }

    #[test]
    fn cached_prefix_removes_restoration_ops() {
        let model = ModelSpec::qwen2_5_3b();
        let (graph, plan_cold) = plan_for(&model, 128, 0);
        let total = graph.total_param_bytes();
        let (_, plan_half) = plan_for(&model, 128, total / 2);
        let (_, plan_full) = plan_for(&model, 128, total);
        assert!(plan_half.restored_bytes < plan_cold.restored_bytes);
        assert!(plan_half.cached_bytes + plan_half.restored_bytes == total);
        assert_eq!(plan_full.restored_bytes, 0);
        assert!(plan_full.ops.iter().all(|o| !o.kind.is_restoration()));
    }

    #[test]
    fn restoration_ops_precede_their_computation() {
        let model = ModelSpec::tinyllama_1_1b();
        let (_, plan) = plan_for(&model, 32, 0);
        for op in &plan.ops {
            if op.kind == PipeOpKind::CpuCompute || op.kind == PipeOpKind::NpuCompute {
                for &d in &op.deps {
                    assert!(plan.ops[d].compute_index <= op.compute_index);
                }
            }
        }
    }

    #[test]
    fn critical_paths_match_paper_regimes() {
        let model = ModelSpec::llama3_8b();
        // Short prompt: I/O dominates.
        let (_, short) = plan_for(&model, 32, 0);
        let cp_short = short.critical_paths();
        assert!(cp_short.io > cp_short.compute);
        // Long prompt: computation dominates.
        let (_, long) = plan_for(&model, 512, 0);
        let cp_long = long.critical_paths();
        assert!(cp_long.compute > cp_long.io);
        assert_eq!(
            cp_long.lower_bound(),
            cp_long.io.max(cp_long.cpu).max(cp_long.compute)
        );
    }

    #[test]
    fn alloc_and_decrypt_are_preemptible_loads_are_not() {
        let (_, plan) = plan_for(&ModelSpec::nano(), 8, 0);
        for op in &plan.ops {
            match op.kind {
                PipeOpKind::Alloc | PipeOpKind::Decrypt => assert!(op.preemptible),
                _ => assert!(!op.preemptible),
            }
        }
    }

    #[test]
    fn validate_rejects_a_decreasing_compute_index() {
        let (_, mut plan) = plan_for(&ModelSpec::nano(), 8, 0);
        plan.validate().unwrap();
        let last = plan.ops.len() - 1;
        plan.ops[last].compute_index = 0;
        let err = plan.validate().unwrap_err();
        assert!(err.contains("compute index"), "{err}");
    }
}
