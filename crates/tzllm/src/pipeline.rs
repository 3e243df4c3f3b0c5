//! The pipeline scheduler (§4.1).
//!
//! Simulates the execution of a [`RestorePlan`] on the platform's three
//! resource classes — a pool of CPU cores, the NPU, and the flash I/O engine —
//! under one of three scheduling policies:
//!
//! * [`Policy::Sequential`] — no pipelining: all restoration completes before
//!   any computation starts (the strawman behaviour and the
//!   "TZ-LLM (-pipeline)" ablation of Figure 13).
//! * [`Policy::Priority`] — the greedy priority rule of §4.1 without
//!   preemption: a ready CPU computation operator always wins; otherwise the
//!   restoration operator serving the earliest computation operator runs.
//! * [`Policy::PriorityPreemptive`] — the full TZ-LLM policy: allocation and
//!   decryption operators are split into micro-operators so a computation
//!   operator that becomes ready only waits until the next preemption point.
//!   Micro-operators are simulated lazily: the operator runs one quantum-sized
//!   piece at a time and keeps its id, so no per-piece records are built.
//!
//! The simulator is event-driven and fully deterministic; it produces the
//! makespan (the prefill-pipeline part of the TTFT), busy time per operator
//! class and, on request, the operator schedule as [`Telemetry`] lane spans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sim_core::{LabelId, Phase, SimDuration, SimTime, Telemetry, Track};

use crate::restore::{PipeOp, PipeOpKind, RestorePlan};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Restore everything, then compute (no overlap).
    Sequential,
    /// Priority-based scheduling without preemption.
    Priority,
    /// Priority-based scheduling with preemptive micro-operators (TZ-LLM).
    PriorityPreemptive,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of CPU cores available to the TA.
    pub cpu_cores: usize,
    /// Preemption quantum for allocation/decryption micro-operators.
    pub preempt_quantum: SimDuration,
    /// Scheduling policy.
    pub policy: Policy,
    /// Whether to record the operator schedule into
    /// [`PipelineResult::trace`].  The ordering tests and Perfetto
    /// inspection want it; the serving layer simulates plans on every
    /// dispatch and turns it off, and then the scheduler interns, formats
    /// and allocates nothing for spans.
    pub record_trace: bool,
}

/// Result of simulating one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Completion time of the last operator (the pipeline's contribution to
    /// the TTFT).
    pub makespan: SimDuration,
    /// Busy time per operator kind.
    pub busy_alloc: SimDuration,
    /// Total loading (I/O) busy time.
    pub busy_load: SimDuration,
    /// Total decryption busy time.
    pub busy_decrypt: SimDuration,
    /// Total CPU computation busy time.
    pub busy_cpu_compute: SimDuration,
    /// Total NPU computation busy time.
    pub busy_npu_compute: SimDuration,
    /// The operator schedule: one span per operator or micro-operator
    /// (labelled `<op>#k` for the `k`-th piece) on the `cpu`, `npu` or `io`
    /// lane track, exportable through [`Telemetry::chrome_trace_json`].
    /// A disabled, empty [`Telemetry`] unless
    /// [`PipelineConfig::record_trace`] is set.
    pub trace: Telemetry,
}

impl PipelineResult {
    /// Total CPU time consumed by restoration work (allocation + decryption) —
    /// the REE interference source measured in Figure 16.
    pub fn restoration_cpu_time(&self) -> SimDuration {
        self.busy_alloc + self.busy_decrypt
    }
}

/// Which resource class an operator occupies while running; also the index
/// of its lane track in [`Scheduler::lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResourceClass {
    /// One of the CPU cores.
    Cpu,
    /// The NPU.
    Npu,
    /// The flash I/O engine.
    Io,
}

impl ResourceClass {
    fn for_kind(kind: PipeOpKind) -> ResourceClass {
        match kind {
            PipeOpKind::Alloc | PipeOpKind::Decrypt | PipeOpKind::CpuCompute => ResourceClass::Cpu,
            PipeOpKind::NpuCompute => ResourceClass::Npu,
            PipeOpKind::Load => ResourceClass::Io,
        }
    }

    const ALL: [ResourceClass; 3] = [ResourceClass::Cpu, ResourceClass::Npu, ResourceClass::Io];

    fn label(self) -> &'static str {
        match self {
            ResourceClass::Cpu => "cpu",
            ResourceClass::Npu => "npu",
            ResourceClass::Io => "io",
        }
    }
}

/// A typed operator-completion event in the simulation's event heap.
///
/// Ordered by completion time, then operator id, so ties pop
/// deterministically.  An operator has at most one piece in flight, so the
/// id is unique among pending events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    at: SimTime,
    id: u32,
}

// Ready-queue indices.
const READY_IO: usize = 0;
const READY_NPU: usize = 1;
const READY_CPU_COMPUTE: usize = 2;
const READY_CPU_RESTORE: usize = 3;

fn ready_queue(kind: PipeOpKind) -> usize {
    match kind {
        PipeOpKind::Load => READY_IO,
        PipeOpKind::NpuCompute => READY_NPU,
        PipeOpKind::CpuCompute => READY_CPU_COMPUTE,
        PipeOpKind::Alloc | PipeOpKind::Decrypt => READY_CPU_RESTORE,
    }
}

fn busy_index(kind: PipeOpKind) -> usize {
    match kind {
        PipeOpKind::Alloc => 0,
        PipeOpKind::Load => 1,
        PipeOpKind::Decrypt => 2,
        PipeOpKind::CpuCompute => 3,
        PipeOpKind::NpuCompute => 4,
    }
}

fn phase(kind: PipeOpKind) -> Phase {
    match kind {
        PipeOpKind::Alloc => Phase::ParamAlloc,
        PipeOpKind::Load => Phase::ParamLoad,
        PipeOpKind::Decrypt => Phase::ParamDecrypt,
        PipeOpKind::CpuCompute => Phase::CpuCompute,
        PipeOpKind::NpuCompute => Phase::NpuCompute,
    }
}

/// Scheduling state of one operator.
#[derive(Debug, Clone, Copy)]
struct OpState {
    kind: PipeOpKind,
    deps_remaining: u32,
    /// How many micro-operators the operator runs as: `ceil(duration /
    /// quantum)` when it is preempted, else one.
    pieces: u64,
    /// The piece it runs next.
    next_piece: u64,
    /// The length of every piece but the last, which also takes the
    /// remainder (the split of `SimDuration::split`).
    piece: SimDuration,
}

impl OpState {
    fn new(op: &PipeOp, config: &PipelineConfig) -> Self {
        let quantum = config.preempt_quantum;
        let pieces = if config.policy == Policy::PriorityPreemptive
            && op.preemptible
            && !quantum.is_zero()
            && op.duration > quantum
        {
            op.duration.as_nanos().div_ceil(quantum.as_nanos())
        } else {
            1
        };
        OpState {
            kind: op.kind,
            deps_remaining: op.deps.len() as u32,
            pieces,
            next_piece: 0,
            piece: SimDuration::from_nanos(op.duration.as_nanos() / pieces),
        }
    }
}

/// The state of one [`simulate`] call.
///
/// Its heap allocations are fixed by the plan's operator and edge counts.  A
/// preemptible operator is not expanded into micro-operator records: it runs
/// one piece at a time under its own id and re-enters its ready queue after
/// every piece but the last, and only the last piece releases its
/// dependents.
struct Scheduler<'a> {
    ops: &'a [PipeOp],
    config: &'a PipelineConfig,
    /// The dependents of operator `i` are
    /// `dependents[dependents_start[i]..dependents_start[i + 1]]`.
    dependents_start: Vec<u32>,
    dependents: Vec<u32>,
    state: Vec<OpState>,
    /// Min-queues of ready operator ids, indexed by `READY_*`.  The lowest id
    /// is the lowest `compute_index`, because a valid plan numbers operators
    /// in computation order: this is the priority rule of §4.1.
    ready: [BinaryHeap<Reverse<u32>>; 4],
    events: BinaryHeap<Reverse<Completion>>,
    cpu_free: usize,
    npu_free: bool,
    io_free: bool,
    /// Operators (or pieces) in flight.
    running: usize,
    restoration_left: usize,
    now: SimTime,
    busy: [SimDuration; 5],
    trace: Telemetry,
    /// The lane track of each [`ResourceClass`], when recording a trace.
    lanes: Option<[LabelId; 3]>,
    /// Reused buffer for rendering span names.
    name: String,
}

impl<'a> Scheduler<'a> {
    fn new(plan: &'a RestorePlan, config: &'a PipelineConfig) -> Self {
        let ops = &plan.ops[..];
        let n = ops.len();
        assert!(n < u32::MAX as usize, "plan too large for u32 operator ids");

        // Dependents in compressed sparse rows: count, prefix-sum to each
        // row's end, then fill backwards so every row ends at its start.
        let mut dependents_start = vec![0u32; n + 1];
        for op in ops {
            for &d in &op.deps {
                dependents_start[d] += 1;
            }
        }
        let mut end = 0u32;
        for slot in dependents_start.iter_mut() {
            end += *slot;
            *slot = end;
        }
        let mut dependents = vec![0u32; end as usize];
        for (id, op) in ops.iter().enumerate().rev() {
            for &d in &op.deps {
                dependents_start[d] -= 1;
                dependents[dependents_start[d] as usize] = id as u32;
            }
        }

        let mut trace = Telemetry::new(config.record_trace);
        let lanes = config.record_trace.then(|| {
            ResourceClass::ALL.map(|class| {
                let lane = trace.intern(class.label());
                trace.name_track(Track::Lane(lane), class.label());
                lane
            })
        });
        let mut sched = Scheduler {
            ops,
            config,
            dependents_start,
            dependents,
            state: ops.iter().map(|o| OpState::new(o, config)).collect(),
            // `RestorePlan::build` chains its allocations, its loads and its
            // computation operators, so only the CPU restoration queue,
            // which holds every ready decryption, grows past one entry.
            ready: std::array::from_fn(|queue| {
                BinaryHeap::with_capacity(if queue == READY_CPU_RESTORE { n } else { 1 })
            }),
            events: BinaryHeap::with_capacity(config.cpu_cores + 2),
            cpu_free: config.cpu_cores,
            npu_free: true,
            io_free: true,
            running: 0,
            restoration_left: ops.iter().filter(|o| o.kind.is_restoration()).count(),
            now: SimTime::ZERO,
            busy: [SimDuration::ZERO; 5],
            trace,
            lanes,
            name: String::new(),
        };
        for (id, op) in ops.iter().enumerate() {
            if op.deps.is_empty() {
                sched.ready[ready_queue(op.kind)].push(Reverse(id as u32));
            }
        }
        sched
    }

    /// Starts the next piece of operator `id` at `now`.
    fn start(&mut self, id: u32) {
        let st = self.state[id as usize];
        let duration = if st.pieces == 1 {
            self.ops[id as usize].duration
        } else if st.next_piece + 1 < st.pieces {
            st.piece
        } else {
            self.ops[id as usize].duration - st.piece * (st.pieces - 1)
        };
        let end = self.now + duration;
        if let Some(lanes) = self.lanes {
            use std::fmt::Write;
            let label = self.ops[id as usize].label;
            let label = if st.pieces == 1 {
                label
            } else {
                label.with_micro(st.next_piece as usize)
            };
            self.name.clear();
            let _ = write!(self.name, "{label}");
            let lane = lanes[ResourceClass::for_kind(st.kind) as usize];
            self.trace
                .span(Track::Lane(lane), phase(st.kind), &self.name, self.now, end);
        }
        self.busy[busy_index(st.kind)] += duration;
        self.events.push(Reverse(Completion { at: end, id }));
        self.running += 1;
    }

    /// Dispatches as much ready work as resources allow at `now`.
    fn dispatch(&mut self) {
        // The Sequential policy models the strawman's strictly serial cold
        // start: at most one operator (of any kind) in flight at a time, and
        // no computation until every restoration operator is done.
        let sequential = self.config.policy == Policy::Sequential;
        while self.io_free && !(sequential && self.running > 0) {
            let Some(Reverse(id)) = self.ready[READY_IO].pop() else {
                break;
            };
            self.start(id);
            self.io_free = false;
        }
        while self.npu_free && !(sequential && self.running > 0) {
            let Some(Reverse(id)) = self.ready[READY_NPU].pop() else {
                break;
            };
            self.start(id);
            self.npu_free = false;
        }
        while self.cpu_free > 0 && !(sequential && self.running > 0) {
            // A ready CPU computation operator always wins over restoration.
            let queue = if (sequential && self.restoration_left > 0)
                || self.ready[READY_CPU_COMPUTE].is_empty()
            {
                READY_CPU_RESTORE
            } else {
                READY_CPU_COMPUTE
            };
            let Some(Reverse(id)) = self.ready[queue].pop() else {
                break;
            };
            self.start(id);
            self.cpu_free -= 1;
        }
    }

    /// Retires the piece ending at `event`; returns whether its operator is
    /// now complete.
    fn complete(&mut self, event: Completion) -> bool {
        let Completion { at, id } = event;
        self.now = at;
        let st = &mut self.state[id as usize];
        let kind = st.kind;
        match ResourceClass::for_kind(kind) {
            ResourceClass::Cpu => self.cpu_free += 1,
            ResourceClass::Npu => self.npu_free = true,
            ResourceClass::Io => self.io_free = true,
        }
        self.running -= 1;
        if st.next_piece + 1 < st.pieces {
            st.next_piece += 1;
            self.ready[ready_queue(kind)].push(Reverse(id));
            return false;
        }
        if kind.is_restoration() {
            self.restoration_left -= 1;
        }
        let rows = self.dependents_start[id as usize] as usize
            ..self.dependents_start[id as usize + 1] as usize;
        for &dep in &self.dependents[rows] {
            let st = &mut self.state[dep as usize];
            st.deps_remaining -= 1;
            if st.deps_remaining == 0 {
                self.ready[ready_queue(st.kind)].push(Reverse(dep));
            }
        }
        true
    }
}

/// Simulates the plan under the given configuration.
pub fn simulate(plan: &RestorePlan, config: &PipelineConfig) -> PipelineResult {
    debug_assert_eq!(plan.validate(), Ok(()));
    let mut sched = Scheduler::new(plan, config);
    let mut completed = 0usize;
    sched.dispatch();
    while completed < plan.ops.len() {
        let Reverse(event) = sched
            .events
            .pop()
            .expect("pipeline deadlocked: no runnable operator");
        if sched.complete(event) {
            completed += 1;
        }
        sched.dispatch();
    }

    // Events pop in time order, so the last completion is the makespan.
    PipelineResult {
        makespan: sched.now - SimTime::ZERO,
        busy_alloc: sched.busy[0],
        busy_load: sched.busy[1],
        busy_decrypt: sched.busy[2],
        busy_cpu_compute: sched.busy[3],
        busy_npu_compute: sched.busy[4],
        trace: sched.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore::RestoreRates;
    use llm::{ComputationGraph, CostModel, ModelSpec};

    fn plan(model: &ModelSpec, prompt: usize, cached_fraction: f64, occupancy: f64) -> RestorePlan {
        let graph = ComputationGraph::prefill(model, prompt);
        let cost = CostModel::rk3588();
        let profile = tz_hal::PlatformProfile::rk3588();
        let rates = RestoreRates::from_profile(&profile, occupancy, 4);
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let cached = (graph.total_param_bytes() as f64 * cached_fraction) as u64;
        RestorePlan::build(&graph, |i| times[i], &rates, cached)
    }

    fn config(policy: Policy) -> PipelineConfig {
        PipelineConfig {
            cpu_cores: 4,
            preempt_quantum: SimDuration::from_millis(2),
            policy,
            record_trace: true,
        }
    }

    #[test]
    fn pipelining_beats_sequential() {
        let plan = plan(&ModelSpec::qwen2_5_3b(), 256, 0.0, 0.8);
        let seq = simulate(&plan, &config(Policy::Sequential));
        let pri = simulate(&plan, &config(Policy::Priority));
        let pre = simulate(&plan, &config(Policy::PriorityPreemptive));
        assert!(
            pri.makespan < seq.makespan,
            "priority {} vs sequential {}",
            pri.makespan,
            seq.makespan
        );
        assert!(
            pre.makespan <= pri.makespan,
            "preemptive {} vs priority {}",
            pre.makespan,
            pri.makespan
        );
        // Sequential is at least the sum of the two phases' bottlenecks.
        let cp = plan.critical_paths();
        assert!(seq.makespan >= cp.lower_bound());
    }

    #[test]
    fn preemptive_schedule_is_close_to_the_lower_bound() {
        for (model, prompt) in [
            (ModelSpec::qwen2_5_3b(), 256usize),
            (ModelSpec::llama3_8b(), 512),
        ] {
            let plan = plan(&model, prompt, 0.2, 0.8);
            let result = simulate(&plan, &config(Policy::PriorityPreemptive));
            let bound = plan.critical_paths().lower_bound();
            let overhead =
                (result.makespan.as_secs_f64() - bound.as_secs_f64()) / bound.as_secs_f64();
            assert!(
                overhead < 0.15,
                "{}@{prompt}: makespan {} vs bound {} ({overhead:.3})",
                model.name,
                result.makespan,
                bound
            );
        }
    }

    #[test]
    fn makespan_never_beats_the_lower_bound() {
        for policy in [
            Policy::Sequential,
            Policy::Priority,
            Policy::PriorityPreemptive,
        ] {
            let plan = plan(&ModelSpec::tinyllama_1_1b(), 128, 0.0, 0.5);
            let result = simulate(&plan, &config(policy));
            assert!(result.makespan >= plan.critical_paths().lower_bound());
        }
    }

    #[test]
    fn caching_reduces_makespan_monotonically() {
        let mut last = SimDuration::MAX;
        for cached in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let plan = plan(&ModelSpec::qwen2_5_3b(), 32, cached, 0.8);
            let result = simulate(&plan, &config(Policy::PriorityPreemptive));
            assert!(
                result.makespan <= last + SimDuration::from_millis(5),
                "cached {cached}: {} vs previous {last}",
                result.makespan
            );
            last = result.makespan;
        }
    }

    #[test]
    fn fully_cached_run_is_pure_computation() {
        let plan = plan(&ModelSpec::qwen2_5_3b(), 128, 1.0, 0.8);
        let result = simulate(&plan, &config(Policy::PriorityPreemptive));
        assert_eq!(result.busy_load, SimDuration::ZERO);
        assert_eq!(result.busy_alloc, SimDuration::ZERO);
        assert_eq!(result.busy_decrypt, SimDuration::ZERO);
        let compute = result.busy_cpu_compute + result.busy_npu_compute;
        // Chain-structured graph: makespan equals total compute time.
        let diff = (result.makespan.as_secs_f64() - compute.as_secs_f64()).abs();
        assert!(diff < 1e-6);
    }

    #[test]
    fn busy_times_are_conserved_across_policies() {
        let plan = plan(&ModelSpec::tinyllama_1_1b(), 64, 0.0, 0.5);
        let a = simulate(&plan, &config(Policy::Priority));
        let b = simulate(&plan, &config(Policy::PriorityPreemptive));
        // The same work is done regardless of the schedule.
        let total = |r: &PipelineResult| {
            (r.busy_alloc + r.busy_load + r.busy_decrypt + r.busy_cpu_compute + r.busy_npu_compute)
                .as_secs_f64()
        };
        assert!((total(&a) - total(&b)).abs() < 1e-6);
    }

    /// The name of the lane track a pipeline span lives on.
    fn lane_of<'t>(trace: &'t Telemetry, span: &sim_core::TelemetrySpan) -> &'t str {
        match span.track {
            Track::Lane(lane) => trace.resolve(lane),
            Track::Request(_) => panic!("pipeline spans live on lane tracks"),
        }
    }

    #[test]
    fn trace_has_no_io_or_npu_conflicts() {
        let plan = plan(&ModelSpec::nano(), 16, 0.0, 0.5);
        let trace = simulate(&plan, &config(Policy::PriorityPreemptive)).trace;
        // Single-server resources must never run two spans at once.  (CPU
        // spans share the "cpu" lane across 4 cores, so only check io and
        // npu.)
        for lane in ["io", "npu"] {
            let mut spans: Vec<_> = trace
                .spans()
                .iter()
                .filter(|s| lane_of(&trace, s) == lane)
                .collect();
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                let overlap = w[0].start < w[1].end && w[1].start < w[0].end;
                assert!(!overlap, "{lane}: {:?} overlaps {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn traced_plan_exports_its_three_lanes_to_perfetto() {
        let plan = plan(&ModelSpec::nano(), 16, 0.0, 0.5);
        let trace = simulate(&plan, &config(Policy::PriorityPreemptive)).trace;
        let json = trace.chrome_trace_json();
        let track_names: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"thread_name\""))
            .collect();
        assert_eq!(track_names.len(), 3, "one named track per lane");
        for lane in ["cpu", "npu", "io"] {
            assert!(
                track_names
                    .iter()
                    .any(|l| l.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}"))),
                "{lane} lane track is named"
            );
        }
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            trace.spans().len(),
            "one complete event per span"
        );
    }

    /// SHA-256 of every policy × quantum × trace outcome over a grid of
    /// plans, recorded from the scheduler that expanded micro-operators
    /// eagerly.  Any change to a makespan, a busy time or a span (label,
    /// phase label, lane, start or end) changes the digest.
    const GOLDEN_DIGEST: &str = "4bf7d869a81149c440f7513b2efb218b36fbd833ffa6c6d7ad4a8be17137c677";

    #[test]
    fn schedules_match_the_golden_digest() {
        use std::fmt::Write;
        let mut hasher = tz_crypto::Sha256::new();
        let mut line = String::new();
        for profile in [
            tz_hal::PlatformProfile::rk3588(),
            tz_hal::PlatformProfile::rk3566(),
        ] {
            let cost = CostModel::rk3588();
            let rates = RestoreRates::from_profile(&profile, 0.8, profile.cma_migration_threads);
            for model in ModelSpec::catalogue() {
                for prompt in [1usize, 32, 128, 512] {
                    let graph = ComputationGraph::prefill(&model, prompt);
                    let times: Vec<SimDuration> =
                        graph.ops.iter().map(|o| cost.op_time(o)).collect();
                    for cached_fraction in [0.0, 0.37, 1.0] {
                        let cached = (graph.total_param_bytes() as f64 * cached_fraction) as u64;
                        let plan = RestorePlan::build(&graph, |i| times[i], &rates, cached);
                        for policy in [
                            Policy::Sequential,
                            Policy::Priority,
                            Policy::PriorityPreemptive,
                        ] {
                            for (quantum_ms, record_trace) in [(0u64, false), (2, true)] {
                                let r = simulate(
                                    &plan,
                                    &PipelineConfig {
                                        cpu_cores: profile.big_cores,
                                        preempt_quantum: SimDuration::from_millis(quantum_ms),
                                        policy,
                                        record_trace,
                                    },
                                );
                                line.clear();
                                let _ = writeln!(
                                    line,
                                    "{} {} {} {} {} {} {} {}",
                                    r.makespan.as_nanos(),
                                    r.busy_alloc.as_nanos(),
                                    r.busy_load.as_nanos(),
                                    r.busy_decrypt.as_nanos(),
                                    r.busy_cpu_compute.as_nanos(),
                                    r.busy_npu_compute.as_nanos(),
                                    r.trace.spans().len(),
                                    plan.ops.len(),
                                );
                                for s in r.trace.spans() {
                                    let _ = writeln!(
                                        line,
                                        "{}|{}|{}|{}|{}",
                                        r.trace.resolve(s.label),
                                        s.phase.label(),
                                        lane_of(&r.trace, s),
                                        s.start.as_nanos(),
                                        s.end.as_nanos()
                                    );
                                }
                                hasher.update(line.as_bytes());
                            }
                        }
                    }
                }
            }
        }
        let digest: String = hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(digest, GOLDEN_DIGEST);
    }
}
