//! Criterion micro-benchmarks for the performance-critical building blocks:
//! the pipeline scheduler, the restoration-plan builder, AES-CTR and SHA-256,
//! TZASC access checks, CMA allocation estimation, computation-graph
//! construction and the functional nano-model forward pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use llm::{ComputationGraph, CostModel, FunctionalModel, KvCache, ModelSpec};
use sim_core::SimDuration;
use tz_crypto::{AesCtr, Sha256};
use tz_hal::{DeviceId, PhysAddr, PhysRange, Tzasc, World};
use tzllm::{simulate, PipelineConfig, Policy, RestorePlan, RestoreRates};

fn bench_pipeline(c: &mut Criterion) {
    let model = ModelSpec::qwen2_5_3b();
    let graph = ComputationGraph::prefill(&model, 128);
    let cost = CostModel::rk3588();
    let profile = tz_hal::PlatformProfile::rk3588();
    let rates = RestoreRates::from_profile(&profile, 0.8, 4);
    let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
    let plan = RestorePlan::build(&graph, |i| times[i], &rates, 0);
    let config = PipelineConfig {
        cpu_cores: 4,
        preempt_quantum: SimDuration::from_millis(2),
        policy: Policy::PriorityPreemptive,
        record_trace: true,
    };
    c.bench_function("pipeline_simulate_qwen_128", |b| {
        b.iter(|| simulate(std::hint::black_box(&plan), std::hint::black_box(&config)))
    });
    c.bench_function("restore_plan_build_qwen_128", |b| {
        b.iter(|| RestorePlan::build(&graph, |i| times[i], &rates, 0))
    });

    // The serving dispatch configuration: no trace, on the RK3566, whose
    // slower decrypt lane splits into the most micro-operators.
    let rk3566 = tz_hal::PlatformProfile::rk3566();
    let rates = RestoreRates::from_profile(&rk3566, 0.8, rk3566.cma_migration_threads);
    let plan = RestorePlan::build(&graph, |i| times[i], &rates, 0);
    let config = PipelineConfig {
        cpu_cores: rk3566.big_cores,
        record_trace: false,
        ..config
    };
    c.bench_function("pipeline_simulate_qwen_128_rk3566_notrace", |b| {
        b.iter(|| simulate(std::hint::black_box(&plan), std::hint::black_box(&config)))
    });
}

fn bench_crypto(c: &mut Criterion) {
    let key = [0x42u8; 32];
    let nonce = [7u8; 16];
    let ctr = AesCtr::new(&key, &nonce).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    c.bench_function("aes256_ctr_64kib", |b| {
        b.iter(|| ctr.apply(std::hint::black_box(&mut buf)))
    });
    let data = vec![0xa5u8; 64 * 1024];
    c.bench_function("sha256_64kib", |b| {
        b.iter(|| Sha256::digest(std::hint::black_box(&data)))
    });
}

fn bench_tzasc(c: &mut Criterion) {
    let mut tzasc = Tzasc::new();
    for i in 0..8u64 {
        tzasc
            .configure_region(
                World::Secure,
                PhysRange::new(PhysAddr::new(0x1_0000_0000 + i * 0x1000_0000), 0x100_0000),
                [DeviceId::Npu],
            )
            .unwrap();
    }
    let probe = PhysRange::new(PhysAddr::new(0x1_0500_0000), 0x1000);
    c.bench_function("tzasc_dma_check", |b| {
        b.iter(|| tzasc.check_dma_access(DeviceId::Npu, std::hint::black_box(probe)))
    });
    c.bench_function("tzasc_cpu_check", |b| {
        b.iter(|| tzasc.check_cpu_access(World::NonSecure, std::hint::black_box(probe)))
    });
}

fn bench_graph_and_model(c: &mut Criterion) {
    let spec = ModelSpec::llama3_8b();
    c.bench_function("graph_build_llama3_512", |b| {
        b.iter(|| ComputationGraph::prefill(std::hint::black_box(&spec), 512))
    });

    let nano = ModelSpec::nano();
    let model = FunctionalModel::generate(&nano, 7);
    c.bench_function("nano_forward_token", |b| {
        b.iter_batched(
            || KvCache::new(&nano, 8, true),
            |mut cache| model.forward_token(3, &mut cache),
            BatchSize::SmallInput,
        )
    });
}

fn bench_cma(c: &mut Criterion) {
    use ree_kernel::CmaRegion;
    use sim_core::{Bandwidth, GIB};
    let mut cma = CmaRegion::new(
        PhysRange::new(PhysAddr::new(0x1_0000_0000), 9 * GIB),
        Bandwidth::from_bytes_per_sec(1.9e9),
        260,
    );
    cma.set_memory_pressure(6 * GIB);
    c.bench_function("cma_estimate_8gib", |b| {
        b.iter(|| cma.estimate_alloc(std::hint::black_box(8 * GIB), 4))
    });
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_crypto,
    bench_tzasc,
    bench_graph_and_model,
    bench_cma
);
criterion_main!(benches);
