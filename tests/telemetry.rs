//! End-to-end properties of the serving telemetry subsystem: lifecycle
//! spans reconcile exactly with recorded TTFTs, lane occupancy never
//! exceeds capacity, the step loop's batch/spec/chunk spans show up when
//! the corresponding features run, and the Chrome trace-event export is
//! structurally sound.  The observe-only proof (telemetry on == telemetry
//! off, bit for bit, against the committed baseline) lives in
//! `crates/bench/tests/serial_reproduction.rs`.

use sim_core::{Phase, SimDuration, Track};
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn catalogue() -> Vec<llm::ModelSpec> {
    MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn cold_heavy_traced(requests: usize) -> ServingReport {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.1 },
        requests,
        &MODELS,
    );
    Server::run_workload(config, catalogue(), &workload, 0x7E1E)
}

#[test]
fn telemetry_is_off_by_default_and_exports_nothing() {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    assert!(!config.telemetry);
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.2 }, 10, &MODELS);
    let report = Server::run_workload(config, catalogue(), &workload, 1);
    assert!(report.telemetry.is_none());
}

#[test]
fn lifecycle_spans_tile_each_requests_ttft_exactly() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(report.records.len(), 60);
    for r in &report.records {
        // The TTFT phases tile [arrival, first_token] without gap or
        // overlap: exact nanosecond equality, no rounding slack.
        assert_eq!(
            telemetry.request_ttft_span_sum(r.request.id),
            r.ttft_e2e(),
            "request {} span sum != recorded TTFT",
            r.request.id
        );
        // And they really tile: sorted by start, consecutive spans abut.
        let mut spans: Vec<_> = telemetry
            .request_spans(r.request.id)
            .filter(|s| s.phase.counts_toward_ttft())
            .collect();
        spans.sort_by_key(|s| s.start);
        assert_eq!(spans.first().expect("spans exist").start, r.arrival);
        for w in spans.windows(2) {
            assert_eq!(
                w[0].end, w[1].start,
                "request {} lifecycle spans must abut",
                r.request.id
            );
        }
        assert_eq!(spans.last().expect("spans exist").end, r.first_token);
        // Decode follows the first token and stays out of the TTFT sum.
        let decode: Vec<_> = telemetry
            .request_spans(r.request.id)
            .filter(|s| s.phase == Phase::Decode)
            .collect();
        for d in decode {
            assert_eq!(d.start, r.first_token);
            assert_eq!(d.end, r.completed);
        }
    }
}

#[test]
fn step_loop_spans_cover_batching_and_chunked_prefills() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let count = |phase: Phase| {
        telemetry
            .spans()
            .iter()
            .filter(|s| s.phase == phase)
            .count()
    };
    assert_eq!(
        count(Phase::BatchStep) as u64,
        report.fleet.batch_steps,
        "one BatchStep span per batched step"
    );
    assert!(
        count(Phase::PrefillChunk) > 0,
        "chunked prefills must appear on the NPU track"
    );
    // Chunk spans nest inside their step: every PrefillChunk lies within
    // some BatchStep interval on the same lane track.
    let steps: Vec<_> = telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::BatchStep)
        .collect();
    for chunk in telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::PrefillChunk)
    {
        assert!(
            steps.iter().any(|st| st.track == chunk.track
                && st.start <= chunk.start
                && chunk.end <= st.end),
            "prefill chunk must nest inside a batched step"
        );
    }
    for step in &steps {
        let label = telemetry.resolve(step.label);
        let occupancy: u32 = label
            .strip_prefix("step occ=")
            .and_then(|occ| occ.parse().ok())
            .unwrap_or_else(|| panic!("step label {label:?} is `step occ=<n>`"));
        assert!(occupancy >= 1, "steps always carry at least one sequence");
    }
}

#[test]
fn speculative_steps_record_draft_and_verify_spans() {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    config.speculation = SpeculationConfig::paper_default();
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.1 }, 40, &MODELS);
    let report = Server::run_workload(config, catalogue(), &workload, 0x5bec);
    assert!(report.fleet.spec_steps > 0, "speculation must engage");
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let spans = |phase: Phase| {
        telemetry
            .spans()
            .iter()
            .filter(move |s| s.phase == phase)
            .count()
    };
    assert!(spans(Phase::SpecDraft) > 0, "draft rounds must be visible");
    assert_eq!(
        spans(Phase::SpecDraft),
        spans(Phase::SpecVerify),
        "every draft pass pairs with a verify sweep"
    );
}

#[test]
fn occupancy_spans_respect_lane_capacities() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let mut occupancy_spans = 0usize;
    for s in telemetry.spans() {
        if s.phase != Phase::Occupancy {
            continue;
        }
        occupancy_spans += 1;
        assert!(matches!(s.track, Track::Lane(_)));
        let label = telemetry.resolve(s.label);
        let (name, level) = label
            .split_once('=')
            .expect("occupancy label is name=level");
        let level: u64 = level.parse().expect("numeric level");
        let lane = report
            .resources
            .iter()
            .find(|l| l.name == name)
            .expect("occupancy span names a registered lane");
        assert!(
            level >= 1 && level <= lane.capacity,
            "lane {name} occupancy {level} outside [1, {}]",
            lane.capacity
        );
        assert!(s.end > s.start, "occupancy segments have extent");
    }
    assert!(
        occupancy_spans > 0,
        "the ledger journal must yield segments"
    );
}

#[test]
fn chrome_trace_export_is_structurally_sound() {
    let report = cold_heavy_traced(30);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let json = telemetry.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // One complete event per span, metadata for both track processes, and
    // counter events for the gauge series.
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        telemetry.spans().len()
    );
    assert!(json.contains("\"name\":\"requests\""));
    assert!(json.contains("\"name\":\"lanes\""));
    assert!(json.contains("\"ph\":\"C\""));
    // Every request track is named with its model and session style.
    assert!(json.matches("\"ph\":\"M\"").count() >= report.records.len());
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "braces and brackets balance");

    // The textual reports ride on the same data.
    let waterfall = tzllm::ttft_waterfall(&report);
    assert_eq!(waterfall.lines().count(), report.records.len() + 1);
    let cp = tzllm::critical_path_report(&report);
    assert!(
        cp.attributed_fraction() >= 0.90,
        "cold TTFT attribution fell to {:.1}%",
        cp.attributed_fraction() * 100.0
    );
}

#[test]
fn sealing_shows_up_on_the_cpu_lane_under_kv_pressure() {
    let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
    config.kv.budget_fraction = 0.02;
    config.telemetry = true;
    let workload = WorkloadSpec::chat(6, 48, SimDuration::from_secs(30), "qwen2.5-3b");
    let report = Server::run_workload(
        config,
        vec![llm::ModelSpec::qwen2_5_3b()],
        &workload,
        0xCAA7,
    );
    assert!(
        report.fleet.kv_spilled_bytes > 0,
        "the squeezed budget must force sealing"
    );
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    // Each seal span is labelled `seal req <id> (<bytes> B)`.
    let seals: Vec<u64> = telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::Seal)
        .map(|s| {
            let label = telemetry.resolve(s.label);
            label
                .strip_suffix(" B)")
                .and_then(|head| head.rsplit_once(" ("))
                .and_then(|(_, bytes)| bytes.parse().ok())
                .unwrap_or_else(|| panic!("seal label {label:?} names its bytes"))
        })
        .collect();
    assert!(
        !seals.is_empty(),
        "seal events must be visible on the lane tracks"
    );
    assert_eq!(
        seals.iter().sum::<u64>(),
        report.fleet.kv_spilled_bytes,
        "seal spans must account every spilled byte"
    );
}

/// The Perfetto export of four fixed telemetry-on runs, hashed into one
/// SHA-256 — a golden digest of every span, label, track name and gauge
/// sample the serving layer records.  It covers the cold-heavy lifecycle
/// tiling, sealing and kv-unseal under KV pressure, speculative draft and
/// verify spans, and interrupted restore-aheads on the serial slot path.
/// Any change to what telemetry records, or to the order it records it
/// in, moves this digest.
#[test]
fn chrome_trace_export_matches_golden_digest() {
    let mut hasher = tz_crypto::Sha256::new();
    let mut absorb = |report: &ServingReport| {
        let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
        hasher.update(telemetry.chrome_trace_json().as_bytes());
    };

    absorb(&cold_heavy_traced(30));

    let mut chat = ServingConfig::chat_default(PlatformProfile::rk3588());
    chat.kv.budget_fraction = 0.02;
    // At RK3588's decrypt rate the NPU window hides every unseal; a slow
    // decrypt engine makes part of it surface as a kv-unseal span.
    chat.profile.decrypt_bytes_per_sec = 5e7;
    chat.telemetry = true;
    let workload = WorkloadSpec::chat(6, 48, SimDuration::from_secs(30), "qwen2.5-3b");
    let report = Server::run_workload(chat, vec![llm::ModelSpec::qwen2_5_3b()], &workload, 0xCAA7);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    for phase in [Phase::Seal, Phase::KvUnseal] {
        assert!(
            telemetry.spans().iter().any(|s| s.phase == phase),
            "the KV-pressure run must record {} spans",
            phase.label()
        );
    }
    absorb(&report);

    let mut spec = ServingConfig::paper_default(PlatformProfile::rk3588());
    spec.telemetry = true;
    spec.speculation = SpeculationConfig::paper_default();
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.1 }, 20, &MODELS);
    let report = Server::run_workload(spec, catalogue(), &workload, 0x5bec);
    assert!(report.fleet.spec_steps > 0, "speculation must engage");
    absorb(&report);

    let mut serial = ServingConfig::serial(PlatformProfile::rk3588());
    serial.retention = tzllm::serving::RetentionPolicy::ReleaseAll;
    serial.restore_ahead = true;
    serial.telemetry = true;
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.08 }, 30, &MODELS);
    let report = Server::run_workload(serial, catalogue(), &workload, 11);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    assert!(
        telemetry
            .spans()
            .iter()
            .any(|s| s.phase == Phase::RestoreAhead
                && telemetry.resolve(s.label).contains("(interrupted)")),
        "the serial run must cancel at least one in-flight restore"
    );
    absorb(&report);

    let hex: String = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(hex, GOLDEN_TRACE_DIGEST);
}

/// Computed on the telemetry store as it stood before its counter and
/// histogram registry was removed: the export never contained either, so
/// that removal leaves every byte in place.
const GOLDEN_TRACE_DIGEST: &str =
    "8cb52275787d9f4fc64ec39f945d41c7327142926808c3959719335a9a022f33";
