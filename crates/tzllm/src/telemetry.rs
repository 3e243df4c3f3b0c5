//! Serving-telemetry reports: TTFT waterfalls and critical-path
//! attribution.
//!
//! `sim_core::telemetry` owns the raw span store and the Perfetto export.
//! This module owns the one TTFT tiling, [`lifecycle_segments`]: the
//! serving layer lays a completed request's track spans end to end from
//! it, and the reports below read it too.  It turns a finished
//! [`ServingReport`] into the two textual analyses the serving benchmarks
//! print:
//!
//! * [`ttft_waterfall`] — one line per request tiling its end-to-end TTFT
//!   into queue / init / alloc / kv-unseal / pipeline / prefill segments
//!   (the segments the request's telemetry track was built from, so the
//!   segment sum reconciles with the recorded TTFT exactly);
//! * [`critical_path_report`] — for every *cold* request (one that
//!   restored parameters from flash), names the device lane that bounded
//!   its TTFT and attributes each breakdown component to a lane, so a
//!   fleet trace answers "what do we buy by making flash/decrypt/alloc/NPU
//!   faster?" (the paper's Figure 12 question, asked fleet-wide).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sim_core::{Phase, SimDuration};

use crate::serving::{RequestRecord, ServingReport};

/// One request's TTFT tiled into its lifecycle phases.
///
/// These are the request track's TTFT spans: laid end to end from the
/// arrival they cover `[arrival, first_token]` without gap or overlap, so
/// their sum equals [`RequestRecord::ttft_e2e`] by construction.  `Queued`
/// covers the admission wait.  The breakdown components (`framework_init`,
/// `working_alloc`, `kv_restore`) follow in that order, clipped to the
/// pre-NPU window; `RestorePipeline` absorbs the pipelined-overlap residue
/// of that window, and `Prefill` runs from its end to the first token.
/// Zero-length segments are left out.
pub fn lifecycle_segments(record: &RequestRecord) -> Vec<(Phase, SimDuration)> {
    let report = &record.report;
    let b = &report.breakdown;
    // The exclusive NPU hold sits at the tail of the service TTFT; what
    // precedes it is the pre-NPU window the breakdown components fill.
    let npu_hold = (report.npu_busy + b.npu_overhead).min(report.ttft);
    let service = record.service_ttft();
    let pre_npu = report.ttft.saturating_sub(npu_hold).min(service);
    let mut out = vec![(Phase::Queued, record.queue_wait())];
    let mut used = SimDuration::ZERO;
    for (phase, d) in [
        (Phase::FrameworkInit, b.framework_init),
        (Phase::WorkingAlloc, b.working_alloc),
        (Phase::KvUnseal, b.kv_restore),
    ] {
        let take = d.min(pre_npu.saturating_sub(used));
        out.push((phase, take));
        used += take;
    }
    out.push((Phase::RestorePipeline, pre_npu.saturating_sub(used)));
    out.push((Phase::Prefill, service.saturating_sub(pre_npu)));
    out.retain(|&(_, d)| d > SimDuration::ZERO);
    out
}

/// Renders one line per request tiling its end-to-end TTFT into the
/// lifecycle segments, in arrival order.  Each line ends with the segment
/// sum and the recorded TTFT — always equal, which the telemetry tests
/// assert — so the waterfall doubles as a visual reconciliation check.
pub fn ttft_waterfall(report: &ServingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "req",
        "model",
        "queue",
        "init",
        "alloc",
        "unseal",
        "pipeline",
        "prefill",
        "sum_ms",
        "ttft_ms"
    );
    let mut records: Vec<&RequestRecord> = report.records.iter().collect();
    records.sort_by_key(|r| (r.arrival, r.request.id));
    for r in records {
        let segs = lifecycle_segments(r);
        let get = |phase: Phase| {
            segs.iter()
                .find(|&&(p, _)| p == phase)
                .map(|&(_, d)| d.as_millis_f64())
                .unwrap_or(0.0)
        };
        let sum: f64 = segs.iter().map(|&(_, d)| d.as_millis_f64()).sum();
        let _ = writeln!(
            out,
            "{:>6} {:<14} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {:>10.3}",
            r.request.id,
            r.request.model,
            get(Phase::Queued),
            get(Phase::FrameworkInit),
            get(Phase::WorkingAlloc),
            get(Phase::KvUnseal),
            get(Phase::RestorePipeline),
            get(Phase::Prefill),
            sum,
            r.ttft_e2e().as_millis_f64(),
        );
    }
    out
}

/// The lane attribution of one cold request's device-side TTFT.
#[derive(Debug, Clone)]
pub struct LaneAttribution {
    /// The request.
    pub request_id: u64,
    /// Its device-side (dispatch → first token) TTFT.
    pub ttft: SimDuration,
    /// The lane whose critical path bounded the restoration pipeline:
    /// `"flash"` (I/O path), `"decrypt"` (CPU path) or `"npu"` (compute
    /// path).
    pub bounding_lane: &'static str,
    /// TTFT attributed to named lanes (everything except pipeline slack).
    pub attributed: SimDuration,
    /// Pipeline makespan beyond the bounding path's length — scheduling
    /// slack no single lane explains.
    pub slack: SimDuration,
}

/// Fleet-wide critical-path attribution over the cold requests.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Per-request attributions, in request-id order.
    pub per_request: Vec<LaneAttribution>,
    /// Total TTFT attributed to each lane across the cold fleet.
    pub lane_totals: BTreeMap<&'static str, SimDuration>,
    /// Sum of cold device-side TTFTs.
    pub total_ttft: SimDuration,
    /// Of which attributed to a named lane.
    pub total_attributed: SimDuration,
}

impl CriticalPathReport {
    /// Fraction of cold TTFT attributed to named lanes (1.0 when there
    /// were no cold requests).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_ttft == SimDuration::ZERO {
            return 1.0;
        }
        self.total_attributed.as_secs_f64() / self.total_ttft.as_secs_f64()
    }

    /// A compact textual summary: lane totals, the attribution fraction,
    /// and the dominant lane.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path attribution over {} cold requests ({:.3} s cold TTFT):",
            self.per_request.len(),
            self.total_ttft.as_secs_f64()
        );
        for (lane, total) in &self.lane_totals {
            let share = if self.total_ttft > SimDuration::ZERO {
                total.as_secs_f64() / self.total_ttft.as_secs_f64() * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {lane:<8} {:>10.3} s  {share:>5.1}%",
                total.as_secs_f64()
            );
        }
        let _ = writeln!(
            out,
            "  attributed {:.1}% of cold TTFT to named lanes",
            self.attributed_fraction() * 100.0
        );
        out
    }
}

/// Attributes every cold request's device-side TTFT to named lanes.
///
/// The breakdown components map directly — `framework_init` → `init`,
/// `working_alloc` → `alloc`, `kv_restore` → `decrypt`, `npu_overhead` →
/// `npu` — and the pipeline makespan goes to the lane whose critical path
/// bounded it ([`crate::restore::CriticalPaths::lower_bound`]): the I/O
/// path is the flash lane, the CPU path the decrypt threads, the compute
/// path the NPU.  Only the makespan's slack beyond the bounding path
/// stays unattributed, so the attributed fraction is a direct measure of
/// how completely the three-path model explains cold latency.
pub fn critical_path_report(report: &ServingReport) -> CriticalPathReport {
    let mut out = CriticalPathReport::default();
    for r in &report.records {
        if r.report.restored_bytes == 0 {
            continue; // warm dispatch: nothing restored, no cold path
        }
        let b = &r.report.breakdown;
        let paths = &r.report.critical_paths;
        let bound = paths.lower_bound();
        let bounding_lane = if bound == paths.io {
            "flash"
        } else if bound == paths.cpu {
            "decrypt"
        } else {
            "npu"
        };
        let pipeline_attr = b.pipeline.min(bound);
        let slack = b.pipeline.saturating_sub(bound);
        let ttft = r.service_ttft();
        let mut add = |lane: &'static str, d: SimDuration| {
            if d > SimDuration::ZERO {
                *out.lane_totals.entry(lane).or_insert(SimDuration::ZERO) += d;
                out.total_attributed += d;
            }
        };
        add("init", b.framework_init);
        add("alloc", b.working_alloc);
        add("decrypt", b.kv_restore);
        add("npu", b.npu_overhead);
        add(bounding_lane, pipeline_attr);
        // Under continuous batching the chunked prefill interleaves with
        // decode steps, so the realised dispatch→first-token window
        // exceeds the plan's TTFT by the interleave wait — NPU sharing by
        // construction.
        add("npu", r.prefill_stall);
        out.total_ttft += ttft;
        out.per_request.push(LaneAttribution {
            request_id: r.request.id,
            ttft,
            bounding_lane,
            attributed: ttft.saturating_sub(slack),
            slack,
        });
    }
    out.per_request.sort_by_key(|a| a.request_id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{Server, ServingConfig};
    use llm::ModelSpec;
    use tz_hal::PlatformProfile;

    fn report() -> ServingReport {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.telemetry = true;
        let mut server = Server::new(config, vec![ModelSpec::qwen2_5_3b()]);
        for i in 0..4 {
            server.submit_at(
                sim_core::SimTime::from_millis(i * 400),
                i,
                "qwen2.5-3b",
                128,
                16,
            );
        }
        server.run()
    }

    #[test]
    fn waterfall_segments_reconcile_with_ttft() {
        let report = report();
        for r in &report.records {
            let sum: SimDuration = lifecycle_segments(r).iter().map(|&(_, d)| d).sum();
            assert_eq!(
                sum,
                r.ttft_e2e(),
                "request {} segments must tile its TTFT",
                r.request.id
            );
        }
        let text = ttft_waterfall(&report);
        assert!(text.contains("qwen2.5-3b"));
        assert_eq!(text.lines().count(), report.records.len() + 1);
    }

    /// A first token that lands inside the breakdown components clips
    /// them: the tiling stops at the first token, and the pipeline residue
    /// and prefill segments vanish.  No simulated run reaches this guard,
    /// so the record is edited by hand.
    #[test]
    fn segments_clip_to_a_short_service_window() {
        let report = report();
        let mut r = report.records[0].clone();
        let b = r.report.breakdown;
        let half_alloc = SimDuration::from_nanos(b.working_alloc.as_nanos() / 2);
        assert!(b.framework_init > SimDuration::ZERO && half_alloc > SimDuration::ZERO);
        r.first_token = r.dispatched + b.framework_init + half_alloc;
        let mut expected = vec![
            (Phase::FrameworkInit, b.framework_init),
            (Phase::WorkingAlloc, half_alloc),
        ];
        if r.queue_wait() > SimDuration::ZERO {
            expected.insert(0, (Phase::Queued, r.queue_wait()));
        }
        assert_eq!(lifecycle_segments(&r), expected);
    }

    #[test]
    fn cold_ttft_attributes_to_named_lanes() {
        let report = report();
        let cp = critical_path_report(&report);
        assert!(
            !cp.per_request.is_empty(),
            "a cold fleet must have cold requests"
        );
        assert!(
            cp.attributed_fraction() >= 0.90,
            "only {:.1}% of cold TTFT attributed",
            cp.attributed_fraction() * 100.0
        );
        let text = cp.render_text();
        assert!(text.contains("attributed"));
    }
}
