//! Self-tests of the benchmark: span arithmetic, the metric-name grammar,
//! `BENCHMARK.json` itself, and that every declared metric is emitted.
//!
//! Run with `cargo test --release --manifest-path tzbench/Cargo.toml`.

use std::collections::BTreeSet;

use tzbench::metrics::{
    declared_names, valid_name, validate_names, Kind, BENCHMARK_JSON, MAX_END_TO_END, MAX_PER_LAYER,
};
use tzbench::trace::{self_times, Span, Tracer};
use tzbench::{complete_metrics, run, Options, Outcome, WORKLOADS};

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_nested_children() {
    // root [0,100) > child [10,60) > grandchild [20,30)
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 60),
        span(2, Some(1), 20, 30),
    ];
    let t = self_times(&spans);
    assert_eq!(t[&0], 50);
    assert_eq!(t[&1], 40);
    assert_eq!(t[&2], 10);
}

#[test]
fn self_time_subtracts_siblings_once_each() {
    // Disjoint siblings [10,20) and [30,50): 30 covered.
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 20),
        span(2, Some(0), 30, 50),
    ];
    assert_eq!(self_times(&spans)[&0], 70);
}

#[test]
fn self_time_counts_overlapping_siblings_as_their_union() {
    // Parallel shards [10,40) and [20,50) cover [10,50); a third [45,60)
    // extends it to [10,60); a child poking past the parent is clipped.
    let spans = [
        span(0, None, 0, 100),
        span(1, Some(0), 10, 40),
        span(2, Some(0), 20, 50),
        span(3, Some(0), 45, 60),
        span(4, Some(0), 90, 120),
    ];
    let t = self_times(&spans);
    assert_eq!(t[&0], 100 - 50 - 10);
    assert_eq!(t[&4], 30);
}

#[test]
fn tracer_records_parents_and_nothing_when_off() {
    let tracer = Tracer::on();
    tracer.span("outer", None, |outer| {
        tracer.span("inner", outer, |_| ());
    });
    let spans = tracer.into_spans();
    assert_eq!(spans.len(), 2);
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(inner.parent, Some(outer.id));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

    let off = Tracer::off();
    assert_eq!(off.span("x", None, |id| id), None);
    assert!(off.into_spans().is_empty());
}

#[test]
fn metric_names_follow_the_grammar() {
    for ok in [
        "ttft_p50_s",
        "cp.share.flash",
        "fleet.ttft_p50_s.rk3588",
        "9lives",
        "a-b",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "a".repeat(65);
    for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ünï", long.as_str()] {
        assert!(!valid_name(bad), "{bad:?}");
    }
    assert!(valid_name(&"a".repeat(64)));
}

#[test]
fn metric_lists_are_capped_and_unique() {
    let names = |n: usize| (0..n).map(|i| format!("m{i}")).collect::<Vec<_>>();
    assert!(validate_names(&names(16), MAX_END_TO_END).is_ok());
    assert!(validate_names(&names(17), MAX_END_TO_END).is_err());
    assert!(validate_names(&names(128), MAX_PER_LAYER).is_ok());
    assert!(validate_names(&names(129), MAX_PER_LAYER).is_err());
    assert!(validate_names(&[], MAX_END_TO_END).is_err());
    let twice = vec!["a".to_string(), "a".to_string()];
    assert!(validate_names(&twice, MAX_END_TO_END).is_err());
}

#[test]
fn benchmark_json_declares_valid_metrics_and_the_workloads() {
    let e2e = declared_names(BENCHMARK_JSON, "end_to_end");
    let layers = declared_names(BENCHMARK_JSON, "per_layer");
    validate_names(&e2e, MAX_END_TO_END).unwrap();
    validate_names(&layers, MAX_PER_LAYER).unwrap();
    assert!(
        e2e.iter().all(|n| !layers.contains(n)),
        "a name in both sections"
    );
    assert!(e2e.contains(&"setup_s".to_string()));
    assert_eq!(declared_names(BENCHMARK_JSON, "workloads"), WORKLOADS);
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace,
        scale: 0.02,
    };
    let mut outcome = run(workload, &opts).expect("a known workload");
    complete_metrics(&mut outcome, trace);
    outcome
}

/// Checks that neither depend on the input size.
fn size_independent_checks_pass(outcome: &Outcome) {
    for (name, ok, detail) in &outcome.checks.0 {
        if !name.ends_with("has_tail_samples") {
            assert!(ok, "check {name} failed: {detail}");
        }
    }
}

#[test]
fn every_declared_metric_is_emitted_by_some_workload() {
    let mut emitted = BTreeSet::new();
    for workload in WORKLOADS {
        let untraced = tiny(workload, 7, false);
        size_independent_checks_pass(&untraced);
        let traced = tiny(workload, 7, true);
        size_independent_checks_pass(&traced);
        emitted.extend(
            traced
                .metrics
                .0
                .iter()
                .filter(|m| m.kind != Kind::Idle)
                .map(|m| m.name.clone()),
        );
    }
    let missing: Vec<String> = declared_names(BENCHMARK_JSON, "per_layer")
        .into_iter()
        .filter(|n| !emitted.contains(n))
        .collect();
    assert!(missing.is_empty(), "no workload emits {missing:?}");
}

#[test]
fn a_seed_reproduces_every_simulated_metric_and_digest() {
    for workload in WORKLOADS {
        let sim = |o: &Outcome| -> Vec<(String, u64)> {
            o.metrics
                .0
                .iter()
                .filter(|m| m.kind == Kind::Sim)
                .map(|m| (m.name.clone(), m.value.to_bits()))
                .collect()
        };
        let a = tiny(workload, 11, false);
        let b = tiny(workload, 11, false);
        assert_eq!(a.digest, b.digest, "{workload}");
        assert_eq!(sim(&a), sim(&b), "{workload}");
        let other = tiny(workload, 12, false);
        assert_ne!(a.digest, other.digest, "{workload}: the seed must matter");
    }
}
