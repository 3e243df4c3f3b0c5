//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path tzbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed on its own line with its unit, its kind
//! (simulated, host or idle) and, where it is a percentile or a mean, its
//! sample count.  The full result, the run context and (traced) the spans
//! are written under `tzbench/out/`.  The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics.  A failed
//! output check exits 1.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tzbench::metrics::result_line;
use tzbench::{complete_metrics, host_cores, run, trace, Options, WORKLOADS};

const USAGE: &str = "usage: tzbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok((
        workload,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            scale: 1.0,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&workload, &opts).expect("workload validated by parse");
    complete_metrics(&mut outcome, opts.trace);

    let context = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"worker_threads\": {}, \"iterations\": {}, \
         \"rustc\": \"{}\", \"digest\": \"{}\", \"generator_lateness_s\": 0}}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_cores(),
        outcome.threads,
        outcome.iterations,
        env!("TZBENCH_RUSTC_VERSION"),
        outcome.digest,
    );
    println!("context {context}");
    println!(
        "note: the open loop is simulated, so requests are generated exactly on \
         schedule (generator lateness 0 by construction); the serving workloads \
         have no reference result from the paper and are unvalidated"
    );
    for m in &outcome.metrics.0 {
        let samples = m.samples.map_or(String::new(), |n| format!(", n={n}"));
        println!(
            "{:<40} {:>16} {:<6} [{}{samples}]",
            m.name,
            m.value,
            m.unit,
            m.kind.label()
        );
    }
    let mut failed_checks = 0;
    for (name, ok, detail) in &outcome.checks.0 {
        if !ok {
            failed_checks += 1;
            println!("CHECK FAILED {name}: {detail}");
        }
    }
    println!(
        "checks: {} passed, {failed_checks} failed",
        outcome.checks.0.len() - failed_checks
    );

    let correct = outcome.checks.all_ok();
    if let Err(e) = write_result(&workload, &opts, &context, &outcome, correct) {
        eprintln!("could not write the result files: {e}");
    }
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics.0
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the full result (context, metrics with kinds and sample counts,
/// checks) and, for traced runs, the spans under `tzbench/out/`.
fn write_result(
    workload: &str,
    opts: &Options,
    context: &str,
    outcome: &tzbench::Outcome,
    correct: bool,
) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{workload}-seed{}-trace{}", opts.seed, u8::from(opts.trace));
    let mut json =
        format!("{{\n  \"context\": {context},\n  \"correct\": {correct},\n  \"metrics\": [\n");
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        let samples = m.samples.map_or("null".to_string(), |n| n.to_string());
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"kind\": \"{}\", \"samples\": {samples}}}{}",
            m.name,
            m.value,
            m.unit,
            m.kind.label(),
            if i + 1 < outcome.metrics.0.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"checks\": [\n");
    for (i, (name, ok, detail)) in outcome.checks.0.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"ok\": {ok}, \"detail\": \"{}\"}}{}",
            detail.replace('"', "'"),
            if i + 1 < outcome.checks.0.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(dir.join(format!("{stem}.json")), json)?;
    if opts.trace {
        std::fs::write(
            dir.join(format!("{stem}-spans.json")),
            trace::to_json(&outcome.spans, workload),
        )?;
    }
    Ok(())
}
