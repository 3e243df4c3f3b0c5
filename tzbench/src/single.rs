//! The single-device serving workloads: `chat_kv` and `agent_decode`.
//!
//! Both are closed loops on one RK3588.  One iteration sets up a
//! [`Server`] (config, catalogue, traffic generation, `Server::new`,
//! submit) and runs it to completion; the iteration repeats with the same
//! seed until the measuring time is up, so every iteration simulates the
//! same trace and must produce the same digest.

use std::time::Instant;

use llm::ModelSpec;
use sim_core::SimDuration;
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, SpeculationConfig};
use workloads::WorkloadSpec;

use crate::analyse::{self, Device};
use crate::trace::{SpanId, Tracer};
use crate::{host_end_to_end, measure, overhead_pct, plan, setup_samples, Options, Outcome};

/// The one model both workloads serve.
const MODEL: &str = "qwen2.5-3b";

/// A closed-loop workload on one device.
pub struct SingleDevice {
    config: fn() -> ServingConfig,
    workload: fn(&Options) -> WorkloadSpec,
}

/// `chat_kv`: 8 assistant sessions sharing a 512-token system prompt with a
/// 30 s mean think time, on the chat config with a secure-KV budget tight
/// enough that retained pages seal out to normal-world spill.
pub fn chat_kv() -> SingleDevice {
    SingleDevice {
        config: || {
            let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
            config.kv.budget_fraction = 0.02;
            config
        },
        workload: |opts| {
            WorkloadSpec::assistant(
                8,
                opts.scaled(8_000, 40),
                SimDuration::from_secs(30),
                512,
                MODEL,
            )
        },
    }
}

/// `agent_decode`: 12 agent sessions with a 2 s think time on the paper
/// config with draft-model speculation (qwen2.5-0.5b, k = 4).
pub fn agent_decode() -> SingleDevice {
    SingleDevice {
        config: || {
            let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
            config.speculation = SpeculationConfig::paper_default();
            config
        },
        workload: |opts| {
            WorkloadSpec::agent_burst(
                12,
                opts.scaled(300_000, 40),
                SimDuration::from_secs(2),
                MODEL,
            )
        },
    }
}

/// One iteration's timings and result.
struct Iteration {
    setup_s: f64,
    run_s: f64,
    generated: usize,
    device: Device,
}

impl SingleDevice {
    /// Set-up: config, catalogue, traffic generation, `Server::new` and
    /// submit.  Returns the loaded server, its config, the requests
    /// generated and the host seconds taken.
    fn setup(
        &self,
        opts: &Options,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> (Server, ServingConfig, usize, f64) {
        let start = Instant::now();
        let config = (self.config)();
        let catalogue = vec![ModelSpec::by_name(MODEL).expect("a catalogue model")];
        let workload = (self.workload)(opts);
        let scripts = tracer.span("traffic.generate", parent, |_| workload.generate(opts.seed));
        let generated = scripts.iter().map(|s| s.requests.len()).sum();
        let mut server = tracer.span("serving.new", parent, |_| {
            Server::new(config.clone(), catalogue)
        });
        tracer.span("serving.submit", parent, |_| {
            for script in scripts {
                server.submit_script(script);
            }
        });
        (server, config, generated, start.elapsed().as_secs_f64())
    }

    fn iterate(&self, opts: &Options, tracer: &Tracer, parent: Option<SpanId>) -> Iteration {
        let (server, config, generated, setup_s) = self.setup(opts, tracer, parent);
        let start = Instant::now();
        let report = tracer.span("serving.run", parent, |_| server.run());
        let run_s = start.elapsed().as_secs_f64();
        Iteration {
            setup_s,
            run_s,
            generated,
            device: Device { config, report },
        }
    }

    /// Runs the workload: end-to-end metrics untraced, per-layer traced.
    pub fn run(&self, opts: &Options) -> Outcome {
        let submitted = (self.workload)(opts).requests as u64;
        let mut out = Outcome {
            attempted: submitted,
            threads: 1,
            ..Outcome::default()
        };
        let tracer = Tracer::on();
        let off = Tracer::off();
        let mut generated = 0;
        let mut batch_steps = 0.0;
        let mut plan_misses = 0.0;
        let mut replay = None;
        // Untraced runs time every iteration; traced runs alternate an
        // untraced and a traced iteration, so the two can be compared.  The
        // first iteration is analysed, and the first traced one replayed,
        // as they finish: only one report is alive at a time.
        let samples = measure(opts.seconds, if opts.trace { 4 } else { 3 }, |i| {
            let traced = opts.trace && i % 2 == 1;
            let it = if traced {
                tracer.span("bench.iteration", None, |root| {
                    self.iterate(opts, &tracer, root)
                })
            } else {
                self.iterate(opts, &off, None)
            };
            let devices = std::slice::from_ref(&it.device);
            if i == 0 {
                generated = it.generated;
                out.failed = analyse::check(devices, submitted, &mut out.checks).1;
                batch_steps = it.device.report.fleet.batch_steps as f64;
                plan_misses = it.device.report.fleet.plan_cache_misses as f64;
                if opts.trace {
                    analyse::layers(devices, submitted, &mut out.metrics);
                } else {
                    analyse::end_to_end(devices, submitted, &mut out.metrics, &mut out.checks);
                }
            }
            if traced && replay.is_none() {
                replay = Some(plan::replay(devices, 400, &tracer, None, &mut out.checks));
            }
            let digest = analyse::digest(devices);
            (
                traced,
                it.setup_s,
                it.run_s,
                digest,
                it.device.report.fleet.completed,
            )
        });
        out.iterations = samples.len();
        out.digest = samples[0].3.clone();
        out.checks.check(
            "traffic.generated_all",
            generated as u64 == submitted,
            || format!("generated {generated} of {submitted} requests"),
        );
        out.checks.check(
            "iterations.same_digest",
            samples.iter().all(|s| s.3 == out.digest),
            || "an iteration's simulated results differ from the first".to_string(),
        );

        let completed = samples[0].4 as f64;
        let (untraced, traced): (Vec<_>, Vec<_>) = samples.iter().partition(|s| !s.0);
        if !opts.trace {
            let run_s: Vec<f64> = untraced.iter().map(|s| s.2).collect();
            let setup_s = setup_samples(|| self.setup(opts, &off, None).3);
            host_end_to_end(&mut out.metrics, completed, &run_s, &setup_s);
            return out;
        }

        let replay = replay.expect("a traced iteration");
        out.spans = tracer.into_spans();
        let m = &mut out.metrics;
        analyse::host_layers(
            m,
            &out.spans,
            traced.len(),
            generated,
            batch_steps,
            plan_misses,
            replay.build_us,
        );
        let total = |v: &[&(bool, f64, f64, String, usize)]| -> Vec<f64> {
            v.iter().map(|s| s.1 + s.2).collect()
        };
        m.host(
            "trace.overhead_pct",
            overhead_pct(&total(&traced), &total(&untraced)),
            "%",
        );
        out
    }
}
