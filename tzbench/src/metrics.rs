//! Metric values, the metric-name grammar, and the result line.

use std::fmt::Write as _;

/// `BENCHMARK.json`, compiled in so the binary and the self-tests check the
/// metrics they emit against the names it declares.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Most end-to-end metrics `BENCHMARK.json` may declare.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics `BENCHMARK.json` may declare.
pub const MAX_PER_LAYER: usize = 128;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the modelled RK3588-class device would take or do:
    /// deterministic for a given seed.
    Sim,
    /// What the simulator itself takes on the host running it: noisy.
    Host,
    /// A per-layer metric whose layer does no work on this workload; it
    /// reads 0.
    Idle,
}

impl Kind {
    /// Short tag printed next to each value.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Host => "host",
            Kind::Idle => "idle",
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value, unrounded.
    pub value: f64,
    /// Unit, e.g. `"s"`, `"ms"`, `"count"`.
    pub unit: String,
    /// Simulated or host time.
    pub kind: Kind,
    /// How many samples a percentile or mean was taken over, when it was.
    pub samples: Option<usize>,
}

/// An ordered collection of metrics under construction.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a simulated metric.
    pub fn sim(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Sim, None);
    }

    /// Adds a host metric.
    pub fn host(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name.into(), value, unit, Kind::Host, None);
    }

    /// Adds a simulated metric taken over `samples` samples.
    pub fn sim_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.push(name.into(), value, unit, Kind::Sim, Some(n));
    }

    /// Adds a metric.
    pub fn push(&mut self, name: String, value: f64, unit: &str, kind: Kind, n: Option<usize>) {
        self.0.push(Metric {
            name,
            value,
            unit: unit.to_string(),
            kind,
            samples: n,
        });
    }

    /// The metric named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Checks a metric name against the grammar: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a declared metric list: every name valid, none repeated, at most
/// `cap` of them.
pub fn validate_names(names: &[String], cap: usize) -> Result<(), String> {
    if names.is_empty() || names.len() > cap {
        return Err(format!(
            "{} metrics declared, allowed 1..={cap}",
            names.len()
        ));
    }
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} breaks the grammar"));
        }
        if names[..i].contains(name) {
            return Err(format!("metric name {name:?} declared twice"));
        }
    }
    Ok(())
}

/// The `(name, unit)` pairs of one section (`"end_to_end"`, `"per_layer"`)
/// of a `BENCHMARK.json` document, in declaration order.  Entries without a
/// unit (`"workloads"`) get an empty one.  The file's entries are flat
/// objects of plain strings, which is all this reader handles.
pub fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let key = format!("\"{section}\"");
    let Some(at) = json.find(&key) else {
        return Vec::new();
    };
    let rest = &json[at + key.len()..];
    let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) else {
        return Vec::new();
    };
    rest[open + 1..close]
        .split('}')
        .filter_map(|object| {
            let name = string_field(object, "name")?;
            Some((name, string_field(object, "unit").unwrap_or_default()))
        })
        .collect()
}

/// The value of string field `key` in a flat JSON object's text.
fn string_field(object: &str, key: &str) -> Option<String> {
    let after = &object[object.find(&format!("\"{key}\""))? + key.len() + 2..];
    let value = &after[after.find('"')? + 1..];
    Some(value[..value.find('"')?].to_string())
}

/// The metric names of one section of a `BENCHMARK.json` document.
pub fn declared_names(json: &str, section: &str) -> Vec<String> {
    declared(json, section)
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// The last stdout line: `correct`, `attempted`, `failed` and the metrics
/// as `{"name": {"value": v, "unit": "u"}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
