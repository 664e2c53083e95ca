//! What a run measured, and its two stdout lines: a self-describing
//! report, then the one-line result object.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gate::Gate;

/// One measured figure.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (1 for a single measurement).
    pub samples: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// End-to-end figures printed in the report but not bounded in
    /// `BENCHMARK.json` (too unsteady across runs to carry a bound).
    pub unbounded: BTreeMap<&'static str, Metric>,
    pub per_layer: BTreeMap<&'static str, Metric>,
    pub gates: Vec<Gate>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload shape and run facts, as preformatted JSON values.
    pub info: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.end_to_end.insert(name, metric(value, unit, samples));
    }

    pub fn unbounded(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.unbounded.insert(name, metric(value, unit, samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.per_layer.insert(name, metric(value, unit, samples));
    }

    pub fn info(&mut self, key: &'static str, json_value: impl Into<String>) {
        self.info.insert(key, json_value.into());
    }

    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.passed) && self.failed == 0
    }

    /// The self-describing report: run facts, gates, and every metric
    /// with its unit and sample count.
    pub fn describe_line(&self) -> String {
        let mut s = String::from("{\"perfbench\": {");
        for (k, v) in &self.info {
            let _ = write!(s, "{}: {v}, ", quote(k));
        }
        s.push_str("\"gates\": [");
        for (i, g) in self.gates.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"name\": {}, \"passed\": {}, \"detail\": {}}}",
                if i > 0 { ", " } else { "" },
                quote(&g.name),
                g.passed,
                quote(&g.detail)
            );
        }
        s.push_str("], ");
        for (label, map) in [
            ("end_to_end", &self.end_to_end),
            ("unbounded", &self.unbounded),
            ("per_layer", &self.per_layer),
        ] {
            let _ = write!(s, "{}: {{", quote(label));
            for (i, (name, m)) in map.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    if i > 0 { ", " } else { "" },
                    quote(name),
                    num(m.value),
                    quote(m.unit),
                    m.samples
                );
            }
            s.push_str("}, ");
        }
        let _ = write!(
            s,
            "\"attempted\": {}, \"failed\": {}}}}}",
            self.attempted, self.failed
        );
        s
    }

    /// The result object: `metrics` holds the end-to-end figures, or the
    /// per-layer ones for a traced run.
    pub fn result_line(&self, traced: bool) -> String {
        let map = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in map.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                quote(name),
                num(m.value),
                quote(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

fn metric(value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// A JSON number with every digit of the measurement.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
