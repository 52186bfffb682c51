//! The metric registry is `BENCHMARK.json` itself (compiled in): names,
//! units, directions and bounds are declared once, there. A run fills in
//! values by name and prints exactly the declared metrics of its mode.

use serde_json::Value;
use std::collections::BTreeMap;

/// `BENCHMARK.json`, as built into this binary.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub unit: String,
    /// `true` when higher values are better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Def>,
    pub per_layer: Vec<Def>,
}

impl Spec {
    pub fn load() -> Spec {
        let v = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let defs = |key: &str| -> Vec<Def> {
            v[key]
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
                .iter()
                .map(|d: &Value| Def {
                    name: d["name"].as_str().expect("metric name").to_string(),
                    unit: d["unit"].as_str().expect("metric unit").to_string(),
                    higher: d["better"].as_str() == Some("higher"),
                    bound: d["bound"].as_f64(),
                })
                .collect()
        };
        Spec {
            run_seconds: v["run_seconds"].as_f64().expect("run_seconds"),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }

    /// The declaration of metric `name`, in either list.
    pub fn def(&self, name: &str) -> Option<&Def> {
        self.end_to_end.iter().chain(&self.per_layer).find(|d| d.name == name)
    }
}

/// One run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Takes the value of every metric in `defs` from `values`. Returns
    /// the names declared but not measured, and measured but not
    /// declared, as an error: either is a bug in the benchmark.
    pub fn new(
        attempted: u64,
        failed: u64,
        defs: &[Def],
        mut values: BTreeMap<String, f64>,
    ) -> Result<Report, String> {
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for d in defs {
            match values.remove(d.name.as_str()) {
                Some(v) if v.is_finite() => metrics.push((d.name.clone(), v, d.unit.clone())),
                Some(v) => return Err(format!("metric {} is {v}", d.name)),
                None => missing.push(d.name.as_str()),
            }
        }
        if !missing.is_empty() || !values.is_empty() {
            let extra: Vec<_> = values.keys().collect();
            return Err(format!("metrics not measured: {missing:?}; not declared: {extra:?}"));
        }
        Ok(Report { correct: failed == 0, attempted: attempted.max(1), failed, metrics })
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
