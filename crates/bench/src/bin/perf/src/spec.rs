//! The benchmark's declaration, read from the `BENCHMARK.json` compiled into
//! the binary: the one place workloads, metric names, units, directions and
//! bounds are written down. A run that measures a metric the file does not
//! declare, or fails to measure one it does, panics.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen; only
    /// end-to-end metrics have one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            root.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: root
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// Render measured `(name, value)` pairs as the driver's `metrics`
    /// object, in declared order. `declared` is `end_to_end` or `per_layer`.
    pub fn render(declared: &[Metric], measured: &[(String, f64)]) -> Json {
        for (name, _) in measured {
            assert!(
                declared.iter().any(|m| &m.name == name),
                "metric {name} is measured but not declared in BENCHMARK.json"
            );
        }
        Json::obj(declared.iter().map(|m| {
            let value = measured
                .iter()
                .find(|(name, _)| name == &m.name)
                .unwrap_or_else(|| panic!("metric {} is declared but was not measured", m.name))
                .1;
            (
                m.name.clone(),
                Json::obj([("value", Json::num(value)), ("unit", Json::str(&m.unit))]),
            )
        }))
    }
}
