//! Shared helpers of the `qdd-bench` binaries: `paper` regenerates the
//! paper's tables and figures (see DESIGN.md for the index), `chaos`,
//! `shards`, `serve` and `autotune` are the gated robustness and service
//! benches, `bench_mr` the measured Table II. Results are printed as
//! aligned text and written as JSON under `results/`.

use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::rng::Rng64;
use serde::{Map, Serialize, Value};

/// Standard synthetic test operator: random SU(3) gauge field with the
/// given roughness, clover csw = 1.5, antiperiodic t.
pub fn test_operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let gauge = GaugeField::random(dims, &mut rng, spread);
    let basis = GammaBasis::degrand_rossi();
    let clover = build_clover_field(&gauge, 1.5, &basis);
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

/// Random right-hand side.
pub fn test_source(dims: Dims, seed: u64) -> SpinorField<f64> {
    let mut rng = Rng64::new(seed);
    SpinorField::random(dims, &mut rng)
}

/// A structured result file with the workspace-wide schema
///
/// ```json
/// {"name": ..., "params": {...},
///  "series": [{"label": ..., "points": [...]}, ...],
///  "metadata": {...}}
/// ```
///
/// `params` are the inputs of the run (lattice, solver settings),
/// `series` the generated data (one labeled point list per curve or table
/// section), `metadata` free-form context such as paper reference values.
/// Every binary writes its `results/{name}.json` through this type, so
/// downstream plotting only has to understand one layout.
pub struct Report {
    name: String,
    params: Map,
    series: Vec<(String, Vec<Value>)>,
    metadata: Map,
}

impl Report {
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            params: Map::new(),
            series: Vec::new(),
            metadata: Map::new(),
        }
    }

    /// Record an input parameter of the run.
    pub fn param(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.params.insert(key.to_string(), value.into());
        self
    }

    /// Record free-form metadata (paper reference values, host info, ...).
    pub fn meta(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.metadata.insert(key.to_string(), value.into());
        self
    }

    /// Append one point to the named series, creating it on first use.
    /// Series keep their first-push order in the output.
    pub fn push(&mut self, series: &str, point: impl Serialize) -> &mut Self {
        let v = point.to_value();
        if let Some((_, points)) = self.series.iter_mut().find(|(label, _)| label == series) {
            points.push(v);
        } else {
            self.series.push((series.to_string(), vec![v]));
        }
        self
    }

    /// Write `results/{name}.json` (best effort).
    pub fn write(&self) {
        let _ = std::fs::create_dir_all("results");
        if let Ok(s) = serde_json::to_string_pretty(self) {
            let _ = std::fs::write(format!("results/{}.json", self.name), s);
        }
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("name".to_string(), Value::from(self.name.clone()));
        m.insert("params".to_string(), Value::Object(self.params.clone()));
        let series = self
            .series
            .iter()
            .map(|(label, points)| {
                let mut s = Map::new();
                s.insert("label".to_string(), Value::from(label.clone()));
                s.insert("points".to_string(), Value::Array(points.clone()));
                Value::Object(s)
            })
            .collect();
        m.insert("series".to_string(), Value::Array(series));
        m.insert("metadata".to_string(), Value::Object(self.metadata.clone()));
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_operator_is_well_formed() {
        let op = test_operator(Dims::new(4, 4, 4, 4), 0.5, 0.2, 1);
        assert!(op.gauge().max_unitarity_error() < 1e-10);
    }

    #[test]
    fn report_serializes_to_the_shared_schema() {
        let mut r = Report::new("demo");
        r.param("dims", "8x8x8x8").meta("paper", "Table II");
        r.push("model", 1.5f64).push("model", 2.5f64).push("paper", 3usize);
        let v = r.to_value();
        assert_eq!(v["name"].as_str(), Some("demo"));
        assert_eq!(v["params"]["dims"].as_str(), Some("8x8x8x8"));
        assert_eq!(v["series"][0]["label"].as_str(), Some("model"));
        assert_eq!(v["series"][0]["points"][1].as_f64(), Some(2.5));
        assert_eq!(v["series"][1]["label"].as_str(), Some("paper"));
        assert_eq!(v["series"][1]["points"][0].as_u64(), Some(3));
        assert_eq!(v["metadata"]["paper"].as_str(), Some("Table II"));
        // The JSON text parses back and keeps the four top-level keys.
        let parsed: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(parsed.as_object().unwrap().len(), 4);
    }
}
