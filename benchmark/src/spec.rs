//! `BENCHMARK.json` as the harness reads it: the one place metric
//! names, units, directions and bounds are written down. The harness
//! emits exactly the metrics the file lists, so the two cannot drift.

use crate::json::{self, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(v: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = v.get(key).and_then(Value::as_arr).ok_or(format!("missing array '{key}'"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f).and_then(Value::as_str).ok_or(format!("{key}: metric without '{f}'"))
            };
            Ok(MetricDef {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: match field("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{key}: better = '{other}'")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let workloads = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("missing array 'workloads'")?
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Value::as_str).map(str::to_string);
                field("name").zip(field("why")).ok_or("workload without name/why".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: v.get("run_seconds").and_then(Value::as_f64).ok_or("no run_seconds")?,
            workloads,
            end_to_end: metric_defs(&v, "end_to_end")?,
            per_layer: metric_defs(&v, "per_layer")?,
        })
    }

    /// The `BENCHMARK.json` beside the benchmark's directory.
    pub fn load() -> Result<Spec, String> {
        let path = crate::host::bench_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads.iter().find(|(n, _)| n == workload).map_or("", |(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_file_meets_the_contract_and_names_every_workload() {
        let spec = Spec::load().unwrap();
        let implemented: Vec<&str> = crate::workloads::REGISTRY.iter().map(|e| e.name).collect();
        let listed: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(listed, implemented);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up time carries the largest bound");
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()))
            .collect();
        for n in &names {
            let ok = n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "name '{n}'");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for m in &spec.end_to_end {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        for (_, why) in &spec.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in &spec.per_layer {
            let measured = crate::workloads::REGISTRY.iter().any(|e| e.measures(&m.name));
            assert!(measured, "no workload measures '{}'", m.name);
        }
    }
}
