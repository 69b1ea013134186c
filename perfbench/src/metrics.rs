//! The metric catalog and the result line.
//!
//! Every workload reports every metric of the pass it runs: the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! A per-layer metric whose layer a workload does not reach reads 0 (for
//! example `par.*` on the serial workloads); the README lists which.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("partition_s", "s"),
    m("epoch_s", "s"),
    m("epoch_max_s", "s"),
    m("cut", "count"),
    m("imbalance", "ratio"),
    m("cost_volume", "B"),
    m("makespan_model_s", "s"),
    m("peak_heap_mb", "MB"),
];

/// Measured by the traced pass.
pub const PER_LAYER: &[Metric] = &[
    m("hypergraph.build_s", "s"),
    m("hypergraph.pins", "count"),
    m("graphpart.initial_s", "s"),
    m("amr.next_s", "s"),
    m("amr.commit_s", "s"),
    m("amr.cells", "count"),
    m("core.repart_s", "s"),
    m("core.patch_s", "s"),
    m("core.measure_s", "s"),
    m("core.delta_epochs", "count"),
    m("core.full_rebuilds", "count"),
    m("core.migration_items", "count"),
    m("partitioner.coarsen_s", "s"),
    m("partitioner.initial_s", "s"),
    m("partitioner.refine_s", "s"),
    m("partitioner.vcycle_s", "s"),
    m("partitioner.warm_self_s", "s"),
    m("partitioner.pins_scanned_per_pin", "ratio"),
    m("partitioner.fm_moves_attempted", "count"),
    m("partitioner.fm_accept_ratio", "ratio"),
    m("partitioner.refine_ns_per_move", "ns"),
    m("partitioner.rebalance_invocations", "count"),
    m("partitioner.speedup_2t", "ratio"),
    m("par.dist_coarsen_s", "s"),
    m("par.dist_initial_s", "s"),
    m("par.dist_refine_s", "s"),
    m("mpisim.msgs_per_epoch", "count"),
    m("mpisim.bytes_per_epoch", "B"),
    m("trace.overhead", "ratio"),
    m("trace.leaf_coverage", "ratio"),
];

/// The catalog a pass must fill.
pub fn catalog(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values collected by one run, keyed by catalog name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// The last line of a run: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {…}}` with every metric of `catalog` in catalog order.
///
/// # Panics
/// Panics if a catalog metric is missing, is not finite, or a value has
/// no catalog entry: each is a bug in the workload code.
pub fn result_line(catalog: &[Metric], values: &Values, attempted: u64, failed: u64) -> String {
    let extra: Vec<&str> = values
        .names()
        .filter(|n| !catalog.iter().any(|m| m.name == *n))
        .collect();
    assert!(extra.is_empty(), "metrics outside the catalog: {extra:?}");
    let mut metrics = String::new();
    for (i, m) in catalog.iter().enumerate() {
        let v = values
            .get(m.name)
            .unwrap_or_else(|| panic!("metric {} not measured", m.name));
        assert!(v.is_finite(), "metric {} is {v}", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let key = format!("\"{section}\"");
        let start = doc.find(&key).expect("section present") + key.len();
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, k: &str| -> String {
            let pat = format!("\"{k}\": \"");
            let at = obj.find(&pat).unwrap_or_else(|| panic!("{k} in {obj}")) + pat.len();
            obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
        };
        body.split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn listed(catalog: &[Metric]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), listed(END_TO_END));
        assert_eq!(declared("per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn result_line_lists_the_catalog_in_order() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let cat = &END_TO_END[..1];
        assert_eq!(
            result_line(cat, &v, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(cat, &v, 3, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn result_line_refuses_a_missing_metric() {
        result_line(&END_TO_END[..2], &Values::default(), 1, 0);
    }
}
