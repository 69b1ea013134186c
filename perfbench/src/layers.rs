//! Per-layer figures read from the spans and counters `dlb_trace`
//! records inside the crates.

use std::collections::BTreeMap;

use dlb_trace::{Counter, TraceReport};

/// Span and counter totals summed over the traced operations of a run.
#[derive(Default)]
pub struct TraceTotals {
    /// Total duration per span name, nanoseconds.
    span_ns: BTreeMap<&'static str, u64>,
    /// Self time per span name: duration minus the time its children
    /// cover, nanoseconds.
    self_ns: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
    root_ns: u64,
    leaf_ns: u64,
}

impl TraceTotals {
    pub fn add(&mut self, report: &TraceReport) {
        for (name, (_, ns)) in report.phase_totals() {
            *self.span_ns.entry(name).or_default() += ns;
        }
        for s in &report.spans {
            let children: u64 = s.children.iter().map(|&c| report.spans[c].dur_ns).sum();
            *self.self_ns.entry(s.name).or_default() += s.dur_ns.saturating_sub(children);
        }
        for (name, v) in &report.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for root in report.roots() {
            self.root_ns += report.spans[root].dur_ns;
            self.leaf_ns += report.leaf_duration_ns(root);
        }
    }

    /// Summed duration of the spans named `names`, seconds.
    pub fn span_s(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.span_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Summed self time of the spans named `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    pub fn counter(&self, c: Counter) -> f64 {
        self.counters.get(c.name()).copied().unwrap_or(0) as f64
    }

    /// Share of the root spans' wall time covered by leaf spans.
    pub fn leaf_coverage(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.leaf_ns as f64 / self.root_ns as f64
        }
    }

    /// Span names whose summed self time is at least `share` of `wall_s`,
    /// largest first, with that share.
    pub fn hot_spans(&self, wall_s: f64, share: f64) -> Vec<(&'static str, f64)> {
        let mut hot: Vec<(&'static str, f64)> = self
            .self_ns
            .iter()
            .map(|(&name, &ns)| (name, ns as f64 * 1e-9 / wall_s))
            .filter(|&(_, s)| s >= share)
            .collect();
        hot.sort_by(|a, b| b.1.total_cmp(&a.1));
        hot
    }
}
