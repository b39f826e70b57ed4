//! Metric names, units, the run outcome and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (printed with `--trace 0`), with their units.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("place_s", "s"),
    ("hpwl", "site"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_min", "1/min"),
];

/// Per-layer metrics (printed with `--trace 1`), with their units. A
/// layer a workload does not run reads 0 there (the serve layers on the
/// placement workloads, the in-process placement layers on serve).
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("density.total_s", "s"),
    ("density.spectral_s", "s"),
    ("density.raster_gather_s", "s"),
    ("density.update_ms", "ms"),
    ("density.gather_ms", "ms"),
    ("density.poisson_ms", "ms"),
    ("wirelength.grad_s", "s"),
    ("wirelength.grad_calls", "count"),
    ("wirelength.eval_ms", "ms"),
    ("wirelength.pins_per_s", "1/s"),
    ("placer.global_s", "s"),
    ("placer.global.iters", "count"),
    ("placer.global.unattributed_s", "s"),
    ("engine.parallel_share", "ratio"),
    ("placer.legalize_s", "s"),
    ("placer.detail_s", "s"),
    ("placer.detail.swap_accept", "ratio"),
    ("placer.detail.reorder_accept", "ratio"),
    ("placer.detail.matching_accept", "ratio"),
    ("netlist.parse_s", "s"),
    ("netlist.write_s", "s"),
    ("placement.total_s", "s"),
    ("placement.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.queue.peak_depth", "count"),
    ("loadgen.lag_ms", "ms"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations attempted (placements or serve jobs).
    pub(crate) attempted: u64,
    /// Operations that failed any check.
    pub(crate) failed: u64,
    /// One line per failed check.
    pub(crate) problems: Vec<String>,
    /// Measured values by metric name.
    pub(crate) values: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the result line.
    pub(crate) notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check of one operation.
    pub(crate) fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Sets a metric value.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every metric of `set` (a missing or non-finite
    /// value is itself a failure of the harness).
    pub(crate) fn result_line(&mut self, set: &[(&'static str, &str)]) -> String {
        let mut metrics = String::new();
        for (k, (name, unit)) in set.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if k > 0 {
                metrics.push(',');
            }
            metrics.push_str(&format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
        }
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
            self.is_correct(),
            self.attempted.max(1),
            self.failed
        )
    }

    /// True when every check passed.
    pub(crate) fn is_correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Median of `v` (0 for an empty slice).
pub(crate) fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The highest percentile with at least ten samples beyond it (the
/// 11th-largest value), with the percentile it stands for. Below 21
/// samples no percentile above the median has ten samples beyond it, so
/// the tail falls back to the median.
pub(crate) fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        n if n < 21 => (median(&s), 50.0),
        n => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}
