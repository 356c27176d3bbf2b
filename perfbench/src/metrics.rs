//! Metric names and units, and the result line every run ends with.
//!
//! The two tables here are the benchmark's schema: `BENCHMARK.json` at
//! the repository root lists the same names and units (a test keeps the
//! two in step). An untraced run reports exactly [`END_TO_END`]; a traced
//! run reports exactly [`PER_LAYER`].

use std::collections::BTreeMap;

/// One reported metric: its name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name, e.g. `vm.run_ms`.
    pub name: &'static str,
    /// Unit as printed, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, measured with tracing off. An
/// operation ("op") is one job on the batch workloads (compile plus run
/// of every app in the mix) and one request on `serve-mixed`.
pub const END_TO_END: &[MetricDef] = &[
    m("job_ms_p50", "ms"),
    m("job_ms_p90", "ms"),
    m("latency_ms_p50", "ms"),
    m("latency_ms_p90", "ms"),
    m("capacity_rps", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Single layers, measured in a separate traced run. Times and counts
/// are per op unless the name says otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    m("job_ms", "ms"),
    m("lang.parse_ms", "ms"),
    m("analysis.analyze_ms", "ms"),
    m("analysis.compile_ms", "ms"),
    m("vm.run_ms", "ms"),
    m("vm.ops", "count"),
    m("vm.kernel_ops", "count"),
    m("ensemble.overhead_ms", "ms"),
    m("oclsim.copencl_ms", "ms"),
    m("oclsim.kops_per_s", "kop/s"),
    m("oclsim.dispatches", "count"),
    m("oclsim.kernel_ops", "count"),
    m("layer.residual_ms", "ms"),
    m("engine.native_frac", "frac"),
    m("serve.solo_ms", "ms"),
    m("serve.wait_ms", "ms"),
    m("serve.completed", "count"),
    m("serve.rejected", "count"),
    m("serve.overloaded", "count"),
    m("serve.deadline_exceeded", "count"),
    m("serve.failed", "count"),
    m("serve.evictions", "count"),
    m("serve.evicted_bytes", "bytes"),
    m("loadgen.late_ms_max", "ms"),
    m("trace.overhead_frac", "frac"),
    m("trace.events", "count"),
    m("vclock.to_device_ns", "vns"),
    m("vclock.from_device_ns", "vns"),
    m("vclock.kernel_ns", "vns"),
    m("vclock.vm_ns", "vns"),
];

/// True for a name `BENCHMARK.json` accepts: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a unit `BENCHMARK.json` accepts: 1 to 16 letters,
/// digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The last line of a run: correctness plus one value per metric.
#[derive(Debug, Clone, Default)]
pub struct ResultLine {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or mismatched their reference.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl ResultLine {
    /// Render as the one-line JSON object, with exactly the metrics of
    /// `set`, each with its unit. Errs when a metric of `set` is missing,
    /// an extra one is present, or a value is not finite.
    pub fn to_json(&self, set: &[MetricDef]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !set.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{extra}` is not in the reported set"));
        }
        let mut parts = Vec::with_capacity(set.len());
        for d in set {
            let v = *self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite: {v}", d.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}
