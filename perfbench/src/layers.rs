//! Per-layer attribution of one op's host time.
//!
//! Each input is the median, over the traced run's rounds, of one layer
//! call's time per op, timed from outside by the benchmark:
//!
//! * `compile_ms`: `ensemble_analysis::compile_source`, the gated
//!   front end, on the op path.
//! * `vm_run_ms`: `VmRuntime::run` on the op path.
//! * `parse_ms`, `analyze_ms`: `ensemble_lang::parse` and
//!   `ensemble_analysis::analyze` called on their own, as probes of the
//!   two stages inside `compile_source`.
//! * `copencl_ms`: the app's hand-written C-OpenCL host path, a probe of
//!   what the simulator costs for the same work without the actor
//!   runtime.
//!
//! The attribution splits `job_ms` into self times that sum back to it
//! exactly, with the residual being host time between the timed calls.

/// Per-op medians of the timed calls, in ms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// The whole op on the op path.
    pub job_ms: f64,
    /// `ensemble_lang::parse` probe.
    pub parse_ms: f64,
    /// `ensemble_analysis::analyze` probe.
    pub analyze_ms: f64,
    /// `ensemble_analysis::compile_source` on the op path.
    pub compile_ms: f64,
    /// `VmRuntime::run` on the op path.
    pub vm_run_ms: f64,
    /// C-OpenCL host path probe.
    pub copencl_ms: f64,
}

/// One row of the attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Layer label.
    pub layer: &'static str,
    /// Self time per op, ms.
    pub self_ms: f64,
}

/// The split of `job_ms` into layer self times plus a residual.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Layer rows, in call order.
    pub rows: Vec<Row>,
    /// `job_ms` minus the timed calls on the op path.
    pub residual_ms: f64,
}

impl LayerTimes {
    /// `vm_run_ms` minus `copencl_ms`: the actor runtime's host cost
    /// over hand-written host code doing the same device work.
    pub fn ensemble_overhead_ms(&self) -> f64 {
        self.vm_run_ms - self.copencl_ms
    }

    /// Split `job_ms` into self times. `compile_source` is parse, then
    /// analysis, then code generation, so its self time is what the two
    /// probes leave; `VmRuntime::run` is the simulator's share (the
    /// C-OpenCL probe) plus the Ensemble overhead.
    pub fn attribute(&self) -> Attribution {
        let rows = vec![
            Row {
                layer: "lang.parse",
                self_ms: self.parse_ms,
            },
            Row {
                layer: "analysis.analyze",
                self_ms: self.analyze_ms,
            },
            Row {
                layer: "lang.codegen",
                self_ms: self.compile_ms - self.parse_ms - self.analyze_ms,
            },
            Row {
                layer: "oclsim (C-OpenCL probe)",
                self_ms: self.copencl_ms,
            },
            Row {
                layer: "ensemble.overhead",
                self_ms: self.ensemble_overhead_ms(),
            },
        ];
        Attribution {
            rows,
            residual_ms: self.job_ms - self.compile_ms - self.vm_run_ms,
        }
    }
}

impl Attribution {
    /// Sum of the self times plus the residual; equals `job_ms`.
    pub fn total_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.self_ms).sum::<f64>() + self.residual_ms
    }
}
