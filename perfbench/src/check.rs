//! Output checks: every timed op is compared against a reference.
//!
//! * Ensemble runs against the stack interpreter, the repository's
//!   reference engine.
//! * C-OpenCL runs against each app's sequential `reference()`
//!   (see [`crate::workload::CApp::matches`]).
//! * Serving requests against a solo run of the same source through a
//!   fresh single-tenant server.
//!
//! References run after the measured phase, so they never count towards
//! set-up or op time.

use ensemble_serve::{Request, ServeConfig, Server};
use ensemble_vm::{VmReport, VmRuntime, VM_NS_PER_OP};
use oclsim::{set_default_engine, CoexecConfig, Engine, ProfileSink};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What one Ensemble run produced, reduced to what the check compares:
/// a hash of the printed output, the virtual-clock segments, and the
/// exact op counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// Hash of the printed output lines.
    pub output_hash: u64,
    /// Virtual clock: `[to_device, from_device, kernel, vm]` ns.
    pub vclock: [f64; 4],
    /// Kernel dispatches.
    pub dispatches: u64,
    /// Abstract kernel ops.
    pub kernel_ops: u64,
    /// Interpreted VM ops.
    pub vm_ops: u64,
}

impl Observed {
    /// Reduce a VM report.
    pub fn of(report: &VmReport) -> Observed {
        let mut h = DefaultHasher::new();
        report.output.hash(&mut h);
        let p = &report.profile;
        Observed {
            output_hash: h.finish(),
            vclock: [
                p.to_device_ns,
                p.from_device_ns,
                p.kernel_ns,
                report.vm_ops as f64 * VM_NS_PER_OP,
            ],
            dispatches: p.dispatches,
            kernel_ops: p.ops,
            vm_ops: report.vm_ops,
        }
    }

    /// Same output and op counts, and, when `vclock` is set, the same
    /// virtual clock. The segment totals are sums of identical
    /// per-command costs whose order follows actor-thread interleaving,
    /// so they compare within float re-association noise; the counts
    /// compare exactly.
    pub fn matches(&self, reference: &Observed, vclock: bool) -> bool {
        fn close(a: f64, b: f64) -> bool {
            a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
        }
        self.output_hash == reference.output_hash
            && self.dispatches == reference.dispatches
            && self.kernel_ops == reference.kernel_ops
            && self.vm_ops == reference.vm_ops
            && (!vclock
                || self
                    .vclock
                    .iter()
                    .zip(&reference.vclock)
                    .all(|(a, b)| close(*a, *b)))
    }
}

/// Compile `source` through the analysis gate and run it on a fresh VM
/// with the co-execution settings pinned, so `OCLSIM_COEXEC` cannot
/// change what runs. `profile` may carry a trace sink.
pub fn compile_and_run(source: &str, profile: ProfileSink) -> Result<VmReport, String> {
    let module = ensemble_analysis::compile_source(source, &ensemble_analysis::Options::default())
        .map_err(|e| format!("compile: {e}"))?;
    run_module(module, profile)
}

/// Run an already compiled module on a fresh, pinned VM.
pub fn run_module(
    module: ensemble_lang::CompiledModule,
    profile: ProfileSink,
) -> Result<VmReport, String> {
    let vm = VmRuntime::with_profile(module, profile);
    vm.set_coexec(CoexecConfig::default());
    vm.run().map_err(|e| format!("run: {e}"))
}

/// The stack-interpreter reference of an Ensemble source. Leaves the
/// process default on the native engine, which every measurement uses.
pub fn stack_reference(source: &str) -> Result<Observed, String> {
    set_default_engine(Engine::Stack);
    let result = compile_and_run(source, ProfileSink::new());
    set_default_engine(Engine::Native);
    result.map(|r| Observed::of(&r))
}

/// The solo-serving reference of a source: one request through a fresh
/// single-tenant server, no neighbours.
pub fn solo_reference(source: &str) -> Result<Observed, String> {
    let server = Server::new(ServeConfig {
        max_active: 1,
        max_waiting: 1,
        ..ServeConfig::default()
    });
    server
        .submit(Request::new(0, source))
        .map(|r| Observed::of(&r))
        .map_err(|e| format!("solo reference: {e}"))
}

/// Count the ops whose observations do not all match their app's
/// reference (see [`Observed::matches`] for `vclock`). `ops` holds, per
/// op, one `(app index, observation)` per app it ran; `None` marks a run
/// that returned an error.
pub fn count_failed(
    ops: &[Vec<(usize, Option<Observed>)>],
    references: &[Observed],
    vclock: bool,
) -> u64 {
    ops.iter()
        .filter(|runs| {
            runs.is_empty()
                || runs
                    .iter()
                    .any(|(app, o)| !o.is_some_and(|o| o.matches(&references[*app], vclock)))
        })
        .count() as u64
}
