//! Execution-engine selection for kernel dispatches.
//!
//! Every dispatch runs on one of two engines, in the pocl shape of one
//! fast work-group path plus one portable reference path:
//!
//! * [`Engine::Native`] — the work-group native engine
//!   ([`crate::minicl::native`]): the stack bytecode is lowered once per
//!   kernel to validated register IR ([`crate::minicl::regir`]), which is
//!   lowered again to a direct-threaded handler chain with device
//!   functions inlined, memory accesses pre-resolved per dispatch, and the
//!   work-item loop hoisted around barrier-free code. This is the default.
//! * [`Engine::Stack`] — the reference stack interpreter
//!   ([`crate::minicl::interp`]). The automatic fallback whenever either
//!   lowering declines a kernel (recursive device functions,
//!   depth-inconsistent hand-built bytecode, ambiguous device-function
//!   returns).
//!
//! Both engines are deterministic and produce byte-identical buffers,
//! identical `group_ops` and identical traps — the engine choice changes
//! *host wall-clock* only, never virtual time. The process-wide default can
//! be overridden per kernel via [`crate::Kernel::set_engine`] or
//! process-wide via [`set_default_engine`]; the wall-clock benchmark
//! harnesses use the latter to time both engines.

use std::sync::atomic::{AtomicBool, Ordering};

/// Which execution engine runs a kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Reference stack-bytecode interpreter (the fallback).
    Stack,
    /// Work-group native engine compiled via the register IR.
    Native,
}

impl Engine {
    /// Stable lower-case label used in traces and benchmark JSON.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Stack => "stack",
            Engine::Native => "native",
        }
    }
}

/// Process-wide default: `true` selects the stack engine, `false` native.
static DEFAULT_IS_STACK: AtomicBool = AtomicBool::new(false);

/// The process-wide default engine for new dispatches (native unless
/// changed). Kernels without a per-kernel override use this.
pub fn default_engine() -> Engine {
    if DEFAULT_IS_STACK.load(Ordering::Relaxed) {
        Engine::Stack
    } else {
        Engine::Native
    }
}

/// Set the process-wide default engine. Affects subsequent dispatches of
/// every kernel without a per-kernel override; used by the wall-clock
/// benchmark harnesses to time both engines on identical workloads.
pub fn set_default_engine(engine: Engine) {
    DEFAULT_IS_STACK.store(engine == Engine::Stack, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Engine::Stack.label(), "stack");
        assert_eq!(Engine::Native.label(), "native");
    }

    #[test]
    fn default_roundtrip() {
        let orig = default_engine();
        set_default_engine(Engine::Stack);
        assert_eq!(default_engine(), Engine::Stack);
        set_default_engine(Engine::Native);
        assert_eq!(default_engine(), Engine::Native);
        set_default_engine(orig);
    }
}
