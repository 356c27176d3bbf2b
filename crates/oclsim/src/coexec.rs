//! Proof-guided multi-device co-execution: split one kernel dispatch
//! across two device queues and merge completion on the virtual clock.
//!
//! The analysis crate proves per-kernel `SplitProof`s — which NDRange
//! dimensions can be cut into group-aligned pieces with no cross-piece
//! traffic (see `crates/analysis` and [`crate::NdRange::split`]). This
//! module *consumes* those proofs: [`co_enqueue`] cuts a dispatch once
//! along a proven-splittable dimension into a *primary* and a
//! *secondary* device lane at the group count that minimises the
//! predicted makespan (EngineCL's static policy), and commits one
//! composite kernel command whose cost is the **makespan** over lanes
//! plus the secondary's transfer charges — the honest virtual-clock
//! model of two devices working concurrently.
//!
//! Work always *executes* on the primary queue (window execution keeps
//! global ids, `get_global_size` and `get_num_groups` full-range, so
//! output bytes are identical to a single-device run — a hard gate in
//! the test suite); the secondary lane contributes its cost model and
//! its fault surface. A secondary that fails at the split has its groups
//! rescued onto the primary, mirroring the failover story of the rest
//! of the stack.
//!
//! Splitting is per-run: each VM starts from [`CoexecConfig::default`]
//! (no split, no batching) and its embedder opts in through the VM's
//! `set_coexec`. A split-enabled run still falls back to plain
//! single-device dispatch whenever the proof says reduction/blocked, the
//! range is under [`CoexecConfig::min_items`], or no second device
//! resolves.

use crate::error::ClResult;
use crate::event::Event;
use crate::ndrange::NdRange;
use crate::program::Kernel;
use crate::queue::CommandQueue;
use trace::SpanKind;

/// Per-run co-execution configuration; the default splits and batches
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexecConfig {
    /// Split proven-splittable dispatches across two devices
    /// ([`co_enqueue`]); `false` keeps single-device dispatch.
    pub split: bool,
    /// Coalesce proven-fusable dispatch chains into batched submissions
    /// ([`CommandQueue::open_batch`]).
    pub batch: bool,
    /// Dispatches smaller than this many work-items are never split
    /// (the secondary's transfer latency would dominate).
    pub min_items: usize,
    /// Maximum dispatches per batch session before it is closed and a
    /// fresh one (with a fresh arbiter grant) is opened — bounds how
    /// long one tenant's fused chain can hold a fairness slot.
    pub batch_cap: usize,
}

impl Default for CoexecConfig {
    fn default() -> CoexecConfig {
        CoexecConfig {
            split: false,
            batch: false,
            min_items: 2048,
            batch_cap: 64,
        }
    }
}

/// Co-execute one dispatch across `primary` and `secondary` along
/// proven-splittable dimension `dim`.
///
/// The caller (the VM's dispatch seam) is responsible for the proof
/// gate: `dim` must carry a `Splittable` classification in the kernel's
/// `SplitProof`, and the fallback conditions (reduction/blocked proof,
/// range under the configured minimum, no second device) must route to
/// plain [`CommandQueue::enqueue_nd_range`] instead. Given that, this
/// function:
///
/// 1. draws the primary's Enqueue fault exactly once (same fault
///    surface as an unsplit dispatch) and resolves the dispatch plan;
/// 2. runs the first group-slice along `dim` on the primary as a probe
///    and, from its op count, prices every cut on both cost models,
///    keeping the secondary group count with the smallest predicted
///    makespan;
/// 3. executes both pieces *functionally* on the primary queue via
///    window execution (full-range ids ⇒ byte-identical output), while
///    charging the secondary's piece to *its* cost model;
/// 4. probes the secondary's fault surface once before its piece; a
///    failure rescues the piece onto the primary (an injected kill-panic
///    still propagates);
/// 5. commits ONE composite kernel event whose duration is the makespan
///    over lanes — the secondary lane's span includes its input
///    transfers and its share of writable-buffer readback — and records
///    a [`SpanKind::CoexecSplit`] instant with the per-lane breakdown.
///
/// Returns the composite event, exactly like `enqueue_nd_range`.
pub fn co_enqueue(
    primary: &CommandQueue,
    secondary: &CommandQueue,
    kernel: &Kernel,
    nd: &NdRange,
    dim: usize,
) -> ClResult<Event> {
    let _slot = primary.composite_slot();
    let prep = primary.predispatch(kernel, nd)?;
    let local = nd.local[dim].max(1);
    let groups = nd.global[dim] / local;
    if groups < 2 {
        // Nothing to split; behave exactly like a plain dispatch.
        return primary.enqueue_nd_range_held(kernel, nd, 0.0);
    }

    let items_per_group = nd.group_size();
    let devs = [primary.device().clone(), secondary.device().clone()];
    let sec_model = devs[1].cost_model().clone();
    // Every input buffer must reach the secondary before it can start.
    let t_in_secondary: f64 = prep
        .plan
        .pooled
        .iter()
        .map(|b| sec_model.transfer_ns(b.len()))
        .sum();
    let num_groups = [
        nd.global[0] / nd.local[0].max(1),
        nd.global[1] / nd.local[1].max(1),
        nd.global[2] / nd.local[2].max(1),
    ];

    // Deterministic micro-profile: run the first group-slice along `dim`
    // on the primary (its results are needed regardless) and observe the
    // per-group op count; each device's per-group cost then comes
    // straight from its cost model. Deriving the cost from observed ops
    // rather than raw lane counts is what keeps the cut honest about
    // per-group schedule overhead, which dominates for small groups.
    let mut probe_window = [0..num_groups[0], 0..num_groups[1], 0..num_groups[2]];
    probe_window[dim] = 0..1;
    let (probe, mut engine) = primary.run_window(kernel, &prep.plan, nd, probe_window)?;
    let probe_ops = if probe.group_ops.is_empty() {
        0.0
    } else {
        probe.group_ops.iter().sum::<u64>() as f64 / probe.group_ops.len() as f64
    };
    // One unit along the split dimension is one *slice* — every group
    // whose `dim`-coordinate matches. The probe ran slice 0, so its
    // group count is the real groups per slice, and the probe average
    // prices one group on each device's cost model.
    let groups_per_slice = probe.group_ops.len().max(1);
    let group_cost = |i: usize, ops: f64| -> f64 {
        let m = devs[i].cost_model();
        m.kernel_ns(
            &[ops.round().max(0.0) as u64],
            items_per_group,
            devs[i].compute_units(),
            devs[i].simd_width(),
        ) - m.launch_overhead_ns
    };
    let per_group: [f64; 2] = std::array::from_fn(|i| group_cost(i, probe_ops));

    // Scan every group-aligned split count for the secondary and keep the
    // one whose predicted makespan — probe ops priced by each cost model,
    // plus the secondary's transfer charges — is smallest.
    let t_out = |k: usize| -> f64 {
        prep.plan
            .pooled
            .iter()
            .zip(prep.plan.read_only.iter())
            .filter(|(_, ro)| !**ro)
            .map(|(b, _)| sec_model.transfer_ns(b.len() * k / groups))
            .sum()
    };
    let lane_time = |i: usize, slices: usize| -> f64 {
        if slices == 0 {
            return 0.0;
        }
        let real = (slices * groups_per_slice) as f64;
        devs[i].cost_model().launch_overhead_ns
            + per_group[i].max(real * per_group[i] / devs[i].compute_units().max(1) as f64)
    };
    let mut best = (0usize, f64::INFINITY);
    for k in 0..groups {
        let p = lane_time(0, groups - k);
        let s = if k == 0 {
            0.0
        } else {
            t_in_secondary + lane_time(1, k) + t_out(k)
        };
        let makespan = p.max(s);
        if makespan < best.1 {
            best = (k, makespan);
        }
    }
    let cut = groups - best.0;

    // The primary runs the front of the range after the probe slice, the
    // secondary's piece is the back.
    let mut lane_ops = [probe.group_ops, Vec::new()];
    let mut lane_groups = [1usize, 0];
    let mut total_items = probe.items;
    let mut rescued = 0usize;
    for (mut lane, piece) in [(0usize, 1..cut), (1, cut..groups)] {
        if piece.is_empty() {
            continue;
        }
        if lane == 1 {
            // The secondary's own fault surface gates its piece: a lost
            // device reroutes its groups to the survivor (the functional
            // result is unaffected — windows run on the primary — only
            // the cost attribution moves).
            if secondary.probe_enqueue_fault().is_err() {
                rescued = piece.len();
                lane = 0;
            }
        }
        let take = piece.len();
        let mut window = [0..num_groups[0], 0..num_groups[1], 0..num_groups[2]];
        window[dim] = piece;
        let (stats, eng) = primary.run_window(kernel, &prep.plan, nd, window)?;
        engine = eng;
        lane_ops[lane].extend(stats.group_ops);
        lane_groups[lane] += take;
        total_items += stats.items;
    }

    // Per-lane spans: input transfers + pooled compute (+ the secondary
    // lane's share of writable-buffer readback). The composite cost is
    // the makespan — both lanes run concurrently on the virtual clock.
    // A secondary that was assigned a piece pays its input transfers even
    // when it was lost and the piece rescued.
    let mut lane_ns = [0.0f64; 2];
    for (i, ops) in lane_ops.iter().enumerate() {
        if i == 1 && cut == groups {
            continue;
        }
        let mut t = if i == 1 { t_in_secondary } else { 0.0 };
        if !ops.is_empty() {
            t += devs[i].cost_model().kernel_ns(
                ops,
                items_per_group,
                devs[i].compute_units(),
                devs[i].simd_width(),
            );
        }
        if i == 1 && lane_groups[1] > 0 {
            for (buf, ro) in prep.plan.pooled.iter().zip(&prep.plan.read_only) {
                if !*ro {
                    t += sec_model.transfer_ns(buf.len() * lane_groups[1] / groups);
                }
            }
        }
        lane_ns[i] = t;
    }
    let makespan = lane_ns[0].max(lane_ns[1]);
    let ops = lane_ops.iter().flatten().sum();
    let ev = primary.commit_kernel(
        kernel,
        &prep.plan,
        &prep.effect,
        total_items,
        ops,
        makespan,
        engine,
    )?;
    primary.record_instant(
        SpanKind::CoexecSplit,
        kernel.name(),
        &[
            ("dim", dim.to_string()),
            ("groups", groups.to_string()),
            ("primary_groups", lane_groups[0].to_string()),
            ("secondary_groups", lane_groups[1].to_string()),
            ("primary_ns", format!("{}", lane_ns[0])),
            ("secondary_ns", format!("{}", lane_ns[1])),
            ("secondary_device", devs[1].name().to_string()),
            ("rescued_groups", rescued.to_string()),
        ],
    );
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::context::Context;
    use crate::device::DeviceType;
    use crate::fault::{FaultInjector, FaultPlan, FaultOp, InjectedFault};
    use crate::platform::Platform;
    use crate::program::Program;

    const SRC: &str = "__kernel void scale(__global float* a, __global const float* b) {
        int i = get_global_id(0);
        int n = get_global_size(0);
        a[i] = a[i] * b[i % 16] + (float)n;
    }";

    fn gpu_setup() -> (Context, CommandQueue, CommandQueue) {
        let gpu = Platform::default_device(DeviceType::Gpu).unwrap();
        let cpu = Platform::default_device(DeviceType::Cpu).unwrap();
        let ctx = Context::new(std::slice::from_ref(&gpu)).unwrap();
        let primary = CommandQueue::new(&ctx, &gpu).unwrap();
        // The secondary queue needs its own context (different device);
        // only its cost model and fault surface are consulted.
        let cpu_ctx = Context::new(std::slice::from_ref(&cpu)).unwrap();
        let secondary = CommandQueue::new(&cpu_ctx, &cpu).unwrap();
        (ctx, primary, secondary)
    }

    fn run_reference(n: usize) -> (Vec<f32>, f64) {
        let (ctx, q, _) = gpu_setup();
        let program = Program::build(&ctx, SRC).unwrap();
        let k = program.create_kernel("scale").unwrap();
        let a = ctx.create_buffer(MemFlags::ReadWrite, n * 4).unwrap();
        let b = ctx.create_buffer(MemFlags::ReadOnly, 16 * 4).unwrap();
        q.write_f32(&a, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        q.write_f32(&b, &(0..16).map(|i| 1.0 + i as f32 / 16.0).collect::<Vec<_>>())
            .unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        let ev = q.enqueue_nd_range(&k, &NdRange::d1(n, 16)).unwrap();
        let (vals, _) = q.read_f32(&a).unwrap();
        (vals, ev.duration_ns())
    }

    fn run_coexec(n: usize, kill_secondary: bool) -> (Vec<f32>, f64, Vec<trace::TraceEvent>) {
        let (ctx, q, sec) = gpu_setup();
        let sink = trace::TraceSink::new();
        q.attach_trace(sink.clone());
        if kill_secondary {
            let inj = FaultInjector::new(FaultPlan::new().fail(
                FaultOp::Enqueue,
                0,
                InjectedFault::DeviceLost,
            ));
            sec.attach_faults(inj);
        }
        let program = Program::build(&ctx, SRC).unwrap();
        let k = program.create_kernel("scale").unwrap();
        let a = ctx.create_buffer(MemFlags::ReadWrite, n * 4).unwrap();
        let b = ctx.create_buffer(MemFlags::ReadOnly, 16 * 4).unwrap();
        q.write_f32(&a, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        q.write_f32(&b, &(0..16).map(|i| 1.0 + i as f32 / 16.0).collect::<Vec<_>>())
            .unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        let ev = co_enqueue(&q, &sec, &k, &NdRange::d1(n, 16), 0).unwrap();
        let (vals, _) = q.read_f32(&a).unwrap();
        (vals, ev.duration_ns(), sink.events())
    }

    #[test]
    fn static_split_matches_single_device_output() {
        let (reference, _) = run_reference(4096);
        let (vals, _, events) = run_coexec(4096, false);
        assert_eq!(vals, reference, "co-executed output differs");
        let split = events
            .iter()
            .find(|e| e.kind == SpanKind::CoexecSplit)
            .expect("CoexecSplit instant");
        // Both lanes took work on a 256-group range.
        for key in ["primary_groups", "secondary_groups"] {
            let v: usize = split
                .args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.parse().unwrap())
                .unwrap();
            assert!(v > 0, "{key} assigned no groups");
        }
    }

    #[test]
    fn coexec_clock_is_deterministic_across_runs() {
        let (_, t1, _) = run_coexec(4096, false);
        let (_, t2, _) = run_coexec(4096, false);
        assert_eq!(t1.to_bits(), t2.to_bits());
    }

    #[test]
    fn lost_secondary_rescues_groups_onto_primary() {
        let (reference, _) = run_reference(4096);
        let (vals, _, events) = run_coexec(4096, true);
        assert_eq!(vals, reference, "rescued run must stay byte-identical");
        let split = events
            .iter()
            .find(|e| e.kind == SpanKind::CoexecSplit)
            .unwrap();
        let rescued: usize = split
            .args
            .iter()
            .find(|(k, _)| k == "rescued_groups")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        assert!(rescued > 0, "no groups were rescued: {:?}", split.args);
        let secondary_groups: usize = split
            .args
            .iter()
            .find(|(k, _)| k == "secondary_groups")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        assert_eq!(secondary_groups, 0, "dead lane must keep no groups");
    }

    #[test]
    fn large_ranges_beat_single_device_small_ones_do_not() {
        // The crossover: at 64 Ki items the split pays for the
        // secondary's transfers; at 256 items it cannot.
        let (_, single_large) = run_reference(65536);
        let (_, co_large, _) = run_coexec(65536, false);
        assert!(
            co_large < single_large,
            "co-exec {co_large} !< single {single_large} at 64Ki"
        );
        // Below the crossover the split buys nothing: the primary's
        // launch overhead and longest group still bound the makespan.
        let (_, single_small) = run_reference(256);
        let (_, co_small, _) = run_coexec(256, false);
        assert!(
            co_small >= single_small,
            "co-exec {co_small} must not beat single {single_small} at 256 items"
        );
    }
}
