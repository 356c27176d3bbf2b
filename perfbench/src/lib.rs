//! # perfbench — host wall-clock benchmark of the Ensemble-OpenCL stack
//!
//! One command runs one workload for a fixed time with tracing off and
//! reports the end-to-end metrics of [`metrics::END_TO_END`]; a separate
//! traced run reports the per-layer metrics of [`metrics::PER_LAYER`].
//! Every op's output and virtual clock is checked against a reference
//! ([`check`]). See `README.md` next to this crate for the workloads,
//! the metrics and how the layers map onto the end-to-end numbers.

#![warn(missing_docs)]

pub mod check;
pub mod layers;
pub mod metrics;
pub mod serving;
pub mod spans;
pub mod stats;
pub mod workload;

use check::{compile_and_run, count_failed, run_module, Observed};
use ensemble_serve::{ServeConfig, Server};
use layers::LayerTimes;
use metrics::ResultLine;
use oclsim::{set_default_engine, Engine, ProfileSink};
use spans::Spans;
use stats::{median, percentile, quietest, stolen_per_window, window_of};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::{SpanKind, TraceSink};
use workload::{job_order, request_app, App, CApp, Scale, Workload};

/// Fresh processes per run whose set-up time `setup_s` is the median of.
/// Each starts from nothing, so one-time work such as lazy process-wide
/// initialisation counts in every sample.
const SETUP_PROCESSES: usize = 15;

/// Length of the windows the measured phase of a batch workload is
/// split into, in seconds. The batch metrics come from the windows in
/// which the hypervisor stole the least host time: the quietest
/// windows, taken until they hold [`MIN_KEPT_OPS`] ops and number
/// [`MIN_KEPT_WINDOWS`].
///
/// On a shared host, stolen time comes in bursts of a few seconds to
/// several minutes, and within a burst it takes 15–40 % of each vCPU.
/// A second with a burst in it runs dispatch-bound's p90 up to four
/// times as long (a 1 s window with 51 ticks stolen had a p90 of
/// 38.5 ms, against 11.5–12.5 ms for windows with 0–2 ticks). Choosing
/// windows by a counter of the host, not by the times measured, keeps a
/// slower program slower in every window.
pub const WINDOW_S: f64 = 1.0;

/// Fewest ops the kept windows hold, so that at least 12 lie beyond
/// p90: about 19 s of a kernel-bound run.
pub const MIN_KEPT_OPS: usize = 120;

/// Fewest windows kept: the 5 quietest seconds of a dispatch-bound run
/// hold about 450 jobs. Keeping more lets more stolen time in: over six
/// runs the kept p90 spread by 0.083 with 3 windows, 0.092 with 5, 0.106
/// with 9 and 0.19 with 25.
pub const MIN_KEPT_WINDOWS: usize = 5;

/// Open-loop arrival rate of `serve-mixed`, requests per second: about a
/// quarter of the closed-loop capacity of a 2-core host (400 to 500 rps
/// when the benchmark was defined), so requests still overlap and
/// contend but rarely queue. On a shared host whose speed drifts by
/// ±20 %, queueing amplifies every slow spell into the tail: at 200 rps
/// the p90 latency of ten runs spread by 0.20 to 0.28 of its median
/// (and at 300 rps the backlog grew without bound in one run), against
/// 0.035 at 120 rps (six runs of each rate, interleaved).
const OPEN_LOOP_RPS: f64 = 120.0;

/// The open-loop rate at `scale`: tiny runs are debug-build smoke tests
/// on far slower code, so they arrive more slowly.
fn open_loop_rps(scale: Scale) -> f64 {
    match scale {
        Scale::Full => OPEN_LOOP_RPS,
        Scale::Tiny => OPEN_LOOP_RPS / 4.0,
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Sets the op order (apps within a job, the serving request mix).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes its Chrome JSON spans.
    pub trace_out: Option<PathBuf>,
    /// The benchmark executable, started afresh to time set-up.
    pub exe: PathBuf,
}

/// A finished run: human-readable lines and the result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Lines printed before the result line.
    pub text: String,
    /// The result line's content.
    pub result: ResultLine,
}

impl Report {
    /// The result line as JSON (the metric set depends on the run kind).
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let set = if traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        self.result.to_json(set)
    }
}

/// The ops of a workload: which apps op `i` runs, in order.
fn op_apps(cfg: &Config, napps: usize) -> impl Fn(u64) -> Vec<usize> + Sync {
    let (seed, serving) = (cfg.seed, cfg.workload.is_serving());
    move |i| {
        if serving {
            vec![request_app(seed, i, napps)]
        } else {
            job_order(seed, i, napps)
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What set-up leaves ready for the measured phase.
struct Setup {
    apps: Vec<App>,
    server: Option<Server>,
}

/// One set-up pass: generate the sources, build the server of a serving
/// workload, and run every app once so lazy initialisation and caches
/// are warm before timing starts.
fn setup_pass(cfg: &Config) -> Result<Setup, String> {
    let apps = cfg.workload.apps(cfg.scale);
    let server = cfg
        .workload
        .is_serving()
        .then(|| Server::new(ServeConfig::default()));
    for app in &apps {
        match &server {
            Some(s) => {
                s.submit(ensemble_serve::Request::new(0, app.source.as_str()))
                    .map_err(|e| format!("{} warm-up: {e}", app.name))?;
            }
            None => {
                compile_and_run(&app.source, ProfileSink::new())
                    .map_err(|e| format!("{} warm-up: {e}", app.name))?;
            }
        }
    }
    Ok(Setup { apps, server })
}

/// The whole of `perfbench --setup-only`: one set-up pass, then exit.
pub fn setup_only(workload: Workload, scale: Scale) -> Result<(), String> {
    set_default_engine(Engine::Native);
    let cfg = Config {
        workload,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale,
        trace_out: None,
        exe: PathBuf::new(),
    };
    setup_pass(&cfg).map(drop)
}

/// Set-up times of fresh processes, in s: each runs `cfg.exe
/// --setup-only` and is timed from its start to its exit.
fn setup_times(cfg: &Config) -> Result<Vec<f64>, String> {
    (0..SETUP_PROCESSES)
        .map(|_| {
            let start = Instant::now();
            let status = Command::new(&cfg.exe)
                .args(["--workload", cfg.workload.name()])
                .args(["--scale", cfg.scale.name(), "--setup-only"])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("starting {}: {e}", cfg.exe.display()))?;
            let elapsed = start.elapsed().as_secs_f64();
            if status.success() {
                Ok(elapsed)
            } else {
                Err(format!("set-up process failed: {status}"))
            }
        })
        .collect()
}

/// Run one benchmark run.
pub fn run(cfg: &Config) -> Result<Report, String> {
    // The measured engine and co-execution settings are pinned here and
    // on every VM the benchmark builds, so ambient `OCLSIM_ENGINE` and
    // `OCLSIM_COEXEC` settings cannot change what is measured.
    set_default_engine(Engine::Native);
    let setup_s = if cfg.trace {
        Vec::new()
    } else {
        setup_times(cfg)?
    };
    let setup = setup_pass(cfg)?;
    let mut text = format!(
        "perfbench workload={} seed={} seconds={} trace={} engine=native coexec=default\n",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let result = if cfg.trace {
        traced(cfg, &setup, &mut text)?
    } else {
        let mut r = untraced(cfg, &setup, &mut text)?;
        let s = median(&setup_s);
        r.values.insert("setup_s", s);
        let _ = writeln!(
            text,
            "setup_s        {s:.4} s (median of {SETUP_PROCESSES} fresh set-up processes: {setup_s:.4?})"
        );
        r
    };
    Ok(Report { text, result })
}

/// Time the hypervisor has stolen from all of this host's vCPUs so far,
/// in clock ticks, from the `cpu` line of `/proc/stat`; `None` where the
/// file or the field is missing.
fn stolen_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Stack-interpreter references for Ensemble runs, solo-server ones for
/// serving ones; one per app.
fn references(apps: &[App], serving: bool) -> Result<Vec<Observed>, String> {
    apps.iter()
        .map(|a| {
            if serving {
                check::solo_reference(&a.source)
            } else {
                check::stack_reference(&a.source)
            }
            .map_err(|e| format!("{} reference: {e}", a.name))
        })
        .collect()
}

/// Describe a sample: nearest-rank p50/p90 and how many lie beyond p90,
/// over the ops the metrics are taken from and over the whole phase.
fn describe(name: &str, kept: &[f64], all: &[f64]) -> String {
    format!(
        "{name:<14} p50 {:.4} ms  p90 {:.4} ms  (n={}, {} beyond p90; whole phase p50 {:.4} p90 {:.4}, n={})\n",
        percentile(kept, 50.0).unwrap_or(0.0),
        percentile(kept, 90.0).unwrap_or(0.0),
        kept.len(),
        stats::beyond(kept, 90.0),
        percentile(all, 50.0).unwrap_or(0.0),
        percentile(all, 90.0).unwrap_or(0.0),
        all.len()
    )
}

/// The values of the timed `samples` whose window `keep` marks.
fn kept(samples: &[(f64, f64)], keep: &[bool], len: f64) -> Vec<f64> {
    samples
        .iter()
        .filter(|&&(at, _)| keep[window_of(at, keep.len(), len)])
        .map(|&(_, v)| v)
        .collect()
}

/// The untraced run: the end-to-end metrics.
fn untraced(cfg: &Config, setup: &Setup, text: &mut String) -> Result<ResultLine, String> {
    let apps = &setup.apps;
    let ops_of = op_apps(cfg, apps.len());
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(cfg.seconds);
    let at = |from: Instant, t: Instant| t.saturating_duration_since(from).as_secs_f64();
    // Samples are `(seconds into their phase, ms)`. `len` is the window
    // length of their phase, and `keep` marks the windows the metrics
    // are taken from.
    let (jobs, latencies, len, keep, capacity, ops) = match &setup.server {
        None => {
            // Batch: one client, closed loop, straight into the front
            // end and the VM.
            let (mut jobs, mut lats, mut ops) = (Vec::new(), Vec::new(), Vec::new());
            let mut readings: Vec<_> = stolen_ticks()
                .map(|s| (0.0, s as f64))
                .into_iter()
                .collect();
            let mut ready = Instant::now();
            for i in 0.. {
                if Instant::now() >= until {
                    break;
                }
                let op = ops_of(i);
                let t0 = Instant::now();
                let reports: Vec<_> = op
                    .iter()
                    .map(|&a| (a, compile_and_run(&apps[a].source, ProfileSink::new())))
                    .collect();
                let t1 = Instant::now();
                jobs.push((at(start, t0), ms(t1 - t0)));
                lats.push((at(start, t0), ms(t1 - ready)));
                ops.push(
                    reports
                        .into_iter()
                        .map(|(a, r)| (a, r.ok().map(|r| Observed::of(&r))))
                        .collect::<Vec<_>>(),
                );
                // Read between ops, outside both latency and job time.
                if let Some(stolen) = stolen_ticks() {
                    readings.push((at(start, Instant::now()), stolen as f64));
                }
                ready = Instant::now();
            }
            let windows = (cfg.seconds / WINDOW_S).ceil().max(1.0) as usize;
            let len = cfg.seconds / windows as f64;
            let keep = match stolen_ticks() {
                Some(last) if !readings.is_empty() => {
                    let stolen = stolen_per_window(&readings, windows, len, last as f64);
                    let mut per = vec![0; windows];
                    for &(t, _) in &jobs {
                        per[window_of(t, windows, len)] += 1;
                    }
                    let shown: Vec<String> = stolen
                        .iter()
                        .map(|s| s.map_or("-".into(), |s| format!("{s}")))
                        .collect();
                    let keep = quietest(&stolen, &per, MIN_KEPT_OPS, MIN_KEPT_WINDOWS);
                    let most = (0..windows)
                        .filter(|&w| keep[w])
                        .filter_map(|w| stolen[w])
                        .fold(0.0, f64::max);
                    let _ = writeln!(
                        text,
                        "windows        {windows} of {len:.2} s, host time stolen per window [{}] ticks; metrics from the {} quietest (at most {most} ticks each)",
                        shown.join(" "),
                        keep.iter().filter(|&&k| k).count()
                    );
                    keep
                }
                _ => {
                    let _ = writeln!(
                        text,
                        "windows        no stolen-time counter on this host; metrics from the whole phase"
                    );
                    vec![true; windows]
                }
            };
            // One client: capacity is ops over the sum of their cycle
            // times, from due to done.
            let cycles = kept(&lats, &keep, len);
            let capacity = 1e3 * cycles.len() as f64 / cycles.iter().sum::<f64>();
            (jobs, lats, len, keep, capacity, ops)
        }
        Some(server) => {
            // Serving: half the time a closed loop of two tenants for
            // capacity (and per-request job time), then an open loop at
            // a fixed rate for latency. Its metrics come from the whole
            // of each phase.
            let half = start + Duration::from_secs_f64(cfg.seconds / 2.0);
            let closed = serving::closed_loop(server, apps, &ops_of, 2, half);
            let last_end = closed.iter().map(|r| r.end).max().unwrap_or(half);
            let completed = closed
                .iter()
                .filter(|r| r.runs.iter().all(|(_, o)| o.is_some()))
                .count();
            let capacity = completed as f64 / (last_end - start).as_secs_f64();
            let rate = open_loop_rps(cfg.scale);
            let open = serving::open_loop(server, apps, &ops_of, rate, until);
            let late_max = open.iter().map(|r| r.late_ms).fold(0.0, f64::max);
            let _ = writeln!(
                text,
                "closed loop    2 tenants, {} requests; open loop {rate} rps, {} requests, generator late by at most {late_max:.3} ms",
                closed.len(),
                open.len()
            );
            let jobs: Vec<_> = closed.iter().map(|r| (0.0, r.service_ms)).collect();
            let lats: Vec<_> = open.iter().map(|r| (0.0, r.latency_ms)).collect();
            let ops = closed.into_iter().chain(open).map(|r| r.runs).collect();
            (jobs, lats, 0.0, vec![true], capacity, ops)
        }
    };
    let rss = peak_rss_mb()?;
    let refs = references(apps, setup.server.is_some())?;
    // An evicted tenant's lazy re-upload is charged to its own virtual
    // clock, so the clock is compared only while nothing was evicted;
    // the data never moves.
    let evicted = setup
        .server
        .as_ref()
        .is_some_and(|s| s.pool().evictions() > 0);
    let failed = count_failed(&ops, &refs, !evicted);
    if jobs.is_empty() || latencies.is_empty() {
        return Err("the measured phase completed no op".into());
    }
    let mut r = ResultLine {
        attempted: ops.len() as u64,
        failed,
        values: BTreeMap::new(),
    };
    let all = |s: &[(f64, f64)]| s.iter().map(|&(_, v)| v).collect::<Vec<_>>();
    let (job_kept, lat_kept) = (kept(&jobs, &keep, len), kept(&latencies, &keep, len));
    let v = &mut r.values;
    v.insert("job_ms_p50", percentile(&job_kept, 50.0).unwrap_or(0.0));
    v.insert("job_ms_p90", percentile(&job_kept, 90.0).unwrap_or(0.0));
    v.insert("latency_ms_p50", percentile(&lat_kept, 50.0).unwrap_or(0.0));
    v.insert("latency_ms_p90", percentile(&lat_kept, 90.0).unwrap_or(0.0));
    v.insert("capacity_rps", capacity);
    v.insert("peak_rss_mb", rss);
    text.push_str(&describe("job_ms", &job_kept, &all(&jobs)));
    text.push_str(&describe("latency_ms", &lat_kept, &all(&latencies)));
    let _ = writeln!(text, "capacity_rps   {capacity:.3} 1/s");
    let _ = writeln!(text, "peak_rss_mb    {rss:.1} MB");
    let _ = writeln!(
        text,
        "failed_frac    {} frac ({failed} of {} ops failed, were refused or mismatched)",
        failed as f64 / ops.len() as f64,
        ops.len()
    );
    Ok(r)
}

/// Per-op layer times of one attribution round, in ms.
#[derive(Debug, Default, Clone, Copy)]
struct Round {
    times: LayerTimes,
    traced_ms: f64,
}

/// The traced run: per-layer metrics.
fn traced(cfg: &Config, setup: &Setup, text: &mut String) -> Result<ResultLine, String> {
    let apps = &setup.apps;
    let napps = apps.len();
    let serving = cfg.workload.is_serving();
    // Per-op values divide a round (every app once) by the requests it
    // stands for: one job on batch workloads, `napps` requests when
    // serving.
    let per_op = if serving { napps as f64 } else { 1.0 };
    let start = Instant::now();
    let secs = |f: f64| start + Duration::from_secs_f64(cfg.seconds * f);
    let mut spans = Spans::new();
    let opts = ensemble_analysis::Options::default();

    // --- Attribution rounds: op path with spans, a program-traced op,
    // and the probes.
    let c_refs: Vec<_> = apps.iter().map(|a| a.copencl.reference()).collect();
    let mut rounds: Vec<Round> = Vec::new();
    let mut ens_ops: Vec<Vec<(usize, Option<Observed>)>> = Vec::new();
    let (mut c_failed, mut c_attempted) = (0u64, 0u64);
    let (mut c_dispatches, mut c_kernel_ops) = (0u64, 0u64);
    let mut events = 0usize;
    let mut engines: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let (mut native_kernels, mut kernels) = (0usize, 0usize);
    let mut round_obs = Vec::new();
    let attr_until = secs(0.6);
    for r in 0u64.. {
        if r > 0 && Instant::now() >= attr_until {
            break;
        }
        let order = job_order(cfg.seed, r, napps);
        let mut round = Round::default();
        for pass in 0..2 {
            // Alternate which op goes first, so neither gets a warmer
            // cache by position.
            if (pass == 0) == (r % 2 == 0) {
                let t0 = Instant::now();
                let mut obs = Vec::new();
                for &a in &order {
                    let app = &apps[a];
                    let module = spans.time("analysis.compile", app.name, r, "op", || {
                        ensemble_analysis::compile_source(&app.source, &opts)
                    });
                    let report = module.map_err(|e| format!("compile: {e}")).and_then(|m| {
                        spans.time("vm.run", app.name, r, "op", || {
                            run_module(m, ProfileSink::new())
                        })
                    });
                    obs.push((a, report.ok().map(|rep| Observed::of(&rep))));
                }
                spans.record("op", "", r, "op", t0, Instant::now());
                round.times.job_ms = spans.total_ms("op", r);
                round.times.compile_ms = spans.total_ms("analysis.compile", r);
                round.times.vm_run_ms = spans.total_ms("vm.run", r);
                round_obs = obs.iter().filter_map(|(_, o)| *o).collect();
                ens_ops.push(obs);
            } else {
                let t0 = Instant::now();
                let mut obs = Vec::new();
                let mut sinks = Vec::new();
                for &a in &order {
                    let sink = TraceSink::new();
                    let rep = compile_and_run(
                        &apps[a].source,
                        ProfileSink::new().with_trace(sink.clone()),
                    );
                    obs.push((a, rep.ok().map(|rep| Observed::of(&rep))));
                    sinks.push((apps[a].name, sink));
                }
                spans.record("op.traced", "", r, "op", t0, Instant::now());
                round.traced_ms = spans.total_ms("op.traced", r);
                ens_ops.push(obs);
                for (app, sink) in sinks {
                    let evs = sink.events();
                    events += evs.len();
                    for e in evs.iter().filter(|e| e.kind == SpanKind::Kernel) {
                        if let Some((_, eng)) = e.args.iter().find(|(k, _)| k == "engine") {
                            kernels += 1;
                            native_kernels += usize::from(eng == "native");
                            engines.entry(app).or_default().insert(eng.clone());
                        }
                    }
                }
            }
        }
        for &a in &order {
            let app = &apps[a];
            let module = spans.time("lang.parse", app.name, r, "probe", || {
                ensemble_lang::parse(&app.source)
            });
            let module = module.map_err(|e| format!("{}: parse: {e}", app.name))?;
            spans.time("analysis.analyze", app.name, r, "probe", || {
                ensemble_analysis::analyze(&module, &app.source, &opts)
            });
            let input = app.copencl.input();
            let sink = ProfileSink::new();
            let out = spans.time("oclsim.copencl", app.name, r, "probe", || {
                CApp::run(input, sink.clone())
            });
            let p = sink.snapshot();
            c_dispatches += p.dispatches;
            c_kernel_ops += p.ops;
            c_attempted += 1;
            c_failed += u64::from(!app.copencl.matches(&out, &c_refs[a]));
        }
        round.times.parse_ms = spans.total_ms("lang.parse", r);
        round.times.analyze_ms = spans.total_ms("analysis.analyze", r);
        round.times.copencl_ms = spans.total_ms("oclsim.copencl", r);
        rounds.push(round);
    }
    let nrounds = rounds.len() as f64;
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>()) / per_op;
    let times = LayerTimes {
        job_ms: med(|r| r.times.job_ms),
        parse_ms: med(|r| r.times.parse_ms),
        analyze_ms: med(|r| r.times.analyze_ms),
        compile_ms: med(|r| r.times.compile_ms),
        vm_run_ms: med(|r| r.times.vm_run_ms),
        copencl_ms: med(|r| r.times.copencl_ms),
    };
    let traced_ms = med(|r| r.traced_ms);

    // --- Serving layer: one tenant alone, then under the workload's
    // load (two closed-loop tenants on batch workloads, the open loop
    // on serve-mixed), on a fresh server.
    let server = Server::new(ServeConfig::default());
    let ops_of = op_apps(cfg, napps);
    let solo = serving::closed_loop(&server, apps, &ops_of, 1, secs(0.7));
    let loaded = if serving {
        serving::open_loop(&server, apps, &ops_of, open_loop_rps(cfg.scale), secs(1.0))
    } else {
        serving::closed_loop(&server, apps, &ops_of, 2, secs(1.0))
    };
    let solo_ms = median(&solo.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    let loaded_p50 = median(&loaded.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    let late_max = loaded.iter().map(|r| r.late_ms).fold(0.0, f64::max);
    let stats = server.stats();
    for (i, rec) in solo.iter().chain(&loaded).enumerate() {
        let app = match rec.runs.as_slice() {
            [(a, _)] => apps[*a].name,
            _ => "",
        };
        let request = rounds.len() as u64 + i as u64;
        spans.record("serve.op", app, request, "serve", rec.start, rec.end);
    }

    // --- Checks, after everything timed.
    let ens_refs = references(apps, false)?;
    let solo_refs = references(apps, true)?;
    let serve_ops: Vec<_> = solo.iter().chain(&loaded).map(|r| r.runs.clone()).collect();
    let failed = count_failed(&ens_ops, &ens_refs, true)
        + count_failed(&serve_ops, &solo_refs, server.pool().evictions() == 0)
        + c_failed;
    let attempted = (ens_ops.len() + serve_ops.len()) as u64 + c_attempted;

    let vclock = |i: usize| round_obs.iter().map(|o| o.vclock[i]).sum::<f64>() / per_op;
    let mut r = ResultLine {
        attempted,
        failed,
        values: BTreeMap::new(),
    };
    let att = times.attribute();
    let per_round_op = nrounds * per_op;
    let kops = (c_kernel_ops as f64 / per_round_op) / 1e3 / (times.copencl_ms / 1e3);
    let ens_kernel_ops = round_obs.iter().map(|o| o.kernel_ops).sum::<u64>() as f64 / per_op;
    let v = &mut r.values;
    v.insert("job_ms", times.job_ms);
    v.insert("lang.parse_ms", times.parse_ms);
    v.insert("analysis.analyze_ms", times.analyze_ms);
    v.insert("analysis.compile_ms", times.compile_ms);
    v.insert("vm.run_ms", times.vm_run_ms);
    v.insert(
        "vm.ops",
        round_obs.iter().map(|o| o.vm_ops).sum::<u64>() as f64 / per_op,
    );
    v.insert("vm.kernel_ops", ens_kernel_ops);
    v.insert("ensemble.overhead_ms", times.ensemble_overhead_ms());
    v.insert("oclsim.copencl_ms", times.copencl_ms);
    v.insert("oclsim.kops_per_s", kops);
    v.insert("oclsim.dispatches", c_dispatches as f64 / per_round_op);
    v.insert("oclsim.kernel_ops", c_kernel_ops as f64 / per_round_op);
    v.insert("layer.residual_ms", att.residual_ms);
    v.insert(
        "engine.native_frac",
        native_kernels as f64 / kernels.max(1) as f64,
    );
    v.insert("serve.solo_ms", solo_ms);
    v.insert("serve.wait_ms", loaded_p50 - solo_ms);
    v.insert("serve.completed", stats.completed as f64);
    v.insert("serve.rejected", stats.rejected as f64);
    v.insert("serve.overloaded", stats.overloaded as f64);
    v.insert("serve.deadline_exceeded", stats.deadline_exceeded as f64);
    v.insert("serve.failed", stats.failed as f64);
    v.insert("serve.evictions", server.pool().evictions() as f64);
    v.insert("serve.evicted_bytes", server.pool().evicted_bytes() as f64);
    v.insert("loadgen.late_ms_max", late_max);
    v.insert("trace.overhead_frac", traced_ms / times.job_ms - 1.0);
    v.insert("trace.events", events as f64 / per_round_op);
    for (i, name) in [
        "vclock.to_device_ns",
        "vclock.from_device_ns",
        "vclock.kernel_ns",
        "vclock.vm_ns",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, vclock(i));
    }

    // --- The layer table.
    let op = if serving { "request" } else { "job" };
    let _ = writeln!(
        text,
        "layer attribution per {op} (medians of {} rounds; self time = call time minus the calls it contains)",
        rounds.len()
    );
    let _ = writeln!(text, "{:<28} {:>12} {:>8}", "layer", "self ms", "share");
    for row in &att.rows {
        let _ = writeln!(
            text,
            "{:<28} {:>12.4} {:>7.1}%",
            row.layer,
            row.self_ms,
            100.0 * row.self_ms / times.job_ms
        );
    }
    let _ = writeln!(
        text,
        "{:<28} {:>12.4} {:>7.1}%",
        "residual (between calls)",
        att.residual_ms,
        100.0 * att.residual_ms / times.job_ms
    );
    let _ = writeln!(
        text,
        "{:<28} {:>12.4}  (sum of the rows above: {:.4})",
        "job_ms",
        times.job_ms,
        att.total_ms()
    );
    let _ = writeln!(
        text,
        "ensemble.overhead_ms {:.4} = vm.run_ms {:.4} - oclsim.copencl_ms {:.4}; kernel ops per {op}: Ensemble {ens_kernel_ops}, C-OpenCL {}{}",
        times.ensemble_overhead_ms(),
        times.vm_run_ms,
        times.copencl_ms,
        c_kernel_ops as f64 / per_round_op,
        if apps.iter().any(|a| a.name == "docrank") {
            " (docrank's C path runs a different kernel: its share is not comparable)"
        } else {
            ""
        }
    );
    let _ = writeln!(text, "engines that ran kernels: {engines:?}");
    let _ = writeln!(
        text,
        "serve: solo {solo_ms:.4} ms/{op} over {} {op}s, loaded p50 {loaded_p50:.4} ms over {} {op}s, wait {:.4} ms, generator late by at most {late_max:.3} ms, stats {stats:?}",
        solo.len(),
        loaded.len(),
        loaded_p50 - solo_ms
    );
    let _ = writeln!(
        text,
        "trace: program-traced {op} {traced_ms:.4} ms vs {:.4} ms untraced, {:.1} events per {op}",
        times.job_ms,
        events as f64 / per_round_op
    );
    if let Some(path) = &cfg.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, spans.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(text, "host-clock spans written to {}", path.display());
    }
    Ok(r)
}
