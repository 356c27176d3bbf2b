//! Regenerate Figures 3a–3e of the paper (plus the movability ablation),
//! or run one of the harness's robustness and scheduling modes.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # all, bench sizes
//! cargo run --release -p bench --bin figures -- fig3b   # one figure
//! cargo run --release -p bench --bin figures -- --paper-scale
//! cargo run --release -p bench --bin figures -- --json  # machine-readable
//! cargo run --release -p bench --bin figures -- fig3c --trace lud.json
//! cargo run --release -p bench --bin figures -- chaos --seed 7
//! cargo run --release -p bench --bin figures -- serve --tenants 8
//! ```
//!
//! `--trace <path>` records every run of the selected figures into one
//! Chrome `trace_event` JSON file — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see the device
//! queues, VM actor timelines, and channel waits of each run. The raw
//! (unnormalised) per-run segment totals are printed to stderr; the bars
//! of each figure are those same totals, normalised.
//!
//! Subcommands replace the figures; each exits 0 only when its gates
//! hold, and 1 otherwise:
//!
//! * `chaos` — the five applications under the seed-`N` deterministic
//!   fault schedule plus a permanent device-loss failover scenario; a
//!   failed run or a divergence from the fault-free reference fails.
//! * `kill-chaos` — the five applications under the seed-`N` actor-kill
//!   schedule. Killed actors are restarted by the VM's supervisor from
//!   their checkpoints; every output must match its fault-free reference
//!   and every kill must be matched by an `ActorExit`/`Restart` pair.
//! * `sdc` — the five applications under a seed-`N` silent-corruption
//!   schedule on private zero-origin device lanes (gating 100% detection,
//!   byte-identical outputs *and* virtual clocks, and positive repair
//!   accounting), plus a straggler workload comparing hedged vs unhedged
//!   tail latency over `--tenants` tenants. Writes `BENCH_8.json`.
//! * `serve` — three mixed-application workloads driving an open-loop
//!   load at ~2× the admission watermark with seed-`N` kill-chaos in half
//!   the `--tenants` tenants; every chaos-free tenant's output and
//!   virtual clock must match its solo reference. Writes `BENCH_7.json`.
//! * `coexec` — matmul and mandelbrot problem-size sweeps comparing each
//!   single device against the static min-makespan NDRange split, plus
//!   lud and docrank chains with and without fused dispatch batching
//!   (`--quick`: a two-point sweep for CI). Any output divergence, a
//!   sweep without a crossover, or batching that saves less than 2× of
//!   lud's charged launch overhead fails. Writes `BENCH_9.json`.
//!
//! A flag the chosen command does not read, an unknown or removed flag,
//! or a missing or malformed value exits 2 with the usage text. Host
//! wall-clock time is measured by the separate `perfbench/` benchmark,
//! not here.

use bench::figures::{self, ALL};
use bench::{chaos, coexec, sdc, serve_bench, Sizes, TraceSink};
use std::process::exit;

const USAGE: &str = "\
usage: figures [FIGURE...] [--paper-scale] [--json] [--trace PATH]
       figures chaos      [--seed N] [--paper-scale]
       figures kill-chaos [--seed N] [--paper-scale]
       figures sdc        [--seed N] [--tenants N] [--out PATH] [--paper-scale]
       figures serve      [--seed N] [--tenants N] [--out PATH]
       figures coexec     [--quick] [--out PATH] [--paper-scale]

FIGURE is fig3a..fig3e or ablation (default: all). --seed defaults to 1,
--tenants to 6 (at least 2); --out defaults to BENCH_8.json (sdc),
BENCH_7.json (serve) or BENCH_9.json (coexec).";

/// Every flag any command reads.
const FLAGS: [&str; 7] = [
    "--seed",
    "--tenants",
    "--out",
    "--quick",
    "--paper-scale",
    "--json",
    "--trace",
];

/// What one invocation asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Print the named figures (all of them, plus the ablation, when
    /// `names` is empty).
    Figures {
        names: Vec<String>,
        paper: bool,
        json: bool,
        trace: Option<String>,
    },
    Chaos {
        seed: u64,
        paper: bool,
    },
    KillChaos {
        seed: u64,
        paper: bool,
    },
    Sdc {
        seed: u64,
        tenants: usize,
        out: String,
        paper: bool,
    },
    Serve {
        seed: u64,
        tenants: usize,
        out: String,
    },
    Coexec {
        quick: bool,
        out: String,
        paper: bool,
    },
}

/// Parse the arguments after the program name into a [`Command`], or an
/// error message for the usage text.
fn parse(args: &[String]) -> Result<Command, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("chaos" | "kill-chaos" | "sdc" | "serve" | "coexec")) => (m, &args[1..]),
        _ => ("figures", args),
    };
    let reads: &[&str] = match mode {
        "figures" => &["--paper-scale", "--json", "--trace"],
        "chaos" | "kill-chaos" => &["--seed", "--paper-scale"],
        "sdc" => &["--seed", "--tenants", "--out", "--paper-scale"],
        "serve" => &["--seed", "--tenants", "--out"],
        _ /* coexec */ => &["--quick", "--out", "--paper-scale"],
    };
    let (mut seed, mut tenants, mut out, mut trace) = (1u64, 6usize, None, None);
    let (mut quick, mut paper, mut json) = (false, false, false);
    let mut names = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let a = arg.as_str();
        if !a.starts_with("--") {
            if mode != "figures" {
                return Err(format!("`{mode}` takes no argument `{a}`"));
            }
            if a != "ablation" && !ALL.iter().any(|(n, _)| *n == a) {
                return Err(format!("unknown figure `{a}`"));
            }
            names.push(arg.clone());
            continue;
        }
        if !FLAGS.contains(&a) {
            return Err(format!("unknown flag `{a}`"));
        }
        if !reads.contains(&a) {
            return Err(format!("`{a}` does not apply to `{mode}`"));
        }
        let mut value = || it.next().ok_or(format!("`{a}` requires a value"));
        match a {
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` requires an integer".to_string())?
            }
            "--tenants" => {
                tenants = match value()?.parse() {
                    Ok(n) if n >= 2 => n,
                    _ => return Err("`--tenants` requires an integer >= 2".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--trace" => trace = Some(value()?.clone()),
            "--quick" => quick = true,
            "--paper-scale" => paper = true,
            "--json" => json = true,
            _ => unreachable!("`{a}` is in FLAGS but has no arm"),
        }
    }
    let out = |default: &str| out.unwrap_or_else(|| default.to_string());
    Ok(match mode {
        "figures" => Command::Figures {
            names,
            paper,
            json,
            trace,
        },
        "chaos" => Command::Chaos { seed, paper },
        "kill-chaos" => Command::KillChaos { seed, paper },
        "sdc" => Command::Sdc {
            seed,
            tenants,
            out: out("BENCH_8.json"),
            paper,
        },
        "serve" => Command::Serve {
            seed,
            tenants,
            out: out("BENCH_7.json"),
        },
        _ => Command::Coexec {
            quick,
            out: out("BENCH_9.json"),
            paper,
        },
    })
}

fn sizes(paper: bool) -> Sizes {
    if paper {
        Sizes::paper()
    } else {
        Sizes::bench()
    }
}

/// Print a mode's report `(text, json, gates hold)`, write its JSON to
/// `out`, and exit 0 only when the report's gates hold.
fn finish(mode: &str, out: &str, gate: &str, report: Result<(String, String, bool), String>) -> ! {
    let (text, json, ok) = report.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    print!("{text}");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("error: writing {out}: {e}");
        exit(1);
    }
    eprintln!("{mode}: results written to {out}");
    if !ok {
        eprintln!("error: {gate}");
        exit(1);
    }
    exit(0)
}

fn run_chaos_mode(seed: u64, sizes: &Sizes) -> ! {
    eprintln!("chaos mode: seed {seed}");
    let mut failed = false;
    match chaos::run_chaos(seed, sizes) {
        Ok(outcomes) => {
            for o in outcomes {
                println!("{}", o.render());
                failed |= !o.matches_reference;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    match chaos::run_failover_chaos(sizes.matmul_n) {
        Ok(o) => {
            println!("{}", o.render());
            failed |= !o.matches_reference || o.failovers == 0;
        }
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    exit(i32::from(failed))
}

fn run_kill_chaos_mode(seed: u64, sizes: &Sizes) -> ! {
    eprintln!("kill-chaos mode: seed {seed}");
    let mut failed = false;
    match chaos::run_kill_chaos(seed, sizes) {
        Ok(outcomes) => {
            for o in outcomes {
                println!("{}", o.render());
                failed |= !o.matches_reference
                    || o.kills == 0
                    || o.exits != o.kills
                    || o.restarts != o.kills;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    exit(i32::from(failed))
}

fn run_figures(names: &[String], paper: bool, json: bool, trace_path: Option<String>) {
    if paper {
        eprintln!("note: paper-scale inputs run every work-item through an interpreter; expect long runtimes");
    }
    let sizes = sizes(paper);
    let wanted = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    let export = if trace_path.is_some() {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let mut out = Vec::new();
    for (name, f) in ALL {
        if !wanted(name) {
            continue;
        }
        let fig = f(&sizes, &export);
        if json {
            out.push(fig);
        } else {
            println!("{}", fig.render());
        }
    }
    if wanted("ablation") {
        let fig = figures::ablation_mov(&sizes, &export);
        if json {
            out.push(fig);
        } else {
            println!("{}", fig.render());
        }
    }
    if json {
        let figs: Vec<String> = out.iter().map(bench::Figure::to_json).collect();
        println!("[{}]", figs.join(","));
    }
    if let Some(path) = trace_path {
        let events = export.events();
        if let Err(e) = std::fs::write(&path, trace::chrome_json(&events)) {
            eprintln!("error: writing trace to {path}: {e}");
            exit(1);
        }
        eprintln!(
            "trace: {} events written to {path} (open in Perfetto)",
            events.len()
        );
        // Raw per-run totals, straight from the exported spans — the same
        // aggregation the figure bars are normalised from.
        let mut runs: Vec<String> = Vec::new();
        for e in &events {
            if let Some((_, v)) = e.args.iter().find(|(k, _)| k == "run") {
                if !runs.contains(v) {
                    runs.push(v.clone());
                }
            }
        }
        for r in &runs {
            let evs: Vec<trace::TraceEvent> = events
                .iter()
                .filter(|e| e.args.iter().any(|(k, v)| k == "run" && v == r))
                .cloned()
                .collect();
            let s = trace::Segments::from_events(&evs);
            eprintln!(
                "  {r}: to-dev {} from-dev {} kernel {} vm {} total {} (virtual ns)",
                s.to_device_ns,
                s.from_device_ns,
                s.kernel_ns,
                s.vm_ns,
                s.total_ns()
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        exit(2)
    });
    match cmd {
        Command::Figures {
            names,
            paper,
            json,
            trace,
        } => run_figures(&names, paper, json, trace),
        Command::Chaos { seed, paper } => run_chaos_mode(seed, &sizes(paper)),
        Command::KillChaos { seed, paper } => run_kill_chaos_mode(seed, &sizes(paper)),
        Command::Sdc {
            seed,
            tenants,
            out,
            paper,
        } => {
            eprintln!("sdc mode: seed {seed}, {tenants} straggler tenants");
            finish(
                "sdc",
                &out,
                "an injected corruption went undetected, a recovered run diverged \
                 from its fault-free reference, or hedging failed to improve the \
                 straggler p99",
                sdc::run_sdc(seed, &sizes(paper), tenants)
                    .map(|r| (r.render(), r.to_json(), r.all_consistent())),
            )
        }
        Command::Serve { seed, tenants, out } => {
            eprintln!("serving mode: {tenants} tenants per workload, kill seed {seed}");
            finish(
                "serve",
                &out,
                "a chaos-free tenant diverged from its solo reference (or a \
                 workload completed nothing)",
                serve_bench::run_serve(tenants, seed)
                    .map(|r| (r.render(), r.to_json(), r.all_consistent())),
            )
        }
        Command::Coexec { quick, out, paper } => {
            eprintln!(
                "coexec mode: {} sweep",
                if quick { "quick (reduced)" } else { "full" }
            );
            finish(
                "coexec",
                &out,
                "a co-executed or batched run diverged from its single-device \
                 reference, a sweep found no crossover, or batching saved less \
                 than the required launch overhead",
                coexec::run_coexec(&sizes(paper), quick)
                    .map(|r| (r.render(), r.to_json(), r.all_consistent())),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &str) -> Result<Command, String> {
        let v: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse(&v)
    }

    #[test]
    fn ci_invocations_parse_to_their_commands() {
        assert_eq!(
            p("chaos --seed 1"),
            Ok(Command::Chaos {
                seed: 1,
                paper: false
            })
        );
        assert_eq!(
            p("kill-chaos --seed 1"),
            Ok(Command::KillChaos {
                seed: 1,
                paper: false
            })
        );
        assert_eq!(
            p("serve --tenants 8 --seed 1 --out BENCH_7.json"),
            Ok(Command::Serve {
                seed: 1,
                tenants: 8,
                out: "BENCH_7.json".into()
            })
        );
        assert_eq!(
            p("sdc --seed 1 --out BENCH_8.json"),
            Ok(Command::Sdc {
                seed: 1,
                tenants: 6,
                out: "BENCH_8.json".into(),
                paper: false
            })
        );
        assert_eq!(
            p("coexec --quick --out BENCH_9.json"),
            Ok(Command::Coexec {
                quick: true,
                out: "BENCH_9.json".into(),
                paper: false
            })
        );
    }

    #[test]
    fn figures_is_the_default_command() {
        assert_eq!(
            p(""),
            Ok(Command::Figures {
                names: vec![],
                paper: false,
                json: false,
                trace: None
            })
        );
        assert_eq!(
            p("--json fig3c ablation --paper-scale --trace lud.json"),
            Ok(Command::Figures {
                names: vec!["fig3c".into(), "ablation".into()],
                paper: true,
                json: true,
                trace: Some("lud.json".into())
            })
        );
        assert_eq!(
            p("coexec"),
            Ok(Command::Coexec {
                quick: false,
                out: "BENCH_9.json".into(),
                paper: false
            })
        );
    }

    #[test]
    fn unknown_removed_missing_and_inapplicable_flags_are_errors() {
        for bad in [
            "--wallclock",
            "--chaos-seed 1",
            "--bogus",
            "chaos --tenants 3",
            "fig9",
            "chaos fig3a",
            "chaos --seed",
            "chaos --seed x",
            "serve --tenants 1",
            "serve --paper-scale",
            "sdc --out",
            "coexec --seed 1",
            "--trace",
            "--seed 1",
        ] {
            assert!(p(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
