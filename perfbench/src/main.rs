//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-out <file>] [--scale <full|tiny>]`
//!
//! Prints the run's human-readable lines, then one JSON result line as
//! the last line of standard output. Exits 1 without a result line when
//! the run cannot complete, and 2 on a usage error.
//!
//! `perfbench --workload <name> [--scale <full|tiny>] --setup-only` runs
//! one set-up pass and exits; a run starts it afresh to time set-up.

use perfbench::workload::{Scale, Workload};
use perfbench::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--scale <full|tiny>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut scale = Some(Scale::Full);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--scale" => scale = Scale::parse(value),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(scale)) = (workload, scale) else {
        return usage("--workload and --scale must name a known workload and scale");
    };
    if setup_only {
        return match perfbench::setup_only(workload, scale) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return usage("--seed, --seconds and --trace are required and must be valid");
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale,
        trace_out,
        exe,
    };
    match perfbench::run(&cfg).and_then(|r| Ok((r.result_json(trace)?, r))) {
        Ok((json, report)) => {
            print!("{}", report.text);
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
