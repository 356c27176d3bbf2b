//! Tests of the benchmark's own code: statistics, metric schema, layer
//! arithmetic, op order, and a tiny-size smoke run of every workload.

use perfbench::layers::LayerTimes;
use perfbench::metrics::{valid_name, valid_unit, MetricDef, ResultLine, END_TO_END, PER_LAYER};
use perfbench::stats::{beyond, median, percentile, quietest, stolen_per_window, window_of};
use perfbench::workload::{job_order, request_app, Scale, Workload};
use perfbench::Config;
use std::collections::BTreeSet;

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), Some(50.0));
    assert_eq!(percentile(&xs, 90.0), Some(90.0));
    assert_eq!(percentile(&xs, 100.0), Some(100.0));
    assert_eq!(percentile(&xs, 0.1), Some(1.0));
    // Always a measured value, never an interpolation.
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
    assert_eq!(percentile(&[1.0, 2.0], 90.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(beyond(&xs, 90.0), 10);
    assert_eq!(beyond(&[1.0; 20], 90.0), 0);
}

#[test]
fn metrics_come_from_the_windows_with_least_stolen_time() {
    assert_eq!(window_of(0.0, 3, 2.0), 0);
    assert_eq!(window_of(1.99, 3, 2.0), 0);
    assert_eq!(window_of(2.0, 3, 2.0), 1);
    assert_eq!(window_of(9.0, 3, 2.0), 2, "past the end: last window");
    assert_eq!(window_of(1.0, 3, 0.0), 2);
    // Cumulative counter readings over four windows of 1 s; window 2
    // has none, so it gets nothing and window 1 runs to window 3's
    // first reading.
    let readings = [
        (0.0, 10.0),
        (0.5, 12.0),
        (1.2, 13.0),
        (3.1, 40.0),
        (3.9, 41.0),
    ];
    let stolen = stolen_per_window(&readings, 4, 1.0, 45.0);
    assert_eq!(stolen, vec![Some(3.0), Some(27.0), None, Some(5.0)]);
    // Quietest first until both minimums are met: window 0 alone holds
    // 5 ops, so window 3 joins it; two windows are enough.
    let ops = [5, 9, 0, 4];
    assert_eq!(
        quietest(&stolen, &ops, 8, 1),
        vec![true, false, false, true]
    );
    assert_eq!(
        quietest(&stolen, &ops, 1, 2),
        vec![true, false, false, true]
    );
    assert_eq!(
        quietest(&stolen, &ops, 5, 1),
        vec![true, false, false, false]
    );
    // Windows without readings never count, even when the minimums
    // cannot be met.
    assert_eq!(
        quietest(&stolen, &ops, 99, 9),
        vec![true, true, false, true]
    );
    // Ties go to the earlier window.
    let tied = [Some(1.0), Some(0.0), Some(1.0)];
    assert_eq!(quietest(&tied, &[1, 1, 1], 2, 1), vec![true, true, false]);
}

/// The `(name, unit)` pairs of one section of `BENCHMARK.json`, read
/// without a JSON library: every `"name": ..., "unit": ...` pair between
/// the section's key and the next section's.
fn section(json: &str, key: &str, next: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let end = json
        .find(&format!("\"{next}\""))
        .expect("next section present");
    let body = &json[start..end];
    let field = |s: &str, f: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{f}\": \""))? + f.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, after)) = field(rest, "name") {
        let (unit, after_unit) = field(&rest[after..], "unit").expect("unit after name");
        out.push((name, unit));
        rest = &rest[after + after_unit..];
    }
    out
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn metric_names_and_units_are_valid_and_match_benchmark_json() {
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
    }
    let names: BTreeSet<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names repeat"
    );
    assert!(END_TO_END.contains(&MetricDef {
        name: "setup_s",
        unit: "s"
    }));
    assert!(!valid_name("-lead") && !valid_name("") && !valid_name("a b"));
    assert!(!valid_unit("") && !valid_unit("seventeen_chars_x"));

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(section(&json, "end_to_end", "per_layer"), pairs(END_TO_END));
    let tail = format!("{json}\"end\"");
    assert_eq!(section(&tail, "per_layer", "end"), pairs(PER_LAYER));
    // Every declared workload is one the benchmark can run.
    let names: Vec<&str> = json
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .filter(|name| json.contains(&format!("\"name\": \"{name}\", \"why\"")))
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn result_line_has_exactly_the_set() {
    let mut r = ResultLine {
        attempted: 3,
        failed: 0,
        ..ResultLine::default()
    };
    for (i, d) in END_TO_END.iter().enumerate() {
        r.values.insert(d.name, 1.5 + i as f64);
    }
    let json = r.to_json(END_TO_END).unwrap();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(json.contains("\"setup_s\": {\"value\": 6.5, \"unit\": \"s\"}"));
    assert!(
        r.to_json(PER_LAYER).is_err(),
        "end-to-end set is not the layer set"
    );

    r.failed = 1;
    assert!(r
        .to_json(END_TO_END)
        .unwrap()
        .starts_with("{\"correct\": false"));
    r.values.insert("setup_s", f64::NAN);
    assert!(r.to_json(END_TO_END).is_err());
    r.values.remove("setup_s");
    assert!(r.to_json(END_TO_END).is_err());
}

#[test]
fn layer_self_times_and_residual_add_up_to_the_job() {
    let t = LayerTimes {
        job_ms: 10.0,
        parse_ms: 1.0,
        analyze_ms: 2.0,
        compile_ms: 4.0,
        vm_run_ms: 5.0,
        copencl_ms: 3.0,
    };
    let a = t.attribute();
    let selfs: Vec<f64> = a.rows.iter().map(|r| r.self_ms).collect();
    assert_eq!(selfs, vec![1.0, 2.0, 1.0, 3.0, 2.0]);
    assert_eq!(t.ensemble_overhead_ms(), 2.0);
    assert_eq!(a.residual_ms, 1.0);
    assert_eq!(a.total_ms(), t.job_ms);
    // The identity holds whatever the inputs, including a probe that
    // reads longer than the call it stands in for.
    let odd = LayerTimes {
        copencl_ms: 7.5,
        parse_ms: 3.25,
        ..t
    };
    assert!((odd.attribute().total_ms() - odd.job_ms).abs() < 1e-12);
}

#[test]
fn op_order_depends_on_the_seed_alone() {
    assert_eq!(job_order(7, 3, 4), job_order(7, 3, 4));
    let mut sorted = job_order(7, 3, 4);
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3]);
    let orders = |seed| (0..16).map(|j| job_order(seed, j, 4)).collect::<Vec<_>>();
    assert_ne!(orders(1), orders(2));
    // The request mix cycles every app once per block.
    for block in 0..8u64 {
        let mut apps: Vec<usize> = (0..3).map(|i| request_app(5, block * 3 + i, 3)).collect();
        apps.sort_unstable();
        assert_eq!(apps, vec![0, 1, 2]);
    }
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    // One test runs them all in turn: the engine default is process-wide
    // and the reference runs switch it.
    let trace_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans.json");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 11,
                seconds: 0.3,
                trace,
                scale: Scale::Tiny,
                trace_out: trace.then(|| trace_file.clone()),
                exe: env!("CARGO_BIN_EXE_perfbench").into(),
            };
            let report = perfbench::run(&cfg)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let r = &report.result;
            assert!(r.attempted > 0, "{}: nothing attempted", workload.name());
            assert_eq!(
                r.failed,
                0,
                "{} trace={trace}:\n{}",
                workload.name(),
                report.text
            );
            let json = report.result_json(trace).unwrap();
            assert!(json.starts_with("{\"correct\": true"), "{json}");
            if trace {
                assert!(report.text.contains("residual"), "{}", report.text);
                let spans = std::fs::read_to_string(&trace_file).unwrap();
                trace::json::validate(&spans).unwrap();
                for name in ["\"op\"", "\"vm.run\"", "\"oclsim.copencl\"", "\"serve.op\""] {
                    assert!(
                        spans.contains(name),
                        "{} spans lack {name}",
                        workload.name()
                    );
                }
            }
        }
    }
}
