//! Tests of the harness as a whole, on the tiny `--smoke` corpora: they
//! exercise every workload, the traced run and the oracles without
//! running the load.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::compare::read_benchmark;
use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{run, Config};
use crate::trace::Tracer;
use crate::workloads::{setup, Size, Workload, WORKLOADS};

/// A scratch directory of this test's own, inside the build directory.
fn scratch(test: &str) -> PathBuf {
    let exe = std::env::current_exe().unwrap();
    let dir = exe.parent().unwrap().join("perfbench-test").join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke(name: &str, seed: u64, tracer: Option<Arc<Tracer>>, dir: &Path) -> Box<dyn Workload> {
    setup(name, seed, Size::Smoke, tracer, dir).unwrap()
}

#[test]
fn benchmark_json_lists_exactly_what_the_program_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let listed = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get(field).unwrap().as_str().unwrap().to_owned())
            .collect()
    };
    assert_eq!(listed("workloads", "name"), WORKLOADS);
    for (key, ours) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<&str> = ours.iter().map(|m| m.0).collect();
        let units: Vec<&str> = ours.iter().map(|m| m.1).collect();
        assert_eq!(listed(key, "name"), names);
        assert_eq!(listed(key, "unit"), units);
    }
    for why in listed("workloads", "why") {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let benchmark = read_benchmark(&path).unwrap();
    assert!(benchmark.run_seconds >= 1.0 && benchmark.run_seconds <= 60.0);
    assert!(benchmark
        .end_to_end
        .values()
        .all(|b| b.bound > 0.0 && b.bound <= 0.25));
    assert!(benchmark.end_to_end.contains_key("setup_s"));
}

#[test]
fn smoke_runs_are_correct_and_print_every_metric() {
    let work_dir = scratch("smoke");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = run(&Config {
                workload: workload.to_owned(),
                seed: 11,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
                work_dir: work_dir.clone(),
            })
            .unwrap();
            assert!(result.correct, "{workload} trace {trace}");
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= 20);
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
            assert_eq!(names, expected);
            assert!(result.metrics.iter().all(|m| m.1.is_finite()));
            // The result line is the JSON the run contract asks for.
            let line = json::parse(&result.to_json()).unwrap();
            assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().as_object().unwrap().len(),
                expected.len()
            );
            let value = |name: &str| result.metrics.iter().find(|m| m.0 == name).unwrap().1;
            if trace {
                assert!(value("bench.span_coverage_share") > 0.8, "{workload}");
                assert!(work_dir
                    .join(format!("benchmark/trace-{workload}.json"))
                    .is_file());
            } else {
                assert!(END_TO_END.iter().all(|m| value(m.0) > 0.0), "{workload}");
            }
        }
    }
    // Runs remove their store files.
    let left: Vec<_> = std::fs::read_dir(work_dir.join("perfbench-scratch"))
        .unwrap()
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

/// Runs every op of the list once and returns (description, class,
/// digest, charged) per op.
fn first_pass(w: &mut dyn Workload, traced: bool) -> Vec<(String, &'static str, u64, u64)> {
    (0..w.ops())
        .map(|i| {
            let t = if traced { w.run_traced(i) } else { w.run(i) }.unwrap();
            w.after_op().unwrap();
            (
                w.describe(i),
                w.class_of(i),
                t.output.digest(),
                if w.charge_repeats(i) {
                    t.output.charged
                } else {
                    0
                },
            )
        })
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_ops_answers_and_charged_cost() {
    for workload in WORKLOADS {
        let dir = scratch(&format!("determinism-{workload}"));
        let one = first_pass(smoke(workload, 5, None, &dir).as_mut(), false);
        let same = first_pass(smoke(workload, 5, None, &dir).as_mut(), false);
        let other = first_pass(smoke(workload, 6, None, &dir).as_mut(), false);
        assert_eq!(one, same, "{workload}");
        let descriptions = |pass: &[(String, &str, u64, u64)]| -> Vec<String> {
            pass.iter().map(|op| op.0.clone()).collect()
        };
        assert_ne!(descriptions(&one), descriptions(&other), "{workload}");
        // Another seed reorders and redraws the ops; the class shares
        // stay what they are.
        let shares = |pass: &[(String, &'static str, u64, u64)]| {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for op in pass {
                *counts.entry(op.1).or_default() += 1;
            }
            counts
        };
        assert_eq!(shares(&one), shares(&other), "{workload}");
    }
}

#[test]
fn the_timed_wrappers_change_no_answer_no_charge_and_no_page_skip() {
    for workload in WORKLOADS {
        let dir = scratch(&format!("transparency-{workload}"));
        let skipped = |w: &dyn Workload| w.counters().get("pool.skipped").copied().unwrap_or(0.0);
        let mut plain = smoke(workload, 9, None, &dir);
        let before = skipped(plain.as_ref());
        let untraced = first_pass(plain.as_mut(), false);
        let plain_skips = skipped(plain.as_ref()) - before;
        drop(plain);

        let tracer = Tracer::new();
        let mut wrapped = smoke(workload, 9, Some(Arc::clone(&tracer)), &dir);
        let before = skipped(wrapped.as_ref());
        let traced = first_pass(wrapped.as_mut(), true);
        assert_eq!(untraced, traced, "{workload}");
        assert_eq!(
            plain_skips,
            skipped(wrapped.as_ref()) - before,
            "{workload}"
        );
        assert!(!tracer.drain().is_empty());
    }
}

#[test]
fn the_oracles_accept_every_op_and_reject_a_wrong_digest() {
    for workload in WORKLOADS {
        let dir = scratch(&format!("oracle-{workload}"));
        let mut w = smoke(workload, 13, None, &dir);
        for i in 0..w.ops() {
            let seen = w.run(i).unwrap().output.digest();
            assert!(w.verify(i, seen).unwrap(), "{workload}: {}", w.describe(i));
            assert!(
                !w.verify(i, seen ^ 1).unwrap(),
                "{workload}: {}",
                w.describe(i)
            );
        }
    }
}
