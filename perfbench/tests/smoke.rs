//! Smoke test of the benchmark itself: every workload at a tiny size,
//! untraced and traced, must pass every invariant and digest check, and
//! the tournament cells must digest the same on one worker and on every
//! core (the sweep's thread-count contract). Run it optimized:
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run_pass, run_traced, run_untraced, Config, PassSample, Report, Sizes, Workload};

fn tiny(workload: Workload, trace: bool, workers: usize) -> Report {
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.0,
        sizes: Sizes::tiny(),
        workers,
    };
    let report = if trace {
        run_traced(&cfg)
    } else {
        run_untraced(&cfg, &mut || run_pass(&cfg))
    };
    assert_eq!(
        report.failed,
        0,
        "{} (trace {trace}, {workers} workers): {:?}",
        workload.name(),
        report.failures
    );
    assert!(report.attempted >= 1);
    report
}

/// The metric names listed under `key` in `BENCHMARK.json`, in order.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .expect("the key is present");
    let section = &text[start..];
    let end = section.find(']').expect("the list is closed");
    section[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_passes_its_checks_traced_and_untraced() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        let plain = tiny(workload, false, 0);
        let traced = tiny(workload, true, 0);
        assert_eq!(
            plain.output_digest,
            traced.output_digest,
            "{}: tracing changed an output",
            workload.name()
        );
        assert_eq!(names(&plain), end_to_end, "{}", workload.name());
        assert_eq!(names(&traced), per_layer, "{}", workload.name());
        assert!(traced
            .trace_json
            .as_deref()
            .is_some_and(|d| d.contains("\"spans\"")));
    }
}

#[test]
fn tournament_cells_digest_the_same_on_one_worker_and_every_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for trace in [false, true] {
        let one = tiny(Workload::TournamentSlice, trace, 1);
        let all = tiny(Workload::TournamentSlice, trace, cores);
        assert_eq!(one.output_digest, all.output_digest, "trace {trace}");
    }
}

#[test]
fn a_pass_sample_survives_its_text_form() {
    let cfg = Config {
        workload: Workload::FleetHyperscale,
        seed: 3,
        seconds: 0.0,
        sizes: Sizes::tiny(),
        workers: 0,
    };
    let mut sample = run_pass(&cfg).expect("a tiny pass runs");
    sample.ops[0].violations.push("an example violation".into());
    assert_eq!(PassSample::parse(&sample.to_text()), Ok(sample));
}
