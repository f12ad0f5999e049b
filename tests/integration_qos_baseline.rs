//! The shared always-awake QoS baseline of the sweep runner, against its
//! oracle. Cells of one grid that draw the same arrival streams fold
//! them once into a baseline and re-serve only the VM-hours their policy
//! disturbed; a one-point grid builds no baseline and serves every
//! request. Both must produce the same bits. The second test pins which
//! cells share a baseline, read off the fold's logical counters
//! (`dc.qos_vm_hours_replayed` / `dc.qos_vm_hours_merged`).

use dds_bench::tournament::{build_grid, run_grid, CellResult, TournamentGrid};
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::{run_sweep_with, SweepPoint};
use dds_scenarios::Scenario;
use dds_sim_core::{SimDuration, WorkerPool};
use dds_telemetry::{MetricKind, MetricsRegistry};
use std::sync::Mutex;

/// The fold's counters are process-global: every test here runs its
/// grids under this lock, so the deltas a test reads are its own.
static COUNTERS: Mutex<()> = Mutex::new(());

fn scenario(name: &str, days: u64) -> Scenario {
    let mut s = dds_scenarios::find(name).expect("catalog entry ships");
    s.days = days;
    s
}

/// `(replayed, merged)` interactive VM-hours folded so far.
fn fold_counters() -> (u64, u64) {
    let reg = MetricsRegistry::global();
    let get = |name: &str| reg.counter(name, MetricKind::Logical).get();
    (
        get("dc.qos_vm_hours_replayed"),
        get("dc.qos_vm_hours_merged"),
    )
}

/// Runs `points` as one sweep and returns the `(replayed, merged)`
/// counter deltas.
fn fold_deltas(registry: &PolicyRegistry, points: &[SweepPoint]) -> (u64, u64) {
    let (r0, m0) = fold_counters();
    run_sweep_with(registry, points, 0);
    let (r1, m1) = fold_counters();
    (r1 - r0, m1 - m0)
}

fn assert_same_cell(shared: &CellResult, alone: &CellResult) {
    let k = &shared.key;
    let at = format!("{}/{}/{}/{}", k.scenario, k.wake, k.policy, k.seed);
    assert_eq!(shared.key, alone.key);
    assert_eq!(
        shared.energy_kwh.to_bits(),
        alone.energy_kwh.to_bits(),
        "{at}: energy"
    );
    assert_eq!(shared.migrations, alone.migrations, "{at}: migrations");
    assert_eq!(shared.wakes, alone.wakes, "{at}: wakes");
    // The whole report: every counter and the latency histogram.
    assert_eq!(shared.qos, alone.qos, "{at}: QoS report");
}

#[test]
fn every_cell_of_a_shared_grid_matches_the_cell_run_alone() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let registry = PolicyRegistry::standard();
    let policies: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    assert_eq!(policies.len(), 7, "all registry policies");
    let grid = build_grid(
        &[scenario("nightly-window", 1), scenario("hifi-flash", 1)],
        &policies,
        &[17],
    );
    assert_eq!(grid.points.len(), 28);
    let (r0, m0) = fold_counters();
    let shared = run_grid(&registry, &grid, 0);
    let (r1, m1) = fold_counters();
    assert!(m1 > m0, "the grid merged baseline VM-hours");
    assert!(
        m1 - m0 > r1 - r0,
        "most VM-hours merge: {} merged, {} replayed",
        m1 - m0,
        r1 - r0
    );
    // Every cell again as a one-point grid of its own (fanned out over
    // the pool, one sweep per cell).
    let singles: Vec<_> = (0..grid.points.len())
        .map(|i| {
            let alone = TournamentGrid {
                cells: vec![grid.cells[i].clone()],
                points: vec![grid.points[i].clone()],
            };
            let registry = &registry;
            move || run_grid(registry, &alone, 1).remove(0)
        })
        .collect();
    let alone = WorkerPool::global().run_ordered(0, singles);
    assert_eq!(fold_counters().1, m1, "a one-point grid builds no baseline");
    for (shared, alone) in shared.iter().zip(&alone) {
        assert_same_cell(shared, alone);
    }
}

#[test]
fn quick_and_stock_cells_share_a_baseline_but_other_seeds_and_slas_do_not() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let registry = PolicyRegistry::standard();
    let policies = vec!["drowsy-dc".to_string()];
    let s = scenario("hifi-flash", 1);
    let wake_pair = build_grid(std::slice::from_ref(&s), &policies, &[3]).points;
    assert_eq!(wake_pair.len(), 2, "quick and stock");

    // The quick cell under two SLAs: the fold judges against the SLA.
    let mut strict = wake_pair[0].clone();
    let qos = strict.spec.config.qos_stream.as_mut().expect("streaming");
    qos.profile.sla = SimDuration::from_millis(150);
    let (replayed, merged) = fold_deltas(&registry, &[wake_pair[0].clone(), strict]);
    assert_eq!(merged, 0, "different SLAs build no shared baseline");
    assert!(replayed > 0 && replayed % 2 == 0);
    let cell_hours = replayed / 2;

    // The quick cell under two seeds: different arrival streams.
    // (Grid order is wake-major, then seed: the first two are quick.)
    let by_seed = build_grid(std::slice::from_ref(&s), &policies, &[3, 4]).points;
    assert_ne!(by_seed[0].seed, by_seed[1].seed);
    let (replayed, merged) = fold_deltas(&registry, &by_seed[..2]);
    assert_eq!(merged, 0, "different seeds build no shared baseline");
    assert!(replayed > 0);

    // Quick + stock of one seed: the resume latency is not in the key.
    let (replayed, merged) = fold_deltas(&registry, &wake_pair);
    assert!(merged > 0, "quick and stock share one baseline");
    assert_eq!(
        replayed + merged,
        2 * cell_hours,
        "every VM-hour accounted once"
    );
}
