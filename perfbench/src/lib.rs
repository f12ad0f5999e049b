//! The repository benchmark: four workloads that drive the simulator's
//! public entry points as closed-loop batch jobs, time them from
//! outside, check every output, and report end-to-end metrics (untraced
//! run) or per-layer metrics (traced run).
//!
//! | workload | what one pass runs |
//! |---|---|
//! | `tournament-slice` | `build_grid`/`run_grid` over `nightly-window` + `hifi-flash` (1 day), 7 policies × 2 wake paths × 2 seeds = 56 streaming-QoS cells |
//! | `qos-solo` | `nightly-window` (2 days), `sla-aware`, quick wake, 8 seeds = 8 cells sharing no arrival stream |
//! | `faithful-scale` | `mixed-production` scaled to 700 hosts (2 days), `drowsy-dc`, 1 worker, energy only |
//! | `fleet-hyperscale` | `FleetSim` with 100k hosts, 1M VMs, 168 h, churn hosts/256 |
//!
//! A pass starts only after the previous one finished. The untraced run
//! ([`run_untraced`]) goes through the user-facing calls (`run_grid`,
//! `run_sweep_with`, `FleetSim::step_hour`), one pass per process. The
//! traced run ([`run_traced`]) alternates an untraced pass with a traced
//! one that rebuilds each cell the way `run_cluster_policy_with` does,
//! through a registry of timing wrappers, drives it one
//! `DcEngine::run_hours(1)` at a time, and fans the cells out with
//! `WorkerPool::run_ordered` itself. Every operation (a cell or a fleet
//! run) must yield the digest of the run's first pass, traced or not.

pub mod timed;
pub mod trace;

use dds_bench::tournament::{build_grid, run_grid, TournamentGrid};
use dds_core::datacenter::{dc_spans, Datacenter, DcEngine, DcOutcome};
use dds_core::fleet::{FleetConfig, FleetOutcome, FleetSim};
use dds_core::registry::PolicyRegistry;
use dds_core::sweep::{run_sweep_with, SweepPoint};
use dds_scenarios::Scenario;
use dds_sim_core::qos::QosReport;
use dds_sim_core::{HostId, WorkerPool};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use timed::{timed_registry, Method, MethodTotals};
use trace::{median, tail, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TournamentSlice,
    QosSolo,
    FaithfulScale,
    FleetHyperscale,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TournamentSlice,
        Workload::QosSolo,
        Workload::FaithfulScale,
        Workload::FleetHyperscale,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TournamentSlice => "tournament-slice",
            Workload::QosSolo => "qos-solo",
            Workload::FaithfulScale => "faithful-scale",
            Workload::FleetHyperscale => "fleet-hyperscale",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads whose cells stream request-level QoS.
    pub fn streams_qos(self) -> bool {
        matches!(self, Workload::TournamentSlice | Workload::QosSolo)
    }
}

/// Input sizes: [`Sizes::benchmark`] is what the benchmark measures,
/// [`Sizes::tiny`] what its smoke test runs.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Simulated days per datacenter cell (catalog days are capped).
    pub days: u64,
    /// Rescales the two QoS scenarios to this many hosts (`None` keeps
    /// the catalog's 8).
    pub qos_hosts: Option<usize>,
    /// Simulated days of the `tournament-slice` cells.
    pub slice_days: u64,
    /// Seed replicates per `tournament-slice` pass.
    pub slice_seeds: u64,
    /// Distinct seeds (= cells) of `qos-solo`.
    pub solo_seeds: u64,
    /// Host count `faithful-scale` scales `mixed-production` to.
    pub faithful_hosts: usize,
    /// `fleet-hyperscale` hosts, initial VMs and simulated hours.
    pub fleet_hosts: usize,
    pub fleet_vms: usize,
    pub fleet_hours: u64,
}

impl Sizes {
    /// The measured sizes.
    pub fn benchmark() -> Sizes {
        Sizes {
            days: 2,
            qos_hosts: None,
            slice_days: 1,
            slice_seeds: 2,
            solo_seeds: 8,
            faithful_hosts: 700,
            fleet_hosts: 100_000,
            fleet_vms: 1_000_000,
            fleet_hours: 168,
        }
    }

    /// Every workload at a size a debug build runs in seconds.
    pub fn tiny() -> Sizes {
        Sizes {
            days: 1,
            qos_hosts: Some(2),
            slice_days: 1,
            slice_seeds: 1,
            solo_seeds: 2,
            faithful_hosts: 14,
            fleet_hosts: 512,
            fleet_vms: 4_000,
            fleet_hours: 24,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Drives every input the workload generates.
    pub seed: u64,
    /// Measurement budget: passes repeat while another fits (at least
    /// one pass, or one untraced/traced pair when tracing).
    pub seconds: f64,
    pub sizes: Sizes,
    /// Pool width for the cell fan-out; `0` = the workload's default
    /// (every core for the QoS workloads, one for `faithful-scale`).
    pub workers: usize,
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (cells or fleet runs, over all passes).
    pub attempted: u64,
    /// Operations that panicked, broke an invariant or changed digest.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Digest over the logical outputs of every operation of a pass.
    pub output_digest: u64,
    /// Wall time of each untraced pass, s.
    pub pass_walls: Vec<f64>,
    /// Traced passes run.
    pub traced_passes: usize,
    /// Operations per pass.
    pub ops_per_pass: usize,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), exactly the `BENCHMARK.json` lists.
    pub metrics: Vec<Metric>,
    /// Human-facing extras: `requests_per_s` and `failed_frac`.
    pub extras: Vec<Metric>,
    /// The traced run's spans and layer totals as a JSON document.
    pub trace_json: Option<String>,
}

/// Set-ups before each datacenter pass (the last one's job runs);
/// `setup_s` is the median over every set-up of the run. The fleet
/// workload sets up once per pass.
const SETUP_REPS: usize = 5;

// ---------------------------------------------------------------------
// Digests and invariants.

/// FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

fn add_qos(h: &mut Fnv, q: &QosReport) {
    for w in [
        q.total,
        q.under_sla,
        q.wake_hits,
        q.wake_violations,
        q.queue_violations,
        q.worst_wake_ms,
        q.unserved,
        q.sla_ms,
    ] {
        h.add(w);
    }
    // The histogram's buckets are private; its Debug form lists them all.
    h.add_bytes(format!("{:?}", q.latencies).as_bytes());
}

fn check_qos(q: &QosReport, bad: &mut Vec<String>) {
    let parts = q.under_sla + q.wake_violations + q.queue_violations;
    if q.total != parts {
        bad.push(format!(
            "qos total {} != under_sla + wake_violations + queue_violations = {parts}",
            q.total
        ));
    }
    if q.total != q.latencies.count() {
        bad.push(format!(
            "qos total {} != histogram count {}",
            q.total,
            q.latencies.count()
        ));
    }
    if q.unserved != 0 {
        bad.push(format!("{} requests unserved", q.unserved));
    }
}

fn check_energy(kwh: f64, bad: &mut Vec<String>) {
    if !(kwh.is_finite() && kwh > 0.0) {
        bad.push(format!("energy {kwh} kWh is not finite and positive"));
    }
}

/// The logical output of one datacenter cell.
#[derive(Debug, Clone)]
struct CellOut {
    energy_kwh: f64,
    migrations: u64,
    wakes: u64,
    qos: Option<QosReport>,
}

impl CellOut {
    fn of(dc: &DcOutcome) -> CellOut {
        CellOut {
            energy_kwh: dc.energy_kwh,
            migrations: u64::from(dc.total_migrations()),
            wakes: dc.suspend_cycles.iter().map(|&(_, n)| n).sum(),
            qos: dc.qos.clone(),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.add(self.energy_kwh.to_bits());
        h.add(self.migrations);
        h.add(self.wakes);
        match &self.qos {
            Some(q) => add_qos(&mut h, q),
            None => h.add(u64::MAX),
        }
        h.value()
    }

    fn violations(&self, wants_qos: bool) -> Vec<String> {
        let mut bad = Vec::new();
        check_energy(self.energy_kwh, &mut bad);
        match (&self.qos, wants_qos) {
            (Some(q), _) => check_qos(q, &mut bad),
            (None, true) => bad.push("streaming cell returned no QoS report".into()),
            (None, false) => {}
        }
        bad
    }
}

fn fleet_digest(o: &FleetOutcome) -> u64 {
    let mut h = Fnv::default();
    for w in [
        o.digest,
        o.energy_kwh.to_bits(),
        o.live_vms as u64,
        o.placements,
        o.rejections,
        o.departures,
        o.suspends,
        o.resumes,
        o.active_host_hours,
        o.drowsy_host_hours,
    ] {
        h.add(w);
    }
    h.value()
}

fn fleet_violations(o: &FleetOutcome, hours: u64) -> Vec<String> {
    let mut bad = Vec::new();
    check_energy(o.energy_kwh, &mut bad);
    if o.placements.checked_sub(o.departures) != Some(o.live_vms as u64) {
        bad.push(format!(
            "placements {} - departures {} != live VMs {}",
            o.placements, o.departures, o.live_vms
        ));
    }
    if o.active_host_hours + o.drowsy_host_hours != o.hosts as u64 * hours {
        bad.push(format!(
            "active {} + drowsy {} host-hours != {} hosts x {hours} h",
            o.active_host_hours, o.drowsy_host_hours, o.hosts
        ));
    }
    bad
}

// ---------------------------------------------------------------------
// Set-up.

enum DcRunner {
    /// Streaming-QoS cells, run with `run_grid`.
    Grid(TournamentGrid),
    /// Energy-only cells, run with `run_sweep_with` (as the `scenarios`
    /// binary does).
    Sweep(Vec<SweepPoint>),
}

struct DcJob {
    runner: DcRunner,
    /// Simulated host-hours of each cell, index-aligned with the points.
    host_hours: Vec<u64>,
    workers: usize,
    qos: bool,
}

impl DcJob {
    fn points(&self) -> &[SweepPoint] {
        match &self.runner {
            DcRunner::Grid(g) => &g.points,
            DcRunner::Sweep(p) => p,
        }
    }
}

fn scenario(name: &str, days: u64, hosts: Option<usize>) -> Scenario {
    let mut s =
        dds_scenarios::find(name).unwrap_or_else(|| panic!("catalog scenario '{name}' is missing"));
    s.days = s.days.min(days);
    if let Some(h) = hosts {
        s.scale_to_hosts(h);
    }
    s
}

/// `n` distinct cell seeds derived from the benchmark seed; runs with
/// different benchmark seeds share none.
fn replicate_seeds(seed: u64, n: u64) -> Vec<u64> {
    assert!(n <= 16, "at most 16 replicates per benchmark seed");
    (0..n)
        .map(|i| seed.wrapping_mul(16).wrapping_add(i))
        .collect()
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builds the workload's scenarios and cells (timed as
/// `scenarios.build_s`), then generates each distinct VM-trace set once
/// and checks it against the spec. Returns the job and
/// `(scenarios_s, total_s)`.
fn setup_dc(cfg: &Config) -> (DcJob, f64, f64) {
    let t0 = Instant::now();
    let sizes = &cfg.sizes;
    let standard = PolicyRegistry::standard();
    let (runner, default_workers) = match cfg.workload {
        Workload::TournamentSlice => {
            let scenarios: Vec<Scenario> = ["nightly-window", "hifi-flash"]
                .iter()
                .map(|n| scenario(n, sizes.slice_days, sizes.qos_hosts))
                .collect();
            let policies: Vec<String> = standard.names().iter().map(|s| s.to_string()).collect();
            let seeds = replicate_seeds(cfg.seed, sizes.slice_seeds);
            (
                DcRunner::Grid(build_grid(&scenarios, &policies, &seeds)),
                cores(),
            )
        }
        Workload::QosSolo => {
            let s = scenario("nightly-window", sizes.days, sizes.qos_hosts);
            let seeds = replicate_seeds(cfg.seed, sizes.solo_seeds);
            let grid = build_grid(&[s], &["sla-aware".to_string()], &seeds);
            let (cells, points) = grid
                .cells
                .into_iter()
                .zip(grid.points)
                .filter(|(c, _)| c.wake == "quick")
                .unzip();
            (DcRunner::Grid(TournamentGrid { cells, points }), cores())
        }
        Workload::FaithfulScale => {
            let s = scenario("mixed-production", sizes.days, Some(sizes.faithful_hosts));
            let points = s
                .sweep_points(Some(cfg.seed))
                .into_iter()
                .filter(|p| p.policy == "drowsy-dc")
                .collect();
            (DcRunner::Sweep(points), 1)
        }
        Workload::FleetHyperscale => unreachable!("the fleet workload has no cells"),
    };
    let scenarios_s = t0.elapsed().as_secs_f64();
    let mut job = DcJob {
        host_hours: Vec::new(),
        workers: if cfg.workers == 0 {
            default_workers
        } else {
            cfg.workers
        },
        qos: cfg.workload.streams_qos(),
        runner,
    };
    let mut seen = BTreeSet::new();
    let mut host_hours = Vec::new();
    for p in job.points() {
        let spec = &p.spec;
        let entry = standard
            .get(&p.policy)
            .expect("cells name registered policies");
        let hosts = spec.hosts as u64 + u64::from(entry.needs_consolidation_host);
        host_hours.push(hosts * spec.days * 24);
        // Trace content depends on the population, the days and the seed
        // only: the policies and wake paths of one scenario share it.
        if seen.insert((spec.days, p.seed, format!("{:?}", spec.members))) {
            let vms = spec.vm_specs(p.seed);
            assert_eq!(vms.len(), spec.vms, "vm_specs yields the spec's population");
        }
    }
    job.host_hours = host_hours;
    (job, scenarios_s, t0.elapsed().as_secs_f64())
}

fn fleet_config(cfg: &Config) -> FleetConfig {
    let s = &cfg.sizes;
    FleetConfig {
        seed: cfg.seed,
        churn_per_epoch: (s.fleet_hosts / 256).max(4),
        ..FleetConfig::new(s.fleet_hosts, s.fleet_vms, s.fleet_hours)
    }
}

// ---------------------------------------------------------------------
// Passes.

/// One operation's checked output.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOut {
    /// Digest of the operation's logical outputs.
    pub digest: u64,
    /// Invariants the outputs broke.
    pub violations: Vec<String>,
}

/// Per-cell timings of a traced datacenter pass.
#[derive(Debug, Clone, Default)]
struct CellTiming {
    cell_ns: u64,
    vm_specs_ns: u64,
    epoch_ns: Vec<u64>,
}

/// Layer counts of one datacenter pass (traced passes only).
#[derive(Debug, Clone, Default)]
struct DcCounts {
    requests: u64,
    wake_hits: u64,
    wake_violations: u64,
    host_hours: u64,
    suspended_host_hours: f64,
    suspend_cycles: u64,
    migrations: u64,
}

fn dc_pass(job: &DcJob) -> Vec<CellOut> {
    let registry = PolicyRegistry::standard();
    match &job.runner {
        DcRunner::Grid(grid) => run_grid(&registry, grid, job.workers)
            .into_iter()
            .map(|c| CellOut {
                energy_kwh: c.energy_kwh,
                migrations: c.migrations,
                wakes: c.wakes,
                qos: Some(c.qos),
            })
            .collect(),
        DcRunner::Sweep(points) => run_sweep_with(&registry, points, job.workers)
            .iter()
            .map(|o| CellOut::of(&o.outcome.dc))
            .collect(),
    }
}

/// Runs one cell the way `run_cluster_policy_with` does, with the
/// policy resolved in the timed registry and the engine driven one hour
/// per call.
fn traced_cell(
    point: &SweepPoint,
    registry: &PolicyRegistry,
    tracer: &Tracer,
    parent: u64,
) -> (DcOutcome, CellTiming) {
    let id = tracer.new_id();
    let start = tracer.now_ns();
    let spec = &point.spec;
    let entry = registry
        .get(&point.policy)
        .unwrap_or_else(|| panic!("unknown policy '{}'", point.policy));
    let hosts = spec.host_specs(entry.needs_consolidation_host);
    let (vms, vm_specs_ns) = tracer.span("traces.vm_specs", id, || spec.vm_specs(point.seed));
    let placement = spec.initial_placement(vms.len());
    let consolidation = entry
        .needs_consolidation_host
        .then_some(HostId(spec.hosts as u32));
    let (mut dc, _) = tracer.span("dc.with_policy", id, || {
        let policy = entry.build(&spec.config, consolidation);
        Datacenter::with_policy(
            spec.config.clone(),
            policy,
            hosts,
            vms,
            placement,
            point.seed,
        )
    });
    let hours = spec.days * 24;
    let mut epoch_ns = Vec::with_capacity(hours as usize);
    {
        let mut engine = DcEngine::new(&mut dc, spec.engine);
        for _ in 0..hours {
            epoch_ns.push(tracer.span("dc.run_hours", id, || engine.run_hours(1)).1);
        }
    }
    let (outcome, _) = tracer.span("dc.finish", id, || dc.finish());
    let end = tracer.now_ns();
    tracer.record("cell", id, parent, start, end);
    let timing = CellTiming {
        cell_ns: end - start,
        vm_specs_ns,
        epoch_ns,
    };
    (outcome, timing)
}

fn traced_dc_pass(
    job: &DcJob,
    registry: &PolicyRegistry,
    tracer: &Tracer,
) -> (Vec<CellOut>, Vec<CellTiming>, DcCounts) {
    let pass = tracer.new_id();
    let start = tracer.now_ns();
    let tasks: Vec<_> = job
        .points()
        .iter()
        .map(|p| move || traced_cell(p, registry, tracer, pass))
        .collect();
    let results = WorkerPool::global().run_ordered(job.workers, tasks);
    tracer.record("pass", pass, 0, start, tracer.now_ns());
    let mut counts = DcCounts::default();
    let mut outs = Vec::with_capacity(results.len());
    let mut timings = Vec::with_capacity(results.len());
    for (dc, timing) in results {
        let cell_hours = dc.suspended_fraction.len() as u64 * dc.hours;
        counts.host_hours += cell_hours;
        counts.suspended_host_hours += dc.global_suspended_fraction * cell_hours as f64;
        counts.suspend_cycles += dc.suspend_cycles.iter().map(|&(_, n)| n).sum::<u64>();
        counts.migrations += u64::from(dc.total_migrations());
        if let Some(q) = &dc.qos {
            counts.requests += q.total;
            counts.wake_hits += q.wake_hits;
            counts.wake_violations += q.wake_violations;
        }
        outs.push(CellOut::of(&dc));
        timings.push(timing);
    }
    (outs, timings, counts)
}

/// One fleet run: set-up, every hour, outcome.
struct FleetRun {
    setup_s: f64,
    wall_s: f64,
    hour_ns: Vec<u64>,
    outcome: FleetOutcome,
}

fn fleet_pass(cfg: &FleetConfig, tracer: Option<&Tracer>) -> FleetRun {
    let t0 = Instant::now();
    let (pass, start) = tracer.map_or((0, 0), |t| (t.new_id(), t.now_ns()));
    let mut sim = match tracer {
        Some(t) => t.span("fleet.new", pass, || FleetSim::new(cfg.clone())).0,
        None => FleetSim::new(cfg.clone()),
    };
    let t1 = Instant::now();
    let mut hour_ns = Vec::new();
    for hour in 0..cfg.horizon_hours {
        match tracer {
            Some(t) => hour_ns.push(t.span("fleet.step_hour", pass, || sim.step_hour(hour)).1),
            None => sim.step_hour(hour),
        }
    }
    let outcome = match tracer {
        Some(t) => t.span("fleet.outcome", pass, || sim.outcome()).0,
        None => sim.outcome(),
    };
    let t2 = Instant::now();
    if let Some(t) = tracer {
        t.record("pass", pass, 0, start, t.now_ns());
    }
    FleetRun {
        setup_s: (t1 - t0).as_secs_f64(),
        wall_s: (t2 - t1).as_secs_f64(),
        hour_ns,
        outcome,
    }
}

// ---------------------------------------------------------------------
// The run.

/// Checks each pass's outputs against the reference digests (the first
/// pass sets them) and tallies the result.
#[derive(Default)]
struct Checker {
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn absorb(&mut self, pass: &str, ops: Result<Vec<OpOut>, String>, expected_ops: usize) {
        self.attempted += expected_ops as u64;
        let ops = match ops {
            Ok(ops) => ops,
            Err(e) => {
                self.failed += expected_ops as u64;
                self.failures.push(format!("{pass}: {e}"));
                return;
            }
        };
        let reference = self
            .reference
            .get_or_insert_with(|| ops.iter().map(|o| o.digest).collect())
            .clone();
        for (i, op) in ops.iter().enumerate() {
            let mut bad = op.violations.clone();
            if reference.get(i) != Some(&op.digest) {
                bad.push(format!(
                    "digest {:#018x} differs from the first pass",
                    op.digest
                ));
            }
            if !bad.is_empty() {
                self.failed += 1;
                self.failures
                    .push(format!("{pass}: op {i}: {}", bad.join("; ")));
            }
        }
        let missing = expected_ops.saturating_sub(ops.len());
        if missing > 0 {
            self.failed += missing as u64;
            self.failures
                .push(format!("{pass}: {missing} ops returned nothing"));
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &d in self.reference.as_deref().unwrap_or(&[]) {
            h.add(d);
        }
        h.value()
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("panicked: {msg}")
    })
}

fn dc_ops(outs: &[CellOut], qos: bool) -> Vec<OpOut> {
    outs.iter()
        .map(|c| OpOut {
            digest: c.digest(),
            violations: c.violations(qos),
        })
        .collect()
}

fn fleet_op(o: &FleetOutcome, hours: u64) -> OpOut {
    OpOut {
        digest: fleet_digest(o),
        violations: fleet_violations(o, hours),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable line {line:?}"))?;
    Ok(kb / 1024.0)
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// True when a round as long as the one that began at `round` still
/// ends within `seconds` of `start`: runs measure for at most their
/// budget (after the first round), so their length does not depend on
/// where the last pass happened to end.
fn another_round_fits(start: Instant, round: Instant, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed + round.elapsed().as_secs_f64() <= seconds
}

/// Runs the datacenter set-up [`SETUP_REPS`] times and returns the last
/// job with every rep's `(scenarios_s, total_s)`.
fn setup_dc_reps(cfg: &Config) -> (DcJob, Vec<(f64, f64)>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut job = None;
    for _ in 0..SETUP_REPS {
        let (j, scenarios_s, total_s) = setup_dc(cfg);
        times.push((scenarios_s, total_s));
        job = Some(j);
    }
    (job.expect("SETUP_REPS is positive"), times)
}

/// What one untraced pass measured. The benchmark runs every untraced
/// pass in a fresh process, so `peak_rss_mb` is the peak of a process
/// that set up and ran this workload once, and process-to-process
/// differences in speed are sampled within every run.
#[derive(Debug, Clone, PartialEq)]
pub struct PassSample {
    /// Wall time of the pass, s.
    pub wall_s: f64,
    /// Every set-up before the pass, s.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Simulated host-hours of the pass.
    pub host_hours: u64,
    /// Simulated requests folded by the pass.
    pub requests: u64,
    /// Every operation's checked output.
    pub ops: Vec<OpOut>,
}

fn floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

impl PassSample {
    /// The sample as text: one `BAD <op> <message>` line per violation,
    /// then one `PASS key=value ...` line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            for v in &op.violations {
                let _ = writeln!(out, "BAD {i} {}", v.replace('\n', " "));
            }
        }
        let digests: Vec<String> = self.ops.iter().map(|o| format!("{:x}", o.digest)).collect();
        let _ = writeln!(
            out,
            "PASS wall_s={:?} peak_rss_mb={:?} host_hours={} requests={} setup_s={} digests={}",
            self.wall_s,
            self.peak_rss_mb,
            self.host_hours,
            self.requests,
            floats(&self.setup_s),
            digests.join(",")
        );
        out
    }

    /// Reads [`PassSample::to_text`] output back.
    pub fn parse(text: &str) -> Result<PassSample, String> {
        let line = text
            .lines()
            .find(|l| l.starts_with("PASS "))
            .ok_or("no PASS line")?;
        let field = |key: &str| -> Result<&str, String> {
            line.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("PASS line lacks {key}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            field(key)?.parse().map_err(|_| format!("bad {key}"))
        };
        let int = |key: &str| -> Result<u64, String> {
            field(key)?.parse().map_err(|_| format!("bad {key}"))
        };
        let setup_s = field("setup_s")?
            .split(',')
            .map(|x| x.parse().map_err(|_| "bad setup_s".to_string()))
            .collect::<Result<Vec<f64>, _>>()?;
        let mut ops = field("digests")?
            .split(',')
            .map(|x| {
                u64::from_str_radix(x, 16)
                    .map(|digest| OpOut {
                        digest,
                        violations: Vec::new(),
                    })
                    .map_err(|_| "bad digests".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        for bad in text.lines().filter_map(|l| l.strip_prefix("BAD ")) {
            let (i, msg) = bad.split_once(' ').ok_or("bad BAD line")?;
            let i: usize = i.parse().map_err(|_| "bad BAD index")?;
            ops.get_mut(i)
                .ok_or("BAD index out of range")?
                .violations
                .push(msg.to_string());
        }
        Ok(PassSample {
            wall_s: num("wall_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            host_hours: int("host_hours")?,
            requests: int("requests")?,
            setup_s,
            ops,
        })
    }
}

/// Sets up and runs one untraced pass in this process.
pub fn run_pass(cfg: &Config) -> Result<PassSample, String> {
    // Spawn the process-wide pool before anything is timed.
    WorkerPool::global();
    let sample = guarded(|| match cfg.workload {
        Workload::FleetHyperscale => {
            let fleet_cfg = fleet_config(cfg);
            let run = fleet_pass(&fleet_cfg, None);
            PassSample {
                wall_s: run.wall_s,
                setup_s: vec![run.setup_s],
                peak_rss_mb: 0.0,
                host_hours: run.outcome.host_hours(),
                requests: 0,
                ops: vec![fleet_op(&run.outcome, fleet_cfg.horizon_hours)],
            }
        }
        _ => {
            let (job, setups) = setup_dc_reps(cfg);
            let t = Instant::now();
            let outs = dc_pass(&job);
            let wall_s = t.elapsed().as_secs_f64();
            PassSample {
                wall_s,
                setup_s: setups.iter().map(|&(_, total)| total).collect(),
                peak_rss_mb: 0.0,
                host_hours: job.host_hours.iter().sum(),
                requests: outs
                    .iter()
                    .filter_map(|c| c.qos.as_ref())
                    .map(|q| q.total)
                    .sum(),
                ops: dc_ops(&outs, job.qos),
            }
        }
    })?;
    Ok(PassSample {
        peak_rss_mb: peak_rss_mb()?,
        ..sample
    })
}

/// The untraced run: asks `next_pass` for passes (the benchmark spawns
/// a process per pass) until another would overrun the budget, checks
/// each against the first, and reports the end-to-end metrics.
pub fn run_untraced(
    cfg: &Config,
    next_pass: &mut dyn FnMut() -> Result<PassSample, String>,
) -> Report {
    let mut checker = Checker::default();
    let mut samples: Vec<PassSample> = Vec::new();
    let start = Instant::now();
    for i in 1.. {
        let round = Instant::now();
        let expected = samples.first().map_or(1, |s| s.ops.len());
        match next_pass() {
            Ok(s) => {
                checker.absorb(&format!("pass {i}"), Ok(s.ops.clone()), s.ops.len());
                samples.push(s);
            }
            Err(e) => checker.absorb(&format!("pass {i}"), Err(e), expected),
        }
        if !another_round_fits(start, round, cfg.seconds) {
            break;
        }
    }
    let of = |f: fn(&PassSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let walls = of(|s| s.wall_s);
    let wall_s = median(&walls);
    let setups: Vec<f64> = samples.iter().flat_map(|s| s.setup_s.clone()).collect();
    let host_hours = samples.first().map_or(0, |s| s.host_hours);
    let requests = samples.first().map_or(0, |s| s.requests);
    let metrics = vec![
        m("wall_s", wall_s, "s"),
        m("setup_s", median(&setups), "s"),
        m(
            "host_hours_per_s",
            share(host_hours as f64, wall_s),
            "host-h/s",
        ),
        m("peak_rss_mb", median(&of(|s| s.peak_rss_mb)), "MiB"),
    ];
    let mut extras = Vec::new();
    if cfg.workload.streams_qos() {
        extras.push(m("requests_per_s", share(requests as f64, wall_s), "req/s"));
    }
    finish(checker, walls, 0, metrics, extras, None)
}

/// The traced run: alternates an untraced pass with a traced one in
/// this process and reports the per-layer metrics.
pub fn run_traced(cfg: &Config) -> Report {
    WorkerPool::global();
    match cfg.workload {
        Workload::FleetHyperscale => trace_fleet(cfg),
        _ => trace_dc(cfg),
    }
}

fn trace_dc(cfg: &Config) -> Report {
    const SPANS: [&str; 3] = ["dc.consolidate", "dc.advance_hosts", "dc.qos_fold"];
    let tracer = Tracer::default();
    let registry = timed_registry();
    let mut checker = Checker::default();
    let mut scenario_builds = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut timings: Vec<CellTiming> = Vec::new();
    let mut counts = DcCounts::default();
    let mut requests_per_pass = 0u64;
    let mut spans_delta = [0u128; 3];
    let mut workers;
    // Only traced passes call the timing wrappers.
    let methods_at_start = MethodTotals::now();
    let start = Instant::now();
    loop {
        let round = Instant::now();
        let (job, setups) = setup_dc_reps(cfg);
        scenario_builds.extend(setups.iter().map(|&(scenarios, _)| scenarios));
        let n = job.points().len();
        workers = job.workers;

        let t = Instant::now();
        let outs = guarded(|| dc_pass(&job));
        walls.push(t.elapsed().as_secs_f64());
        if let Ok(outs) = &outs {
            requests_per_pass = outs
                .iter()
                .filter_map(|c| c.qos.as_ref())
                .map(|q| q.total)
                .sum();
        }
        let label = format!("pass {}", walls.len() + traced_walls.len());
        checker.absorb(&label, outs.map(|o| dc_ops(&o, job.qos)), n);

        let spans_before = SPANS.map(|s| dc_spans().ns(s));
        let t = Instant::now();
        let traced = guarded(|| traced_dc_pass(&job, &registry, &tracer));
        traced_walls.push(t.elapsed().as_secs_f64());
        for (i, name) in SPANS.iter().enumerate() {
            spans_delta[i] += dc_spans().ns(name) - spans_before[i];
        }
        let label = format!("traced pass {}", walls.len() + traced_walls.len());
        let ops = traced.map(|(outs, t, c)| {
            timings.extend(t);
            counts = c;
            dc_ops(&outs, job.qos)
        });
        checker.absorb(&label, ops, n);
        if !another_round_fits(start, round, cfg.seconds) {
            break;
        }
    }
    let methods = MethodTotals::now().since(&methods_at_start);
    let wall_s = median(&walls);
    let tp = traced_walls.len() as f64;
    let cell_s: Vec<f64> = timings.iter().map(|t| t.cell_ns as f64 / 1e9).collect();
    let epochs_ms: Vec<f64> = timings
        .iter()
        .flat_map(|t| t.epoch_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let epoch_s: f64 = epochs_ms.iter().sum::<f64>() / 1e3;
    let busy_s: f64 = cell_s.iter().sum();
    let pool_capacity_s: f64 = traced_walls.iter().sum::<f64>() * workers as f64;
    let [consolidate_ns, advance_ns, fold_ns] = spans_delta.map(|ns| ns as f64);
    let spanned_s = (consolidate_ns + advance_ns + fold_ns) / 1e9;
    let vm_specs_s: f64 = timings.iter().map(|t| t.vm_specs_ns as f64 / 1e9).sum();
    let traced_requests = counts.requests as f64 * tp;
    let layer = LayerValues {
        scenarios_build_s: median(&scenario_builds),
        vm_specs_s: vm_specs_s / tp,
        vm_specs_calls: timings.len() as f64 / tp,
        pool_busy_s: busy_s / tp,
        pool_utilisation: share(busy_s, pool_capacity_s),
        cell_p50_s: median(&cell_s),
        cell_max_s: cell_s.iter().copied().fold(0.0, f64::max),
        epochs: epochs_ms.len() as f64 / tp,
        epoch_s: epoch_s / tp,
        epoch_p50_ms: median(&epochs_ms),
        epoch_tail_ms: tail(&epochs_ms).1,
        consolidate_s: consolidate_ns / 1e9 / tp,
        advance_hosts_s: advance_ns / 1e9 / tp,
        qos_fold_s: fold_ns / 1e9 / tp,
        ns_per_request: share(fold_ns, traced_requests),
        unspanned_frac: share(epoch_s - spanned_s, epoch_s),
        plan_s: (methods.secs(Method::Plan) + methods.secs(Method::PlanIndexed)) / tp,
        plan_calls: (methods.calls(Method::Plan) + methods.calls(Method::PlanIndexed)) as f64 / tp,
        observe_qos_s: methods.secs(Method::ObserveQos) / tp,
        allow_suspend_calls: methods.calls(Method::AllowSuspend) as f64 / tp,
        requests: counts.requests as f64,
        wake_hits: counts.wake_hits as f64,
        wake_hit_share: share(counts.wake_hits as f64, counts.requests as f64),
        wake_violations: counts.wake_violations as f64,
        requests_per_s: share(requests_per_pass as f64, wall_s),
        host_hours: counts.host_hours as f64,
        suspended_frac: share(counts.suspended_host_hours, counts.host_hours as f64),
        suspend_cycles: counts.suspend_cycles as f64,
        migrations: counts.migrations as f64,
        overhead_frac: share(median(&traced_walls), wall_s) - 1.0,
        ..LayerValues::default()
    };
    let mut extra = String::new();
    for (name, ns) in SPANS.iter().zip(spans_delta) {
        let _ = write!(extra, ",\"{name}_ns\":{ns}");
    }
    let doc = trace_document(cfg, &tracer, &methods, &extra);
    let passes = traced_walls.len();
    finish(
        checker,
        walls,
        passes,
        layer.metrics(),
        Vec::new(),
        Some(doc),
    )
}

fn trace_fleet(cfg: &Config) -> Report {
    let fleet_cfg = fleet_config(cfg);
    let hours = fleet_cfg.horizon_hours;
    let tracer = Tracer::default();
    let mut checker = Checker::default();
    let mut walls = Vec::new();
    let mut traced: Vec<FleetRun> = Vec::new();
    let start = Instant::now();
    for i in 1.. {
        let round = Instant::now();
        let run = guarded(|| fleet_pass(&fleet_cfg, None));
        let ops = run.map(|r| {
            walls.push(r.wall_s);
            vec![fleet_op(&r.outcome, hours)]
        });
        checker.absorb(&format!("pass {i}"), ops, 1);
        let run = guarded(|| fleet_pass(&fleet_cfg, Some(&tracer)));
        let ops = run.map(|r| {
            let op = fleet_op(&r.outcome, hours);
            traced.push(r);
            vec![op]
        });
        checker.absorb(&format!("traced pass {i}"), ops, 1);
        if !another_round_fits(start, round, cfg.seconds) {
            break;
        }
    }
    let tp = traced.len().max(1) as f64;
    let hours_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.hour_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let mean = |f: fn(&FleetOutcome) -> f64| traced.iter().map(|r| f(&r.outcome)).sum::<f64>() / tp;
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    let last = traced.last().map(|r| &r.outcome);
    let count = |f: fn(&FleetOutcome) -> u64| last.map_or(0.0, |o| f(o) as f64);
    let layer = LayerValues {
        fleet_setup_s: median(&traced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        fleet_step_s: hours_ms.iter().sum::<f64>() / 1e3 / tp,
        fleet_hour_p50_ms: median(&hours_ms),
        fleet_hour_tail_ms: tail(&hours_ms).1,
        fleet_churn_ms: mean(|o| o.churn_ms),
        fleet_control_ms: mean(|o| o.control_ms),
        fleet_advance_ms: mean(|o| o.advance_ms),
        fleet_placement_ms: mean(|o| o.placement_ms),
        fleet_shards: count(|o| o.shards as u64),
        fleet_placements: count(|o| o.placements),
        fleet_rejections: count(|o| o.rejections),
        fleet_suspends: count(|o| o.suspends),
        fleet_resumes: count(|o| o.resumes),
        fleet_drowsy_share: last.map_or(0.0, |o| {
            share(o.drowsy_host_hours as f64, o.host_hours() as f64)
        }),
        overhead_frac: share(median(&traced_walls), median(&walls)) - 1.0,
        ..LayerValues::default()
    };
    let doc = trace_document(cfg, &tracer, &MethodTotals::default(), "");
    let passes = traced.len();
    finish(
        checker,
        walls,
        passes,
        layer.metrics(),
        Vec::new(),
        Some(doc),
    )
}

fn finish(
    checker: Checker,
    pass_walls: Vec<f64>,
    traced_passes: usize,
    metrics: Vec<Metric>,
    mut extras: Vec<Metric>,
    trace_json: Option<String>,
) -> Report {
    extras.push(m(
        "failed_frac",
        share(checker.failed as f64, checker.attempted as f64),
        "ratio",
    ));
    Report {
        output_digest: checker.digest(),
        ops_per_pass: checker.reference.as_ref().map_or(0, Vec::len),
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        pass_walls,
        traced_passes,
        metrics,
        extras,
        trace_json,
    }
}

fn trace_document(cfg: &Config, tracer: &Tracer, methods: &MethodTotals, extra: &str) -> String {
    let mut policy = String::from("{");
    for (i, meth) in Method::ALL.iter().enumerate() {
        if i > 0 {
            policy.push(',');
        }
        let _ = write!(
            policy,
            "\"{}\":{{\"calls\":{},\"s\":{}}}",
            meth.name(),
            methods.calls(*meth),
            methods.secs(*meth)
        );
    }
    policy.push('}');
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"policy_methods\":{policy}{extra},\"spans\":{}}}\n",
        cfg.workload.name(),
        cfg.seed,
        tracer.spans_json()
    )
}

/// Every per-layer value; fields a workload does not exercise stay 0.
#[derive(Debug, Clone, Default)]
struct LayerValues {
    scenarios_build_s: f64,
    vm_specs_s: f64,
    vm_specs_calls: f64,
    pool_busy_s: f64,
    pool_utilisation: f64,
    cell_p50_s: f64,
    cell_max_s: f64,
    epochs: f64,
    epoch_s: f64,
    epoch_p50_ms: f64,
    epoch_tail_ms: f64,
    consolidate_s: f64,
    advance_hosts_s: f64,
    qos_fold_s: f64,
    ns_per_request: f64,
    unspanned_frac: f64,
    plan_s: f64,
    plan_calls: f64,
    observe_qos_s: f64,
    allow_suspend_calls: f64,
    requests: f64,
    wake_hits: f64,
    wake_hit_share: f64,
    wake_violations: f64,
    requests_per_s: f64,
    host_hours: f64,
    suspended_frac: f64,
    suspend_cycles: f64,
    migrations: f64,
    fleet_setup_s: f64,
    fleet_step_s: f64,
    fleet_hour_p50_ms: f64,
    fleet_hour_tail_ms: f64,
    fleet_churn_ms: f64,
    fleet_control_ms: f64,
    fleet_advance_ms: f64,
    fleet_placement_ms: f64,
    fleet_shards: f64,
    fleet_placements: f64,
    fleet_rejections: f64,
    fleet_suspends: f64,
    fleet_resumes: f64,
    fleet_drowsy_share: f64,
    overhead_frac: f64,
}

impl LayerValues {
    /// The per-layer metrics in `BENCHMARK.json` order.
    fn metrics(&self) -> Vec<Metric> {
        vec![
            m("scenarios.build_s", self.scenarios_build_s, "s"),
            m("traces.vm_specs_s", self.vm_specs_s, "s"),
            m("traces.vm_specs_calls", self.vm_specs_calls, "count"),
            m("pool.busy_s", self.pool_busy_s, "s"),
            m("pool.utilisation", self.pool_utilisation, "ratio"),
            m("pool.cell_p50_s", self.cell_p50_s, "s"),
            m("pool.cell_max_s", self.cell_max_s, "s"),
            m("dc.epochs", self.epochs, "count"),
            m("dc.epoch_s", self.epoch_s, "s"),
            m("dc.epoch_p50_ms", self.epoch_p50_ms, "ms"),
            m("dc.epoch_tail_ms", self.epoch_tail_ms, "ms"),
            m("dc.consolidate_s", self.consolidate_s, "s"),
            m("dc.advance_hosts_s", self.advance_hosts_s, "s"),
            m("dc.qos_fold_s", self.qos_fold_s, "s"),
            m("qos.ns_per_request", self.ns_per_request, "ns"),
            m("dc.unspanned_frac", self.unspanned_frac, "ratio"),
            m("placement.plan_s", self.plan_s, "s"),
            m("placement.plan_calls", self.plan_calls, "count"),
            m("placement.observe_qos_s", self.observe_qos_s, "s"),
            m(
                "placement.allow_suspend_calls",
                self.allow_suspend_calls,
                "count",
            ),
            m("qos.requests", self.requests, "count"),
            m("qos.wake_hits", self.wake_hits, "count"),
            m("qos.wake_hit_share", self.wake_hit_share, "ratio"),
            m("qos.wake_violations", self.wake_violations, "count"),
            m("qos.requests_per_s", self.requests_per_s, "req/s"),
            m("dc.host_hours", self.host_hours, "host-h"),
            m("dc.suspended_frac", self.suspended_frac, "ratio"),
            m("dc.suspend_cycles", self.suspend_cycles, "count"),
            m("dc.migrations", self.migrations, "count"),
            m("fleet.setup_s", self.fleet_setup_s, "s"),
            m("fleet.step_s", self.fleet_step_s, "s"),
            m("fleet.hour_p50_ms", self.fleet_hour_p50_ms, "ms"),
            m("fleet.hour_tail_ms", self.fleet_hour_tail_ms, "ms"),
            m("fleet.churn_ms", self.fleet_churn_ms, "ms"),
            m("fleet.control_ms", self.fleet_control_ms, "ms"),
            m("fleet.advance_ms", self.fleet_advance_ms, "ms"),
            m("fleet.placement_ms", self.fleet_placement_ms, "ms"),
            m("fleet.shards", self.fleet_shards, "count"),
            m("fleet.placements", self.fleet_placements, "count"),
            m("fleet.rejections", self.fleet_rejections, "count"),
            m("fleet.suspends", self.fleet_suspends, "count"),
            m("fleet.resumes", self.fleet_resumes, "count"),
            m(
                "fleet.drowsy_host_hour_share",
                self.fleet_drowsy_share,
                "ratio",
            ),
            m("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }
}
