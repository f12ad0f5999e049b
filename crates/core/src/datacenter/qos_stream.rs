//! The streaming QoS pipeline: request-level SLA accounting computed
//! *inline* with the run, one control epoch at a time. It is the only
//! way production code evaluates request QoS (`DcConfig::stream_qos`).
//!
//! At the end of each control epoch the pipeline draws that hour's
//! Poisson arrivals per interactive VM (hour-batched, through
//! [`RequestStream`]), routes them with the VM's *current* residency,
//! serves them against the timeline recorded so far, and folds the
//! results into a per-epoch [`QosWindow`]. The window is handed to the
//! control policy at the top of the next epoch
//! ([`ControlPolicy::observe_qos`]) — the closed-loop signal seam — and
//! its report accumulates into the run-wide [`QosReport`] surfaced on
//! [`DcOutcome::qos`].
//!
//! ## Bit-identity with the post-hoc replay
//!
//! The test oracle (`dds_qos::replay`) walks a finished run's recorded
//! timelines and placement log one request at a time. Streaming and
//! replay share their RNG streams (per-VM
//! `stream_indexed("qos-requests", vm)`), their draw protocol (all gaps,
//! then all service times, per hour — [`RequestStream`] is pinned to
//! `RequestGenerator` draw for draw), and their service arithmetic
//! (`dds_sim_core::qos::{fcfs_serve, power_ready_at}`), so on any run
//! without mid-run departures the streaming report is **bit-identical**
//! to replaying the finished run — for any worker-thread count on either
//! side. The key invariant making per-epoch evaluation exact: a VM active
//! in hour `h` (level at or above the idleness noise gate — the same gate
//! the request stream uses) forces its host awake *within* hour `h`, so
//! every power-state lookup resolves inside already-recorded history.
//! Departed VMs are the one semantic divergence: the streaming client
//! stops when the VM is deleted, while the lifecycle-blind replay keeps
//! replaying the full trace.
//!
//! ## Shared always-awake baseline
//!
//! A VM's arrivals and service draws depend only on `(seed, vm, hour,
//! level)`, never on the policy or the wake path. So the cells of one
//! sweep that share an arrival stream can share one fold of it. A
//! [`QosBaseline`] runs the same kernel ([`serve_hour`]) once against a
//! host that never sleeps and keeps, per interactive VM-hour, the VM's
//! RNG and server pool at the hour's start plus the hour's packed
//! report. A cell then *merges* a VM-hour's record instead of serving it
//! again when the hour is provably the same in both runs:
//!
//! 1. the baseline was built from this cell's seed, VM specs, noise gate
//!    and request profile (the resume latency aside: the fold reads
//!    resume time from the timeline);
//! 2. every residency segment of the hour lies on a host operational for
//!    the whole segment ([`PowerTimeline::operational_throughout`]), so
//!    every request is served on arrival and none is a wake hit;
//! 3. the cell's server pool at the hour's start is equivalent to the
//!    baseline's: the same multiset once each free time is clamped to
//!    the hour's start. FCFS latencies depend on nothing else, so stale
//!    values and slot order do not matter (equal pools and pools that
//!    are all free are the common cases).
//!
//! Otherwise the hour is served as usual. Either way the cell's RNG and
//! pool end the hour exactly as a full fold would leave them (up to
//! stale values), and the report and window merges are exact integers,
//! so every [`QosWindow`] the policy observes and every [`QosReport`] is
//! bit-identical with or without a baseline. The sweep builds one
//! baseline per group of at least two cells sharing a stream
//! (`crate::sweep`); a lone run never builds one.
//!
//! ## Memory
//!
//! Nothing whole-run is retained by a cell: per VM the state is one RNG,
//! the FCFS server pool, the live wake episode and a compacted residency
//! of at most a few moves; per host, the timeline is trimmed each epoch
//! to the intervals that can still matter (unless the run also asked for
//! [`DcConfig::track_power_timeline`], in which case full retention is
//! the point). That is what lets the pipeline ride along at fleet scale
//! where materializing timelines and placement logs cannot. A shared
//! baseline is the one whole-run structure: per interactive VM-hour a
//! 40-byte RNG, one pool of vCPU free times and a report packed to its
//! occupied latency buckets (LEB128 counts, a few hundred bytes for a
//! busy hour). The sweep drops it after the last cell of its group.

use super::*;
use dds_sim_core::qos::{fcfs_serve, power_ready_at, QosReport, QosWindow};
use dds_sim_core::stats::PackedHistogram;
use dds_sim_core::WorkerPool;
use dds_traces::{RequestProfile, RequestStream};
use std::sync::Arc;

/// Configuration of the streaming QoS pipeline (see the module-level
/// documentation above).
/// Attach it to [`DcConfig::qos_stream`] to compute request-level QoS
/// inline with the run.
///
/// The activity noise gate is the run's own
/// [`ImConfig::noise_threshold`](dds_idleness::ImConfig) — requests flow
/// exactly in the hours that keep a host awake, the invariant the
/// per-epoch evaluation rests on.
#[derive(Debug, Clone)]
pub struct QosStreamConfig {
    /// The request workload attached to every interactive VM.
    pub profile: RequestProfile,
    /// Worker threads fanning each epoch's VM chunks over the persistent
    /// [`WorkerPool`] (0 = one per available core). Reports are
    /// bit-identical for any value.
    pub threads: usize,
}

impl QosStreamConfig {
    /// Streams `profile` with automatic epoch fan-out.
    pub fn new(profile: RequestProfile) -> Self {
        QosStreamConfig {
            profile,
            threads: 0,
        }
    }

    /// Streams `profile` serially (no pool fan-out) — what nested
    /// contexts like the scenario sweep use, where the pool is already
    /// busy parallelizing across policies.
    pub fn serial(profile: RequestProfile) -> Self {
        QosStreamConfig {
            profile,
            threads: 1,
        }
    }
}

/// Live state of the streaming pipeline: per-VM request-stream positions
/// and service backlogs, the compacted residencies, the pending epoch
/// window and the run-wide report.
pub(super) struct QosStream {
    cfg: QosStreamConfig,
    seed: u64,
    /// Activity gate (the run's `ImConfig::noise_threshold`).
    noise: f64,
    /// Per-VM request RNG streams (`stream_indexed("qos-requests", vm)`),
    /// advanced exactly as the post-hoc replay's would be.
    rngs: Vec<SimRng>,
    /// Per-VM FCFS server pools (`free[i]` = instant server `i` frees
    /// up); sized to the VM's vCPUs on first use, persists across epochs.
    free: Vec<Vec<SimTime>>,
    /// Per-VM live wake episode (see `power_ready_at`).
    episodes: Vec<Option<(SimTime, SimTime)>>,
    /// Per-VM residency: `(at, host)` moves in time order, compacted
    /// after every epoch to the spans that can still matter.
    moves: Vec<Vec<(SimTime, HostId)>>,
    /// The shared always-awake baseline of this run's arrival streams,
    /// when the sweep built one.
    baseline: Option<Arc<QosBaseline>>,
    /// The most recently completed epoch's window, delivered to the
    /// policy at the top of the next epoch.
    pub(super) pending: Option<QosWindow>,
    /// Run-wide accumulation of every epoch window.
    report: QosReport,
}

impl QosStream {
    pub(super) fn new(cfg: QosStreamConfig, seed: u64, noise: f64, vms: &[VmSim]) -> Self {
        let sla_ms = cfg.profile.sla.as_millis();
        let mut stream = QosStream {
            cfg,
            seed,
            noise,
            rngs: Vec::new(),
            free: Vec::new(),
            episodes: Vec::new(),
            moves: Vec::new(),
            baseline: None,
            pending: None,
            report: QosReport::new(sla_ms),
        };
        for vm in vms {
            stream.on_placement(vm.spec.id, SimTime::EPOCH, vm.host);
        }
        stream
    }

    /// Grows the per-VM columns through slot `i`, deriving each new VM's
    /// request RNG stream.
    fn ensure_slot(&mut self, i: usize) {
        while self.rngs.len() <= i {
            self.rngs.push(request_rng(self.seed, self.rngs.len()));
            self.free.push(Vec::new());
            self.episodes.push(None);
            self.moves.push(Vec::new());
        }
    }

    /// Records a placement assignment (initial placement, admission,
    /// migration, swap, park/unpark) — the streaming twin of the
    /// placement log.
    pub(super) fn on_placement(&mut self, vm: VmId, at: SimTime, host: HostId) {
        self.ensure_slot(vm.index());
        self.moves[vm.index()].push((at, host));
    }

    /// Adopts `baseline` when it was built from this run's arrival
    /// streams (seed, noise gate, request profile and the specs of the
    /// VMs it covers); returns whether it did. Any hour works as the
    /// attach point: a merged hour leaves the per-VM state exactly where
    /// serving it would have.
    fn attach_baseline(&mut self, baseline: Arc<QosBaseline>, vms: &[VmSim]) -> bool {
        let key = &baseline.key;
        let fits = key.seed == self.seed
            && key.noise == self.noise
            && key.profile == stream_profile(&self.cfg.profile)
            && key.specs.len() <= vms.len()
            && key.specs.iter().zip(vms).all(|(spec, vm)| *spec == vm.spec);
        if fits {
            self.baseline = Some(baseline);
        }
        fits
    }

    /// The run-wide report accumulated so far.
    pub(super) fn into_report(self) -> QosReport {
        self.report
    }

    /// Processes control epoch `hour`: draws and serves every interactive
    /// VM's requests for that hour against the recorded timelines (or
    /// merges the shared baseline's record of the hour where that is
    /// exact), producing the epoch's [`QosWindow`] (left in `pending`)
    /// and folding it into the run report. VM chunks fan out over the
    /// persistent pool; chunk windows merge in submission order, and all
    /// window state is exact-integer, so the result is bit-identical for
    /// any thread count.
    pub(super) fn process_epoch(&mut self, hour: u64, hosts: &[HostSim], vms: &[VmSim]) {
        let sla_ms = self.cfg.profile.sla.as_millis();
        let n = vms.len();
        if n == 0 {
            self.pending = Some(QosWindow::new(hour, sla_ms));
            return;
        }
        self.ensure_slot(n - 1);
        let timelines: Vec<Option<&PowerTimeline>> =
            hosts.iter().map(|h| h.meter.timeline()).collect();
        let workers = if self.cfg.threads == 0 {
            crate::sweep::auto_threads(n)
        } else {
            self.cfg.threads.min(n.max(1))
        };
        let chunk = n.div_ceil((workers * 4).max(1)).max(1);
        let noise = self.noise;
        let profile = &self.cfg.profile;
        let timelines = &timelines;
        let moves = &self.moves;
        let baseline = self.baseline.as_deref();
        let tasks: Vec<_> = self
            .rngs
            .chunks_mut(chunk)
            .zip(self.free.chunks_mut(chunk))
            .zip(self.episodes.chunks_mut(chunk))
            .enumerate()
            .map(|(k, ((rngs, free), episodes))| {
                let start = k * chunk;
                move || {
                    let mut window = QosWindow::new(hour, sla_ms);
                    let mut stream = RequestStream::new(profile.clone());
                    let (mut replayed, mut merged) = (0u64, 0u64);
                    for (j, rng) in rngs.iter_mut().enumerate() {
                        let i = start + j;
                        let vm = &vms[i];
                        if vm.departed {
                            continue;
                        }
                        let Some(level) = active_level(&vm.spec, hour, noise) else {
                            continue;
                        };
                        if baseline.is_some_and(|b| {
                            b.merge_hour(
                                i,
                                hour,
                                &moves[i],
                                timelines,
                                rng,
                                &mut free[j],
                                &mut window,
                            )
                        }) {
                            merged += 1;
                            continue;
                        }
                        serve_hour(
                            hour,
                            level,
                            pool_width(&vm.spec),
                            rng,
                            &mut free[j],
                            &mut episodes[j],
                            &moves[i],
                            timelines,
                            &mut stream,
                            &mut window,
                        );
                        replayed += 1;
                    }
                    (window, replayed, merged)
                }
            })
            .collect();
        let shards = WorkerPool::global().run_ordered(workers, tasks);
        let mut window = QosWindow::new(hour, sla_ms);
        let (mut replayed, mut merged) = (0, 0);
        for (shard, r, m) in &shards {
            window.merge(shard);
            replayed += r;
            merged += m;
        }
        let metrics = super::telemetry::DcMetrics::get();
        metrics.qos_vm_hours_replayed.add(replayed);
        metrics.qos_vm_hours_merged.add(merged);
        self.report.merge(&window.report);
        self.pending = Some(window);
        // Compact residencies: keep the last move at or before the epoch
        // boundary (it covers every future arrival until the next move).
        let hour_end = SimTime::from_hours(hour + 1);
        for m in &mut self.moves {
            let cut = m
                .partition_point(|&(at, _)| at <= hour_end)
                .saturating_sub(1);
            if cut > 0 {
                m.drain(..cut);
            }
        }
    }
}

impl Datacenter {
    /// Hands the streaming QoS pipeline a shared always-awake baseline
    /// of this run's arrival streams (see the module docs). A baseline
    /// built from other streams is ignored, and so is any baseline on a
    /// run without streaming QoS: results never depend on it.
    pub(crate) fn attach_qos_baseline(&mut self, baseline: Arc<QosBaseline>) {
        if let Some(q) = self.qos.as_mut() {
            let fits = q.attach_baseline(baseline, &self.vms);
            debug_assert!(fits, "QoS baseline built from other arrival streams");
        }
    }
}

/// The VM's request RNG stream: the post-hoc replay's derivation, shared
/// by the streaming fold and its baseline.
fn request_rng(seed: u64, vm: usize) -> SimRng {
    SimRng::new(seed).stream_indexed("qos-requests", vm as u64)
}

/// The hour's activity level when the fold serves `spec` in `hour`: an
/// interactive VM at or above the noise gate (the gate that keeps its
/// host awake).
fn active_level(spec: &VmSpec, hour: u64, noise: f64) -> Option<f64> {
    if spec.kind != WorkloadKind::Interactive {
        return None;
    }
    Some(spec.trace.level_at_hour(hour)).filter(|&level| level >= noise)
}

/// FCFS servers of a VM: one per (rounded) vCPU, at least one.
fn pool_width(spec: &VmSpec) -> usize {
    (spec.vcpus.round() as usize).max(1)
}

/// The part of a [`RequestProfile`] the fold reads: everything but the
/// resume latency, which it takes from the timeline.
fn stream_profile(profile: &RequestProfile) -> RequestProfile {
    RequestProfile {
        resume_latency: SimDuration::ZERO,
        ..profile.clone()
    }
}

/// Draws and serves one VM's requests for `hour` at activity `level`
/// into the chunk `window`, with the FCFS/wake-episode arithmetic the
/// post-hoc replay shares.
#[allow(clippy::too_many_arguments)] // the chunk fan-out's split-borrow seam
fn serve_hour(
    hour: u64,
    level: f64,
    width: usize,
    rng: &mut SimRng,
    free: &mut Vec<SimTime>,
    episode: &mut Option<(SimTime, SimTime)>,
    moves: &[(SimTime, HostId)],
    timelines: &[Option<&PowerTimeline>],
    stream: &mut RequestStream,
    window: &mut QosWindow,
) {
    if free.is_empty() {
        free.resize(width, SimTime::EPOCH);
    }
    stream.fill_hour(rng, hour, level);
    let (arrivals, services) = stream.requests();
    // Arrivals are monotone within the hour: residency resolves with a
    // forward walk, power state with a fresh timeline cursor.
    let mut mv = 0usize;
    let mut tl_cursor = dds_power::TimelineCursor::new();
    for (&arrival, &service) in arrivals.iter().zip(services) {
        while mv < moves.len() && moves[mv].0 <= arrival {
            mv += 1;
        }
        let Some(&(_, host)) = mv.checked_sub(1).map(|i| &moves[i]) else {
            window.record_unserved();
            continue;
        };
        let Some(timeline) = timelines[host.index()] else {
            window.record_unserved();
            continue;
        };
        let Some(operational) = tl_cursor.operational_from(timeline, arrival) else {
            // An active VM keeps its host awake within the hour, so this
            // only fires for requests of VMs idle-gated differently than
            // the host model — flagged, not silently dropped.
            window.record_unserved();
            continue;
        };
        let span = (operational != arrival)
            .then(|| tl_cursor.resume_window_after(timeline, arrival))
            .flatten();
        let power_ready = power_ready_at(operational, arrival, span, episode);
        let (latency_ms, wake_hit) = fcfs_serve(free, arrival, service, power_ready);
        window.record(host.index() as u32, latency_ms, wake_hit);
    }
}

/// What the streaming fold reads of a run besides its timelines and
/// residencies; runs with equal keys draw identical arrival streams.
/// Compared by full value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BaselineKey {
    seed: u64,
    days: u64,
    noise: f64,
    /// The request profile with its resume latency zeroed.
    profile: RequestProfile,
    specs: Vec<VmSpec>,
}

impl BaselineKey {
    /// The key of a run of `days` over `specs`, seeded `seed`, with
    /// activity gate `noise` and request `profile`.
    pub(crate) fn new(
        seed: u64,
        days: u64,
        noise: f64,
        profile: &RequestProfile,
        specs: Vec<VmSpec>,
    ) -> Self {
        BaselineKey {
            seed,
            days,
            noise,
            profile: stream_profile(profile),
            specs,
        }
    }
}

/// The shared always-awake QoS baseline of one arrival stream set (see
/// the module docs).
pub(crate) struct QosBaseline {
    key: BaselineKey,
    /// Per VM, by `VmId` index; empty for VMs the fold never serves.
    vms: Vec<VmBaseline>,
}

/// One VM's baseline: its per-hour entry state and served-hour reports.
#[derive(Default)]
struct VmBaseline {
    /// Servers in the VM's pool.
    width: usize,
    /// The request RNG at the start of each hour `0..=hours`.
    rngs: Vec<SimRng>,
    /// The server pool at the start of each hour `0..=hours`, `width`
    /// slots each.
    pools: Vec<SimTime>,
    /// Each hour's report; `None` for hours the fold skips.
    hours: Vec<Option<AwakeHour>>,
}

/// One served hour of the baseline: every request served on arrival.
struct AwakeHour {
    latencies: PackedHistogram,
    under_sla: u64,
}

impl VmBaseline {
    fn pool(&self, hour: usize) -> &[SimTime] {
        &self.pools[hour * self.width..(hour + 1) * self.width]
    }
}

impl QosBaseline {
    /// Folds every interactive VM of `key` over its days against a host
    /// that never sleeps, with the same kernel as a cell's fold.
    pub(crate) fn build(key: BaselineKey) -> Self {
        let _span = super::telemetry::dc_spans().span("dc.qos_baseline");
        let hours = key.days * 24;
        let mut awake = PowerTimeline::new();
        awake.record(
            PowerState::Active,
            SimTime::EPOCH,
            SimTime::from_hours(hours),
        );
        let timelines = [Some(&awake)];
        let moves = [(SimTime::EPOCH, HostId::from_index(0))];
        let sla_ms = key.profile.sla.as_millis();
        let mut stream = RequestStream::new(key.profile.clone());
        let vms = key
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if spec.kind != WorkloadKind::Interactive {
                    return VmBaseline::default();
                }
                let width = pool_width(spec);
                let mut rng = request_rng(key.seed, i);
                let mut free = vec![SimTime::EPOCH; width];
                let mut episode = None;
                let mut vm = VmBaseline {
                    width,
                    rngs: Vec::with_capacity(hours as usize + 1),
                    pools: Vec::with_capacity((hours as usize + 1) * width),
                    hours: Vec::with_capacity(hours as usize),
                };
                for hour in 0..hours {
                    vm.rngs.push(rng.clone());
                    vm.pools.extend_from_slice(&free);
                    let report = active_level(spec, hour, key.noise).map(|level| {
                        let mut window = QosWindow::new(hour, sla_ms);
                        serve_hour(
                            hour,
                            level,
                            width,
                            &mut rng,
                            &mut free,
                            &mut episode,
                            &moves,
                            &timelines,
                            &mut stream,
                            &mut window,
                        );
                        let report = window.report;
                        debug_assert!(report.wake_hits == 0 && report.unserved == 0);
                        AwakeHour {
                            latencies: report.latencies.pack(),
                            under_sla: report.under_sla,
                        }
                    });
                    vm.hours.push(report);
                }
                vm.rngs.push(rng);
                vm.pools.extend_from_slice(&free);
                vm
            })
            .collect();
        QosBaseline { key, vms }
    }

    /// Merges VM `vm`'s baseline record of `hour` into `window` when the
    /// cell's hour is provably the same (conditions 2 and 3 of the
    /// module docs), then moves the cell's RNG and pool to the
    /// baseline's state at the next hour. Returns false, leaving the
    /// cell's state as it was, when the hour must be served instead.
    #[allow(clippy::too_many_arguments)] // the chunk fan-out's split-borrow seam
    fn merge_hour(
        &self,
        vm: usize,
        hour: u64,
        moves: &[(SimTime, HostId)],
        timelines: &[Option<&PowerTimeline>],
        rng: &mut SimRng,
        free: &mut Vec<SimTime>,
        window: &mut QosWindow,
    ) -> bool {
        let Some(b) = self.vms.get(vm) else {
            return false;
        };
        let h = hour as usize;
        let Some(Some(record)) = b.hours.get(h) else {
            return false;
        };
        let (from, to) = (SimTime::from_hours(hour), SimTime::from_hours(hour + 1));
        // A pool not yet used is all free, as serving would size it.
        let pool_ok = if free.is_empty() {
            b.pool(h).iter().all(|&f| f <= from)
        } else {
            pools_equivalent(free, b.pool(h), from)
        };
        if !pool_ok || !awake_throughout(moves, timelines, from, to) {
            return false;
        }
        window
            .report
            .merge_awake(&record.latencies, record.under_sla);
        *rng = b.rngs[h + 1].clone();
        free.clear();
        free.extend_from_slice(b.pool(h + 1));
        true
    }
}

/// True when FCFS serves any request sequence arriving at or after `t0`
/// identically from pools `a` and `b`: the same multiset once every free
/// time is clamped to `t0` (see the `dds_sim_core::qos` property test).
fn pools_equivalent(a: &[SimTime], b: &[SimTime], t0: SimTime) -> bool {
    if a == b {
        return true;
    }
    if a.len() != b.len() {
        return false;
    }
    let clamped = |pool: &[SimTime]| {
        let mut v: Vec<SimTime> = pool.iter().map(|&f| f.max(t0)).collect();
        v.sort_unstable();
        v
    };
    clamped(a) == clamped(b)
}

/// True when every request a VM with residency `moves` draws in `[from,
/// to)` lands on a host operational for the whole segment it sits there
/// — so it is served on arrival, with no wake hit.
fn awake_throughout(
    moves: &[(SimTime, HostId)],
    timelines: &[Option<&PowerTimeline>],
    from: SimTime,
    to: SimTime,
) -> bool {
    let awake = |host: HostId, a: SimTime, b: SimTime| {
        timelines
            .get(host.index())
            .copied()
            .flatten()
            .is_some_and(|tl| tl.operational_throughout(a, b))
    };
    let first = moves.partition_point(|&(at, _)| at <= from);
    let Some(mut host) = first.checked_sub(1).map(|i| moves[i].1) else {
        return false;
    };
    let mut segment = from;
    for &(at, next) in moves[first..].iter().take_while(|&&(at, _)| at < to) {
        if !awake(host, segment, at) {
            return false;
        }
        segment = at;
        host = next;
    }
    awake(host, segment, to)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn timeline(spans: &[(PowerState, u64, u64)]) -> PowerTimeline {
        let mut tl = PowerTimeline::new();
        for &(state, a, b) in spans {
            tl.record(state, t(a), t(b));
        }
        tl
    }

    #[test]
    fn awake_throughout_checks_every_residency_segment() {
        let (a, b) = (HostId::from_index(0), HostId::from_index(1));
        let always = timeline(&[(PowerState::Active, 0, 100)]);
        // Host b sleeps until 50, then is awake.
        let late = timeline(&[
            (PowerState::Suspended, 0, 49),
            (PowerState::Resuming, 49, 50),
            (PowerState::Active, 50, 100),
        ]);
        let tls = [Some(&always), Some(&late)];
        let over = |moves: &[(SimTime, HostId)]| awake_throughout(moves, &tls, t(10), t(90));
        assert!(over(&[(t(0), a)]));
        // Moving to b at 40 lands on its sleep; at 50 it does not.
        assert!(!over(&[(t(0), a), (t(40), b)]));
        assert!(over(&[(t(0), a), (t(50), b)]));
        // A move at or after the span's end does not count.
        assert!(over(&[(t(0), a), (t(90), b)]));
        // Back-to-back moves leave an empty segment on b.
        assert!(over(&[(t(0), a), (t(20), b), (t(20), a)]));
        // Not placed before the span starts, an untracked host, or a
        // timeline that ends inside the span.
        assert!(!over(&[(t(20), a)]));
        assert!(!awake_throughout(
            &[(t(0), a)],
            &[None, Some(&late)],
            t(10),
            t(90)
        ));
        assert!(!awake_throughout(&[(t(0), a)], &tls, t(10), t(101)));
    }

    #[test]
    fn pools_match_on_the_clamped_multiset() {
        let t0 = t(10);
        assert!(pools_equivalent(&[t(3), t(12)], &[t(3), t(12)], t0));
        // Stale values and slot order do not matter.
        assert!(pools_equivalent(&[t(3), t(12)], &[t(12), t(9)], t0));
        assert!(pools_equivalent(&[t(0), t(1)], &[t(10), t(2)], t0));
        // Busy servers must match.
        assert!(!pools_equivalent(&[t(3), t(12)], &[t(3), t(13)], t0));
        assert!(!pools_equivalent(&[t(11), t(12)], &[t(3), t(12)], t0));
        assert!(!pools_equivalent(&[t(3)], &[t(3), t(3)], t0));
    }
}
