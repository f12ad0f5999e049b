//! The request-level replay: per-VM Poisson request streams served
//! against the power-state timeline of a finished run.
//!
//! ## Model
//!
//! The replay is **open-loop and post-hoc**: the datacenter run decides
//! power states (and records them as [`PowerTimeline`]s plus a placement
//! log); the replay then drives each interactive VM's request stream —
//! Poisson arrivals whose hourly rate follows the VM's activity trace,
//! exactly the client the paper's testbed runs — through that timeline:
//!
//! * Requests are routed to the host the VM occupied at the arrival
//!   instant (the placement log covers migrations, swaps and parking).
//! * A request arriving while the host is **operational** starts service
//!   as soon as one of the VM's `vcpus` FCFS servers is free.
//! * A request arriving while the host is **parked (S3/S5)** is the wake
//!   trigger of that sleep episode if it is the VM's first: it pays
//!   exactly the resume latency recorded in the timeline (≈1500 ms stock,
//!   ≈800 ms quick resume — §VI.A.3), then its service time. Later
//!   arrivals of the episode queue behind the wake (and each other).
//! * A request arriving during the **resume window** waits for the
//!   resume to complete.
//!
//! Wake attribution is per VM: colocated VMs replaying in parallel each
//! charge their own first request of an episode the full resume, which is
//! conservative (never hides a wake) and keeps every VM's replay
//! independent — the property that lets the replay fan out over threads
//! with bit-identical merged reports (all [`QosReport`] state is exact
//! integer accumulation; see `dds_sim_core::stats::LatencyHistogram`).
//!
//! ## Role
//!
//! Production code evaluates QoS with the *streaming* pipeline inside
//! `dds-core` (`DcConfig::qos_stream`): it serves each epoch's requests
//! while the run executes, so closed-loop policies can react to them.
//! This replay is the independent reference that pipeline is pinned
//! against: one event per request, plain timeline and placement-log
//! lookups, nothing shared with the streaming fold except the FCFS and
//! wake-episode arithmetic (`dds_sim_core::qos`) and the per-VM RNG
//! streams. On any run without mid-run departures the two reports are
//! bit-identical. DVFS service stretching is out of scope (SleepScale's
//! downclocking is charged in energy, not replayed).

use crate::report::QosReport;
use dds_core::datacenter::{DcOutcome, PlacementRecord};
use dds_core::spec::{VmSpec, WorkloadKind};
use dds_power::PowerTimeline;
use dds_sim_core::qos::{fcfs_serve, power_ready_at};
use dds_sim_core::{SimRng, SimTime, WorkerPool};
use dds_traces::{RequestGenerator, RequestProfile};

/// Configuration of a QoS replay.
#[derive(Debug, Clone)]
pub struct QosConfig {
    /// The request workload attached to every interactive VM.
    pub profile: RequestProfile,
    /// Activity noise threshold: hours below it are idle (no requests),
    /// matching the datacenter's own activity gating.
    pub noise: f64,
}

impl QosConfig {
    /// The paper's SLA setup on the quick-resume testbed.
    pub fn paper_default() -> Self {
        QosConfig {
            profile: RequestProfile::web_search_quick_resume(),
            noise: 0.005,
        }
    }
}

impl Default for QosConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The placement history of one VM: `(from, host)` assignment spans in
/// time order, precomputed once per replay from the placement log.
#[derive(Debug, Clone, Default)]
struct VmResidency {
    moves: Vec<(SimTime, dds_sim_core::HostId)>,
}

impl VmResidency {
    fn host_at(&self, t: SimTime) -> Option<dds_sim_core::HostId> {
        let i = self.moves.partition_point(|&(at, _)| at <= t);
        i.checked_sub(1).map(|i| self.moves[i].1)
    }
}

/// Groups the placement log by VM over `slots` dense VM ids. Records of
/// VMs beyond `slots` (e.g. mid-run admissions whose specs the caller
/// did not pass) are ignored — the replay covers exactly the provided
/// population.
fn residencies(placements: &[PlacementRecord], slots: usize) -> Vec<VmResidency> {
    let mut per_vm = vec![VmResidency::default(); slots];
    for rec in placements {
        if let Some(vm) = per_vm.get_mut(rec.vm.index()) {
            vm.moves.push((rec.at, rec.host));
        }
    }
    per_vm
}

/// Replays one VM's request stream, event per request. Everything this
/// touches is derived from `(seed, vm index)` and the run's recorded
/// state, so the result is a pure function.
fn replay_vm(
    vm: &VmSpec,
    residency: &VmResidency,
    timelines: &[PowerTimeline],
    cfg: &QosConfig,
    seed: u64,
    hours: u64,
) -> QosReport {
    let sla_ms = cfg.profile.sla.as_millis();
    let mut report = QosReport::new(sla_ms);
    if vm.kind != WorkloadKind::Interactive {
        // Timer-driven VMs are woken ahead of time (no request latency);
        // batch VMs have no request stream.
        return report;
    }
    let rng = SimRng::new(seed).stream_indexed("qos-requests", vm.id.index() as u64);
    let mut generator = RequestGenerator::new(vm.trace.clone(), cfg.profile.clone(), rng);
    // One FCFS server per vCPU: earliest-free wins, ties by slot index.
    let servers = (vm.vcpus.round() as usize).max(1);
    let mut free = vec![SimTime::EPOCH; servers];
    // The sleep episode (keyed by its operational end) this VM last woke,
    // and the instant its trigger-started resume completes.
    let mut episode: Option<(SimTime, SimTime)> = None;

    for hour in 0..hours {
        if vm.trace.level_at_hour(hour) < cfg.noise {
            continue;
        }
        for arrival in generator.arrivals_in_hour(hour) {
            let service = generator.sample_service();
            let Some(host) = residency.host_at(arrival) else {
                report.unserved += 1;
                continue;
            };
            let timeline = &timelines[host.index()];
            let Some(operational) = timeline.operational_from(arrival) else {
                // Parked through the end of the recorded run.
                report.unserved += 1;
                continue;
            };
            let window = (operational != arrival)
                .then(|| timeline.resume_window_after(arrival))
                .flatten();
            let power_ready = power_ready_at(operational, arrival, window, &mut episode);
            let (latency_ms, wake_hit) = fcfs_serve(&mut free, arrival, service, power_ready);
            report.record(latency_ms, wake_hit);
        }
    }
    report
}

fn worker_count(threads: usize, n: usize) -> usize {
    if threads == 0 {
        dds_core::sweep::auto_threads(n)
    } else {
        threads.min(n.max(1))
    }
}

/// Replays every VM of a finished run and returns the merged
/// [`QosReport`]. `outcome` must carry power timelines and a placement
/// log (run with `DcConfig::track_power_timeline = true`); `vms` is the
/// run's VM population (same specs, same order). One task per VM on
/// `threads` workers of the persistent [`WorkerPool`] (0 = one per
/// available core); shards merge in VM order, so the report is
/// bit-identical for any thread count.
pub fn replay(
    vms: &[VmSpec],
    outcome: &DcOutcome,
    cfg: &QosConfig,
    seed: u64,
    threads: usize,
) -> QosReport {
    assert!(
        !outcome.timelines.is_empty() || vms.is_empty(),
        "QoS replay needs power timelines: run with DcConfig::track_power_timeline = true"
    );
    let residency = residencies(&outcome.placements, vms.len());
    let n = vms.len();
    let workers = worker_count(threads, n);
    let residency = &residency;
    let shards = WorkerPool::global().run_ordered(
        workers,
        (0..n)
            .map(|i| {
                move || {
                    replay_vm(
                        &vms[i],
                        &residency[i],
                        &outcome.timelines,
                        cfg,
                        seed,
                        outcome.hours,
                    )
                }
            })
            .collect(),
    );
    let mut report = QosReport::new(cfg.profile.sla.as_millis());
    for shard in &shards {
        report.merge(shard);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::datacenter::{Algorithm, Datacenter, DcConfig};
    use dds_core::spec::HostSpec;
    use dds_sim_core::{HostId, VmId};
    use dds_traces::{TracePattern, VmTrace};

    fn bursty(hours: usize, seed: u64) -> VmTrace {
        TracePattern::RandomBursts {
            duty: 0.2,
            intensity: 0.6,
        }
        .generate(hours, &mut SimRng::new(seed))
    }

    fn run_small_with(
        algorithm: Algorithm,
        traces: Vec<VmTrace>,
        hours: u64,
        tweak: impl FnOnce(&mut DcConfig),
    ) -> (Vec<VmSpec>, DcOutcome) {
        let hosts = vec![
            HostSpec::testbed_machine(HostId(0), "P0"),
            HostSpec::testbed_machine(HostId(1), "P1"),
        ];
        let vms: Vec<VmSpec> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                VmSpec::testbed_flavor(
                    VmId(i as u32),
                    format!("V{i}"),
                    t,
                    WorkloadKind::Interactive,
                )
            })
            .collect();
        let placement: Vec<HostId> = (0..vms.len()).map(|i| HostId((i % 2) as u32)).collect();
        let mut cfg = DcConfig::paper_default();
        tweak(&mut cfg);
        let mut dc = Datacenter::new(cfg, algorithm, hosts, vms.clone(), placement, None, 7);
        dc.run(hours);
        (vms, dc.finish())
    }

    fn run_small(
        algorithm: Algorithm,
        traces: Vec<VmTrace>,
        hours: u64,
    ) -> (Vec<VmSpec>, DcOutcome) {
        run_small_with(algorithm, traces, hours, |cfg| {
            cfg.track_power_timeline = true
        })
    }

    #[test]
    fn always_on_fleet_sees_no_wake_hits() {
        let hours = 48;
        let (vms, out) = run_small(
            Algorithm::NeatNoSuspend,
            vec![bursty(48, 1), bursty(48, 2)],
            hours,
        );
        let cfg = QosConfig::paper_default();
        let report = replay(&vms, &out, &cfg, 7, 1);
        assert!(report.total > 1000, "requests flowed: {}", report.total);
        assert_eq!(report.wake_hits, 0, "always-on hosts never park");
        assert_eq!(report.wake_violations, 0);
        assert_eq!(report.unserved, 0);
        assert!(
            report.sla_attainment() > 0.99,
            "awake fleet meets the paper's SLA: {}",
            report.sla_attainment()
        );
    }

    #[test]
    fn drowsy_fleet_charges_wakes_at_the_resume_latency() {
        let hours = 96;
        let (vms, out) = run_small(
            Algorithm::DrowsyDc,
            vec![bursty(96, 1), bursty(96, 2)],
            hours,
        );
        assert!(
            out.timelines
                .iter()
                .any(|tl| !tl.time_in(|s| s.is_low_power()).is_zero()),
            "the run parks hosts"
        );
        let cfg = QosConfig::paper_default();
        let report = replay(&vms, &out, &cfg, 7, 1);
        assert!(report.wake_hits > 0, "parked hosts produce wake hits");
        // The worst wake-hit latency is at least the quick-resume
        // latency (the trigger pays the full resume + service) and
        // bounded by resume + the FCFS drain behind it.
        assert!(
            report.worst_wake_ms >= 800,
            "trigger pays the resume: {}",
            report.worst_wake_ms
        );
        assert!(report.wake_violations > 0, "wake latencies breach 200 ms");
    }

    #[test]
    fn replay_is_bit_identical_across_thread_counts() {
        let hours = 72;
        let (vms, out) = run_small(
            Algorithm::DrowsyDc,
            vec![bursty(72, 1), bursty(72, 2), bursty(72, 3), bursty(72, 4)],
            hours,
        );
        let cfg = QosConfig::paper_default();
        let serial = replay(&vms, &out, &cfg, 7, 1);
        let parallel = replay(&vms, &out, &cfg, 7, 4);
        let auto = replay(&vms, &out, &cfg, 7, 0);
        assert_eq!(serial, parallel, "1-vs-N thread reports are identical");
        assert_eq!(serial, auto);
        assert!(serial.total > 0);
    }

    #[test]
    fn streaming_report_is_bit_identical_to_the_post_hoc_replay() {
        // The oracle of the production pipeline: a run evaluating QoS
        // *inline* (DcConfig::qos_stream, trimmed timelines, no placement
        // log) produces exactly the report the per-request replay
        // computes from a fully-recorded twin of the same run — exact
        // counters, histogram buckets and worst-case latencies — at any
        // worker-thread count on the streaming side.
        use dds_core::datacenter::QosStreamConfig;
        for algorithm in [Algorithm::DrowsyDc, Algorithm::NeatNoSuspend] {
            let hours = 96;
            let traces = vec![bursty(96, 1), bursty(96, 2), bursty(96, 3), bursty(96, 4)];
            let (vms, out) = run_small(algorithm, traces.clone(), hours);
            let cfg = QosConfig::paper_default();
            let posthoc = replay(&vms, &out, &cfg, 7, 0);
            assert!(posthoc.total > 0);
            for threads in [1usize, 3, 0] {
                let (_, streamed) = run_small_with(algorithm, traces.clone(), hours, |c| {
                    c.qos_stream = Some(QosStreamConfig {
                        profile: cfg.profile.clone(),
                        threads,
                    });
                });
                // Streaming must not perturb the run's physics…
                assert_eq!(
                    streamed.energy_kwh.to_bits(),
                    out.energy_kwh.to_bits(),
                    "the ride-along pipeline leaves the simulation untouched"
                );
                // …retains nothing whole-run…
                assert!(streamed.timelines.is_empty(), "no timeline retention");
                assert!(streamed.placements.is_empty(), "no placement log");
                // …and reports exactly what the replay would.
                let qos = streamed.qos.expect("streaming run surfaces a report");
                assert_eq!(qos, posthoc, "{algorithm:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn run_cluster_qos_wires_tracking_and_replay_together() {
        // run_cluster_qos streams. Its report must equal the post-hoc
        // replay of a timeline-tracked twin of the same run, and the
        // profile's resume latency must pick the run's wake path: every
        // resume window the twin records is the ≈800 ms quick path for
        // the quick profile and the ≈1500 ms stock path otherwise
        // (Drowsy-DC parks in S3 only).
        use dds_core::cluster::{run_cluster_policy, ClusterOutcome, ClusterSpec};
        let mut spec = ClusterSpec::paper_default(0.75);
        spec.hosts = 4;
        spec.vms = 12;
        spec.days = 2;
        let seed = 11;
        let tracked_twin = |profile: &RequestProfile| {
            let mut twin = spec.clone();
            let wake = crate::wake_path(profile, &twin.config);
            twin.config.set_request_profile(profile, wake);
            twin.config.track_power_timeline = true;
            let outcome = run_cluster_policy(&twin, "drowsy-dc", seed);
            let cfg = QosConfig {
                profile: profile.clone(),
                noise: twin.config.im.noise_threshold,
            };
            let report = replay(&twin.vm_specs(seed), &outcome.dc, &cfg, seed, 0);
            (outcome, report)
        };
        let resume_spans = |outcome: &ClusterOutcome| -> Vec<u64> {
            outcome
                .dc
                .timelines
                .iter()
                .flat_map(|tl| tl.intervals())
                .filter(|iv| iv.state == dds_power::PowerState::Resuming)
                .map(|iv| iv.duration().as_millis())
                .collect()
        };
        for (base, resume_ms) in [
            (RequestProfile::web_search_quick_resume(), 800),
            (RequestProfile::web_search(), 1500),
        ] {
            let profile = RequestProfile {
                peak_rps: 1.0,
                ..base
            };
            let (outcome, report) = crate::run_cluster_qos(&spec, "drowsy-dc", seed, &profile);
            assert!(outcome.energy_kwh() > 0.0);
            assert!(
                outcome.dc.timelines.is_empty(),
                "streaming keeps no timelines"
            );
            assert!(report.total > 0, "LLMI mix produces interactive requests");
            let (twin, oracle) = tracked_twin(&profile);
            assert_eq!(
                outcome.energy_kwh().to_bits(),
                twin.energy_kwh().to_bits(),
                "tracking leaves the physics untouched"
            );
            assert_eq!(report, oracle, "resume {resume_ms} ms");
            let spans = resume_spans(&twin);
            assert!(!spans.is_empty(), "the run woke hosts");
            assert!(spans.iter().all(|&ms| ms == resume_ms), "{spans:?}");
        }
    }
}
