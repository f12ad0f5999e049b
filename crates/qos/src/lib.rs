//! # dds-qos — request-level QoS: tail latency and SLA accounting
//!
//! The paper validates Drowsy-DC against a user-facing SLA — "more than
//! 99 % of the web search requests were serviced within 200 ms", with
//! wake-triggering requests paying the resume latency (≈1500 ms stock,
//! ≈800 ms quick resume). This crate adds that evaluation dimension to
//! every policy, scenario and sweep:
//!
//! * [`run_cluster_qos`] runs one cluster point with the *streaming*
//!   pipeline of `dds-core` attached (`DcConfig::stream_qos`): each
//!   interactive VM's Poisson request stream (rate following its activity
//!   trace, the paper's open-loop client) is served at every epoch end
//!   against the power states the run just produced. Requests arriving
//!   while the host is parked or mid-resume queue until it is
//!   operational, the wake-triggering request pays exactly the resume
//!   latency, and every latency lands in a log-bucketed mergeable
//!   histogram. Each epoch's [`QosWindow`] also reaches the control
//!   policy, which is what lets closed-loop policies (`sla-aware`) react.
//! * [`QosReport`] surfaces p50/p95/p99/p99.9, SLA attainment and
//!   violations charged to wakes vs queueing, in exact integer
//!   arithmetic (bit-identical for any thread count).
//! * [`replay`](fn@replay) is the test oracle: an event-per-request walk
//!   over a finished run's recorded [`PowerTimeline`]s and placement log
//!   (`DcConfig::track_power_timeline`). It shares only the FCFS and
//!   wake-episode arithmetic and the per-VM RNG streams with the
//!   streaming fold, and the tests pin the two reports bit-identical.
//!
//! Together with the energy outcome this turns every policy comparison
//! into a power-vs-tail-latency Pareto: the `qos` binary (`dds-bench`)
//! reproduces the paper's SLA claim next to the kWh numbers, and the
//! scenario format's `[qos]` section (`dds-scenarios`) attaches a request
//! workload to any declarative scenario.
//!
//! ## Example
//!
//! ```
//! use dds_core::cluster::ClusterSpec;
//! use dds_qos::{run_cluster_qos, QosConfig};
//! use dds_traces::RequestProfile;
//!
//! let mut spec = ClusterSpec::paper_default(0.75);
//! spec.hosts = 2;
//! spec.vms = 6;
//! spec.days = 1;
//! let profile = RequestProfile {
//!     peak_rps: 1.0,
//!     ..RequestProfile::web_search_quick_resume()
//! };
//! let (outcome, qos) = run_cluster_qos(&spec, "drowsy-dc", 42, &profile);
//! assert!(outcome.energy_kwh() > 0.0);
//! assert!(qos.sla_attainment() <= 1.0);
//! println!(
//!     "within SLA: {:.2} %, p99.9: {:?} ms",
//!     qos.sla_attainment() * 100.0,
//!     qos.p999()
//! );
//! ```
//!
//! [`PowerTimeline`]: dds_power::PowerTimeline

#![warn(missing_docs)]

pub mod replay;
pub mod report;

pub use replay::{replay, QosConfig};
pub use report::{HostWakeQos, QosReport, QosWindow};

use dds_core::cluster::{run_cluster_policy, ClusterOutcome, ClusterSpec};
use dds_core::datacenter::DcConfig;
use dds_power::WakeSpeed;
use dds_traces::RequestProfile;

/// Runs one cluster point with request-level QoS streamed inline: the
/// one-call power **and** QoS evaluation. Returns the energy outcome and
/// the run's QoS report.
///
/// The policy name resolves in the standard
/// [`PolicyRegistry`](dds_core::registry::PolicyRegistry); the noise
/// gate is the spec's idleness-model threshold. The run's resume path
/// follows the profile: a stock-resume profile (`resume_latency` at or
/// above the host model's normal resume) runs the fleet at
/// `WakeSpeed::Normal`, so wake-triggering requests pay the latency the
/// profile advertises.
pub fn run_cluster_qos(
    spec: &ClusterSpec,
    policy: &str,
    seed: u64,
    profile: &RequestProfile,
) -> (ClusterOutcome, QosReport) {
    let mut spec = spec.clone();
    let wake = wake_path(profile, &spec.config);
    spec.config.stream_qos(profile.clone(), wake);
    let mut outcome = run_cluster_policy(&spec, policy, seed);
    let report = outcome
        .dc
        .qos
        .take()
        .expect("a streaming run carries a QoS report");
    (outcome, report)
}

/// The resume path whose latency `profile` expects on `config`'s hosts.
fn wake_path(profile: &RequestProfile, config: &DcConfig) -> WakeSpeed {
    if profile.resume_latency >= config.power.timings.resume_normal {
        WakeSpeed::Normal
    } else {
        WakeSpeed::Quick
    }
}
