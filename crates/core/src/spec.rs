//! Host and VM specifications for datacenter scenarios.

use dds_power::HostPowerModel;
use dds_sim_core::{HostId, SimRng, VmId};
use dds_traces::{VmTrace, VmWorkload};

/// How a VM's service is driven — this determines its wake path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Request-driven (web search, media streaming): activity arrives as
    /// network requests, so a suspended host is woken by the packet
    /// analyzer and the first request pays the resume latency.
    Interactive,
    /// Timer-driven (backup service): activity is scheduled by the VM's
    /// own timers, visible in the hrtimer tree, so the waking module can
    /// resume the host *ahead of time* with no latency penalty.
    TimerDriven,
    /// Batch (SLMU): compute-bound from creation until completion; no
    /// latency accounting.
    Batch,
}

/// Specification of one VM in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Identity (dense index into the scenario's VM table).
    pub id: VmId,
    /// Human-readable name for reports ("V1"…).
    pub name: String,
    /// Virtual CPUs.
    pub vcpus: f64,
    /// RAM in MiB.
    pub ram_mb: u64,
    /// Hourly activity trace driving the VM.
    pub trace: VmTrace,
    /// Wake path.
    pub kind: WorkloadKind,
}

impl VmSpec {
    /// The testbed flavour: 2 vCPUs, 6 GiB.
    pub fn testbed_flavor(
        id: VmId,
        name: impl Into<String>,
        trace: VmTrace,
        kind: WorkloadKind,
    ) -> Self {
        VmSpec {
            id,
            name: name.into(),
            vcpus: 2.0,
            ram_mb: 6_144,
            trace,
            kind,
        }
    }
}

/// Specification of one host in a scenario.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Identity (dense index into the scenario's host table).
    pub id: HostId,
    /// Human-readable name ("P2"…).
    pub name: String,
    /// Physical cores.
    pub cpu_cores: f64,
    /// RAM in MiB.
    pub ram_mb: u64,
    /// Maximum resident VMs (0 = unlimited).
    pub max_vms: usize,
    /// Power model of this host, including its suspend/resume latencies.
    /// `None` uses the datacenter-wide `DcConfig::power` — the uniform
    /// fleet every pre-scenario experiment runs on. Heterogeneous fleets
    /// (the scenario layer's host classes) set per-class models here.
    pub power: Option<HostPowerModel>,
}

impl HostSpec {
    /// The testbed machine: i7-3770 (4C/8T counted as 8 schedulable
    /// cores), 16 GiB, max 2 VMs.
    pub fn testbed_machine(id: HostId, name: impl Into<String>) -> Self {
        HostSpec {
            id,
            name: name.into(),
            cpu_cores: 8.0,
            ram_mb: 16_384,
            max_vms: 2,
            power: None,
        }
    }

    /// A commodity cloud server for the §VI.B simulation: 16 cores,
    /// 32 GiB. Memory is deliberately the scarce resource ("memory is
    /// often the limiting resource in the consolidation process", §I):
    /// five 6 GiB VMs fill a host, so packing alone cannot empty most of
    /// the fleet and pattern-aware colocation has real work to do.
    pub fn cloud_server(id: HostId, name: impl Into<String>) -> Self {
        HostSpec {
            id,
            name: name.into(),
            cpu_cores: 16.0,
            ram_mb: 32_768,
            max_vms: 0,
            power: None,
        }
    }

    /// Overrides this host's power model (per-class draw figures and
    /// suspend/resume latencies).
    pub fn with_power(mut self, power: HostPowerModel) -> Self {
        self.power = Some(power);
        self
    }
}

/// One workload group of an explicit VM population: `count` VMs sharing a
/// flavor (vCPUs, RAM), a wake path and a trace source. The scenario
/// layer compiles `[workload.*]` sections into these; `expand` turns them
/// into concrete [`VmSpec`]s with per-VM seeded traces.
#[derive(Debug, Clone)]
pub struct VmMemberSpec {
    /// Name prefix; member k of the group is named `"{prefix}{k}"`.
    pub name_prefix: String,
    /// Number of VMs in the group.
    pub count: usize,
    /// Virtual CPUs per VM.
    pub vcpus: f64,
    /// RAM per VM in MiB.
    pub ram_mb: u64,
    /// Trace source shared by the group (each VM draws its own stream).
    pub workload: VmWorkload,
    /// Wake path of the group's VMs.
    pub kind: WorkloadKind,
}

impl VmMemberSpec {
    /// Expands the group into `count` concrete [`VmSpec`]s, assigning
    /// dense ids starting at `first_id` and generating `hours` hours of
    /// trace per VM. Each VM derives its own RNG stream from `rng` and
    /// its global index, so populations replay bit-identically per seed
    /// and adding a group never perturbs the traces of another.
    pub fn expand(&self, first_id: usize, hours: usize, rng: &SimRng) -> Vec<VmSpec> {
        (0..self.count)
            .map(|k| {
                let index = first_id + k;
                let mut r = rng.stream_indexed("member", index as u64);
                let trace = self.workload.generate(hours, &mut r);
                VmSpec {
                    id: VmId(index as u32),
                    name: format!("{}{}", self.name_prefix, k),
                    vcpus: self.vcpus,
                    ram_mb: self.ram_mb,
                    trace,
                    kind: self.kind,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_flavor_matches_paper() {
        let spec = VmSpec::testbed_flavor(
            VmId(0),
            "V1",
            VmTrace::idle("t", 24),
            WorkloadKind::Interactive,
        );
        assert_eq!(spec.vcpus, 2.0);
        assert_eq!(spec.ram_mb, 6_144);
        assert_eq!(spec.name, "V1");
    }

    #[test]
    fn testbed_machine_caps_two_vms() {
        let h = HostSpec::testbed_machine(HostId(0), "P2");
        assert_eq!(h.max_vms, 2);
        assert_eq!(h.ram_mb, 16_384);
        // Two 6 GiB VMs fit; a third would not.
        assert!(2 * 6_144 <= h.ram_mb);
        assert!(3 * 6_144 > h.ram_mb);
    }
}
