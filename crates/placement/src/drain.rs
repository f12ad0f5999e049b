//! The planning scratch state and the transactional underload drain
//! shared by [`NeatPlanner`](crate::NeatPlanner) and
//! [`DrowsyPlanner`](crate::DrowsyPlanner).
//!
//! Step (1)+(4) of Neat's decomposition tries every underloaded host in
//! turn and keeps a drain only if *all* its VMs find a destination. The
//! drain applies its moves directly to the scratch state and keeps an
//! undo log: a failed drain is rolled back in reverse (pop the VM from
//! its destination, re-insert it at its original index on the source),
//! which restores every host's `vms` exactly, order included.
//!
//! The destination choosers read per-host aggregates ([`HostLoad`])
//! cached per slot. A move or an undo recomputes the two touched hosts'
//! aggregates from their `vms` in order; nothing is ever patched by
//! adding or subtracting an `f64`, so every comparison sees the same bits
//! as [`HostState`]'s own accessors would.

use crate::neat::UnderloadPolicy;
use crate::types::{ClusterState, ConsolidationPlan, HostState, Migration, VmState};
use std::cmp::Ordering;

/// The aggregates of one host the destination choosers read, computed by
/// [`HostState`]'s own accessors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostLoad {
    /// RAM used by resident VMs ([`HostState::ram_used`]).
    pub ram_used: u64,
    /// Aggregate CPU demand ([`HostState::cpu_demand`]).
    pub cpu_demand: f64,
    /// Mean resident idleness score ([`HostState::ip_score`]).
    pub ip_score: f64,
    /// Resident VM count.
    pub vm_count: usize,
}

impl HostLoad {
    /// The aggregates of `host` as it stands.
    pub fn of(host: &HostState) -> Self {
        HostLoad {
            ram_used: host.ram_used(),
            cpu_demand: host.cpu_demand(),
            ip_score: host.ip_score(),
            vm_count: host.vms.len(),
        }
    }

    /// [`HostState::utilization`] from the cached demand.
    pub fn utilization(&self, host: &HostState) -> f64 {
        if host.cpu_capacity <= 0.0 {
            return 0.0;
        }
        self.cpu_demand / host.cpu_capacity
    }

    /// [`HostState::fits`] from the cached count and RAM.
    pub fn fits(&self, host: &HostState, vm: &VmState) -> bool {
        if host.max_vms != 0 && self.vm_count >= host.max_vms {
            return false;
        }
        host.ram_capacity.saturating_sub(self.ram_used) >= vm.ram_mb
    }
}

/// The best destination slot for `vm`: among hosts not `excluded` that fit
/// it and stay at or under `guard` utilization after receiving it, the one
/// with the smallest `key(host, load, util_after)` (first slot on ties).
/// `load(slot)` supplies the host's aggregates — cached or fresh.
pub(crate) fn choose_slot<K: PartialOrd>(
    state: &ClusterState,
    load: impl Fn(usize) -> HostLoad,
    vm: &VmState,
    guard: f64,
    excluded: impl Fn(usize) -> bool,
    key: impl Fn(&HostState, &HostLoad, f64) -> K,
) -> Option<usize> {
    let mut best: Option<(K, usize)> = None;
    for (slot, host) in state.hosts.iter().enumerate() {
        if excluded(slot) {
            continue;
        }
        let l = load(slot);
        if !l.fits(host, vm) {
            continue;
        }
        let util_after = (l.cpu_demand + vm.cpu_demand) / host.cpu_capacity.max(1e-9);
        if util_after > guard {
            continue;
        }
        let k = key(host, &l, util_after);
        if best.as_ref().is_none_or(|(b, _)| k < *b) {
            best = Some((k, slot));
        }
    }
    best.map(|(_, slot)| slot)
}

/// A planner's scratch copy of the cluster with per-slot [`HostLoad`]s
/// kept current on every move.
pub(crate) struct PlanScratch {
    /// The mutated cluster view.
    pub state: ClusterState,
    loads: Vec<HostLoad>,
}

impl PlanScratch {
    /// A scratch copy of `state`.
    pub fn new(state: &ClusterState) -> Self {
        let state = state.clone();
        let loads = state.hosts.iter().map(HostLoad::of).collect();
        PlanScratch { state, loads }
    }

    /// The cached aggregates of `slot`.
    pub fn load(&self, slot: usize) -> HostLoad {
        self.loads[slot]
    }

    /// [`HostState::utilization`] of `slot`, from the cache.
    pub fn utilization(&self, slot: usize) -> f64 {
        self.loads[slot].utilization(&self.state.hosts[slot])
    }

    /// [`choose_slot`] over the cached loads.
    pub fn choose<K: PartialOrd>(
        &self,
        vm: &VmState,
        guard: f64,
        excluded: impl Fn(usize) -> bool,
        key: impl Fn(&HostState, &HostLoad, f64) -> K,
    ) -> Option<usize> {
        choose_slot(&self.state, |s| self.loads[s], vm, guard, excluded, key)
    }

    /// Moves the VM at index `pos` of slot `from` to the end of slot `to`
    /// and returns the [`Migration`] it amounts to. The caller has checked
    /// that it fits (the choosers only return hosts that do).
    pub fn move_vm(&mut self, from: usize, pos: usize, to: usize) -> Migration {
        debug_assert_ne!(from, to, "self-migration");
        let vm = self.state.hosts[from].vms.remove(pos);
        debug_assert!(self.loads[to].fits(&self.state.hosts[to], &vm));
        let m = Migration {
            vm: vm.id,
            from: self.state.hosts[from].id,
            to: self.state.hosts[to].id,
        };
        self.state.hosts[to].vms.push(vm);
        self.refresh(from);
        self.refresh(to);
        m
    }

    /// Reverts the latest [`PlanScratch::move_vm`]`(from, pos, to)` still
    /// in effect: the VM is the last one on `to`.
    fn undo_move(&mut self, from: usize, pos: usize, to: usize) {
        let vm = self.state.hosts[to]
            .vms
            .pop()
            .expect("undone VM is on its destination");
        self.state.hosts[from].vms.insert(pos, vm);
        self.refresh(from);
        self.refresh(to);
    }

    /// Recomputes the cache of `slot` from its `vms`, in order.
    fn refresh(&mut self, slot: usize) {
        self.loads[slot] = HostLoad::of(&self.state.hosts[slot]);
    }
}

/// Drains underloaded hosts, least utilized first, each all-or-nothing:
/// a host whose VMs (taken in `vm_order`) all find a destination is
/// emptied and listed for power-off; otherwise its moves are rolled back.
///
/// Destinations never include the overloaded slots, the hosts empty when
/// the drain starts (moving VMs onto a sleeping host merely relocates the
/// problem and causes hourly ping-pong), hosts already drained, or the
/// host being drained. One bitmap holds that set across candidates: a
/// drain only moves VMs onto non-empty hosts, so the empty set only ever
/// grows by the drained hosts. `choose(scratch, vm, excluded)` picks the
/// destination slot. Returns the drained slots.
pub(crate) fn drain_underloaded(
    scratch: &mut PlanScratch,
    overloaded: &[bool],
    underload: UnderloadPolicy,
    vm_order: impl Fn(&VmState, &VmState) -> Ordering,
    choose: impl Fn(&PlanScratch, &VmState, &[bool]) -> Option<usize>,
    plan: &mut ConsolidationPlan,
) -> Vec<usize> {
    let n = scratch.state.hosts.len();
    let mut candidates: Vec<(f64, usize)> = (0..n)
        .filter(|&s| scratch.load(s).vm_count > 0 && !overloaded[s])
        .map(|s| (scratch.utilization(s), s))
        .filter(|&(u, _)| underload.is_underloaded(u))
        .collect();
    candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
    let mut excluded: Vec<bool> = (0..n)
        .map(|s| overloaded[s] || scratch.load(s).vm_count == 0)
        .collect();
    let mut drained = Vec::new();
    // The current drain's moves: (index on the source, destination slot).
    let mut log: Vec<(usize, usize, Migration)> = Vec::new();
    for (_, src) in candidates {
        excluded[src] = true;
        let mut vms = scratch.state.hosts[src].vms.clone();
        vms.sort_by(&vm_order);
        log.clear();
        let mut ok = true;
        for vm in &vms {
            let Some(dest) = choose(scratch, vm, &excluded) else {
                ok = false;
                break;
            };
            let pos = scratch.state.hosts[src]
                .position_of(vm.id)
                .expect("drained VM is still on its source");
            log.push((pos, dest, scratch.move_vm(src, pos, dest)));
        }
        if ok {
            plan.migrations.extend(log.iter().map(|&(_, _, m)| m));
            plan.hosts_to_power_off.push(scratch.state.hosts[src].id);
            drained.push(src);
        } else {
            for &(pos, dest, _) in log.iter().rev() {
                scratch.undo_move(src, pos, dest);
            }
            excluded[src] = false;
        }
    }
    drained
}

/// The clone-per-candidate planners the transactional drain replaced,
/// kept as the test oracle: `NeatPlanner::plan` and `DrowsyPlanner::plan`
/// must return exactly the plans these return.
#[cfg(test)]
pub(crate) mod reference {
    use crate::drowsy::DrowsyPlanner;
    use crate::history::HistoryBook;
    use crate::neat::{HostHistories, NeatPlanner};
    use crate::types::{ClusterState, ConsolidationPlan, Migration, VmState};
    use dds_sim_core::{HostId, SimRng};
    use std::collections::HashSet;

    /// PABFD over a freshly summed state.
    fn pabfd_choose(
        p: &NeatPlanner,
        state: &ClusterState,
        vm: &VmState,
        exclude: &HashSet<HostId>,
    ) -> Option<HostId> {
        let mut best: Option<(f64, f64, HostId)> = None;
        for host in &state.hosts {
            if exclude.contains(&host.id) || !host.fits(vm) {
                continue;
            }
            let util_before = host.utilization();
            let util_after = (host.cpu_demand() + vm.cpu_demand) / host.cpu_capacity.max(1e-9);
            if util_after > p.config.destination_guard {
                continue;
            }
            let power_inc = (util_after - util_before) * host.cpu_capacity;
            let key = (power_inc, -util_after, host.id);
            if best.is_none_or(|(a, b, id)| key < (a, b, id)) {
                best = Some(key);
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// Closest-IP choice over a freshly summed state.
    fn closest_ip_choose(
        p: &DrowsyPlanner,
        state: &ClusterState,
        vm: &VmState,
        exclude: &HashSet<HostId>,
    ) -> Option<HostId> {
        let tol = p.config.ip_tolerance;
        let mut best: Option<(i64, f64, HostId)> = None;
        for h in &state.hosts {
            if exclude.contains(&h.id) || !h.fits(vm) {
                continue;
            }
            let util_after = (h.cpu_demand() + vm.cpu_demand) / h.cpu_capacity.max(1e-9);
            if util_after > p.config.neat.destination_guard {
                continue;
            }
            let bucket = ((h.ip_score() - vm.ip_score).abs() / tol).floor() as i64;
            let key = (bucket, -util_after, h.id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, id)| id)
    }

    fn overloaded_hosts(
        p: &NeatPlanner,
        state: &ClusterState,
        host_hist: &HostHistories,
    ) -> Vec<HostId> {
        state
            .hosts
            .iter()
            .filter(|h| {
                p.config
                    .overload
                    .is_overloaded(h.utilization(), host_hist.get(h.id))
            })
            .map(|h| h.id)
            .collect()
    }

    /// Clone-per-candidate drain.
    fn drain(
        scratch: &mut ClusterState,
        plan: &mut ConsolidationPlan,
        overloaded: &HashSet<HostId>,
        underloaded: impl Fn(f64) -> bool,
        vm_order: impl Fn(&VmState, &VmState) -> std::cmp::Ordering,
        choose: impl Fn(&ClusterState, &VmState, &HashSet<HostId>) -> Option<HostId>,
    ) -> HashSet<HostId> {
        let mut candidates: Vec<HostId> = scratch
            .hosts
            .iter()
            .filter(|h| {
                !h.is_empty() && !overloaded.contains(&h.id) && underloaded(h.utilization())
            })
            .map(|h| h.id)
            .collect();
        candidates.sort_by(|&a, &b| {
            let ua = scratch.host(a).unwrap().utilization();
            let ub = scratch.host(b).unwrap().utilization();
            ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut drained: HashSet<HostId> = HashSet::new();
        for host_id in candidates {
            let mut tentative = scratch.clone();
            let mut moves = Vec::new();
            let mut exclude = overloaded.clone();
            exclude.insert(host_id);
            exclude.extend(drained.iter().copied());
            exclude.extend(
                tentative
                    .hosts
                    .iter()
                    .filter(|h| h.is_empty())
                    .map(|h| h.id),
            );
            let mut vms = tentative.host(host_id).unwrap().vms.clone();
            vms.sort_by(&vm_order);
            let mut ok = true;
            for vm in vms {
                let Some(dest) = choose(&tentative, &vm, &exclude) else {
                    ok = false;
                    break;
                };
                let m = Migration {
                    vm: vm.id,
                    from: host_id,
                    to: dest,
                };
                if tentative.apply(m).is_err() {
                    ok = false;
                    break;
                }
                moves.push(m);
            }
            if ok {
                *scratch = tentative;
                plan.migrations.extend(moves);
                plan.hosts_to_power_off.push(host_id);
                drained.insert(host_id);
            }
        }
        drained
    }

    /// The former `NeatPlanner::plan`.
    pub fn neat_plan(
        p: &NeatPlanner,
        state: &ClusterState,
        vm_hist: &HistoryBook,
        host_hist: &HostHistories,
        rng: &mut SimRng,
    ) -> ConsolidationPlan {
        let mut scratch = state.clone();
        let mut plan = ConsolidationPlan::default();
        let overloaded = overloaded_hosts(p, &scratch, host_hist);
        let overloaded_set: HashSet<HostId> = overloaded.iter().copied().collect();
        for host_id in overloaded {
            loop {
                let host = scratch.host(host_id).expect("host exists");
                let hist = host_hist.get(host_id);
                if !p.config.overload.is_overloaded(host.utilization(), hist) {
                    break;
                }
                let Some(idx) = p.config.selection.pick(&host.vms, vm_hist, rng) else {
                    break;
                };
                let vm = host.vms[idx].clone();
                let Some(dest) = pabfd_choose(p, &scratch, &vm, &overloaded_set) else {
                    break;
                };
                let m = Migration {
                    vm: vm.id,
                    from: host_id,
                    to: dest,
                };
                if scratch.apply(m).is_err() {
                    break;
                }
                plan.migrations.push(m);
            }
        }
        drain(
            &mut scratch,
            &mut plan,
            &overloaded_set,
            |u| p.config.underload.is_underloaded(u),
            crate::neat::bfd_order,
            |s, vm, ex| pabfd_choose(p, s, vm, ex),
        );
        plan
    }

    /// The former `DrowsyPlanner::plan`.
    pub fn drowsy_plan(
        p: &DrowsyPlanner,
        state: &ClusterState,
        host_hist: &HostHistories,
    ) -> ConsolidationPlan {
        let neat = NeatPlanner::new(p.config.neat.clone());
        let mut scratch = state.clone();
        let mut plan = ConsolidationPlan::default();
        let overloaded = overloaded_hosts(&neat, &scratch, host_hist);
        let overloaded_set: HashSet<HostId> = overloaded.iter().copied().collect();
        for host_id in overloaded {
            for vm_id in p.select_order(&scratch, host_id) {
                let host = scratch.host(host_id).expect("host exists");
                if !p
                    .config
                    .neat
                    .overload
                    .is_overloaded(host.utilization(), host_hist.get(host_id))
                {
                    break;
                }
                let vm = host.vms.iter().find(|v| v.id == vm_id).cloned().unwrap();
                let Some(dest) = closest_ip_choose(p, &scratch, &vm, &overloaded_set) else {
                    continue;
                };
                let m = Migration {
                    vm: vm.id,
                    from: host_id,
                    to: dest,
                };
                if scratch.apply(m).is_ok() {
                    plan.migrations.push(m);
                }
            }
        }
        let drained = drain(
            &mut scratch,
            &mut plan,
            &overloaded_set,
            |u| p.config.neat.underload.is_underloaded(u),
            crate::drowsy::biggest_first,
            |s, vm, ex| closest_ip_choose(p, s, vm, ex),
        );
        let (moves, swaps) = p.opportunistic_pass(&mut scratch, &drained);
        plan.migrations.extend(moves);
        plan.swaps = swaps;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drowsy::{DrowsyConfig, DrowsyPlanner};
    use crate::history::HistoryBook;
    use crate::neat::{HostHistories, NeatPlanner};
    use crate::types::testkit::{host, vm};
    use dds_sim_core::{HostId, SimRng, VmId};
    use proptest::prelude::*;

    /// A random cluster: 2–13 hosts with mixed VM caps and RAM, VMs of
    /// mixed flavours, demands and idleness scores, some VMs frozen, and
    /// (when `sparse`) host ids that do not match their slots.
    fn random_state(seed: u64, sparse: bool) -> ClusterState {
        let mut r = SimRng::new(seed);
        let n_hosts = 2 + r.below(12) as usize;
        let mut next_vm = 0u32;
        let mut hosts = Vec::new();
        for slot in 0..n_hosts {
            let max_vms = [0, 0, 2, 3, 4][r.below(5) as usize];
            let n_vms = r.below(5) as usize;
            let mut vms = Vec::new();
            for _ in 0..n_vms {
                let mut v = vm(next_vm, r.uniform(0.0, 3.0), r.uniform(-2e-4, 2e-4));
                next_vm += 1;
                v.ram_mb = [2_048, 4_096, 6_144][r.below(3) as usize];
                if r.below(6) == 0 {
                    v.cpu_demand = 0.0;
                }
                vms.push(v);
            }
            let mut h = host(slot as u32, max_vms, vms);
            h.ram_capacity = [16_384, 24_576, 32_768][r.below(3) as usize];
            // Respect capacity in the initial placement.
            while h.ram_used() > h.ram_capacity || (h.max_vms != 0 && h.vms.len() > h.max_vms) {
                h.vms.pop();
            }
            hosts.push(h);
        }
        if sparse {
            // Either Oasis's view (one host removed, the rest keep their
            // ids) or ids unrelated to slots altogether.
            if r.below(2) == 0 {
                let gone = HostId(r.below(n_hosts as u64) as u32);
                hosts.retain(|h| h.id != gone);
            } else {
                for (slot, h) in hosts.iter_mut().enumerate() {
                    h.id = HostId((3 * (n_hosts - slot) + 1) as u32);
                }
            }
        }
        let mut state = ClusterState::new(hosts);
        for i in 0..next_vm {
            if r.below(4) == 0 {
                state.freeze(VmId(i));
            }
        }
        state
    }

    fn histories(state: &ClusterState, seed: u64) -> (HistoryBook, HostHistories) {
        let mut r = SimRng::new(seed ^ 0x5eed);
        let mut vm_hist = HistoryBook::new(16);
        let mut host_hist = HostHistories::new();
        for _ in 0..12 {
            for h in &state.hosts {
                host_hist.push(h.id, r.uniform(0.0, 1.0));
                for v in &h.vms {
                    vm_hist.push(v.id, r.uniform(0.0, 2.0));
                }
            }
        }
        (vm_hist, host_hist)
    }

    fn neat_configs() -> Vec<crate::neat::NeatConfig> {
        use crate::neat::{NeatConfig, OverloadPolicy, SelectionPolicy, UnderloadPolicy};
        let mut out = vec![NeatConfig::paper_default()];
        let mut mad = NeatConfig::paper_default();
        mad.overload = OverloadPolicy::Mad {
            factor: 2.5,
            fallback: 0.8,
        };
        mad.selection = SelectionPolicy::MaximumCorrelation;
        out.push(mad);
        let mut eager = NeatConfig::paper_default();
        eager.underload = UnderloadPolicy::StaticThreshold(0.6);
        eager.selection = SelectionPolicy::Random;
        eager.destination_guard = 0.95;
        out.push(eager);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The transactional drain plans exactly what the clone-per-
        /// candidate reference plans, for Neat and Drowsy-DC alike.
        #[test]
        fn plans_match_the_clone_per_candidate_reference(
            seed in any::<u64>(),
            sparse in any::<bool>(),
        ) {
            let state = random_state(seed, sparse);
            let (vm_hist, host_hist) = histories(&state, seed);
            for cfg in neat_configs() {
                let neat = NeatPlanner::new(cfg.clone());
                let got = neat.plan(&state, &vm_hist, &host_hist, &mut SimRng::new(seed));
                let want = reference::neat_plan(
                    &neat, &state, &vm_hist, &host_hist, &mut SimRng::new(seed),
                );
                prop_assert_eq!(&got, &want);

                let mut dcfg = DrowsyConfig::paper_default();
                dcfg.neat = cfg;
                let drowsy = DrowsyPlanner::new(dcfg);
                let got = drowsy.plan(&state, &vm_hist, &host_hist, &mut SimRng::new(seed));
                let want = reference::drowsy_plan(&drowsy, &state, &host_hist);
                prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn a_drain_failing_partway_is_rolled_back_exactly() {
        // Host 2 (util 0.05) drains first: its big VM fits on host 0 but
        // its second VM then fits nowhere (host 0 at its cap, host 1 too
        // hot, host 3 at its cap), so the move is undone. Host 3 (util
        // 0.1) then drains onto host 0, which must hold its original
        // single VM again for that to fit.
        let mut big = vm(20, 0.3, 0.0);
        big.ram_mb = 8_192;
        let state = ClusterState::new(vec![
            host(0, 2, vec![vm(1, 1.0, 0.0)]),
            host(1, 0, vec![vm(2, 6.35, 0.0)]),
            host(2, 0, vec![big, vm(21, 0.1, 0.0)]),
            host(3, 1, vec![vm(30, 0.8, 0.0)]),
        ]);
        let (vm_hist, host_hist) = (HistoryBook::new(4), HostHistories::new());
        let neat = NeatPlanner::default();
        let got = neat.plan(&state, &vm_hist, &host_hist, &mut SimRng::new(1));
        let want = reference::neat_plan(&neat, &state, &vm_hist, &host_hist, &mut SimRng::new(1));
        assert_eq!(got, want);
        assert_eq!(got.hosts_to_power_off, vec![HostId(3)], "{got:?}");

        // The scratch state itself is restored bit for bit.
        let mut scratch = PlanScratch::new(&state);
        let m = scratch.move_vm(2, 0, 0);
        assert_eq!(m.vm, VmId(20));
        scratch.undo_move(2, 0, 0);
        assert_eq!(scratch.state, state);
        for (slot, h) in state.hosts.iter().enumerate() {
            let (a, b) = (scratch.load(slot), HostLoad::of(h));
            assert_eq!(a.cpu_demand.to_bits(), b.cpu_demand.to_bits());
            assert_eq!(a.ram_used, b.ram_used);
            assert_eq!(a.vm_count, b.vm_count);
        }
    }
}
