//! A forwarding [`ControlPolicy`] that times every trait method of the
//! policy it wraps, and a [`PolicyRegistry`] whose entries build the
//! standard policies wrapped in it.
//!
//! Registry factories are plain `fn` pointers (no captures), so the
//! per-entry factory is a const-generic function indexed by the
//! standard entry it wraps, and the accumulators are process-wide
//! atomics. Every method forwards to the inner policy, the defaulted
//! ones included, so a wrapped run is bit-identical to an unwrapped one
//! (the benchmark's digest check compares them).

use dds_core::datacenter::DcConfig;
use dds_core::registry::{PolicyEntry, PolicyRegistry};
use dds_hostos::SuspendConfig;
use dds_placement::{
    CapacityIndex, ControlPlan, ControlPolicy, FilterScheduler, PlanningView, SleepDepth,
};
use dds_sim_core::qos::QosWindow;
use dds_sim_core::{HostId, SimRng, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The `ControlPolicy` methods, in trait order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Label,
    Suspends,
    UsesIdlenessScores,
    UsesTraceClasses,
    AdmissionScheduler,
    ShapeSuspendConfig,
    AlwaysOnHosts,
    PlanRounds,
    Plan,
    PlanIndexed,
    IdleSleepDepth,
    ActiveFrequency,
    ObserveQos,
    AllowSuspend,
}

impl Method {
    /// Every method, in trait order.
    pub const ALL: [Method; 14] = [
        Method::Label,
        Method::Suspends,
        Method::UsesIdlenessScores,
        Method::UsesTraceClasses,
        Method::AdmissionScheduler,
        Method::ShapeSuspendConfig,
        Method::AlwaysOnHosts,
        Method::PlanRounds,
        Method::Plan,
        Method::PlanIndexed,
        Method::IdleSleepDepth,
        Method::ActiveFrequency,
        Method::ObserveQos,
        Method::AllowSuspend,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Label => "label",
            Method::Suspends => "suspends",
            Method::UsesIdlenessScores => "uses_idleness_scores",
            Method::UsesTraceClasses => "uses_trace_classes",
            Method::AdmissionScheduler => "admission_scheduler",
            Method::ShapeSuspendConfig => "shape_suspend_config",
            Method::AlwaysOnHosts => "always_on_hosts",
            Method::PlanRounds => "plan_rounds",
            Method::Plan => "plan",
            Method::PlanIndexed => "plan_indexed",
            Method::IdleSleepDepth => "idle_sleep_depth",
            Method::ActiveFrequency => "active_frequency",
            Method::ObserveQos => "observe_qos",
            Method::AllowSuspend => "allow_suspend",
        }
    }
}

/// Calls and nanoseconds per method since process start. Statistics
/// only: `Relaxed` is enough, nothing else is published through them.
static CALLS: [AtomicU64; 14] = [const { AtomicU64::new(0) }; 14];
static NANOS: [AtomicU64; 14] = [const { AtomicU64::new(0) }; 14];

/// A snapshot of the per-method accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodTotals {
    calls: [u64; 14],
    nanos: [u64; 14],
}

impl MethodTotals {
    /// Reads the accumulators now.
    pub fn now() -> Self {
        let mut t = MethodTotals::default();
        for i in 0..14 {
            t.calls[i] = CALLS[i].load(Ordering::Relaxed);
            t.nanos[i] = NANOS[i].load(Ordering::Relaxed);
        }
        t
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &MethodTotals) -> MethodTotals {
        let mut d = MethodTotals::default();
        for i in 0..14 {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.nanos[i] = self.nanos[i] - earlier.nanos[i];
        }
        d
    }

    /// Calls of `m`.
    pub fn calls(&self, m: Method) -> u64 {
        self.calls[m as usize]
    }

    /// Seconds spent in `m`.
    pub fn secs(&self, m: Method) -> f64 {
        self.nanos[m as usize] as f64 / 1e9
    }
}

fn timed<T>(m: Method, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    CALLS[m as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[m as usize].fetch_add(ns, Ordering::Relaxed);
    out
}

/// Forwards every method to `inner`, timing each call.
pub struct TimedPolicy {
    inner: Box<dyn ControlPolicy>,
}

impl ControlPolicy for TimedPolicy {
    fn label(&self) -> &'static str {
        timed(Method::Label, || self.inner.label())
    }
    fn suspends(&self) -> bool {
        timed(Method::Suspends, || self.inner.suspends())
    }
    fn uses_idleness_scores(&self) -> bool {
        timed(Method::UsesIdlenessScores, || {
            self.inner.uses_idleness_scores()
        })
    }
    fn uses_trace_classes(&self) -> bool {
        timed(Method::UsesTraceClasses, || self.inner.uses_trace_classes())
    }
    fn admission_scheduler(&self) -> FilterScheduler {
        timed(Method::AdmissionScheduler, || {
            self.inner.admission_scheduler()
        })
    }
    fn shape_suspend_config(&self, base: &SuspendConfig) -> SuspendConfig {
        timed(Method::ShapeSuspendConfig, || {
            self.inner.shape_suspend_config(base)
        })
    }
    fn always_on_hosts(&self) -> Vec<HostId> {
        timed(Method::AlwaysOnHosts, || self.inner.always_on_hosts())
    }
    fn plan_rounds(&self) -> usize {
        timed(Method::PlanRounds, || self.inner.plan_rounds())
    }
    fn plan(&mut self, round: usize, view: &PlanningView<'_>, rng: &mut SimRng) -> ControlPlan {
        timed(Method::Plan, || self.inner.plan(round, view, rng))
    }
    fn plan_indexed(
        &mut self,
        round: usize,
        view: &PlanningView<'_>,
        index: &CapacityIndex,
        rng: &mut SimRng,
    ) -> ControlPlan {
        timed(Method::PlanIndexed, || {
            self.inner.plan_indexed(round, view, index, rng)
        })
    }
    fn idle_sleep_depth(
        &self,
        host: HostId,
        ip_probability: f64,
        waking_date: Option<SimTime>,
        now: SimTime,
    ) -> SleepDepth {
        timed(Method::IdleSleepDepth, || {
            self.inner
                .idle_sleep_depth(host, ip_probability, waking_date, now)
        })
    }
    fn active_frequency(&self, host: HostId, utilization: f64) -> f64 {
        timed(Method::ActiveFrequency, || {
            self.inner.active_frequency(host, utilization)
        })
    }
    fn observe_qos(&mut self, window: &QosWindow) {
        timed(Method::ObserveQos, || self.inner.observe_qos(window))
    }
    fn allow_suspend(&self, host: HostId) -> bool {
        timed(Method::AllowSuspend, || self.inner.allow_suspend(host))
    }
}

/// Builds standard entry `I` wrapped in a [`TimedPolicy`].
fn build_timed<const I: usize>(cfg: &DcConfig, host: Option<HostId>) -> Box<dyn ControlPolicy> {
    let inner = PolicyRegistry::standard().entries()[I].build(cfg, host);
    Box::new(TimedPolicy { inner })
}

type Factory = fn(&DcConfig, Option<HostId>) -> Box<dyn ControlPolicy>;

const FACTORIES: [Factory; 12] = [
    build_timed::<0>,
    build_timed::<1>,
    build_timed::<2>,
    build_timed::<3>,
    build_timed::<4>,
    build_timed::<5>,
    build_timed::<6>,
    build_timed::<7>,
    build_timed::<8>,
    build_timed::<9>,
    build_timed::<10>,
    build_timed::<11>,
];

/// The standard registry with every entry replaced by its timed twin
/// (same name, label and consolidation-host need).
pub fn timed_registry() -> PolicyRegistry {
    let standard = PolicyRegistry::standard();
    assert!(
        standard.entries().len() <= FACTORIES.len(),
        "the standard registry outgrew the timed factories; add more"
    );
    let mut registry = PolicyRegistry::standard();
    for (e, &factory) in standard.entries().iter().zip(&FACTORIES) {
        registry.register(PolicyEntry::new(
            e.name,
            e.label,
            e.needs_consolidation_host,
            factory,
        ));
    }
    registry
}
