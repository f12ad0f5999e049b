//! Golden values for `mixed-production` scaled to 140 hosts, the size
//! where consolidation walks hundreds of underload candidates per round
//! and most drains fail partway and roll back.
//!
//! The 40-host goldens of `integration_policy_equivalence` rarely reach
//! that rollback path; this test pins it for all four catalog policies
//! (energy bits, migrations, suspend cycles), as
//! `scenarios mixed-production --quick --hosts 140` runs them.

use drowsy_dc::scenarios::{find, run_scenario};

/// `(policy, energy_kwh bits, migrations, suspend cycles)`.
const GOLDEN: [(&str, u64, u32, u64); 4] = [
    ("drowsy-dc", 0x4070e621b29e903b, 213, 114),
    ("neat-s3", 0x40710e39068092bf, 160, 82),
    ("neat", 0x4076a15d93aaf4b9, 160, 0),
    ("oasis", 0x406fe6cf64a2e243, 595, 103),
];

#[test]
fn mixed_production_at_140_hosts_is_pinned() {
    let mut s = find("mixed-production").expect("catalog entry");
    s.days = s.days.min(2); // the binary's --quick cap
    s.scale_to_hosts(140);
    let outcomes = run_scenario(&s, None, 0);
    let got: Vec<(String, u64, u32, u64)> = outcomes
        .iter()
        .map(|o| {
            (
                o.policy.clone(),
                o.outcome.energy_kwh().to_bits(),
                o.outcome.dc.total_migrations(),
                o.outcome.dc.suspend_cycles.iter().map(|&(_, n)| n).sum(),
            )
        })
        .collect();
    let want: Vec<(String, u64, u32, u64)> = GOLDEN
        .iter()
        .map(|&(p, e, m, c)| (p.to_string(), e, m, c))
        .collect();
    for (p, e, m, c) in &got {
        eprintln!("    (\"{p}\", 0x{e:016x}, {m}, {c}),");
    }
    assert_eq!(got, want, "golden drift (actual values printed above)");
}
