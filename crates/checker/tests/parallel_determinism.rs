//! Regression tests: the parallel BFS engine must explore exactly the state space the
//! sequential engine explores, and report violations at the same (minimal) depth; a
//! refinement check must report the same verdict, counts and divergence for every
//! worker count and schedule.
//!
//! These run on a small Zab preset rather than a toy spec so the whole production path —
//! composed mixed-grained specification, sharded fingerprint set, per-worker batch
//! buffers, work-stealing frontier split — is exercised end to end.

use std::sync::Arc;
use std::time::Duration;

use remix_checker::sync::perturb;
use remix_checker::{
    check_bfs, check_refinement, CheckOptions, DivergenceKind, RefineOptions, RefineOutcome,
    RefineStats, RefineVerdict, SpillConfig,
};
use remix_zab::{
    coarse_vs_baseline, projection_between, ClusterConfig, CodeVersion, ServerState, SpecPreset,
    ZabState,
};

fn options(workers: usize) -> CheckOptions {
    CheckOptions::default()
        .with_workers(workers)
        .with_time_budget(Duration::from_secs(300))
        .with_max_states(500_000)
}

#[test]
fn parallel_and_sequential_bfs_exhaust_the_same_state_space() {
    // The final-fix implementation passes mSpec-1 on a one-transaction, crash-free
    // configuration, so both runs must exhaust the same (small) reachable set.
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(0);
    let spec = SpecPreset::MSpec1.build(&config);
    let seq = check_bfs(&spec, &options(1));
    let par = check_bfs(&spec, &options(4));
    assert_eq!(
        seq.stop_reason, par.stop_reason,
        "both runs must exhaust the space"
    );
    assert_eq!(seq.stats.distinct_states, par.stats.distinct_states);
    assert_eq!(seq.stats.max_depth, par.stats.max_depth);
    assert_eq!(seq.stats.transitions, par.stats.transitions);
    assert!(seq.passed() && par.passed());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "expensive model-checking run; use --release"
)]
fn parallel_and_sequential_bfs_find_the_first_violation_at_the_same_depth() {
    // v3.9.1 violates mSpec-3's fine-grained invariants; BFS minimal-depth guarantees
    // must hold regardless of the worker count.
    let config = ClusterConfig::small(CodeVersion::V391);
    let spec = SpecPreset::MSpec3.build(&config);
    let seq = check_bfs(&spec, &options(1));
    let par = check_bfs(&spec, &options(4));
    assert!(
        !seq.passed() && !par.passed(),
        "both runs must find the violation"
    );
    let seq_v = seq.first_violation().unwrap();
    let par_v = par.first_violation().unwrap();
    assert_eq!(
        seq_v.depth, par_v.depth,
        "violation depth must be minimal in both engines"
    );
    // The *invariant id* is deliberately not asserted: several invariants can be
    // violated at the same minimal depth, and which violating states get recorded
    // before the stop propagates depends on worker scheduling.  The depth is the BFS
    // contract.
    assert_eq!(
        par_v.trace.depth(),
        par_v.depth as usize,
        "trace reconstruction matches depth"
    );
}

/// What a refinement run reports that may not depend on the worker count or the
/// schedule: the verdict, every `RefineStats` count, and the divergence's kind,
/// rendered projection and original depth.  The witness path may differ.
fn refine_signature(
    outcome: &RefineOutcome<ZabState>,
) -> (
    RefineVerdict,
    RefineStats,
    Option<(DivergenceKind, String, usize)>,
) {
    let stats = RefineStats {
        elapsed: Duration::ZERO,
        ..outcome.stats.clone()
    };
    let divergence = outcome
        .divergence
        .as_ref()
        .map(|d| (d.kind, d.projection.clone(), d.original_depth));
    (outcome.verdict(), stats, divergence)
}

/// Runs `check` at 1, 2 and 4 workers, then at 2 and 4 workers under three
/// schedule-perturbation seeds, and requires one signature throughout.
fn assert_refinement_is_schedule_independent(
    check: impl Fn(usize) -> RefineOutcome<ZabState>,
) -> RefineOutcome<ZabState> {
    let baseline = check(1);
    let expected = refine_signature(&baseline);
    for workers in [2, 4] {
        assert_eq!(
            refine_signature(&check(workers)),
            expected,
            "workers = {workers}"
        );
    }
    for seed in [3, 17, 0x5eed] {
        let _guard = perturb::install(seed);
        for workers in [2, 4] {
            assert_eq!(
                refine_signature(&check(workers)),
                expected,
                "workers = {workers}, perturbation seed {seed:#x}"
            );
        }
    }
    baseline
}

fn refine_options(workers: usize) -> RefineOptions {
    // The spill tier's probe counters depend on when a stripe flushes relative to
    // each insert, so the comparison keeps the store in RAM.
    RefineOptions::default()
        .with_workers(workers)
        .with_time_budget(Duration::from_secs(300))
        .with_spill(SpillConfig::in_ram())
}

#[test]
fn refinement_is_schedule_independent_on_a_refining_pair() {
    // mSpec-2 against mSpec-1 on four servers, one transaction and no crashes.
    let config = ClusterConfig {
        num_servers: 4,
        ..ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(0)
    };
    let (fine, coarse) = (SpecPreset::MSpec2, SpecPreset::MSpec1);
    let projection = projection_between(&fine.plan(), &coarse.plan(), &config)
        .expect("mSpec-2 refines to mSpec-1");
    let (fine, coarse) = (fine.build(&config), coarse.build(&config));
    let outcome = assert_refinement_is_schedule_independent(|workers| {
        check_refinement(&fine, &coarse, &projection, &refine_options(workers))
    });
    assert_eq!(outcome.verdict(), RefineVerdict::Refines, "{outcome}");
}

#[test]
fn refinement_is_schedule_independent_on_a_diverging_pair() {
    // SysSpec against an mSpec-1 whose ElectionAndDiscovery action drops the new
    // leader's epoch commit: the fine side reaches projections the coarse side lacks.
    let config = ClusterConfig {
        max_transactions: 0,
        max_crashes: 0,
        ..ClusterConfig::small(CodeVersion::V391)
    };
    let fine = SpecPreset::SysSpec.build(&config);
    let mut coarse = SpecPreset::MSpec1.build(&config);
    for action in coarse.modules.iter_mut().flat_map(|m| m.actions.iter_mut()) {
        if action.name != "ElectionAndDiscovery" {
            continue;
        }
        let original = Arc::clone(&action.successors);
        action.successors = Arc::new(move |s: &ZabState| {
            let mut instances = original(s);
            for inst in &mut instances {
                for (i, sv) in inst.next.servers.iter_mut().enumerate() {
                    if sv.state == ServerState::Leading
                        && s.servers[i].state == ServerState::Looking
                    {
                        sv.current_epoch = s.servers[i].current_epoch;
                    }
                }
            }
            instances
        });
    }
    let projection = coarse_vs_baseline(&config);
    let outcome = assert_refinement_is_schedule_independent(|workers| {
        check_refinement(&fine, &coarse, &projection, &refine_options(workers))
    });
    let divergence = outcome.divergence.expect("the sabotage must be caught");
    assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse);
}
