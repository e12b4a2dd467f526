//! Projection-class pins: the refinement checker compares states by their projected
//! class, so any change to how a `ZabState` projects — which fields are visible, how
//! they render, which states are stable — would silently move every refinement
//! verdict, projection count and edge count.  The pinned values cover:
//!
//! * bounded BFS corpora (2,000 states each) of SysSpec, mSpec-2 and mSpec-4 on
//!   `small(V391).with_transactions(1)`, projected against mSpec-1 via
//!   `projection_between` — the election-only, sync-only and combined normalizations;
//! * per corpus: the number of stable states, the number of distinct projections, a
//!   digest of the sorted class sizes and a digest of every stable state's rendering;
//! * the full rendering of fixed states;
//! * the `projection` string of the §2.2.3 residual divergence (mSpec-4 against
//!   SysSpec on the final-fix version).
//!
//! Two further checks tie the typed view to its rendering: over every pinned set, two
//! `ZabView`s are equal exactly when their `vars()` renderings are, and a projection
//! rebuilt around forwarding closures reproduces a refinement run exactly.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hasher;
use std::time::Duration;

use remix_checker::fingerprint::PairHasher;
use remix_checker::{
    check_refinement, corpus, CorpusOptions, DivergenceKind, RefineDivergence, RefineOptions,
    RefineOutcome, RefineStats, RefineVerdict,
};
use remix_spec::{Projected, Spec, TraceProjection, Value};
use remix_zab::{
    projection_between, ClusterConfig, CodeVersion, ProjectionSpec, SpecPreset, ZabState, ZabView,
};

const CORPUS: CorpusOptions = CorpusOptions {
    max_states: 2_000,
    max_depth: 64,
};

fn config() -> ClusterConfig {
    ClusterConfig::small(CodeVersion::V391).with_transactions(1)
}

/// The projected variables of `state`.
fn vars(projection: &TraceProjection<ZabState>, state: &ZabState) -> BTreeMap<String, Value> {
    projection.project_state(state).vars()
}

/// Renders projected variables the way refinement divergence reports do.
fn render(vars: &BTreeMap<String, Value>) -> String {
    let fields: Vec<String> = vars.iter().map(|(k, v)| format!("{k} = {v}")).collect();
    format!("[{}]", fields.join(", "))
}

/// Which states of a preset a pin covers.
#[derive(Debug, Clone, Copy)]
enum Set {
    /// The bounded BFS corpus.
    Corpus,
    /// Deterministic pseudo-random walks, which reach the broadcast phase.
    Walks,
}

/// `walks` deterministic pseudo-random walks of up to `depth` steps from the first
/// initial state; returns every visited state in visiting order.
fn walks(spec: &Spec<ZabState>, walks: usize, depth: usize) -> Vec<ZabState> {
    let mut rng: u64 = 0x2545_f491_4f6c_dd1d;
    let mut visited = Vec::new();
    for _ in 0..walks {
        let mut state = spec.init[0].clone();
        visited.push(state.clone());
        for _ in 0..depth {
            let successors = spec.successors(&state);
            if successors.is_empty() {
                break;
            }
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (rng >> 33) as usize % successors.len();
            state = successors.into_iter().nth(pick).expect("in range").1;
            visited.push(state.clone());
        }
    }
    visited
}

/// The states of `preset` a pin covers, and the preset's projection against mSpec-1.
fn subject(preset: SpecPreset, set: Set) -> (Vec<ZabState>, TraceProjection<ZabState>) {
    let config = config();
    let spec = preset.build(&config);
    let projection = projection_between(&preset.plan(), &SpecPreset::MSpec1.plan(), &config)
        .expect("the preset refines to mSpec-1");
    let states = match set {
        Set::Corpus => corpus(&spec, CORPUS),
        Set::Walks => walks(&spec, 40, 60),
    };
    (states, projection)
}

/// What the pins record about one corpus.
#[derive(Debug, PartialEq, Eq)]
struct Classes {
    states: usize,
    stable: usize,
    distinct: usize,
    largest: usize,
    /// Sorted class sizes, folded.
    sizes_digest: u64,
    /// Every stable state's rendering, in corpus order, folded.
    render_digest: u64,
}

fn classes(preset: SpecPreset, set: Set) -> Classes {
    let (states, projection) = subject(preset, set);
    let mut sizes: BTreeMap<BTreeMap<String, Value>, usize> = BTreeMap::new();
    let mut rendered = PairHasher::new();
    let mut stable = 0;
    for state in states.iter().filter(|s| projection.is_stable(s)) {
        stable += 1;
        let vars = vars(&projection, state);
        rendered.write(render(&vars).as_bytes());
        *sizes.entry(vars).or_default() += 1;
    }
    let mut sizes: Vec<usize> = sizes.into_values().collect();
    sizes.sort_unstable();
    let mut folded = PairHasher::new();
    for &size in &sizes {
        folded.write_usize(size);
    }
    Classes {
        states: states.len(),
        stable,
        distinct: sizes.len(),
        largest: sizes.last().copied().unwrap_or(0),
        sizes_digest: folded.finish128().0,
        render_digest: rendered.finish128().0,
    }
}

#[test]
fn election_only_classes_are_pinned() {
    assert_eq!(
        classes(SpecPreset::SysSpec, Set::Corpus),
        Classes {
            states: 2000,
            stable: 1821,
            distinct: 5,
            largest: 702,
            sizes_digest: 0xe5b9ac9f33e0d2e7,
            render_digest: 0x66cf11e8dd48b8c9,
        }
    );
    assert_eq!(
        classes(SpecPreset::SysSpec, Set::Walks),
        Classes {
            states: 1631,
            stable: 1007,
            distinct: 137,
            largest: 363,
            sizes_digest: 0x655d4ba11cf157f7,
            render_digest: 0xe4d923fe871894dc,
        }
    );
}

#[test]
fn sync_only_classes_are_pinned() {
    assert_eq!(
        classes(SpecPreset::MSpec2, Set::Corpus),
        Classes {
            states: 2000,
            stable: 916,
            distinct: 795,
            largest: 4,
            sizes_digest: 0x5afcd1be9b276ced,
            render_digest: 0xd40073d0f27e8ad0,
        }
    );
    assert_eq!(
        classes(SpecPreset::MSpec2, Set::Walks),
        Classes {
            states: 671,
            stable: 382,
            distinct: 130,
            largest: 40,
            sizes_digest: 0x211c49c9347506df,
            render_digest: 0x69616738a91c8666,
        }
    );
}

#[test]
fn combined_normalization_classes_are_pinned() {
    assert_eq!(
        classes(SpecPreset::MSpec4, Set::Corpus),
        Classes {
            states: 2000,
            stable: 1821,
            distinct: 5,
            largest: 702,
            sizes_digest: 0xe5b9ac9f33e0d2e7,
            render_digest: 0x66cf11e8dd48b8c9,
        }
    );
    assert_eq!(
        classes(SpecPreset::MSpec4, Set::Walks),
        Classes {
            states: 2068,
            stable: 753,
            distinct: 66,
            largest: 391,
            sizes_digest: 0x2d6688b9826622f4,
            render_digest: 0xb389ee747943390e,
        }
    );
}

#[test]
fn fixed_renderings_are_pinned() {
    for (preset, set, expected) in [
        (
            SpecPreset::SysSpec,
            Set::Corpus,
            r#"[crashBudget = 0, ghost = [broadcast |-> <<>>, duplicate |-> FALSE, establishedLeaders |-> <<>>, initialHistory |-> <<>>], msgs = <<>>, partitionBudget = 0, partitions = {}, servers = <<[committedRequests |-> <<>>, history |-> <<>>, lastCommitted |-> 0, queuedRequests |-> <<>>, state |-> "Down"], [committedRequests |-> <<>>, history |-> <<>>, lastCommitted |-> 0, queuedRequests |-> <<>>, state |-> "Looking"], [committedRequests |-> <<>>, history |-> <<>>, lastCommitted |-> 0, queuedRequests |-> <<>>, state |-> "Looking"]>>, txnBudget = 0, violation = "None"]"#,
        ),
        (
            SpecPreset::MSpec2,
            Set::Walks,
            r#"[crashBudget = 0, ghost = [broadcast |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, duplicate |-> FALSE, establishedLeaders |-> <<[epoch |-> 1, leader |-> 2]>>, initialHistory |-> <<[epoch |-> 1, history |-> <<>>]>>], msgs = <<>>, partitionBudget = 0, partitions = {}, servers = <<[acceptedEpoch |-> 1, ackeRecv |-> {}, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> FALSE, established |-> FALSE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, learners |-> {}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Following", syncSent |-> {}, zabState |-> "Broadcast"], [acceptedEpoch |-> 1, ackeRecv |-> {}, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> FALSE, established |-> FALSE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, learners |-> {}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Following", syncSent |-> {}, zabState |-> "Broadcast"], [acceptedEpoch |-> 1, ackeRecv |-> {0, 1}, ackldRecv |-> {0, 1}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> TRUE, established |-> TRUE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, learners |-> {0, 1}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Leading", syncSent |-> {0, 1}, zabState |-> "Broadcast"]>>, txnBudget = 1, violation = "None"]"#,
        ),
        (
            SpecPreset::MSpec4,
            Set::Walks,
            r#"[crashBudget = 0, ghost = [broadcast |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, duplicate |-> FALSE, establishedLeaders |-> <<[epoch |-> 1, leader |-> 2]>>, initialHistory |-> <<[epoch |-> 1, history |-> <<>>]>>], msgs = <<>>, partitionBudget = 0, partitions = {}, servers = <<[acceptedEpoch |-> 1, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> FALSE, established |-> FALSE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Following", syncSent |-> {}, zabState |-> "Broadcast"], [acceptedEpoch |-> 1, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 0, epochProposed |-> FALSE, established |-> FALSE, history |-> <<>>, lastCommitted |-> 0, leaderAddr |-> 2, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> FALSE, state |-> "Following", syncSent |-> {}, zabState |-> "Synchronization"], [acceptedEpoch |-> 1, ackldRecv |-> {0}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> TRUE, established |-> TRUE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Leading", syncSent |-> {0}, zabState |-> "Broadcast"]>>, txnBudget = 1, violation = "None"]"#,
        ),
    ] {
        // The last stable state of the set: the deepest one of a walk set.
        let (states, projection) = subject(preset, set);
        let state = states
            .iter()
            .rev()
            .find(|s| projection.is_stable(s))
            .expect("every set has a stable state");
        assert_eq!(
            render(&vars(&projection, state)),
            expected,
            "{preset:?} {set:?}"
        );
    }
}

/// The normalizations `projection_between` derives for `preset` against mSpec-1.
fn normalizations(preset: SpecPreset) -> ProjectionSpec {
    ProjectionSpec {
        normalize_election: matches!(preset, SpecPreset::SysSpec | SpecPreset::MSpec4),
        normalize_sync: matches!(preset, SpecPreset::MSpec2 | SpecPreset::MSpec4),
    }
}

#[test]
fn views_are_equal_exactly_when_their_renderings_are() {
    for preset in [SpecPreset::SysSpec, SpecPreset::MSpec2, SpecPreset::MSpec4] {
        for set in [Set::Corpus, Set::Walks] {
            let (states, projection) = subject(preset, set);
            let spec = normalizations(preset);
            let mut by_view: HashMap<ZabView, BTreeMap<String, Value>> = HashMap::new();
            let mut by_vars: BTreeMap<BTreeMap<String, Value>, ZabView> = BTreeMap::new();
            let mut keys = HashSet::new();
            for state in &states {
                let view = ZabView::of(state, spec);
                let vars = view.vars();
                assert_eq!(
                    projection.project_state(state).key(),
                    view.key(),
                    "{preset:?}: the projection keys on this view"
                );
                keys.insert(view.key());
                if let Some(prev) = by_view.insert(view.clone(), vars.clone()) {
                    assert_eq!(prev, vars, "{preset:?} {set:?}: equal views render equally");
                }
                if let Some(prev) = by_vars.insert(vars, view.clone()) {
                    assert_eq!(
                        prev, view,
                        "{preset:?} {set:?}: equal renderings come from equal views"
                    );
                }
            }
            assert_eq!(by_view.len(), by_vars.len(), "{preset:?} {set:?}");
            assert_eq!(
                keys.len(),
                by_view.len(),
                "{preset:?} {set:?}: no two distinct views share a key"
            );
        }
    }
}

/// `original` rebuilt around forwarding closures, the way per-layer tracing wraps a
/// projection to time it.
fn rebuilt(original: &TraceProjection<ZabState>) -> TraceProjection<ZabState> {
    let (p1, p2, p3) = (original.clone(), original.clone(), original.clone());
    let wrapped = TraceProjection::identity(original.name.clone(), original.coarse, original.fine)
        .with_state(move |s: &ZabState| p1.project_state(s))
        .with_label(move |l: &str| p2.project_label(l))
        .with_stability(move |s: &ZabState| p3.is_stable(s));
    if original.is_equivariant() {
        wrapped.assume_equivariant()
    } else {
        wrapped
    }
}

#[test]
fn rebuilt_projection_reproduces_the_refinement_run() {
    // mSpec-2 against mSpec-1 on four servers, one transaction and no crashes.
    let config = ClusterConfig {
        num_servers: 4,
        ..config().with_crashes(0)
    };
    let (fine, coarse) = (SpecPreset::MSpec2, SpecPreset::MSpec1);
    let original = projection_between(&fine.plan(), &coarse.plan(), &config)
        .expect("mSpec-2 refines to mSpec-1");
    let (fine, coarse) = (fine.build(&config), coarse.build(&config));
    let options = RefineOptions::default();
    let direct = check_refinement(&fine, &coarse, &original, &options);
    let wrapped = check_refinement(&fine, &coarse, &rebuilt(&original), &options);
    assert_eq!(direct.verdict(), RefineVerdict::Refines, "{direct}");
    assert_eq!(wrapped.verdict(), direct.verdict());
    let untimed = |stats: &RefineStats| RefineStats {
        elapsed: Duration::ZERO,
        ..stats.clone()
    };
    assert_eq!(untimed(&wrapped.stats), untimed(&direct.stats));
    assert_eq!(
        (
            direct.stats.fine_states,
            direct.stats.coarse_states,
            direct.stats.fine_projections,
            direct.stats.edges_checked
        ),
        (1_103, 902, 333, 1_913)
    );
}

/// mSpec-4 against SysSpec on the final-fix version with `workers` expansion threads.
fn residual_divergence(workers: usize) -> RefineOutcome<ZabState> {
    let config = ClusterConfig {
        max_transactions: 1,
        max_crashes: 0,
        ..ClusterConfig::small(CodeVersion::FinalFix)
    };
    let (fine, coarse) = (SpecPreset::MSpec4, SpecPreset::SysSpec);
    let projection = projection_between(&fine.plan(), &coarse.plan(), &config)
        .expect("mSpec-4 refines to SysSpec");
    check_refinement(
        &fine.build(&config),
        &coarse.build(&config),
        &projection,
        &RefineOptions::default()
            .with_workers(workers)
            .with_time_budget(Duration::from_secs(120)),
    )
}

/// The pins every worker count must reproduce: counts, kind, original depth and the
/// rendered projection.  Returns the divergence for witness checks.
fn assert_residual_divergence_pins(outcome: RefineOutcome<ZabState>) -> RefineDivergence<ZabState> {
    // The fine side stops at the first level with a missing projection; its counts
    // depend only on which states share a projected class.
    let stats = &outcome.stats;
    assert_eq!(
        (stats.fine_states, stats.coarse_states),
        (69_395, 65_653),
        "{outcome}"
    );
    assert_eq!(
        (stats.fine_projections, stats.coarse_projections),
        (5_774, 5_952)
    );
    // Edges are matched level by level, each level in projection-key order, and the
    // check stops at the first unmatched edge.  The 64,282 edges of the levels before
    // the divergence level are all checked; how many of that level's 2,356 edges come
    // before its first unmatched one depends on the 64-bit key values.
    assert!(
        (64_282 + 1..=64_282 + 2_356).contains(&stats.edges_checked),
        "{}",
        stats.edges_checked
    );
    let divergence = outcome.divergence.expect("§2.2.3 divergence");
    assert_eq!(divergence.kind, DivergenceKind::MissingInCoarse);
    assert_eq!(divergence.original_depth, 32);
    assert_eq!(divergence.projection, RESIDUAL_PROJECTION);
    divergence
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn residual_divergence_projection_is_pinned() {
    let divergence = assert_residual_divergence_pins(residual_divergence(1));
    // One worker explores in a fixed order, so the shrunk witness itself is pinned.
    let mut labels = PairHasher::new();
    for label in divergence.witness.action_labels() {
        labels.write(label.as_bytes());
        labels.write_u8(0);
    }
    assert_eq!(
        (divergence.witness.depth(), labels.finish128().0),
        (32, 10_042_041_461_412_684_505),
        "{}",
        divergence.witness
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn residual_divergence_is_pinned_under_two_workers() {
    // The witness path may differ with several workers; everything else may not.
    let divergence = assert_residual_divergence_pins(residual_divergence(2));
    assert!(divergence.witness.depth() <= divergence.original_depth);
}

/// R2 of the benchmark's `refine` workload: mSpec-2 against mSpec-1 on three servers,
/// one transaction and one crash, with `workers` expansion threads.
fn r2_stats(workers: usize) -> (RefineVerdict, RefineStats) {
    let config = config().with_crashes(1);
    let (fine, coarse) = (SpecPreset::MSpec2, SpecPreset::MSpec1);
    let projection = projection_between(&fine.plan(), &coarse.plan(), &config)
        .expect("mSpec-2 refines to mSpec-1");
    let outcome = check_refinement(
        &fine.build(&config),
        &coarse.build(&config),
        &projection,
        &RefineOptions::default().with_workers(workers),
    );
    (outcome.verdict(), outcome.stats)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "expensive dual exploration; use --release")]
fn r2_counts_are_pinned_for_one_and_two_workers() {
    for workers in [1, 2] {
        let (verdict, stats) = r2_stats(workers);
        assert_eq!(verdict, RefineVerdict::Refines, "workers = {workers}");
        assert_eq!(
            (
                stats.fine_states,
                stats.coarse_states,
                stats.fine_projections,
                stats.coarse_projections,
                stats.edges_checked
            ),
            (9_274, 7_894, 2_327, 2_327, 5_818),
            "workers = {workers}"
        );
    }
}

/// The rendered projection of the residual divergence.
const RESIDUAL_PROJECTION: &str = r#"[crashBudget = 0, ghost = [broadcast |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, duplicate |-> FALSE, establishedLeaders |-> <<[epoch |-> 1, leader |-> 2]>>, initialHistory |-> <<[epoch |-> 1, history |-> <<>>]>>], msgs = <<[from |-> 0, queue |-> <<"Notification { vote: Vote { epoch: 0, zxid: Zxid { epoch: 0, counter: 0 }, leader: 2 } }">>, to |-> 1], [from |-> 1, queue |-> <<"Notification { vote: Vote { epoch: 0, zxid: Zxid { epoch: 0, counter: 0 }, leader: 2 } }">>, to |-> 0], [from |-> 2, queue |-> <<"Commit { zxid: Zxid { epoch: 1, counter: 1 } }">>, to |-> 0], [from |-> 2, queue |-> <<"UpToDate { zxid: Zxid { epoch: 0, counter: 0 } }", "Proposal { txn: Txn { zxid: Zxid { epoch: 1, counter: 1 }, value: 1 } }", "Commit { zxid: Zxid { epoch: 1, counter: 1 } }">>, to |-> 1]>>, partitionBudget = 0, partitions = {}, servers = <<[acceptedEpoch |-> 1, ackeRecv |-> {}, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> FALSE, established |-> FALSE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, learners |-> {}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Following", syncSent |-> {}, zabState |-> "Broadcast"], [acceptedEpoch |-> 1, ackeRecv |-> {}, ackldRecv |-> {}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> FALSE, established |-> FALSE, history |-> <<>>, lastCommitted |-> 0, leaderAddr |-> 2, learners |-> {}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> FALSE, state |-> "Following", syncSent |-> {}, zabState |-> "Synchronization"], [acceptedEpoch |-> 1, ackeRecv |-> {0, 1}, ackldRecv |-> {0, 1}, committedRequests |-> <<>>, currentEpoch |-> 1, epochProposed |-> TRUE, established |-> TRUE, history |-> <<[value |-> 1, zxid |-> [counter |-> 1, epoch |-> 1]]>>, lastCommitted |-> 1, leaderAddr |-> 2, learners |-> {0, 1}, packetsSync |-> [committed |-> <<>>, notCommitted |-> <<>>], proposalAcks |-> <<>>, queuedRequests |-> <<>>, serving |-> TRUE, state |-> "Leading", syncSent |-> {0, 1}, zabState |-> "Broadcast"]>>, txnBudget = 1, violation = "None"]"#;
