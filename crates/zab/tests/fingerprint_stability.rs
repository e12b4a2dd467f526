//! Fingerprint stability: the 128-bit fingerprints of a fixed, deterministic set of
//! `ZabState`s are pinned here, so any change to the state layout or to a container's
//! `Hash` impl that alters the hashed byte stream fails this test instead of silently
//! changing every store key, every guided-sampling bucket and every persisted
//! fingerprint.
//!
//! The pinned values cover:
//! * bounded BFS corpora (2,000 states each) of mSpec-3 on `small(V391)`, of mSpec-3 on
//!   the `exhaust-fix` benchmark configuration, and of SysSpec with one partition (the
//!   only one of the three that exercises fast-leader-election votes and partitions);
//! * seeded pseudo-random walks deep into mSpec-3 and SysSpec (broadcast proposals,
//!   pending acks, crashes, ghost histories);
//! * the canonical representatives of the SysSpec corpus, which pass every state
//!   through the sid-renaming rewrite of each container (the containers' unit tests
//!   check that their `Ord` matches the replaced std containers);
//! * the initial states of the `small`, `table4`, `table5` and `explore` configurations
//!   and of five- and eight-server ensembles.
//!
//! Each set is folded into one fingerprint in enumeration order.

use std::hash::Hasher;

use remix_checker::fingerprint::{fingerprint, Fingerprint, PairHasher};
use remix_checker::{corpus, CorpusOptions};
use remix_spec::{Canonicalize, Spec};
use remix_zab::{ClusterConfig, CodeVersion, SpecPreset, ZabState};

const CORPUS: CorpusOptions = CorpusOptions {
    max_states: 2_000,
    max_depth: 64,
};

/// Folds the fingerprints of `states`, in order, into one fingerprint.
fn fold<'a>(states: impl IntoIterator<Item = &'a ZabState>) -> (usize, Fingerprint) {
    let mut hasher = PairHasher::new();
    let mut count = 0;
    for state in states {
        let fp = fingerprint(state);
        hasher.write_u64(fp.0);
        hasher.write_u64(fp.1);
        count += 1;
    }
    (count, hasher.finish128())
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

fn exhaust_fix_config() -> ClusterConfig {
    ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2)
}

fn partition_config() -> ClusterConfig {
    ClusterConfig::small(CodeVersion::V391).with_partitions(1)
}

/// The pinned sets must hash every kind of container the state holds in a non-empty
/// form, or a layout change to that container could not show up here.
fn assert_reaches_every_container(states: &[ZabState]) {
    let servers = || states.iter().flat_map(|s| s.servers.iter());
    assert!(servers().any(|s| !s.history.is_empty()), "history");
    assert!(servers().any(|s| !s.recv_votes.is_empty()), "recv_votes");
    assert!(servers().any(|s| !s.learners.is_empty()), "learners");
    assert!(
        servers().any(|s| !s.learner_last_zxid.is_empty()),
        "learner_last_zxid"
    );
    assert!(servers().any(|s| !s.epoch_acks.is_empty()), "epoch_acks");
    assert!(servers().any(|s| !s.sync_sent.is_empty()), "sync_sent");
    assert!(
        servers().any(|s| !s.newleader_acks.is_empty()),
        "newleader_acks"
    );
    assert!(
        servers().any(|s| s.pending_acks.values().any(|acks| !acks.is_empty())),
        "pending_acks"
    );
    assert!(
        states.iter().any(|s| !s.partitioned.is_empty()),
        "partitioned"
    );
    assert!(
        states.iter().any(|s| !s.ghost.initial_history.is_empty()),
        "ghost"
    );
}

#[track_caller]
fn assert_pinned(name: &str, got: (usize, Fingerprint), count: usize, fp: (u64, u64)) {
    println!(
        "{name}: {} states, Fingerprint({:#018x}, {:#018x})",
        got.0, got.1 .0, got.1 .1
    );
    assert_eq!(got.0, count, "{name}: state count");
    assert_eq!(got.1, Fingerprint(fp.0, fp.1), "{name}: folded fingerprint");
}

#[test]
fn mspec3_small_corpus_fingerprints_are_pinned() {
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::small(CodeVersion::V391));
    let states = corpus(&spec, CORPUS);
    assert_pinned(
        "mspec3-small",
        fold(&states),
        2_000,
        (0x342a694149b879fa, 0x2b649c337ffd09b2),
    );
}

#[test]
fn exhaust_fix_corpus_fingerprints_are_pinned() {
    let spec = SpecPreset::MSpec3.build(&exhaust_fix_config());
    let states = corpus(&spec, CORPUS);
    assert_pinned(
        "exhaust-fix",
        fold(&states),
        2_000,
        (0xd29ac6fbca3b330c, 0x91d2cf5f6dc8af1d),
    );
}

#[test]
fn sysspec_partition_corpus_and_canonical_fingerprints_are_pinned() {
    let spec = SpecPreset::SysSpec.build(&partition_config());
    let states = corpus(&spec, CORPUS);
    assert_pinned(
        "sysspec-partition",
        fold(&states),
        2_000,
        (0xe853b21003f1e59a, 0xa1d4ff90414d4a62),
    );
    let canonical: Vec<ZabState> = states.iter().map(|s| s.canonicalize().0).collect();
    assert_pinned(
        "sysspec-partition-canon",
        fold(&canonical),
        2_000,
        (0xbafa57ca93c8cf33, 0xacb06707e94b11e4),
    );
}

#[test]
fn random_walk_fingerprints_are_pinned() {
    let spec = SpecPreset::MSpec3.build(&ClusterConfig::table4(CodeVersion::V391));
    let visited = walks(&spec, 16, 60);
    assert_pinned(
        "mspec3-walks",
        fold(&visited),
        571,
        (0x2a1a77e7a973a3cd, 0xe439c1fb3eda7382),
    );
    let spec = SpecPreset::SysSpec.build(&partition_config());
    let visited = walks(&spec, 16, 60);
    assert_reaches_every_container(&visited);
    assert_pinned(
        "sysspec-walks",
        fold(&visited),
        866,
        (0x6c2e53baa5ee2b47, 0x19163d66d72a6a44),
    );
}

#[test]
fn initial_state_fingerprints_are_pinned() {
    let v = CodeVersion::V391;
    let five = ClusterConfig {
        num_servers: 5,
        ..ClusterConfig::small(v)
    };
    let eight = ClusterConfig {
        num_servers: 8,
        ..ClusterConfig::small(v)
    };
    let initial: Vec<ZabState> = [
        ClusterConfig::small(v),
        ClusterConfig::table4(v),
        ClusterConfig::table5(v),
        ClusterConfig::explore(v),
        five,
        eight,
    ]
    .iter()
    .map(ZabState::initial)
    .collect();
    assert_pinned(
        "initial",
        fold(&initial),
        6,
        (0xce2d0de646bdf077, 0x90954e96576caf19),
    );
}
