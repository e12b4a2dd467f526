//! The corpus micro-probe: per-call costs of the engine layers that cannot be wrapped
//! from outside (state clone, fingerprint, store insert, label interning, the two
//! canonicalization paths, projection), measured over a `checker::corpus` of the
//! workload's spec.  Each figure is the interquartile mean over the corpus of one call's
//! time.

use std::hint::black_box;
use std::time::Instant;

use remix_checker::{corpus, fingerprint, CorpusOptions, StateStore, StoreMode};
use remix_core::Composer;
use remix_spec::{Canonicalize, IncrementalCanonicalize, LabelTable, Spec, TraceProjection};
use remix_zab::{projection_between, ClusterConfig, CodeVersion, SpecPreset, ZabState};

use crate::workloads::Workload;

/// States in each probe corpus.
const CORPUS_STATES: usize = 2_000;

/// Per-call costs (interquartile means), in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// `Spec::successors` per generated successor.
    pub successors_us: f64,
    pub clone_us: f64,
    pub fingerprint_us: f64,
    /// `Canonicalize::canonicalize_owned`.
    pub canon_full_us: f64,
    /// `IncrementalCanonicalize::canonicalize_incremental`, parent memo excluded.
    pub canon_incremental_us: f64,
    /// A fresh `StateStore` insert in the workload's store mode.
    pub store_insert_us: f64,
    pub label_intern_us: f64,
    pub project_us: f64,
}

/// The mean of the middle half of `v`: as robust to outliers as the median, but not
/// quantised to the clock's nanoseconds, so two runs do not read the same by accident.
fn interquartile_mean(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The spec, projection and store mode each workload's probe runs on.
fn subject(workload: Workload) -> (Spec<ZabState>, TraceProjection<ZabState>, StoreMode) {
    let (preset, config, mode) = match workload {
        Workload::ExhaustFix => (
            SpecPreset::MSpec3,
            ClusterConfig::small(CodeVersion::FinalFix)
                .with_transactions(1)
                .with_crashes(2),
            StoreMode::Full,
        ),
        Workload::Bughunt => (
            SpecPreset::MSpec3,
            ClusterConfig::small(CodeVersion::V391),
            StoreMode::FingerprintOnly,
        ),
        Workload::Refine => (
            SpecPreset::SysSpec,
            ClusterConfig::small(CodeVersion::V391)
                .with_transactions(1)
                .with_crashes(0),
            StoreMode::Full,
        ),
        Workload::Sample => (
            SpecPreset::MSpec3,
            ClusterConfig::explore(CodeVersion::V391),
            StoreMode::Full,
        ),
    };
    let spec = Composer::new(config)
        .compose_preset(preset)
        .expect("preset composes")
        .spec;
    let projection = projection_between(&preset.plan(), &SpecPreset::MSpec1.plan(), &config)
        .expect("every probed preset refines mSpec-1");
    (spec, projection, mode)
}

/// Runs the probe for `workload`.
pub fn run(workload: Workload) -> Probe {
    let (spec, projection, mode) = subject(workload);
    let states = corpus(
        &spec,
        CorpusOptions {
            max_states: CORPUS_STATES,
            max_depth: 64,
        },
    );

    let mut successors = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for s in &states {
        let t = Instant::now();
        let out = black_box(spec.successors(black_box(s)));
        let dt = us(t);
        if !out.is_empty() {
            successors.push(dt / out.len() as f64);
        }
        labels.extend(out.into_iter().map(|(l, _)| l));
    }

    let mut clone = Vec::new();
    let mut fp = Vec::new();
    let mut project = Vec::new();
    let mut full = Vec::new();
    for s in &states {
        let t = Instant::now();
        let c = black_box(s.clone());
        clone.push(us(t));
        let t = Instant::now();
        black_box(fingerprint(black_box(s)));
        fp.push(us(t));
        let t = Instant::now();
        let projected = black_box(projection.project_state(black_box(s)));
        project.push(us(t));
        drop(projected);
        let t = Instant::now();
        let canonical = black_box(c.canonicalize_owned());
        full.push(us(t));
        drop(canonical);
    }

    // The incremental path canonicalizes successors of a canonical parent, reusing the
    // parent's memo for the servers the successor's footprint leaves untouched.
    let mut incremental = Vec::new();
    for s in &states {
        let parent = s.canonicalize().0;
        let memo = parent.canon_memo();
        for action in spec.actions() {
            for inst in action.enabled(&parent) {
                let Some(effect) = inst.effect.filter(|e| !e.is_global()) else {
                    continue;
                };
                let touched = effect.touched_servers();
                let t = Instant::now();
                let canonical = black_box(inst.next.canonicalize_incremental(&memo, touched));
                incremental.push(us(t));
                drop(canonical);
            }
        }
    }

    let store: StateStore<ZabState> = StateStore::new(mode, 64);
    let mut insert = Vec::new();
    for s in &states {
        let fp = fingerprint(s);
        let owned = s.clone();
        let t = Instant::now();
        let mut shard = store.lock_shard(store.shard_of(fp));
        let inserted = black_box(shard.insert(fp, None, LabelTable::init_id(), owned));
        drop(shard);
        insert.push(us(t));
        drop(inserted);
    }

    let table = LabelTable::new();
    let mut intern = Vec::with_capacity(labels.len());
    for l in &labels {
        let t = Instant::now();
        black_box(table.intern(black_box(l)));
        intern.push(us(t));
    }

    Probe {
        successors_us: interquartile_mean(successors),
        clone_us: interquartile_mean(clone),
        fingerprint_us: interquartile_mean(fp),
        canon_full_us: interquartile_mean(full),
        canon_incremental_us: interquartile_mean(incremental),
        store_insert_us: interquartile_mean(insert),
        label_intern_us: interquartile_mean(intern),
        project_us: interquartile_mean(project),
    }
}
