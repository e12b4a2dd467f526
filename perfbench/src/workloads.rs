//! The four workloads, their jobs, and the known answer every job is gated on.
//!
//! Every job is closed-loop: the next one starts when the previous verdict returns.
//! Each job is split into a timed set-up (spec composition, verifier and projection
//! construction) and a timed check (first checker call to verdict).  Every checker
//! option is set explicitly, so the `REMIX_*` environment hooks cannot change a run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use remix_checker::explore::{DEFAULT_COVERAGE_SHARDS, DEFAULT_PREFIX_BITS};
use remix_checker::{
    check_bfs, check_refinement, explore, CheckMode, CheckOptions, ExploreOptions, Guidance,
    RefineMode, RefineOptions, SpillConfig, StopReason, StoreMode, SymmetryMode,
};
use remix_core::{
    Composer, ConformanceChecker, ConformanceOptions, VerificationRun, Verifier, VerifierOptions,
};
use remix_spec::{Spec, TraceProjection};
use remix_zab::{projection_between, ClusterConfig, CodeVersion, SpecPreset, ZabState};

use crate::layers::{wrap_projection, wrap_spec, Spans};

/// Checker worker threads of the multi-threaded jobs.
pub const WORKERS: usize = 2;
/// Lock stripes of every discovered-state set.
const SHARDS: usize = 64;
/// Successors buffered per stripe before a merge.
const BATCH: usize = 128;
/// Per-job wall-clock cap: a job still undecided after it counts as failed.
const JOB_BUDGET: Duration = Duration::from_secs(120);
/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExhaustFix,
    Bughunt,
    Refine,
    Sample,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExhaustFix,
        Workload::Bughunt,
        Workload::Refine,
        Workload::Sample,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExhaustFix => "exhaust-fix",
            Workload::Bughunt => "bughunt",
            Workload::Refine => "refine",
            Workload::Sample => "sample",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// vCPUs the workload's checker calls keep busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::Sample => 1,
            _ => WORKERS,
        }
    }

    /// The jobs of one repetition of the workload, in run order.
    pub fn jobs(self) -> Vec<Job> {
        match self {
            Workload::ExhaustFix => vec![Job::Exhaust],
            Workload::Bughunt => bughunt_jobs(),
            Workload::Refine => vec![
                Job::Refine(REFINE_R1),
                Job::Refine(REFINE_R2),
                Job::Refine(REFINE_R3),
            ],
            Workload::Sample => vec![
                Job::Explore,
                Job::Conformance(SpecPreset::MSpec3),
                Job::Conformance(SpecPreset::MSpec1),
            ],
        }
    }
}

/// What a bug-hunting job is expected to conclude.
#[derive(Debug, Clone, Copy)]
enum BugExpect {
    /// A violation of `invariant`, at `depth` when the depth is known.
    Detect {
        invariant: &'static str,
        depth: Option<u32>,
    },
    /// No violation of any invariant, with the state space exhausted.
    Pass,
}

/// One first-violation job of the `bughunt` workload.
#[derive(Debug, Clone)]
pub struct BugJob {
    name: String,
    preset: SpecPreset,
    config: ClusterConfig,
    /// The invariant the run is restricted to; `None` checks all of them.
    target: Option<&'static str>,
    max_states: Option<usize>,
    expect: BugExpect,
}

/// One refinement check of the `refine` workload, with its known answer.
#[derive(Debug, Clone, Copy)]
pub struct RefineJob {
    name: &'static str,
    fine: SpecPreset,
    coarse: SpecPreset,
    servers: usize,
    crashes: u32,
    fine_states: usize,
    coarse_states: usize,
    projections: usize,
    edges_checked: usize,
}

const REFINE_R1: RefineJob = RefineJob {
    name: "R1 SysSpec<=mSpec-1",
    fine: SpecPreset::SysSpec,
    coarse: SpecPreset::MSpec1,
    servers: 3,
    crashes: 0,
    fine_states: 65_653,
    coarse_states: 181,
    projections: 181,
    edges_checked: 441,
};

const REFINE_R2: RefineJob = RefineJob {
    name: "R2 mSpec-2<=mSpec-1",
    fine: SpecPreset::MSpec2,
    coarse: SpecPreset::MSpec1,
    servers: 3,
    crashes: 1,
    fine_states: 9_274,
    coarse_states: 7_894,
    projections: 2_327,
    edges_checked: 5_818,
};

const REFINE_R3: RefineJob = RefineJob {
    name: "R3 mSpec-2<=mSpec-1 (4 servers)",
    fine: SpecPreset::MSpec2,
    coarse: SpecPreset::MSpec1,
    servers: 4,
    crashes: 0,
    fine_states: 1_103,
    coarse_states: 902,
    projections: 333,
    edges_checked: 1_913,
};

/// One job of a workload.
#[derive(Debug, Clone)]
pub enum Job {
    /// `check_bfs` of mSpec-3 on the final fix, run to exhaustion.
    Exhaust,
    Bug(BugJob),
    Refine(RefineJob),
    /// Coverage-guided sampling of mSpec-3.
    Explore,
    /// Conformance of a preset against the zk-sim v3.9.1 implementation.
    Conformance(SpecPreset),
}

/// The six Table 4 bugs plus the fix check, as the `bughunt` workload runs them.
fn bughunt_jobs() -> Vec<Job> {
    let known_depth = |bug: &str| match bug {
        "ZK-3023" => Some(15),
        "ZK-4394" => Some(20),
        "ZK-4646" => Some(24),
        "ZK-4685" => Some(15),
        "ZK-4712" => Some(24),
        _ => None,
    };
    let mut jobs: Vec<Job> = remix_bench::table4_bugs()
        .into_iter()
        .map(|(bug, _impact, preset, invariant, version, masked)| {
            let mut config = ClusterConfig::small(version);
            if !masked {
                config = config.unmask_zk4394();
            }
            if bug == "ZK-4643" || bug == "ZK-4646" {
                config = config.with_crashes(2);
            }
            Job::Bug(BugJob {
                name: bug.to_owned(),
                preset,
                config,
                target: Some(invariant),
                max_states: (bug == "ZK-4643").then_some(100_000),
                expect: BugExpect::Detect {
                    invariant,
                    depth: known_depth(bug),
                },
            })
        })
        .collect();
    jobs.push(Job::Bug(BugJob {
        name: "fix-check".to_owned(),
        preset: SpecPreset::MSpec3,
        config: ClusterConfig::small(CodeVersion::FinalFix),
        target: None,
        max_states: None,
        expect: BugExpect::Pass,
    }));
    jobs
}

/// The gate's self-check: the ZK-3023 job run against the final fix (capped), whose
/// known answer — detection at depth 15 — must come out as failed.
pub fn seeded_wrong_answer_job() -> BugJob {
    BugJob {
        name: "self-check ZK-3023@FinalFix".to_owned(),
        preset: SpecPreset::MSpec3,
        config: ClusterConfig::small(CodeVersion::FinalFix),
        target: Some("I-11"),
        max_states: Some(20_000),
        expect: BugExpect::Detect {
            invariant: "I-11",
            depth: Some(15),
        },
    }
}

/// Which checker a job exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    #[default]
    Bfs,
    Refine,
    Explore,
    Conformance,
}

/// Everything one job reports.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    pub name: String,
    pub kind: Kind,
    pub setup_s: f64,
    pub check_s: f64,
    /// When the checker call ran.
    pub window: Option<(Instant, Instant)>,
    /// `check_s` at the reference host speed (see `speed`).
    pub ref_check_s: f64,
    /// Why the verdict differs from the known answer; `None` when it matches.
    pub failure: Option<String>,
    /// Deterministic counts; a traced run must reproduce them exactly.
    pub counts: Vec<(&'static str, u64)>,
    /// Whether the job's check time counts towards `time_to_bug_s`.
    pub is_known_bug: bool,
    pub transitions: u64,
    pub states: u64,
    pub pruned: u64,
    pub canon_fallbacks: u64,
    pub per_worker_transitions: Vec<u64>,
    pub contention: u64,
    pub entry_bytes_per_state: u64,
    pub peak_entry_bytes: u64,
    pub edges_checked: u64,
    pub projections: u64,
    pub steps: u64,
    pub distinct_prefixes: u64,
    pub discrepancies: u64,
    /// Wrapped-closure counters accumulated during the job (zero when untraced).
    pub layer: crate::layers::Totals,
    /// Allocations and requested bytes during the checker call (zero when untraced).
    pub allocs: (u64, u64),
}

/// Runs one job.  A panic inside the job is caught and reported as its failure.
pub fn run_job(job: &Job, seed: u64, traced: bool, spans: &mut Spans, id: usize) -> JobOut {
    let name = job_name(job);
    let span = spans.open(format!("job {name}"), Some(id), None);
    let result = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Exhaust => run_exhaust(traced, spans, id, span),
        Job::Bug(bug) => run_bug(bug, traced, spans, id, span),
        Job::Refine(r) => run_refine(r, traced, spans, id, span),
        Job::Explore => run_explore(seed, traced, spans, id, span),
        Job::Conformance(preset) => run_conformance(*preset, seed, traced, spans, id, span),
    }));
    spans.close(span);
    // A panicking checker call leaves allocation counting on.
    crate::alloc::set_enabled(false);
    let mut out = result.unwrap_or_else(|_| JobOut {
        failure: Some("panicked".to_owned()),
        ..Default::default()
    });
    out.name = name;
    out
}

fn job_name(job: &Job) -> String {
    match job {
        Job::Exhaust => "exhaust mSpec-3@FinalFix".to_owned(),
        Job::Bug(b) => b.name.clone(),
        Job::Refine(r) => r.name.to_owned(),
        Job::Explore => "explore mSpec-3".to_owned(),
        Job::Conformance(p) => format!("conformance {}", p.name()),
    }
}

/// Set-ups per job: set-up takes well under a millisecond, so one job reports the
/// median of several.
const SETUP_REPEATS: usize = 25;

/// Runs the set-up `f` [`SETUP_REPEATS`] times in one span; returns the last result
/// and the median time of one set-up.
fn setup<T>(spans: &mut Spans, id: usize, parent: usize, f: impl Fn() -> T) -> (T, f64) {
    let span = spans.open("setup", Some(id), Some(parent));
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut out = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let fresh = f();
        times.push(t.elapsed().as_secs_f64());
        // The previous result stays alive while the next one is built and is dropped
        // outside the timed region: freeing it first could let malloc trim the top of
        // its heap, so that every build would page-fault fresh memory.
        out = Some(fresh);
    }
    spans.close(span);
    times.sort_by(f64::total_cmp);
    (
        out.expect("at least one set-up ran"),
        times[SETUP_REPEATS / 2],
    )
}

/// The timing of one checker call.
struct Timing {
    secs: f64,
    from: Instant,
    to: Instant,
}

/// Times the checker call itself as a child span of `parent`; a traced call also
/// counts allocations.
fn checked<T>(
    spans: &mut Spans,
    name: &str,
    id: usize,
    parent: usize,
    traced: bool,
    f: impl FnOnce() -> T,
) -> (T, Timing) {
    crate::alloc::set_enabled(traced);
    let span = spans.open(name, Some(id), Some(parent));
    let from = Instant::now();
    let out = f();
    let to = Instant::now();
    spans.close(span);
    crate::alloc::set_enabled(false);
    let secs = (to - from).as_secs_f64();
    (out, Timing { secs, from, to })
}

fn compose(preset: SpecPreset, config: ClusterConfig) -> Spec<ZabState> {
    Composer::new(config)
        .compose_preset(preset)
        .expect("preset composes")
        .spec
}

fn maybe_wrap(spec: &Spec<ZabState>, traced: bool) -> Spec<ZabState> {
    if traced {
        wrap_spec(spec)
    } else {
        spec.clone()
    }
}

fn run_exhaust(traced: bool, spans: &mut Spans, id: usize, parent: usize) -> JobOut {
    let config = ClusterConfig::small(CodeVersion::FinalFix)
        .with_transactions(1)
        .with_crashes(2);
    let (spec, setup_s) = setup(spans, id, parent, || compose(SpecPreset::MSpec3, config));
    let run_spec = maybe_wrap(&spec, traced);
    let options = CheckOptions {
        mode: CheckMode::FirstViolation,
        max_depth: None,
        time_budget: Some(JOB_BUDGET),
        max_states: None,
        workers: WORKERS,
        shards: SHARDS,
        batch_size: BATCH,
        collect_traces: true,
        store_mode: StoreMode::Full,
        symmetry: SymmetryMode::Off,
        spill: SpillConfig::in_ram(),
        route_by_owner: false,
        por: false,
    };
    let (outcome, check) = checked(spans, "check_bfs", id, parent, traced, || {
        check_bfs(&run_spec, &options)
    });
    let s = &outcome.stats;
    let mut failure = None;
    let got = (
        outcome.stop_reason,
        outcome.violation_count,
        s.distinct_states,
        s.transitions,
        s.max_depth,
    );
    let want = (StopReason::Exhausted, 0, 221_490, 432_409, 46);
    if got != want {
        failure = Some(format!(
            "expected (stop, violations, states, transitions, depth) = {want:?}, got {got:?}"
        ));
    }
    JobOut {
        kind: Kind::Bfs,
        setup_s,
        check_s: check.secs,
        window: Some((check.from, check.to)),
        failure,
        counts: vec![
            ("states", s.distinct_states as u64),
            ("transitions", s.transitions),
            ("max_depth", u64::from(s.max_depth)),
        ],
        transitions: s.transitions,
        states: s.distinct_states as u64,
        pruned: s.pruned_transitions,
        canon_fallbacks: s.canon_fallbacks,
        per_worker_transitions: s.per_worker_transitions.clone(),
        contention: s.total_contention(),
        entry_bytes_per_state: s.entry_bytes_per_state as u64,
        peak_entry_bytes: s.peak_entry_bytes as u64,
        ..Default::default()
    }
}

fn run_bug(bug: &BugJob, traced: bool, spans: &mut Spans, id: usize, parent: usize) -> JobOut {
    let ((spec, verifier), setup_s) = setup(spans, id, parent, || {
        (compose(bug.preset, bug.config), Verifier::new(bug.config))
    });
    let run_spec = maybe_wrap(&spec, traced);
    let options = VerifierOptions {
        mode: CheckMode::FirstViolation,
        time_budget: JOB_BUDGET,
        max_states: bug.max_states,
        workers: WORKERS,
        shards: SHARDS,
        batch_size: BATCH,
        store_mode: StoreMode::FingerprintOnly,
        symmetry: SymmetryMode::Canonicalize,
        spill: SpillConfig::in_ram(),
        route_by_owner: false,
        por: true,
        only_invariants: bug.target.into_iter().collect(),
        shrink_counterexamples: false,
    };
    let (run, check) = checked(spans, "verify_spec", id, parent, traced, || {
        verifier.verify_spec(run_spec, &options)
    });
    let failure = gate_bug(bug, &spec, &run);
    let s = &run.outcome.stats;
    let depth = run
        .outcome
        .first_violation()
        .map_or(0, |v| u64::from(v.depth));
    JobOut {
        kind: Kind::Bfs,
        setup_s,
        check_s: check.secs,
        window: Some((check.from, check.to)),
        failure,
        counts: vec![("violation_depth", depth)],
        is_known_bug: matches!(bug.expect, BugExpect::Detect { depth: Some(_), .. }),
        transitions: s.transitions,
        states: s.distinct_states as u64,
        pruned: s.pruned_transitions,
        canon_fallbacks: s.canon_fallbacks,
        per_worker_transitions: s.per_worker_transitions.clone(),
        contention: s.total_contention(),
        entry_bytes_per_state: s.entry_bytes_per_state as u64,
        peak_entry_bytes: s.peak_entry_bytes as u64,
        ..Default::default()
    }
}

/// Compares a bug-hunting verdict with its known answer.  A detection must carry a
/// witness that starts in an initial state, replays step by step through
/// `Spec::successors` of the unwrapped spec, and ends in a state violating the target.
fn gate_bug(bug: &BugJob, spec: &Spec<ZabState>, run: &VerificationRun) -> Option<String> {
    let outcome = &run.outcome;
    match bug.expect {
        BugExpect::Pass => match outcome.first_violation() {
            Some(v) => Some(format!(
                "expected no violation, found {} ({}) at depth {}",
                v.invariant, v.invariant_name, v.depth
            )),
            None if outcome.stop_reason != StopReason::Exhausted => Some(format!(
                "undecided: {} after {} states",
                outcome.stop_reason, outcome.stats.distinct_states
            )),
            None => None,
        },
        BugExpect::Detect { invariant, depth } => {
            let Some(v) = outcome.first_violation() else {
                return Some(format!(
                    "expected {invariant}, no violation found ({} after {} states)",
                    outcome.stop_reason, outcome.stats.distinct_states
                ));
            };
            if v.invariant != invariant {
                return Some(format!("expected {invariant}, found {}", v.invariant));
            }
            if let Some(d) = depth {
                if v.depth != d {
                    return Some(format!(
                        "expected {invariant} at depth {d}, found depth {}",
                        v.depth
                    ));
                }
            }
            if v.trace.depth() != v.depth as usize {
                return Some(format!(
                    "witness has {} steps, violation depth is {}",
                    v.trace.depth(),
                    v.depth
                ));
            }
            witness_error(spec, &v.trace, invariant)
        }
    }
}

/// Replays `trace` on `spec`; `None` when it is a genuine witness of `invariant`.
fn witness_error(
    spec: &Spec<ZabState>,
    trace: &remix_spec::Trace<ZabState>,
    invariant: &str,
) -> Option<String> {
    let Some(first) = trace.steps.first() else {
        return Some("the witness is empty".to_owned());
    };
    if !spec.init.contains(&first.state) {
        return Some("witness does not start in an initial state".to_owned());
    }
    for (i, pair) in trace.steps.windows(2).enumerate() {
        let replayed = spec
            .successors(&pair[0].state)
            .into_iter()
            .any(|(label, next)| label == pair[1].action && next == pair[1].state);
        if !replayed {
            return Some(format!(
                "witness step {} ({}) does not replay",
                i + 1,
                pair[1].action
            ));
        }
    }
    let last = &trace.steps[trace.steps.len() - 1].state;
    let Some(target) = spec.invariants.iter().find(|inv| inv.id == invariant) else {
        return Some(format!("the spec has no invariant {invariant}"));
    };
    if target.holds(last) {
        return Some(format!("witness ends in a state satisfying {invariant}"));
    }
    None
}

fn run_refine(r: &RefineJob, traced: bool, spans: &mut Spans, id: usize, parent: usize) -> JobOut {
    let config = ClusterConfig {
        num_servers: r.servers,
        ..ClusterConfig::small(CodeVersion::V391)
            .with_transactions(1)
            .with_crashes(r.crashes)
    };
    // The specs and projection `Verifier::check_refinement` builds.
    let ((fine, coarse, projection), setup_s) = setup(spans, id, parent, || {
        let (fine_plan, coarse_plan) = (r.fine.plan(), r.coarse.plan());
        let projection = projection_between(&fine_plan, &coarse_plan, &config)
            .expect("the presets form a refinement pair");
        let fine = remix_zab::build_from_plan(&fine_plan, &config).expect("fine plan builds");
        let coarse = remix_zab::build_from_plan(&coarse_plan, &config).expect("coarse plan builds");
        (fine, coarse, projection)
    });
    let (fine, coarse, projection): (_, _, TraceProjection<ZabState>) = if traced {
        (
            wrap_spec(&fine),
            wrap_spec(&coarse),
            wrap_projection(&projection),
        )
    } else {
        (fine, coarse, projection)
    };
    let options = RefineOptions {
        mode: RefineMode::Simulation,
        workers: WORKERS,
        shards: SHARDS,
        max_depth: None,
        max_states: None,
        time_budget: Some(JOB_BUDGET),
        shrink_witness: true,
        store_mode: StoreMode::Full,
        symmetry: SymmetryMode::Off,
        stabilization_grace: 16,
        spill: SpillConfig::in_ram(),
    };
    let (outcome, check) = checked(spans, "check_refinement", id, parent, traced, || {
        check_refinement(&fine, &coarse, &projection, &options)
    });
    let s = &outcome.stats;
    let got = (
        outcome.refines(),
        outcome.conclusive(),
        s.fine_states,
        s.coarse_states,
        s.fine_projections,
        s.coarse_projections,
        s.edges_checked,
    );
    let want = (
        Some(true),
        true,
        r.fine_states,
        r.coarse_states,
        r.projections,
        r.projections,
        r.edges_checked,
    );
    let failure = (got != want).then(|| {
        format!(
            "expected (refines, conclusive, fine, coarse, fine proj, coarse proj, edges) = \
             {want:?}, got {got:?}"
        )
    });
    JobOut {
        kind: Kind::Refine,
        setup_s,
        check_s: check.secs,
        window: Some((check.from, check.to)),
        failure,
        counts: vec![
            ("fine_states", s.fine_states as u64),
            ("coarse_states", s.coarse_states as u64),
            ("fine_projections", s.fine_projections as u64),
            ("coarse_projections", s.coarse_projections as u64),
            ("edges_checked", s.edges_checked as u64),
        ],
        states: (s.fine_states + s.coarse_states) as u64,
        edges_checked: s.edges_checked as u64,
        projections: (s.fine_projections + s.coarse_projections) as u64,
        ..Default::default()
    }
}

const EXPLORE_TRACES: usize = 4_096;
const CONFORMANCE_TRACES: usize = 4_096;

fn run_explore(seed: u64, traced: bool, spans: &mut Spans, id: usize, parent: usize) -> JobOut {
    let (spec, setup_s) = setup(spans, id, parent, || {
        let mut spec = compose(
            SpecPreset::MSpec3,
            ClusterConfig::explore(CodeVersion::V391),
        );
        spec.invariants
            .retain(|inv| matches!(inv.id, "I-8" | "I-10"));
        spec
    });
    let run_spec = maybe_wrap(&spec, traced);
    let options = ExploreOptions {
        traces: EXPLORE_TRACES,
        max_depth: 48,
        seed,
        workers: 1,
        time_budget: None,
        guidance: Guidance::CoverageGuided { rarity_weight: 24 },
        shards: DEFAULT_COVERAGE_SHARDS,
        prefix_bits: DEFAULT_PREFIX_BITS,
        stop_on_violation: false,
        symmetry: SymmetryMode::Off,
    };
    let (outcome, check) = checked(spans, "explore", id, parent, traced, || {
        explore(&run_spec, &options)
    });
    let s = &outcome.stats;
    // v3.9.1 carries ZK-4712, so some seeds sample an I-10 violation: sampling goes on
    // (the work per seed stays comparable) and every violation must be a real witness.
    let bad_witness = outcome
        .violations
        .iter()
        .find_map(|v| witness_error(&spec, &v.trace, v.invariant));
    let mut failure = None;
    if s.traces != EXPLORE_TRACES {
        failure = Some(format!(
            "expected {EXPLORE_TRACES} traces, got {}",
            s.traces
        ));
    } else if let Some(reason) = bad_witness {
        failure = Some(reason);
    } else if let Some(known) = known_sample_counts(seed) {
        if (s.steps, outcome.violations.len()) != (known.explore_steps, 0) {
            failure = Some(format!(
                "expected {} steps and no violation for seed {seed}, got {} steps and {} \
                 violations",
                known.explore_steps,
                s.steps,
                outcome.violations.len()
            ));
        }
    }
    JobOut {
        kind: Kind::Explore,
        setup_s,
        check_s: check.secs,
        window: Some((check.from, check.to)),
        failure,
        counts: vec![
            ("traces", s.traces as u64),
            ("steps", s.steps),
            ("distinct_prefixes", s.coverage.distinct_prefixes as u64),
        ],
        steps: s.steps,
        distinct_prefixes: s.coverage.distinct_prefixes as u64,
        ..Default::default()
    }
}

/// Exact counts of the `sample` workload for one seed.
struct SampleCounts {
    seed: u64,
    explore_steps: u64,
    /// Steps replayed and discrepancies of mSpec-3 and of mSpec-1.
    mspec3: (u64, u64),
    mspec1: (u64, u64),
}

/// Seed 7 is the default; seed 24301 (`0x5EED`) is `ConformanceOptions`' default seed.
const KNOWN_SAMPLE_COUNTS: [SampleCounts; 2] = [
    SampleCounts {
        seed: 7,
        explore_steps: 139_030,
        mspec3: (93_125, 0),
        mspec1: (63_496, 29_934),
    },
    SampleCounts {
        seed: 24_301,
        explore_steps: 139_421,
        mspec3: (93_168, 0),
        mspec1: (63_652, 29_955),
    },
];

fn known_sample_counts(seed: u64) -> Option<&'static SampleCounts> {
    KNOWN_SAMPLE_COUNTS.iter().find(|k| k.seed == seed)
}

fn run_conformance(
    preset: SpecPreset,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
    id: usize,
    parent: usize,
) -> JobOut {
    let config = ClusterConfig::small(CodeVersion::V391).with_crashes(0);
    let ((spec, checker), setup_s) = setup(spans, id, parent, || {
        (compose(preset, config), ConformanceChecker::new(config))
    });
    let run_spec = maybe_wrap(&spec, traced);
    let options = ConformanceOptions {
        traces: CONFORMANCE_TRACES,
        max_depth: 24,
        seed,
        time_budget: None,
        workers: 1,
        guidance: Guidance::Uniform,
        shrink_divergences: false,
    };
    let (report, check) = checked(spans, "conformance.check", id, parent, traced, || {
        checker.check(&run_spec, &options)
    });
    let steps = report.steps_replayed as u64;
    let discrepancies = report.discrepancies.len() as u64;
    let mut failure = None;
    if report.traces_checked != CONFORMANCE_TRACES {
        failure = Some(format!(
            "expected {CONFORMANCE_TRACES} traces, got {}",
            report.traces_checked
        ));
    } else if preset == SpecPreset::MSpec3 && discrepancies != 0 {
        failure = Some(format!(
            "expected 0 discrepancies for mSpec-3, got {discrepancies}"
        ));
    } else if preset != SpecPreset::MSpec3 && discrepancies == 0 {
        failure = Some(format!(
            "expected discrepancies for {}, got 0",
            preset.name()
        ));
    } else if let Some(known) = known_sample_counts(seed) {
        let want = if preset == SpecPreset::MSpec3 {
            known.mspec3
        } else {
            known.mspec1
        };
        if (steps, discrepancies) != want {
            failure = Some(format!(
                "expected (steps, discrepancies) = {want:?} for seed {seed}, got {:?}",
                (steps, discrepancies)
            ));
        }
    }
    JobOut {
        kind: Kind::Conformance,
        setup_s,
        check_s: check.secs,
        window: Some((check.from, check.to)),
        failure,
        counts: vec![
            ("traces", report.traces_checked as u64),
            ("steps_replayed", steps),
            ("discrepancies", discrepancies),
        ],
        steps,
        discrepancies,
        ..Default::default()
    }
}
