//! Turns repetitions into metrics, checks the run, and writes the result and records.

use std::fmt::Write as _;
use std::io::Write as _;

use remix_core::json::escape;

use crate::layers::{counter_name, Spans, TotalsExt, C, MODULES};
use crate::probe::Probe;
use crate::workloads::{JobOut, Kind, WORKERS};
use crate::{Args, Rep, KNOWN_FAILURES};

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The checked result of a run.
pub struct Report {
    end_to_end: Vec<Metric>,
    /// Raw wall time, the throughputs of the workload's own kind and peak memory.
    workload_specific: Vec<Metric>,
    per_layer: Vec<Metric>,
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(jobs: &[JobOut], kinds: &[Kind], f: impl Fn(&JobOut) -> f64) -> f64 {
    jobs.iter()
        .filter(|j| kinds.contains(&j.kind))
        .map(f)
        .fold(0.0, |a, b| a + b)
}

const ALL: [Kind; 4] = [Kind::Bfs, Kind::Refine, Kind::Explore, Kind::Conformance];
const S: f64 = 1e-9;

/// Per-layer times and rates that are 0 on the workloads whose jobs skip the layer.
/// They are printed for people and kept in the run records; the result line carries
/// the same busy times as `_share` ratios instead, since a time that reads 0 on every
/// run of a workload cannot be told apart from one that is not measured.
const HUMAN_ONLY: [&str; 20] = [
    "spec.module.election_busy_s",
    "spec.module.discovery_busy_s",
    "spec.module.synchronization_busy_s",
    "spec.module.broadcast_busy_s",
    "spec.module.faults_busy_s",
    "invariant.busy_s",
    "invariant.us_per_call",
    "symmetry.canon_busy_s",
    "bfs.other_busy_s",
    "refine.project_busy_s",
    "refine.other_busy_s",
    "explore.busy_s",
    "conformance.busy_s",
    "conformance.model_busy_s",
    "conformance.impl_busy_s",
    "transitions_per_s",
    "states_per_s",
    "time_to_bug_s",
    "explore_steps_per_s",
    "replay_steps_per_s",
];

/// Threads a job of `kind` keeps busy.
fn threads(kind: Kind) -> f64 {
    match kind {
        Kind::Bfs | Kind::Refine => WORKERS as f64,
        Kind::Explore | Kind::Conformance => 1.0,
    }
}

/// The gated end-to-end figures of one repetition: set-up time and check time at the
/// reference host speed.
fn e2e_of(jobs: &[JobOut]) -> Vec<Metric> {
    vec![
        ("setup_s".into(), sum(jobs, &ALL, |j| j.setup_s), "s"),
        ("ref_wall_s".into(), sum(jobs, &ALL, |j| j.ref_check_s), "s"),
    ]
}

/// Raw wall time and the throughput figures of one repetition; only those of the
/// workload's job kinds are non-zero.
fn workload_specific(jobs: &[JobOut]) -> Vec<Metric> {
    let check = |kinds: &[Kind]| sum(jobs, kinds, |j| j.check_s);
    let bfs = [Kind::Bfs];
    let states = [Kind::Bfs, Kind::Refine];
    vec![
        ("wall_s".into(), check(&ALL), "s"),
        (
            "transitions_per_s".into(),
            ratio(sum(jobs, &bfs, |j| j.transitions as f64), check(&bfs)),
            "1/s",
        ),
        (
            "states_per_s".into(),
            ratio(sum(jobs, &states, |j| j.states as f64), check(&states)),
            "1/s",
        ),
        (
            "time_to_bug_s".into(),
            jobs.iter()
                .filter(|j| j.is_known_bug)
                .map(|j| j.check_s)
                .fold(0.0, |a, b| a + b),
            "s",
        ),
        (
            "explore_steps_per_s".into(),
            ratio(
                sum(jobs, &[Kind::Explore], |j| j.steps as f64),
                check(&[Kind::Explore]),
            ),
            "1/s",
        ),
        (
            "replay_steps_per_s".into(),
            ratio(
                sum(jobs, &[Kind::Conformance], |j| j.steps as f64),
                check(&[Kind::Conformance]),
            ),
            "1/s",
        ),
    ]
}

/// Per-layer figures of one traced repetition.
fn per_layer(jobs: &[JobOut]) -> Vec<Metric> {
    let total = |kinds: &[Kind], f: &dyn Fn(&JobOut) -> f64| sum(jobs, kinds, f);
    let layer = |kinds: &[Kind], i: C| total(kinds, &|j| j.layer[i as usize] as f64);
    let bfs = [Kind::Bfs];
    let refine = [Kind::Refine];
    let conf = [Kind::Conformance];

    let succ_calls = total(&ALL, &|j| j.layer.succ_calls() as f64);
    let succ_ns = total(&ALL, &|j| j.layer.succ_ns() as f64);
    let instances = total(&ALL, &|j| j.layer.instances() as f64);
    let inv_calls = layer(&ALL, C::InvCalls);
    let inv_ns = layer(&ALL, C::InvNs);
    let canon_calls = total(&ALL, &|j| j.layer.canon_calls() as f64);
    let transitions = total(&bfs, &|j| j.transitions as f64);
    let pruned = total(&bfs, &|j| j.pruned as f64);
    // Busy time the wrapped closures do not cover, against workers × check time.
    let residual = |kinds: &[Kind], workers: f64| {
        total(kinds, &|j| {
            workers * j.check_s - j.layer.wrapped_ns() as f64 * S
        })
    };
    let mut per_worker: Vec<u64> = Vec::new();
    for j in jobs.iter().filter(|j| j.kind == Kind::Bfs) {
        per_worker.resize(per_worker.len().max(j.per_worker_transitions.len()), 0);
        for (acc, t) in per_worker.iter_mut().zip(&j.per_worker_transitions) {
            *acc += t;
        }
    }
    let balance = ratio(
        per_worker.iter().min().copied().unwrap_or(0) as f64,
        per_worker.iter().max().copied().unwrap_or(0) as f64,
    );
    let refine_states = total(&refine, &|j| j.states as f64);
    let expansions = layer(&refine, C::Expansions);
    let explore_steps = total(&[Kind::Explore], &|j| j.steps as f64);
    let prefixes = total(&[Kind::Explore], &|j| j.distinct_prefixes as f64);
    let conf_busy = total(&conf, &|j| j.check_s);
    let conf_model = total(&conf, &|j| j.layer.wrapped_ns() as f64 * S);
    let allocs = total(&ALL, &|j| j.allocs.0 as f64);
    let alloc_bytes = total(&ALL, &|j| j.allocs.1 as f64);
    // Thread-seconds of every checker call: the denominator of the `_share` metrics.
    let capacity = total(&ALL, &|j| threads(j.kind) * j.check_s);
    let canon_s = total(&ALL, &|j| j.layer.canon_ns() as f64) * S;
    let project_s = total(&refine, &|j| j.layer.project_ns() as f64) * S;
    let explore_s = total(&[Kind::Explore], &|j| j.check_s);

    let mut m: Vec<Metric> = vec![
        ("setup.compose_s".into(), total(&ALL, &|j| j.setup_s), "s"),
        ("spec.successor_busy_s".into(), succ_ns * S, "s"),
        (
            "spec.successor_share".into(),
            ratio(succ_ns * S, capacity),
            "ratio",
        ),
        ("spec.successor_calls".into(), succ_calls, "count"),
        (
            "spec.instances_per_call".into(),
            ratio(instances, succ_calls),
            "ratio",
        ),
        (
            "spec.successor_us_per_transition".into(),
            ratio(succ_ns * 1e-3, instances),
            "us",
        ),
    ];
    for (i, module) in MODULES.iter().enumerate() {
        let ns = total(&ALL, &|j| j.layer[C::SuccNs as usize + i] as f64);
        let name = module.name().to_lowercase();
        m.push((format!("spec.module.{name}_busy_s"), ns * S, "s"));
        m.push((
            format!("spec.module.{name}_share"),
            ratio(ns, succ_ns),
            "ratio",
        ));
    }
    m.extend([
        ("invariant.busy_s".into(), inv_ns * S, "s"),
        (
            "invariant.share".into(),
            ratio(inv_ns * S, capacity),
            "ratio",
        ),
        ("invariant.calls".into(), inv_calls, "count"),
        (
            "invariant.us_per_call".into(),
            ratio(inv_ns * 1e-3, inv_calls),
            "us",
        ),
        ("symmetry.canon_busy_s".into(), canon_s, "s"),
        (
            "symmetry.canon_share".into(),
            ratio(canon_s, capacity),
            "ratio",
        ),
        ("symmetry.canon_calls".into(), canon_calls, "count"),
        (
            "symmetry.incremental_share".into(),
            ratio(layer(&ALL, C::IncrCalls), canon_calls),
            "ratio",
        ),
        (
            "symmetry.fallbacks".into(),
            total(&bfs, &|j| j.canon_fallbacks as f64),
            "count",
        ),
        ("por.pruned_transitions".into(), pruned, "count"),
        (
            "por.pruned_share".into(),
            ratio(pruned, transitions + pruned),
            "ratio",
        ),
        (
            "bfs.other_busy_s".into(),
            residual(&bfs, WORKERS as f64),
            "s",
        ),
        (
            "bfs.other_share".into(),
            ratio(residual(&bfs, WORKERS as f64), capacity),
            "ratio",
        ),
        ("bfs.worker_balance".into(), balance, "ratio"),
        (
            "bfs.fresh_share".into(),
            ratio(total(&bfs, &|j| j.states as f64), transitions),
            "ratio",
        ),
        (
            "store.shard_contention".into(),
            total(&bfs, &|j| j.contention as f64),
            "count",
        ),
        (
            "store.entry_bytes_per_state".into(),
            jobs.iter()
                .filter(|j| j.kind == Kind::Bfs)
                .map(|j| j.entry_bytes_per_state as f64)
                .fold(0.0, f64::max),
            "B",
        ),
        (
            "store.peak_entry_bytes".into(),
            jobs.iter()
                .filter(|j| j.kind == Kind::Bfs)
                .map(|j| j.peak_entry_bytes as f64)
                .fold(0.0, f64::max),
            "B",
        ),
        ("refine.project_busy_s".into(), project_s, "s"),
        (
            "refine.project_share".into(),
            ratio(project_s, capacity),
            "ratio",
        ),
        (
            "refine.project_calls".into(),
            total(&refine, &|j| j.layer.project_calls() as f64),
            "count",
        ),
        (
            "refine.stable_calls".into(),
            layer(&refine, C::StableCalls),
            "count",
        ),
        ("refine.expansions".into(), expansions, "count"),
        (
            "refine.useful_expansion_share".into(),
            ratio(refine_states, expansions),
            "ratio",
        ),
        (
            "refine.edges_checked".into(),
            total(&refine, &|j| j.edges_checked as f64),
            "count",
        ),
        (
            "refine.projections".into(),
            total(&refine, &|j| j.projections as f64),
            "count",
        ),
        (
            "refine.other_busy_s".into(),
            residual(&refine, WORKERS as f64),
            "s",
        ),
        (
            "refine.other_share".into(),
            ratio(residual(&refine, WORKERS as f64), capacity),
            "ratio",
        ),
        ("explore.busy_s".into(), explore_s, "s"),
        ("explore.share".into(), ratio(explore_s, capacity), "ratio"),
        ("explore.steps".into(), explore_steps, "count"),
        ("explore.distinct_prefixes".into(), prefixes, "count"),
        (
            "explore.prefixes_per_kstep".into(),
            ratio(prefixes, explore_steps * 1e-3),
            "ratio",
        ),
        ("conformance.busy_s".into(), conf_busy, "s"),
        ("conformance.model_busy_s".into(), conf_model, "s"),
        (
            "conformance.impl_busy_s".into(),
            conf_busy - conf_model,
            "s",
        ),
        (
            "conformance.model_share".into(),
            ratio(conf_model, capacity),
            "ratio",
        ),
        (
            "conformance.impl_share".into(),
            ratio(conf_busy - conf_model, capacity),
            "ratio",
        ),
        (
            "conformance.steps_replayed".into(),
            total(&conf, &|j| j.steps as f64),
            "count",
        ),
        (
            "conformance.discrepancies".into(),
            total(&conf, &|j| j.discrepancies as f64),
            "count",
        ),
        (
            "alloc.per_transition".into(),
            ratio(allocs, instances),
            "count",
        ),
        (
            "alloc.bytes_per_transition".into(),
            ratio(alloc_bytes, instances),
            "B",
        ),
        (
            "alloc.per_successor_call".into(),
            ratio(allocs, succ_calls),
            "count",
        ),
    ]);
    m
}

/// Element-wise medians of metric lists that share names and order.
fn medians(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values = runs.iter().map(|r| r[i].1).collect();
            (name.clone(), median(values), *unit)
        })
        .collect()
}

impl Report {
    pub fn new(
        reps: &[Rep],
        peak_rss_mb: f64,
        self_check: Option<&JobOut>,
        probe: Option<&Probe>,
    ) -> Report {
        let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let mut problems = Vec::new();

        let all_jobs = reps.iter().flat_map(|r| r.jobs.iter());
        let attempted = all_jobs.clone().count() as u64;
        let failed = all_jobs.clone().filter(|j| j.failure.is_some()).count() as u64;
        for j in all_jobs.filter(|j| j.failure.is_some()) {
            if !KNOWN_FAILURES.contains(&j.name.as_str()) {
                problems.push(format!(
                    "unexpected failure of {}: {}",
                    j.name,
                    j.failure.as_deref().unwrap_or_default()
                ));
            }
        }
        if let Some(check) = self_check {
            if check.failure.is_none() {
                problems.push(format!(
                    "the gate accepted the seeded wrong answer ({})",
                    check.name
                ));
            }
        }
        // Every repetition, traced or not, must reproduce the deterministic counts.
        if let Some(reference) = plain.first() {
            for rep in reps {
                for (a, b) in reference.jobs.iter().zip(&rep.jobs) {
                    if a.counts != b.counts {
                        problems.push(format!(
                            "{} counts differ between repetitions{}: {:?} vs {:?}",
                            a.name,
                            if rep.traced { " (traced)" } else { "" },
                            a.counts,
                            b.counts
                        ));
                    }
                }
            }
        }

        let plain_e2e: Vec<Vec<Metric>> = plain.iter().map(|r| e2e_of(&r.jobs)).collect();
        let end_to_end = medians(&plain_e2e);
        let mut workload_specific = medians(
            &plain
                .iter()
                .map(|r| workload_specific(&r.jobs))
                .collect::<Vec<_>>(),
        );
        // Not gated: where ZK-4646's first-violation stop lands under two workers moves
        // `bughunt`'s peak between two modes about 20% apart.
        workload_specific.push(("peak_rss_mb".into(), peak_rss_mb, "MB"));

        let mut layer = medians(
            &traced
                .iter()
                .map(|r| per_layer(&r.jobs))
                .collect::<Vec<_>>(),
        );
        if let Some(p) = probe {
            layer.extend([
                ("probe.successors_us".into(), p.successors_us, "us"),
                ("probe.clone_us".into(), p.clone_us, "us"),
                ("probe.fingerprint_us".into(), p.fingerprint_us, "us"),
                ("probe.canon_full_us".into(), p.canon_full_us, "us"),
                (
                    "probe.canon_incremental_us".into(),
                    p.canon_incremental_us,
                    "us",
                ),
                ("probe.store_insert_us".into(), p.store_insert_us, "us"),
                ("probe.label_intern_us".into(), p.label_intern_us, "us"),
                ("probe.project_us".into(), p.project_us, "us"),
            ]);
        }
        if !traced.is_empty() {
            // Reference-speed times, so that host drift between the two does not count.
            let wall = |rs: &[&Rep]| median(rs.iter().map(|r| e2e_of(&r.jobs)[1].1).collect());
            layer.push((
                "trace.overhead".into(),
                ratio(wall(&traced), wall(&plain)),
                "ratio",
            ));
            layer.extend(workload_specific.iter().cloned());
        }

        Report {
            end_to_end,
            workload_specific,
            per_layer: layer,
            correct: problems.is_empty(),
            problems,
            attempted,
            failed,
        }
    }

    /// Prints the verdicts, failures and every metric for people.
    pub fn print_human(&self, reps: &[Rep], self_check: Option<&JobOut>) {
        let plain = reps.iter().filter(|r| !r.traced).count();
        println!(
            "repetitions: {plain} untraced, {} traced",
            reps.len() - plain
        );
        if let Some(first) = reps.first() {
            for j in &first.jobs {
                println!(
                    "job {:<34} setup {:>8.4} s  check {:>8.4} s  {:?}  {}",
                    j.name,
                    j.setup_s,
                    j.check_s,
                    j.counts,
                    match &j.failure {
                        None => "ok".to_owned(),
                        Some(reason) => format!("FAILED: {reason}"),
                    }
                );
            }
        }
        if let Some(check) = self_check {
            println!(
                "gate self-check {}: {}",
                check.name,
                match &check.failure {
                    Some(reason) => format!("rejected as it must be ({reason})"),
                    None => "ACCEPTED a wrong answer".to_owned(),
                }
            );
        }
        for p in &self.problems {
            println!("problem: {p}");
        }
        println!(
            "jobs = {} attempted, jobs_failed = {}",
            self.attempted, self.failed
        );
        for (name, value, unit) in self.end_to_end.iter().chain(&self.workload_specific) {
            println!("metric {name} = {value} {unit} (median of {plain})");
        }
        for (name, value, unit) in &self.per_layer {
            println!("layer {name} = {value} {unit}");
        }
    }

    /// The result line: one JSON object with the metrics of the requested kind.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<&Metric> = if traced {
            self.per_layer
                .iter()
                .filter(|(name, _, _)| !HUMAN_ONLY.contains(&name.as_str()))
                .collect()
        } else {
            self.end_to_end.iter().collect()
        };
        let mut body = String::new();
        for (i, (name, value, unit)) in metrics.into_iter().enumerate() {
            let _ = write!(
                body,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                escape(name),
                json_number(*value),
                unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Writes spans and per-job records as JSON lines under `.bench_out/`.
pub fn write_records(
    args: &Args,
    reps: &[Rep],
    spans: &Spans,
    commit: String,
    host_cores: usize,
) -> std::io::Result<()> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(
        ".bench_out/{}-seed{}-trace{}.jsonl",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        out,
        "{{\"type\": \"run\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {host_cores}, \"workers\": {WORKERS}, \"commit\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        escape(&commit)
    )?;
    for (id, s) in spans.all().iter().enumerate() {
        writeln!(
            out,
            "{{\"type\": \"span\", \"id\": {id}, \"name\": \"{}\", \"job\": {}, \"parent\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            escape(&s.name),
            s.job.map_or("null".to_owned(), |j| j.to_string()),
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        )?;
    }
    for (r, rep) in reps.iter().enumerate() {
        for j in &rep.jobs {
            let counts: Vec<String> = j
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let layer: Vec<String> = j
                .layer
                .iter()
                .enumerate()
                .map(|(i, v)| format!("\"{}\": {v}", counter_name(i)))
                .collect();
            writeln!(
                out,
                "{{\"type\": \"job\", \"rep\": {r}, \"traced\": {}, \"name\": \"{}\", \
                 \"setup_s\": {}, \"check_s\": {}, \"ref_check_s\": {}, \"failure\": {}, \
                 \"counts\": {{{}}}, \
                 \"layer_counters\": {{{}}}, \"allocs\": {}, \"alloc_bytes\": {}}}",
                rep.traced,
                escape(&j.name),
                j.setup_s,
                j.check_s,
                j.ref_check_s,
                j.failure
                    .as_ref()
                    .map_or("null".to_owned(), |f| format!("\"{}\"", escape(f))),
                counts.join(", "),
                layer.join(", "),
                j.allocs.0,
                j.allocs.1
            )?;
        }
    }
    out.flush()
}
