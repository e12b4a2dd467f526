//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exhaust-fix|bughunt|refine|sample> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload's jobs until `--seconds` have passed and reports medians over
//! the repetitions.  `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer metrics.  Human-readable
//! lines come first; the last line of standard output is one JSON object.  Spans and
//! per-job layer records are written to `.bench_out/` when the run ends.

mod alloc;
mod layers;
mod probe;
mod report;
mod speed;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Spans;
use workloads::{run_job, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Jobs whose verdict is known to differ from the expected answer today (see
/// `perfbench/README.md`).  They are run and counted as failed, never skipped; any
/// other failure makes the run incorrect.
const KNOWN_FAILURES: [&str; 2] = ["ZK-4643", "fix-check"];

/// Environment hooks the checker reads.  The benchmark sets every option they default,
/// so they are only recorded — except those that no option overrides.
const ENV_HOOKS: [&str; 7] = [
    "REMIX_STORE_MODE",
    "REMIX_SYMMETRY",
    "REMIX_POR",
    "REMIX_MEM_BUDGET",
    "REMIX_SPILL_DIR",
    "REMIX_ROUTE_BY_OWNER",
    "REMIX_SYNC_AUDIT",
];
/// Hooks that change a hot path without an option to override them.
const UNOVERRIDABLE_HOOKS: [&str; 1] = ["REMIX_SYNC_AUDIT"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The outcome of one repetition of a workload.
pub struct Rep {
    pub traced: bool,
    pub jobs: Vec<workloads::JobOut>,
}

fn run_rep(
    w: Workload,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
    rep: usize,
    next_job: &mut usize,
) -> Rep {
    let span = spans.open(
        format!("rep {rep}{}", if traced { " traced" } else { "" }),
        None,
        None,
    );
    // Sample the speed of the vCPUs the checker runs on; a single-threaded workload is
    // pinned to one vCPU for the repetition so that its sampler watches the right one.
    let allowed = speed::affinity::allowed();
    let pinned = (w.threads() == 1)
        .then(speed::affinity::current)
        .flatten()
        .filter(|&cpu| speed::affinity::set(&[cpu]));
    let cpus: Vec<usize> = match pinned {
        Some(cpu) => vec![cpu],
        None => allowed.iter().copied().take(w.threads()).collect(),
    };
    let sampler = speed::Sampler::start(&cpus);
    let mut jobs: Vec<workloads::JobOut> = w
        .jobs()
        .iter()
        .map(|job| {
            *next_job += 1;
            let before = (layers::totals(), alloc::totals());
            let mut out = run_job(job, seed, traced, spans, *next_job);
            let after = (layers::totals(), alloc::totals());
            out.layer = layers::delta(&after.0, &before.0);
            out.allocs = (after.1 .0 - before.1 .0, after.1 .1 - before.1 .1);
            out
        })
        .collect();
    let speeds = sampler.finish();
    if pinned.is_some() {
        speed::affinity::set(&allowed);
    }
    for j in &mut jobs {
        if let Some((from, to)) = j.window {
            j.ref_check_s = j.check_s * speeds.mean_speed(from, to);
        }
    }
    spans.close(span);
    Rep { traced, jobs }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for hook in UNOVERRIDABLE_HOOKS {
        if std::env::var_os(hook).is_some_and(|v| !v.is_empty()) {
            eprintln!("perfbench: {hook} is set and no checker option overrides it; unset it");
            return ExitCode::from(2);
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} host_cores={host_cores} workers={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::WORKERS,
        commit()
    );
    for hook in ENV_HOOKS {
        if let Ok(v) = std::env::var(hook) {
            println!("env {hook}={v} (overridden by explicit options)");
        }
    }

    let origin = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut spans = Spans::new(origin);
    let mut reps: Vec<Rep> = Vec::new();
    let mut next_job = 0;
    // Closed loop: repetitions back to back until the measuring window has passed.
    // A traced run alternates untraced and traced repetitions.
    // The peak resident set is read after the first repetition, which runs untraced in
    // a fresh process: later repetitions would add allocator fragmentation.
    let mut peak_rss_mb = 0.0;
    while reps.len() < 1 + usize::from(args.trace) || origin.elapsed() < budget {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = run_rep(
            args.workload,
            args.seed,
            traced,
            &mut spans,
            reps.len(),
            &mut next_job,
        );
        reps.push(rep);
        if reps.len() == 1 {
            peak_rss_mb = alloc::peak_rss_mb().unwrap_or(0.0);
        }
    }

    let self_check = (args.workload == Workload::Bughunt).then(|| {
        let job = workloads::Job::Bug(workloads::seeded_wrong_answer_job());
        run_job(&job, args.seed, false, &mut spans, next_job + 1)
    });
    let probe = args.trace.then(|| probe::run(args.workload));

    let result = report::Report::new(&reps, peak_rss_mb, self_check.as_ref(), probe.as_ref());
    result.print_human(&reps, self_check.as_ref());
    if let Err(e) = report::write_records(&args, &reps, &spans, commit(), host_cores) {
        eprintln!("perfbench: could not write the trace records: {e}");
    }
    println!("{}", result.json(args.trace));
    ExitCode::SUCCESS
}
