//! Breadth-first state-space exploration.
//!
//! BFS is the exploration strategy the paper uses (§4.4): it guarantees that the first
//! violation found for each invariant has minimal depth, which produces short, debuggable
//! counterexample traces.
//!
//! # Parallel engine
//!
//! Exploration is level-synchronous and scales across [`CheckOptions::workers`] threads:
//!
//! * **Persistent worker pool** — worker threads are spawned *once per run* and park on
//!   a condition variable between levels; the coordinator publishes each level
//!   (frontier, steal ranges, depth) and wakes them.  The previous engine re-spawned
//!   its workers at every level boundary, which made small-frontier levels pay thread
//!   spawn latency over and over — the measured cause of the *negative* multi-worker
//!   scaling in earlier `BENCH_table5.json` artefacts.
//! * **Arena state store** — discovered states live in a lock-striped
//!   [`StateStore`]: `u32` state indices, parent-by-index, interned action labels, and
//!   (in [`StoreMode::Full`](crate::store::StoreMode)) states inline in the arena — no
//!   per-state `Arc`, no per-transition `String`.
//!   [`StoreMode::FingerprintOnly`](crate::store::StoreMode) drops the states entirely
//!   for memory-bounded runs; see [`crate::store`].
//! * **Per-worker successor buffers** — each worker accumulates successors in local
//!   per-shard buffers and merges a buffer into its stripe in one batch of
//!   [`CheckOptions::batch_size`] states (and unconditionally at the level boundary),
//!   amortising one lock acquisition over the whole batch.
//! * **Work stealing** — the frontier of each level is split into one contiguous range
//!   per worker; a worker that drains its range steals the back half of the largest
//!   remaining range, so skewed successor costs cannot leave threads idle.  Range bounds
//!   live in one packed atomic word, so a claim and a steal can never hand the same
//!   index to two workers: every state is expanded exactly once for any worker count.
//! * **Deterministic stop precedence** — several stop conditions can trip within one
//!   level (a violation on one worker, the state limit on another, the wall clock on a
//!   third).  Stop requests accumulate in a bitmask and are resolved once per level
//!   under a fixed precedence — violation stops over [`StopReason::StateLimit`] over
//!   [`StopReason::TimeBudget`] — so the reported [`StopReason`] does not depend on
//!   which worker tripped its condition first.  Expansion aborts a level early once any
//!   stop is requested (as the engine always has); sequentially that abort point — and
//!   hence the fired set and reported reason — is reproducible because states are
//!   claimed and flushed in a fixed order, while across workers the fired set can vary
//!   with scheduling — the precedence then guarantees the *resolution* over the fired
//!   set is still fixed, and a scheduling-dependent wall-clock stop can never mask a
//!   violation stop.
//!
//! # Level visitors
//!
//! [`check_bfs`] and the refinement checker both run on this engine, each through a
//! statically dispatched `LevelVisitor`: `tag` labels each successor inside the
//! lock-free callback, `on_insert` acts on each insert result on the worker, and
//! `at_barrier` runs on the coordinator after each level.  BFS checks invariants in
//! `on_insert` and resolves violations at the barrier.
//!
//! With `workers = 1` the same code runs inline on the calling thread, with no thread
//! spawns and no atomics on the hot path beyond the shard counters, so sequential runs
//! behave exactly like the pre-parallel engine.  Parallel and sequential runs discover
//! the same state space and report the same minimal violation depth (all states of a
//! level share one depth); see the `parallel_matches_sequential_*` regression tests.
//!
//! # Partial-order reduction and incremental canonicalization
//!
//! Under [`CheckOptions::por`] the engine prunes redundant interleavings with sleep
//! sets derived from declared action footprints (see the `por` module): each frontier
//! state carries the set of labels already covered through a sibling ordering, pruned
//! transitions are skipped *before* canonicalization and fingerprinting, and the sleep
//! sets of all same-level arrival edges are intersected at the level barrier — which
//! keeps the reduction sound for safety properties, minimal-depth preserving, and
//! deterministic across worker counts.  Independently, when the spec provides an
//! incremental canonicalization (`Spec::incremental_symmetry`) and a successor's
//! footprint bounds which servers changed, the per-successor canonicalization reuses
//! the parent's sort keys instead of recomputing all of them — the parent is already
//! canonical, so untouched keys are unchanged by construction (debug builds verify
//! every incremental result against the full recomputation).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use remix_spec::{canon_stats, CanonFn, Effect, LabelId, LabelTable, Perm, Spec, SpecState, Trace};

use crate::fingerprint::{fingerprint, Fingerprint};
use crate::options::{CheckMode, CheckOptions};
use crate::outcome::{CheckOutcome, CheckStats, StopReason, Violation};
use crate::por::{self, FootprintTable, SleepSet};
use crate::spill::IndexQueue;
use crate::stop::{
    StopCell, STOP_FIRST_VIOLATION, STOP_STATE_LIMIT, STOP_TIME_BUDGET, STOP_VIOLATION_LIMIT,
};
use crate::store::{Insert, StateIndex, StateStore, StoreMode};
use crate::sync::{
    AtomicU32, AtomicU64, AtomicU8, AtomicUsize, FrontierRank, FrontierSleepsRank, GateRank,
    MailboxRank, OrderedCondvar, OrderedMutex, OrderedRwLock, Ordering, PanicSlotRank, ResultsRank,
};

/// One worker's slice of the frontier, stealable by other workers.
///
/// `next` and `end` are packed into one 64-bit word (32 bits each) so that claims and
/// steals are single compare-exchange operations on the same atomic: an index can never
/// be handed to both its owner and a thief, which keeps transition counts — not just the
/// explored state set — identical across worker counts.  Frontier levels are bounded far
/// below `u32::MAX` by the configuration's budgets.
struct StealRange {
    packed: AtomicU64,
}

fn pack(next: usize, end: usize) -> u64 {
    debug_assert!(next <= u32::MAX as usize && end <= u32::MAX as usize);
    ((next as u64) << 32) | end as u64
}

fn unpack(word: u64) -> (usize, usize) {
    ((word >> 32) as usize, (word & 0xffff_ffff) as usize)
}

impl StealRange {
    fn new(start: usize, end: usize) -> Self {
        StealRange {
            packed: AtomicU64::new(pack(start, end)),
        }
    }

    /// Re-arms this range for a new level (only the coordinator writes between levels).
    fn reset(&self, start: usize, end: usize) {
        // ordering: Release — publishes the new bounds before workers wake (the gate
        // handshake also orders this; Release keeps reset safe on its own).
        self.packed.store(pack(start, end), Ordering::Release);
    }

    /// Claims the next index of this range, if any remains.
    fn claim(&self) -> Option<usize> {
        // ordering: Acquire — sees the coordinator's reset and other claims/steals.
        let mut word = self.packed.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(word);
            if next >= end {
                return None;
            }
            match self.packed.compare_exchange_weak(
                word,
                pack(next + 1, end),
                // ordering: AcqRel on success (the claim both observes and extends
                // the claim history), Acquire on failure to reload a current word.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next),
                Err(current) => word = current,
            }
        }
    }

    fn remaining(&self) -> usize {
        // ordering: Acquire — an advisory victim-size read; pairs with the CAS.
        let (next, end) = unpack(self.packed.load(Ordering::Acquire));
        end.saturating_sub(next)
    }

    /// Tries to steal the back half of this range, returning the stolen bounds.
    fn steal_half(&self) -> Option<(usize, usize)> {
        // ordering: Acquire — sees the victim's current bounds; pairs with the CAS.
        let mut word = self.packed.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(word);
            if end.saturating_sub(next) < 2 {
                return None;
            }
            let mid = next + (end - next) / 2;
            match self.packed.compare_exchange_weak(
                word,
                pack(next, mid),
                // ordering: AcqRel/Acquire — same contract as claim's CAS: a range
                // index is handed to exactly one of owner and thief.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, end)),
                Err(current) => word = current,
            }
        }
    }
}

/// A violation observed by a worker, resolved into a [`Violation`] (with trace) after the
/// level completes.
struct PendingViolation {
    index: StateIndex,
    /// The violating state's fingerprint: the scheduling-independent tie-breaker when
    /// choosing each invariant's representative (state indices depend on insert order).
    fp: Fingerprint,
    depth: u32,
    invariant: &'static str,
    invariant_name: &'static str,
}

/// What a caller of the level engine does with each successor, each insert result and
/// each completed level (see the module docs).
pub(crate) trait LevelVisitor<S: SpecState>: Sync {
    /// Per-frontier-entry context.  Spilled levels reload the default, so only
    /// visitors with a trivial context may run with a frontier budget.
    type Ctx: Clone + Default + Send + Sync;
    type Tag: Send;
    /// What an insert leaves for the level barrier.
    type Record: Send;
    /// Coordinator-only state the barrier updates.
    type Barrier;
    /// Whether `on_insert` also sees successors that were already known.
    const SEES_KNOWN: bool;

    /// Tags `succ` (canonical under symmetry), a successor of an entry with context
    /// `ctx`.  `order` is the entry's position in the level (high 32 bits) and the
    /// successor's rank (low 32 bits); unique unless the level was spilled.
    fn tag(&self, ctx: &Self::Ctx, succ: &S, order: u64) -> Self::Tag;

    /// Acts on one insert result of a state at `depth` (0 for the initial states),
    /// outside the store lock.
    fn on_insert(
        &self,
        insert: Insert<S>,
        fp: Fingerprint,
        tag: Self::Tag,
        depth: u32,
        next: &mut Vec<(StateIndex, S, Self::Ctx)>,
        records: &mut Vec<Self::Record>,
    );

    /// Runs on the coordinator once the level at `depth` is merged; may extend the
    /// next frontier, and returns a reason to end the run.
    fn at_barrier(
        &self,
        barrier: &mut Self::Barrier,
        depth: u32,
        records: Vec<Self::Record>,
        next: &mut NextFrontier<'_, S, Self::Ctx>,
    ) -> Option<StopReason>;
}

/// Run-constant inputs of the level engine.
pub(crate) struct Levels<'a, S> {
    pub(crate) spec: &'a Spec<S>,
    pub(crate) labels: &'a LabelTable,
    pub(crate) store: &'a StateStore<S>,
    /// Symmetry reduction: the frontier and the store hold canonical representatives.
    pub(crate) canon: Option<&'a CanonFn<S>>,
    pub(crate) stop: &'a StopCell,
    pub(crate) deadline: Option<Instant>,
    /// Workers, batch size, depth bound, POR, owner routing and the frontier budget
    /// (`spill.budget_bytes`); the engine reads nothing else.
    pub(crate) options: &'a CheckOptions,
}

/// What a run of the level engine reports besides the visitor's own results.
pub(crate) struct LevelRun {
    pub(crate) stop: StopReason,
    pub(crate) per_worker_transitions: Vec<u64>,
    pub(crate) pruned: u64,
    /// Depth of the deepest non-empty level.
    pub(crate) max_depth: u32,
}

/// Everything one worker produced while expanding (part of) one level.
struct WorkerLevelResult<S, C, R> {
    next_frontier: Vec<(StateIndex, S, C)>,
    records: Vec<R>,
    transitions: u64,
    /// Transitions skipped by sleep-set POR (not counted in `transitions`).
    pruned: u64,
    /// Arrival edges recorded under POR: the sleep set each inserted (fresh *or*
    /// already-known) successor would inherit through this edge.  The coordinator
    /// intersects the contributions per target at the level barrier.
    sleep_edges: Vec<(StateIndex, SleepSet)>,
}

impl<S, C, R> Default for WorkerLevelResult<S, C, R> {
    fn default() -> Self {
        WorkerLevelResult {
            next_frontier: Vec::new(),
            records: Vec::new(),
            transitions: 0,
            pruned: 0,
            sleep_edges: Vec::new(),
        }
    }
}

type WorkerResult<S, V> =
    WorkerLevelResult<S, <V as LevelVisitor<S>>::Ctx, <V as LevelVisitor<S>>::Record>;

/// Coordination state of the persistent worker pool: generation counter, in-flight
/// worker count and the shutdown flag, guarded by one mutex with two condvars.
struct Gate {
    generation: u64,
    remaining: usize,
    shutdown: bool,
}

/// What the pool workers do in the next gate cycle: expand the published frontier, or
/// (under owner routing) drain the shard mailboxes they own.
const PHASE_EXPAND: u8 = 0;
const PHASE_DRAIN: u8 = 1;

/// One producer's batch of successors routed to the shard that owns their fingerprint
/// range.  `(producer, seq)` gives drain a scheduling-independent replay order, so the
/// owner-routed engine assigns slots deterministically for any worker interleaving.
struct RoutedBatch<S, T> {
    producer: u32,
    seq: u32,
    items: Vec<BufferedSuccessor<S, T>>,
}

type Mailbox<S, T> = OrderedMutex<MailboxRank, Vec<RoutedBatch<S, T>>>;

/// Everything shared between the coordinator and the pool workers for a whole run.
///
/// Run-constant fields are plain references; per-level fields (`frontier`, `ranges`,
/// `child_depth`) are rewritten by the coordinator *between* levels, while every worker
/// is parked — the generation handshake in `gate` is the synchronisation point.
struct RunShared<'a, S: SpecState, V: LevelVisitor<S>> {
    cfg: &'a Levels<'a, S>,
    visitor: &'a V,
    /// Declared footprint per interned label (grown lazily as labels are explored).
    footprints: FootprintTable,
    /// The sleep set of each current-frontier state, index-aligned with the published
    /// frontier.  Rewritten by the coordinator between levels; empty for spilled
    /// levels (their sleeps degrade to ∅, which is always sound).
    frontier_sleeps: OrderedRwLock<FrontierSleepsRank, Vec<SleepSet>>,
    frontier: OrderedRwLock<FrontierRank, Vec<(StateIndex, S, V::Ctx)>>,
    ranges: Vec<StealRange>,
    child_depth: AtomicU32,
    /// The phase the pool runs in the next gate cycle ([`PHASE_EXPAND`] or
    /// [`PHASE_DRAIN`]); only the coordinator writes it, between cycles.
    phase: AtomicU8,
    /// One mailbox per store shard for owner-routed batches: when
    /// `route_by_owner` is set, workers deposit successor batches into the owning
    /// shard's mailbox during the expand phase instead of locking the stripe, and a
    /// second drain phase lets each shard's owner merge them single-threadedly.
    mailboxes: Vec<Mailbox<S, V::Tag>>,
    results: Vec<OrderedMutex<ResultsRank, Option<WorkerResult<S, V>>>>,
    /// The first panic payload caught on a pool worker, re-raised by the coordinator
    /// after the level completes (a dead worker must still decrement `gate.remaining`,
    /// or the coordinator would wait forever — see `pool_worker`).
    worker_panic: OrderedMutex<PanicSlotRank, Option<Box<dyn std::any::Any + Send>>>,
    gate: OrderedMutex<GateRank, Gate>,
    work_ready: OrderedCondvar,
    work_done: OrderedCondvar,
}

/// The BFS checker's visitor: invariants on every fresh state, violations resolved at
/// the level barrier.
struct BfsVisitor<'a, S> {
    cfg: &'a Levels<'a, S>,
    violation_count: AtomicUsize,
}

impl<S: SpecState> LevelVisitor<S> for BfsVisitor<'_, S> {
    type Ctx = ();
    type Tag = ();
    type Record = PendingViolation;
    type Barrier = Vec<Violation<S>>;
    const SEES_KNOWN: bool = false;

    fn tag(&self, _ctx: &(), _succ: &S, _order: u64) {}

    fn on_insert(
        &self,
        insert: Insert<S>,
        fp: Fingerprint,
        _tag: (),
        depth: u32,
        next: &mut Vec<(StateIndex, S, ())>,
        records: &mut Vec<PendingViolation>,
    ) {
        let Insert::Fresh(index, state) = insert else {
            return;
        };
        let (cfg, limit) = (self.cfg, self.cfg.options.max_states);
        // Only discovered states count towards the state limit's stop.
        if depth > 0 && limit.is_some_and(|max| cfg.store.len() >= max) {
            cfg.stop.request(STOP_STATE_LIMIT);
        }
        let violated = cfg.spec.violated_invariants(&state);
        if !violated.is_empty() {
            let total = self
                .violation_count
                // ordering: AcqRel — the running total decides the stop request
                // below, so each increment must observe and publish its peers.
                .fetch_add(violated.len(), Ordering::AcqRel)
                + violated.len();
            for inv in violated {
                records.push(PendingViolation {
                    index,
                    fp,
                    depth,
                    invariant: inv.id,
                    invariant_name: inv.name,
                });
            }
            let (limit, stop) = match cfg.options.mode {
                CheckMode::FirstViolation => (1, STOP_FIRST_VIOLATION),
                CheckMode::Completion { violation_limit } => {
                    (violation_limit, STOP_VIOLATION_LIMIT)
                }
            };
            if total >= limit {
                cfg.stop.request(stop);
            }
        }
        next.push((index, state, ()));
    }

    /// Turns the level's pending violations into [`Violation`]s with reconstructed
    /// traces, keeping only the first recorded violation of each invariant.
    fn at_barrier(
        &self,
        violations: &mut Vec<Violation<S>>,
        _depth: u32,
        mut pending: Vec<PendingViolation>,
        _next: &mut NextFrontier<'_, S, ()>,
    ) -> Option<StopReason> {
        // Sort so the representative chosen for each invariant does not depend on
        // worker scheduling: lowest depth first, ties broken by fingerprint.
        pending.sort_by_key(|p| (p.depth, p.invariant, p.fp));
        let cfg = self.cfg;
        for p in pending {
            if violations.iter().any(|v| v.invariant == p.invariant) {
                continue;
            }
            // A symmetry-reduced chain is replayed back into the original id frame.
            let trace = if cfg.options.collect_traces {
                cfg.store.trace_to(cfg.spec, cfg.labels, p.index, cfg.canon)
            } else {
                Trace::default()
            };
            violations.push(Violation {
                invariant: p.invariant,
                invariant_name: p.invariant_name,
                depth: p.depth,
                trace,
            });
        }
        None
    }
}

/// Runs breadth-first model checking of `spec` under `options`.
pub fn check_bfs<S: SpecState>(spec: &Spec<S>, options: &CheckOptions) -> CheckOutcome<S> {
    let start = Instant::now();
    let fallbacks_before = canon_stats::tie_cap_fallbacks();
    let labels = LabelTable::new();
    let store: StateStore<S> =
        StateStore::with_spill(options.store_mode, options.shards, &options.spill);
    let cfg = Levels {
        spec,
        labels: &labels,
        store: &store,
        canon: options.symmetry.canon(spec),
        stop: &StopCell::new(),
        deadline: options.time_budget.map(|b| start + b),
        options,
    };
    let visitor = BfsVisitor {
        cfg: &cfg,
        violation_count: AtomicUsize::new(0),
    };
    let mut violations: Vec<Violation<S>> = Vec::new();
    let run = run_levels(&cfg, &visitor, &mut violations);
    let stats = CheckStats {
        distinct_states: store.len(),
        transitions: run.per_worker_transitions.iter().sum(),
        max_depth: run.max_depth,
        elapsed: start.elapsed(),
        per_worker_transitions: run.per_worker_transitions,
        shard_contention: store.contention_counters(),
        peak_entry_bytes: store.entry_bytes(),
        entry_bytes_per_state: store.entry_bytes_per_state(),
        spill: store.spill_stats(),
        pruned_transitions: run.pruned,
        canon_fallbacks: canon_stats::tie_cap_fallbacks().saturating_sub(fallbacks_before),
    };
    CheckOutcome {
        spec_name: spec.name.clone(),
        stats,
        stop_reason: run.stop,
        violations,
        // ordering: Acquire — the final total, read after every worker joined.
        violation_count: visitor.violation_count.load(Ordering::Acquire),
    }
}

/// Runs the level engine from the initial states of `cfg.spec` until the frontier
/// empties or a stop condition ends the run.
pub(crate) fn run_levels<S: SpecState, V: LevelVisitor<S>>(
    cfg: &Levels<'_, S>,
    visitor: &V,
    barrier: &mut V::Barrier,
) -> LevelRun {
    let workers = cfg.options.workers.max(1);
    let shards = cfg.store.shard_count();
    let shared = RunShared {
        cfg,
        visitor,
        footprints: FootprintTable::new(),
        frontier_sleeps: OrderedRwLock::new(Vec::new()),
        frontier: OrderedRwLock::new(Vec::new()),
        ranges: (0..workers).map(|_| StealRange::new(0, 0)).collect(),
        child_depth: AtomicU32::new(1),
        phase: AtomicU8::new(PHASE_EXPAND),
        mailboxes: (0..shards).map(|_| OrderedMutex::new(Vec::new())).collect(),
        results: (0..workers).map(|_| OrderedMutex::new(None)).collect(),
        worker_panic: OrderedMutex::new(None),
        gate: OrderedMutex::new(Gate {
            generation: 0,
            remaining: 0,
            shutdown: false,
        }),
        work_ready: OrderedCondvar::new(),
        work_done: OrderedCondvar::new(),
    };
    let mut run = LevelRun {
        stop: StopReason::Exhausted,
        per_worker_transitions: vec![0; workers],
        pruned: 0,
        max_depth: 0,
    };
    // One worker expands inline on the calling thread; more run as a pool.
    let pool = workers > 1;
    std::thread::scope(|scope| {
        for w in (0..workers).filter(|_| pool) {
            let shared = &shared;
            scope.spawn(move || pool_worker(shared, w));
        }
        run.stop = level_loop(&shared, pool, barrier, &mut run);
        // Unpark everyone one last time so the scope can join.
        let mut gate = shared.gate.lock();
        gate.shutdown = true;
        drop(gate);
        shared.work_ready.notify_all();
    });
    run
}

/// Frontier levels smaller than this are never spilled, whatever the memory budget:
/// below it the queue's syscall overhead dwarfs the memory saved.
const MIN_FRONTIER_CHUNK: usize = 256;

/// One BFS level, either resident or round-tripping through an on-disk index queue.
///
/// Spilled levels store only the `u32` state indices; the states themselves are reloaded
/// from the full-state arena chunk by chunk, which is why frontier spilling requires
/// [`StoreMode::Full`] — in fingerprint-only mode the frontier is the *sole* holder of
/// the live states and dropping them would lose the level.
enum LevelFrontier<S, C> {
    Ram(Vec<(StateIndex, S, C)>),
    Disk(IndexQueue),
}

impl<S, C> LevelFrontier<S, C> {
    fn len(&self) -> usize {
        match self {
            LevelFrontier::Ram(v) => v.len(),
            LevelFrontier::Disk(q) => q.remaining(),
        }
    }
}

/// Accumulates the next BFS level across the chunks of the current one, spilling index
/// runs to disk whenever the resident tail outgrows the memory budget.
pub(crate) struct NextFrontier<'a, S, C> {
    ram: Vec<(StateIndex, S, C)>,
    disk: Option<IndexQueue>,
    /// `(chunk_size, spill_dir)`; `None` disables frontier spilling entirely.
    spill: Option<(usize, &'a Path)>,
    child_depth: u32,
    store: &'a StateStore<S>,
}

impl<'a, S: SpecState, C> NextFrontier<'a, S, C> {
    fn new(spill: Option<(usize, &'a Path)>, child_depth: u32, store: &'a StateStore<S>) -> Self {
        NextFrontier {
            ram: Vec::new(),
            disk: None,
            spill,
            child_depth,
            store,
        }
    }

    pub(crate) fn extend(&mut self, items: Vec<(StateIndex, S, C)>) {
        self.ram.extend(items);
        if let Some((threshold, dir)) = self.spill {
            if self.ram.len() > threshold {
                self.flush(dir);
            }
        }
    }

    /// Moves the resident entries onto the level's index queue, dropping the states
    /// (they stay reloadable from the full-state arena).
    fn flush(&mut self, dir: &Path) {
        let queue = match &mut self.disk {
            Some(queue) => queue,
            None => {
                let path = dir.join(format!("frontier-{:06}.idx", self.child_depth));
                self.disk
                    .insert(IndexQueue::create(&path).expect("creating a frontier spill queue"))
            }
        };
        let indices: Vec<u32> = self.ram.drain(..).map(|(index, ..)| index.0).collect();
        queue
            .push(&indices)
            .expect("appending to a frontier spill queue");
        self.store.note_frontier_spilled(indices.len() as u64);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ram.is_empty() && self.disk.as_ref().is_none_or(|q| q.remaining() == 0)
    }

    /// Finalizes the level: fully resident, or fully on disk once any part spilled (a
    /// mixed level would expand its two halves in a scheduling-dependent order).
    fn into_frontier(mut self) -> LevelFrontier<S, C> {
        match self.disk.take() {
            Some(queue) => {
                self.disk = Some(queue);
                if !self.ram.is_empty() {
                    let (_, dir) = self.spill.expect("a spilled frontier has a spill dir");
                    self.flush(dir);
                }
                LevelFrontier::Disk(self.disk.take().expect("queue restored above"))
            }
            None => LevelFrontier::Ram(self.ram),
        }
    }
}

/// The level-synchronous main loop, shared by the inline (1-worker) and pooled paths.
fn level_loop<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    pool: bool,
    barrier: &mut V::Barrier,
    run: &mut LevelRun,
) -> StopReason {
    let cfg = &shared.cfg;
    // Frontier spilling is active only with a memory budget AND the full-state store
    // (see `LevelFrontier`).  The chunk size is how many frontier entries the budget
    // buys; states round-trip through disk only when a level outgrows it.
    let frontier_spill: Option<(usize, &Path)> = match (
        cfg.store.spill_dir(),
        cfg.options.spill.budget_bytes,
        cfg.store.mode(),
    ) {
        (Some(dir), Some(budget), StoreMode::Full) => {
            let entry = std::mem::size_of::<(StateIndex, S, V::Ctx)>().max(1);
            Some(((budget as usize / entry).max(MIN_FRONTIER_CHUNK), dir))
        }
        _ => None,
    };

    // The initial states are level 0: inserted, handed to the visitor and merged at a
    // barrier like every later level.
    let mut next = NextFrontier::new(frontier_spill, 0, cfg.store);
    let (mut seeds, mut records) = (Vec::new(), Vec::new());
    for (order, (index, fp, state)) in cfg.store.seed(cfg.spec, cfg.canon).into_iter().enumerate() {
        let tag = shared.visitor.tag(&V::Ctx::default(), &state, order as u64);
        let insert = Insert::Fresh(index, state);
        shared
            .visitor
            .on_insert(insert, fp, tag, 0, &mut seeds, &mut records);
    }
    next.extend(seeds);
    let mut sleep_edges: Vec<(StateIndex, SleepSet)> = Vec::new();
    let mut level_depth: u32 = 0;
    loop {
        let visitor_stop = shared.visitor.at_barrier(
            barrier,
            level_depth,
            std::mem::take(&mut records),
            &mut next,
        );
        if !next.is_empty() {
            run.max_depth = run.max_depth.max(level_depth);
        }
        if let Some(reason) = cfg.stop.stop_reason().or(visitor_stop) {
            return reason;
        }
        let mut frontier = next.into_frontier();
        if cfg.options.por {
            publish_frontier_sleeps(shared, std::mem::take(&mut sleep_edges), &frontier);
        }
        if frontier.len() == 0 {
            return StopReason::Exhausted;
        }
        // Check resource budgets between levels (workers also check them within a level).
        if cfg.deadline.is_some_and(|at| Instant::now() >= at) {
            return StopReason::TimeBudget;
        }
        if cfg.options.max_depth.is_some_and(|max| level_depth >= max) {
            return StopReason::DepthBound;
        }

        level_depth += 1;
        // ordering: Release — pairs with the workers' Acquire loads; the gate
        // handshake already orders the level publication, this keeps the field
        // self-consistent even read in isolation.
        shared.child_depth.store(level_depth, Ordering::Release);
        next = NextFrontier::new(frontier_spill, level_depth, cfg.store);

        // A resident level is one chunk; a spilled level streams back in budget-sized
        // chunks, each expanded exactly like a whole level used to be.
        loop {
            let chunk: Vec<(StateIndex, S, V::Ctx)> = match &mut frontier {
                LevelFrontier::Ram(v) => std::mem::take(v),
                LevelFrontier::Disk(queue) => {
                    let max = frontier_spill
                        .map(|(chunk_size, _)| chunk_size)
                        .unwrap_or(usize::MAX);
                    queue
                        .next_chunk(max)
                        .expect("reading back a spilled frontier queue")
                        .into_iter()
                        .map(|raw| {
                            let index = StateIndex(raw);
                            let state = cfg
                                .store
                                .with_state(index, S::clone)
                                .expect("spilled frontiers require the full-state store");
                            (index, state, V::Ctx::default())
                        })
                        .collect()
                }
            };
            if chunk.is_empty() {
                break;
            }
            expand_level_chunk(
                shared,
                chunk,
                pool,
                run,
                &mut next,
                &mut records,
                &mut sleep_edges,
            );
            // Mid-level stops abort the remaining chunks, exactly as expansion of a
            // resident level aborts its remaining claims.
            if cfg.stop.requested() || matches!(frontier, LevelFrontier::Ram(_)) {
                break;
            }
        }
    }
}

/// Builds the next level's sleep sets from the arrival edges recorded during the level
/// just expanded, and publishes them index-aligned with the next frontier.
///
/// A state reached through several same-level edges keeps only the labels *every*
/// arrival keeps asleep (set intersection — commutative, so the result is independent
/// of worker scheduling).  Edges to states of older levels (re-visits at greater depth)
/// have no aligned frontier slot and are dropped; spilled levels get no sleep sets at
/// all — both degrade the reduction, never its soundness.
fn publish_frontier_sleeps<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    sleep_edges: Vec<(StateIndex, SleepSet)>,
    frontier: &LevelFrontier<S, V::Ctx>,
) {
    let mut by_index: HashMap<u32, SleepSet> = HashMap::with_capacity(sleep_edges.len());
    for (index, sleep) in sleep_edges {
        match by_index.entry(index.0) {
            Entry::Occupied(mut slot) => por::intersect_sorted(slot.get_mut(), &sleep),
            Entry::Vacant(slot) => {
                slot.insert(sleep);
            }
        }
    }
    let aligned: Vec<SleepSet> = match frontier {
        LevelFrontier::Ram(v) => v
            .iter()
            .map(|(index, ..)| by_index.remove(&index.0).unwrap_or_default())
            .collect(),
        LevelFrontier::Disk(_) => Vec::new(),
    };
    *shared.frontier_sleeps.write() = aligned;
}

/// Expands one chunk of the current level (inline or on the pool), merging the per-worker
/// results into the accumulators.  Under owner routing each chunk runs as two phases:
/// expand (deposit successors into shard mailboxes) then drain (each shard's owner
/// merges its mailbox).
fn expand_level_chunk<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    chunk: Vec<(StateIndex, S, V::Ctx)>,
    pool: bool,
    run: &mut LevelRun,
    next: &mut NextFrontier<'_, S, V::Ctx>,
    records: &mut Vec<V::Record>,
    sleep_edges: &mut Vec<(StateIndex, SleepSet)>,
) {
    let workers = run.per_worker_transitions.len();
    let mut merge = |results: Vec<WorkerResult<S, V>>| {
        for (w, result) in results.into_iter().enumerate() {
            run.per_worker_transitions[w] += result.transitions;
            run.pruned += result.pruned;
            next.extend(result.next_frontier);
            records.extend(result.records);
            sleep_edges.extend(result.sleep_edges);
        }
    };

    // Small frontiers are not worth waking the pool for; expand them inline.
    let use_pool = pool && chunk.len() >= 64;
    if use_pool {
        {
            let mut shared_frontier = shared.frontier.write();
            *shared_frontier = chunk;
            let len = shared_frontier.len();
            let per_worker = len.div_ceil(workers);
            for (w, range) in shared.ranges.iter().enumerate() {
                range.reset((w * per_worker).min(len), ((w + 1) * per_worker).min(len));
            }
        }
        // ordering: Release — the phase is read by workers after the gate wake;
        // Release pairs with their Acquire load so a cycle never runs a stale phase.
        shared.phase.store(PHASE_EXPAND, Ordering::Release);
        merge(run_pool_cycle(shared, workers));
    } else {
        shared.ranges[0].reset(0, chunk.len());
        for range in &shared.ranges[1..] {
            range.reset(0, 0);
        }
        merge(vec![expand_range(shared, &chunk, 0)]);
    }
    if shared.cfg.options.route_by_owner {
        if shared.cfg.stop.requested() {
            // The level is being aborted: deposited batches are discarded just as
            // the unrouted engine drops unflushed worker buffers on a stop.
            clear_mailboxes(shared);
        } else if use_pool {
            // ordering: Release — see the PHASE_EXPAND store above.
            shared.phase.store(PHASE_DRAIN, Ordering::Release);
            merge(run_pool_cycle(shared, workers));
        } else {
            merge(vec![drain_mailboxes(shared, 0, 1)]);
        }
    }
}

/// Runs one gate cycle of the persistent pool (all workers execute the current phase)
/// and collects the published per-worker results.
fn run_pool_cycle<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    workers: usize,
) -> Vec<WorkerResult<S, V>> {
    // Wake the pool and wait for every worker to finish the cycle.
    {
        let mut gate = shared.gate.lock();
        gate.generation += 1;
        gate.remaining = workers;
        drop(gate);
        shared.work_ready.notify_all();
        let mut gate = shared.gate.lock();
        while gate.remaining > 0 {
            gate = shared.work_done.wait(gate);
        }
    }
    if let Some(payload) = shared.worker_panic.lock().take() {
        // Wake the parked workers so `thread::scope` can join, then re-raise
        // the worker's panic from the coordinator.
        let mut gate = shared.gate.lock();
        gate.shutdown = true;
        drop(gate);
        shared.work_ready.notify_all();
        std::panic::resume_unwind(payload);
    }
    let mut results = Vec::with_capacity(workers);
    for slot in &shared.results {
        let result = slot
            .lock()
            .take()
            .expect("every pool worker publishes a cycle result");
        results.push(result);
    }
    results
}

fn clear_mailboxes<S: SpecState, V: LevelVisitor<S>>(shared: &RunShared<'_, S, V>) {
    for mailbox in &shared.mailboxes {
        mailbox.lock().clear();
    }
}

/// The body of one pool worker: park until the coordinator publishes a level (or shuts
/// the run down), expand it, publish the result, repeat.
fn pool_worker<S: SpecState, V: LevelVisitor<S>>(shared: &RunShared<'_, S, V>, worker: usize) {
    let mut last_generation = 0u64;
    loop {
        {
            let mut gate = shared.gate.lock();
            while gate.generation == last_generation && !gate.shutdown {
                gate = shared.work_ready.wait(gate);
            }
            if gate.shutdown {
                return;
            }
            last_generation = gate.generation;
        }
        // A panicking spec closure (action or invariant) must not leave the
        // coordinator waiting forever on `gate.remaining`: catch the panic, publish an
        // empty result, request a stop so the other workers drain, and let the
        // coordinator re-raise the payload after the level completes.  (The previous
        // per-level-spawn engine propagated worker panics through `join()`; this keeps
        // that contract under the persistent pool.)
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // ordering: Acquire — pairs with the coordinator's Release store; the
            // phase decides which cycle body runs, so it must not be stale.
            if shared.phase.load(Ordering::Acquire) == PHASE_DRAIN {
                drain_mailboxes(shared, worker, shared.ranges.len())
            } else {
                let frontier = shared.frontier.read();
                expand_range(shared, &frontier, worker)
            }
        }))
        .unwrap_or_else(|payload| {
            shared.worker_panic.lock().get_or_insert(payload);
            shared.cfg.stop.request(STOP_TIME_BUDGET);
            WorkerLevelResult::default()
        });
        *shared.results[worker].lock() = Some(result);
        let mut gate = shared.gate.lock();
        gate.remaining -= 1;
        if gate.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// One buffered successor awaiting its batch merge: 24 bytes of metadata plus the state
/// (the canonical representative, with the applied permutation, under symmetry).
struct BufferedSuccessor<S, T> {
    fp: Fingerprint,
    parent: StateIndex,
    label: LabelId,
    state: S,
    perm: Option<Perm>,
    /// The sleep set this edge hands down to its target (empty when POR is off).
    sleep: SleepSet,
    tag: T,
}

/// The worker loop: claims frontier indices (own range first, then stolen halves),
/// expands each state, and buffers successors per shard, flushing in batches.
fn expand_range<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    frontier: &[(StateIndex, S, V::Ctx)],
    worker: usize,
) -> WorkerResult<S, V> {
    let mut result = WorkerLevelResult::default();
    let cfg = &shared.cfg;
    // Run-constant knobs, read once rather than through two references per successor.
    let (por, routed) = (cfg.options.por, cfg.options.route_by_owner);
    let batch_size = cfg.options.batch_size.max(1);
    let (spec, store, canon) = (cfg.spec, cfg.store, cfg.canon);
    let shard_count = store.shard_count();
    let mut buffers: Vec<Vec<BufferedSuccessor<S, V::Tag>>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    let mut seqs: Vec<u32> = vec![0; if routed { shard_count } else { 0 }];
    let mut stolen: Option<StealRange> = None;
    let mut processed: u64 = 0;
    // ordering: Acquire — pairs with the coordinator's Release store between levels.
    let child_depth = shared.child_depth.load(Ordering::Acquire);
    // Index-aligned sleep sets of the published frontier (empty map when POR is off or
    // the level was spilled).  Workers hold the read lock for the whole cycle; the
    // coordinator only writes between cycles, while every worker is parked.
    let frontier_sleeps = por.then(|| shared.frontier_sleeps.read());

    'claim: loop {
        if cfg.stop.requested() {
            break;
        }
        // Claim from the stolen range first (it was taken to be worked on), then from the
        // worker's own range, then steal from the largest remaining range.
        let idx = loop {
            if let Some(range) = &stolen {
                if let Some(idx) = range.claim() {
                    break idx;
                }
                stolen = None;
            }
            if let Some(idx) = shared.ranges[worker].claim() {
                break idx;
            }
            let victim = shared
                .ranges
                .iter()
                .enumerate()
                .filter(|(v, _)| *v != worker)
                .max_by_key(|(_, r)| r.remaining())
                .filter(|(_, r)| r.remaining() >= 2);
            let Some((_, victim)) = victim else {
                // No range anywhere holds stealable work: the level is drained.
                break 'claim;
            };
            match victim.steal_half() {
                Some((start, end)) => stolen = Some(StealRange::new(start, end)),
                // Lost the race to the victim's owner (or another thief); other ranges
                // may still hold work, so rescan rather than leaving this worker idle
                // for the rest of the level.
                None => continue,
            }
        };

        let (parent_index, state, ctx) = &frontier[idx];
        // POR bookkeeping for this parent: the labels it must not re-explore (sorted),
        // their footprints (resolved once, outside the hot closure), and the explored
        // earlier siblings accumulated as enumeration proceeds.
        let sleep_in: &[LabelId] = frontier_sleeps
            .as_ref()
            .and_then(|sleeps| sleeps.get(idx))
            .map_or(&[], |sleep| sleep.as_slice());
        let sleep_in_effects: Vec<(LabelId, Effect)> = if sleep_in.is_empty() {
            Vec::new()
        } else {
            shared.footprints.resolve(sleep_in)
        };
        let mut retained: Vec<(LabelId, Effect)> = Vec::new();
        // The parent's canonicalization memo, built lazily on the first successor that
        // can use the incremental path (the parent state is already canonical).
        let mut memo: Option<Box<dyn std::any::Any + Send + Sync>> = None;
        // Effects observed during this expansion; recorded into the (locked) footprint
        // table only after the callback returns — the successor callback itself stays
        // lock-free (the concurrency lint's no-lock-in-callback rule, which keeps spec
        // enumeration code unable to deadlock against engine locks).
        let mut fresh_effects: Vec<(LabelId, Effect)> = Vec::new();
        let mut rank: u64 = 0;
        spec.for_each_successor(state, cfg.labels, |label, next, effect| {
            if por && sleep_in.binary_search(&label).is_ok() {
                // Already covered through a sibling interleaving of an earlier
                // edge: skip before canonicalization and fingerprinting.
                result.pruned += 1;
                return;
            }
            result.transitions += 1;
            let mut sleep = SleepSet::new();
            if por {
                if let Some(e) = effect {
                    fresh_effects.push((label, e));
                }
                sleep = por::child_sleep(&sleep_in_effects, &retained, effect);
                if let Some(e) = effect.filter(|e| !e.is_global()) {
                    retained.push((label, e));
                }
            }
            // Under symmetry the successor is replaced by the canonical
            // representative of its orbit before fingerprinting, so the whole
            // orbit dedups to one store entry; the applied permutation rides
            // along for later trace de-canonicalization.
            let (next, perm) =
                canonical_successor(spec, canon, state, &mut memo, next, effect, label);
            // Sleep-set labels live in the parent's id frame; a relabelling edge
            // invalidates them, so the child starts awake (always sound).
            if perm.as_ref().is_some_and(|p| !p.is_identity()) {
                sleep.clear();
            }
            let tag = shared.visitor.tag(ctx, &next, ((idx as u64) << 32) | rank);
            rank += 1;
            let fp = fingerprint(&next);
            buffers[store.shard_of(fp)].push(BufferedSuccessor {
                fp,
                parent: *parent_index,
                label,
                state: next,
                perm,
                sleep,
                tag,
            });
        });
        for (label, effect) in fresh_effects.drain(..) {
            shared.footprints.record(label, effect);
        }
        // Batch flushing happens here, between parents, instead of inside the
        // callback: a buffer can overshoot `batch_size` by at most one parent's
        // successor count, and the merged outcome is unchanged (flush order within
        // a worker was already a function of claim order alone).
        for shard in 0..shard_count {
            if buffers[shard].len() >= batch_size {
                if routed {
                    deposit(shared, shard, worker, &mut seqs[shard], &mut buffers[shard]);
                } else {
                    flush_shard(shared, shard, &mut buffers[shard], child_depth, &mut result);
                }
            }
        }

        processed += 1;
        if processed.is_multiple_of(64) {
            if let Some(deadline) = cfg.deadline {
                if Instant::now() >= deadline {
                    cfg.stop.request(STOP_TIME_BUDGET);
                }
            }
        }
    }

    // Merge whatever is still buffered at the level boundary — unless a stop was
    // requested, in which case exploration is being aborted anyway and merging the
    // leftovers would only push `distinct_states` further past the stop condition (the
    // pre-parallel engine likewise broke out without expanding the rest of the level).
    if !cfg.stop.requested() {
        for (shard, buffer) in buffers.iter_mut().enumerate() {
            if !buffer.is_empty() {
                if routed {
                    deposit(shared, shard, worker, &mut seqs[shard], buffer);
                } else {
                    flush_shard(shared, shard, buffer, child_depth, &mut result);
                }
            }
        }
    }
    result
}

/// Canonicalizes one successor of the (canonical) `parent` under symmetry reduction:
/// `(next, None)` when `canon` is off.  When `spec` provides an incremental
/// canonicalization and the successor's footprint bounds the touched servers, the
/// parent's sort keys (memoized in `memo`, built on first use) are reused instead of
/// recomputed; debug builds check every incremental result against the full
/// recomputation.
#[inline]
pub(crate) fn canonical_successor<S: SpecState>(
    spec: &Spec<S>,
    canon: Option<&CanonFn<S>>,
    parent: &S,
    memo: &mut Option<Box<dyn std::any::Any + Send + Sync>>,
    next: S,
    effect: Option<Effect>,
    #[cfg_attr(not(debug_assertions), allow(unused_variables))] label: LabelId,
) -> (S, Option<Perm>) {
    let Some(canon) = canon else {
        return (next, None);
    };
    let incr = spec.incremental_symmetry.as_ref();
    let (canonical, perm) = match (incr, effect.filter(|e| !e.is_global())) {
        (Some(incr), Some(effect)) => {
            let parent_memo = memo.get_or_insert_with(|| (incr.memo)(parent));
            #[cfg(debug_assertions)]
            let oracle = canon(&next).0;
            let (canonical, perm) = (incr.canon)(next, &**parent_memo, effect.touched_servers());
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                canonical, oracle,
                "incremental canonicalization diverged from the full recomputation \
                 (label {label:?})"
            );
            (canonical, perm)
        }
        // No usable footprint, but the owned full path still skips the deep rewrite
        // when the canonical permutation is the identity.
        (Some(incr), None) => (incr.full_owned)(next),
        (None, _) => canon(&next),
    };
    (canonical, Some(perm))
}

/// Routes one successor batch to its owning shard's mailbox (owner-routed mode), tagging
/// it with `(producer, seq)` so the drain phase can replay batches deterministically.
fn deposit<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    shard: usize,
    worker: usize,
    seq: &mut u32,
    buffer: &mut Vec<BufferedSuccessor<S, V::Tag>>,
) {
    let items = std::mem::take(buffer);
    shared.mailboxes[shard].lock().push(RoutedBatch {
        producer: worker as u32,
        seq: *seq,
        items,
    });
    *seq += 1;
}

/// The drain phase of an owner-routed chunk: each of the `drainers` workers merges the
/// mailboxes of the shards it owns (`shard % drainers == worker`), replaying batches in
/// `(producer, seq)` order.  Every shard has exactly one drainer, so inserts into a
/// stripe are single-threaded — the lock in `flush_shard` is uncontended by design.
/// `drainers` is the number of workers participating in *this* drain cycle: the pool
/// size on the pooled path, 1 when a small chunk drains inline.
fn drain_mailboxes<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    worker: usize,
    drainers: usize,
) -> WorkerResult<S, V> {
    let mut result = WorkerLevelResult::default();
    // ordering: Acquire — pairs with the coordinator's Release store between levels.
    let child_depth = shared.child_depth.load(Ordering::Acquire);
    let workers = drainers.max(1);
    for shard in (worker..shared.mailboxes.len()).step_by(workers) {
        let mut batches = std::mem::take(&mut *shared.mailboxes[shard].lock());
        if batches.is_empty() {
            continue;
        }
        batches.sort_by_key(|b| (b.producer, b.seq));
        let mut combined: Vec<BufferedSuccessor<S, V::Tag>> =
            batches.into_iter().flat_map(|b| b.items).collect();
        flush_shard(shared, shard, &mut combined, child_depth, &mut result);
    }
    result
}

/// Merges one per-worker buffer into its stripe under a single lock acquisition, then
/// (outside the lock) hands the insert results to the visitor.
fn flush_shard<S: SpecState, V: LevelVisitor<S>>(
    shared: &RunShared<'_, S, V>,
    shard: usize,
    buffer: &mut Vec<BufferedSuccessor<S, V::Tag>>,
    child_depth: u32,
    result: &mut WorkerResult<S, V>,
) {
    let mut inserted: Vec<(Insert<S>, Fingerprint, V::Tag)> = Vec::new();
    let por = shared.cfg.options.por;
    {
        let mut handle = shared.cfg.store.lock_shard(shard);
        for item in buffer.drain(..) {
            let insert = handle.insert_canonical(
                item.fp,
                Some(item.parent),
                item.label,
                item.state,
                item.perm,
            );
            // Both fresh and already-known targets contribute an arrival edge: a state
            // reached again within the same level only keeps a label asleep if every
            // minimal-depth arrival does (re-visits from older levels are dropped at
            // the barrier — their targets have no slot in the next frontier).
            if por {
                let (Insert::Fresh(index, _) | Insert::Existing(index, _)) = &insert;
                result.sleep_edges.push((*index, item.sleep));
            }
            if V::SEES_KNOWN || matches!(insert, Insert::Fresh(..)) {
                inserted.push((insert, item.fp, item.tag));
            }
        }
    }
    for (insert, fp, tag) in inserted {
        let (next, records) = (&mut result.next_frontier, &mut result.records);
        shared
            .visitor
            .on_insert(insert, fp, tag, child_depth, next, records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreMode;
    use remix_spec::{
        ActionDef, ActionInstance, Granularity, Invariant, InvariantSource, ModuleId, ModuleSpec,
    };
    use std::collections::BTreeMap;
    use std::time::Duration;

    /// A pair of counters where `b` may only be incremented after `a`, bounded by `max`.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Pair {
        a: u32,
        b: u32,
        max: u32,
    }

    impl SpecState for Pair {
        fn project(&self, vars: &[&str]) -> BTreeMap<String, remix_spec::Value> {
            let mut m = BTreeMap::new();
            for v in vars {
                match *v {
                    "a" => {
                        m.insert("a".to_owned(), remix_spec::Value::from(self.a));
                    }
                    "b" => {
                        m.insert("b".to_owned(), remix_spec::Value::from(self.b));
                    }
                    _ => {}
                }
            }
            m
        }
        fn variable_names() -> Vec<&'static str> {
            vec!["a", "b"]
        }
    }

    fn pair_spec(max: u32, bad_at: Option<(u32, u32)>) -> Spec<Pair> {
        let m = ModuleId("Pair");
        let inc_a = ActionDef::new(
            "IncA",
            m,
            Granularity::Baseline,
            vec!["a"],
            vec!["a"],
            move |s: &Pair| {
                if s.a < s.max {
                    vec![ActionInstance::new(
                        format!("IncA({})", s.a),
                        Pair {
                            a: s.a + 1,
                            ..s.clone()
                        },
                    )]
                } else {
                    vec![]
                }
            },
        );
        let inc_b = ActionDef::new(
            "IncB",
            m,
            Granularity::Baseline,
            vec!["a", "b"],
            vec!["b"],
            move |s: &Pair| {
                if s.b < s.a {
                    vec![ActionInstance::new(
                        format!("IncB({})", s.b),
                        Pair {
                            b: s.b + 1,
                            ..s.clone()
                        },
                    )]
                } else {
                    vec![]
                }
            },
        );
        let inv = Invariant::always(
            "NO-BAD",
            "never reach the bad pair",
            InvariantSource::Protocol,
            move |s: &Pair| match bad_at {
                Some((a, b)) => !(s.a == a && s.b == b),
                None => true,
            },
        );
        Spec::new(
            "pair",
            vec![Pair { a: 0, b: 0, max }],
            vec![ModuleSpec::new(
                m,
                Granularity::Baseline,
                vec![inc_a, inc_b],
            )],
            vec![inv],
        )
    }

    #[test]
    fn explores_whole_space_when_no_violation() {
        let spec = pair_spec(3, None);
        let outcome = check_bfs(&spec, &CheckOptions::default());
        assert!(outcome.passed());
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        // Reachable states are all pairs with b <= a <= 3: 4 + 3 + 2 + 1 = 10.
        assert_eq!(outcome.stats.distinct_states, 10);
        assert_eq!(outcome.stats.max_depth, 6);
        assert_eq!(
            outcome.stats.peak_entry_bytes,
            10 * outcome.stats.entry_bytes_per_state
        );
    }

    #[test]
    fn finds_minimal_depth_counterexample() {
        let spec = pair_spec(3, Some((2, 1)));
        let outcome = check_bfs(&spec, &CheckOptions::default());
        assert!(!outcome.passed());
        assert_eq!(outcome.stop_reason, StopReason::FirstViolation);
        let v = outcome.first_violation().unwrap();
        // Reaching (2, 1) takes exactly 3 transitions; BFS must not find a longer path.
        assert_eq!(v.depth, 3);
        assert_eq!(v.trace.depth(), 3);
        assert_eq!(v.trace.last_state().unwrap(), &Pair { a: 2, b: 1, max: 3 });
    }

    #[test]
    fn fingerprint_only_mode_finds_the_same_counterexample() {
        let spec = pair_spec(3, Some((2, 1)));
        let full = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::Full),
        );
        let fp_only = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::FingerprintOnly),
        );
        let (v_full, v_fp) = (
            full.first_violation().unwrap(),
            fp_only.first_violation().unwrap(),
        );
        assert_eq!(v_full.depth, v_fp.depth);
        assert_eq!(v_full.trace.last_state(), v_fp.trace.last_state());
        assert_eq!(
            v_full.trace.action_labels(),
            v_fp.trace.action_labels(),
            "the replayed fingerprint-only trace matches the stored one"
        );
        assert!(
            fp_only.stats.entry_bytes_per_state < full.stats.entry_bytes_per_state,
            "dropping states must shrink the per-entry footprint"
        );
    }

    #[test]
    fn fingerprint_only_mode_explores_the_same_space() {
        let spec = pair_spec(12, None);
        let full = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::Full),
        );
        let fp_only = check_bfs(
            &spec,
            &CheckOptions::default().with_store_mode(StoreMode::FingerprintOnly),
        );
        assert_eq!(full.stats.distinct_states, fp_only.stats.distinct_states);
        assert_eq!(full.stats.transitions, fp_only.stats.transitions);
        assert_eq!(full.stats.max_depth, fp_only.stats.max_depth);
        assert!(fp_only.stats.peak_entry_bytes < full.stats.peak_entry_bytes);
    }

    #[test]
    fn completion_mode_counts_all_violations() {
        // Every state with a == max violates; there are max+1 of them (b ranges 0..=max).
        let m = ModuleId("Pair");
        let spec = {
            let mut s = pair_spec(2, None);
            s.invariants = vec![Invariant::always(
                "A-NOT-MAX",
                "a below max",
                InvariantSource::Protocol,
                |p: &Pair| p.a < p.max,
            )];
            let _ = m;
            s
        };
        let outcome = check_bfs(&spec, &CheckOptions::completion());
        assert_eq!(outcome.stop_reason, StopReason::Exhausted);
        assert_eq!(outcome.violation_count, 3);
        // Only one trace is kept per invariant.
        assert_eq!(outcome.violations.len(), 1);
    }

    #[test]
    fn respects_state_limit_and_depth_bound() {
        let spec = pair_spec(10, None);
        let outcome = check_bfs(&spec, &CheckOptions::default().with_max_states(5));
        assert_eq!(outcome.stop_reason, StopReason::StateLimit);
        assert!(outcome.stats.distinct_states >= 5);

        let outcome = check_bfs(&spec, &CheckOptions::default().with_max_depth(2));
        assert_eq!(outcome.stop_reason, StopReason::DepthBound);
        assert!(outcome.stats.max_depth <= 2);
    }

    #[test]
    fn respects_time_budget() {
        let spec = pair_spec(60, None);
        let outcome = check_bfs(
            &spec,
            &CheckOptions::default().with_time_budget(Duration::from_millis(0)),
        );
        assert_eq!(outcome.stop_reason, StopReason::TimeBudget);
    }

    #[test]
    fn violation_stop_outranks_resource_stops_in_the_same_level() {
        // A level where both the first violation and the state limit fire must still
        // deterministically report the violation stop — it carries the counterexample.
        let spec = pair_spec(8, Some((1, 0)));
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let outcome = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_store_mode(mode)
                    .with_max_states(1),
            );
            assert_eq!(
                outcome.stop_reason,
                StopReason::FirstViolation,
                "store mode {mode}"
            );
            assert!(!outcome.passed());
        }
    }

    #[test]
    fn stop_requests_resolve_under_a_fixed_precedence() {
        // Whatever order workers trip their conditions in — violation limit, state
        // limit and time budget all within one level — the resolved reason is fixed.
        for order in [
            [STOP_TIME_BUDGET, STOP_STATE_LIMIT, STOP_VIOLATION_LIMIT],
            [STOP_VIOLATION_LIMIT, STOP_TIME_BUDGET, STOP_STATE_LIMIT],
            [STOP_STATE_LIMIT, STOP_VIOLATION_LIMIT, STOP_TIME_BUDGET],
        ] {
            let cell = StopCell::new();
            for bit in order {
                cell.request(bit);
            }
            assert_eq!(cell.stop_reason(), Some(StopReason::ViolationLimit));
        }
        let cell = StopCell::new();
        cell.request(STOP_TIME_BUDGET);
        cell.request(STOP_STATE_LIMIT);
        assert_eq!(cell.stop_reason(), Some(StopReason::StateLimit));
        cell.request(STOP_FIRST_VIOLATION);
        assert_eq!(cell.stop_reason(), Some(StopReason::FirstViolation));
    }

    #[test]
    #[should_panic(expected = "boom in successor closure")]
    fn pool_worker_panics_propagate_instead_of_hanging() {
        // A wide first level (>= 64 states) forces the persistent pool to run; the
        // poisoned state's successor closure then panics on a worker thread.  The
        // panic must resurface from check_bfs (as it did with the per-level-spawn
        // engine), not leave the coordinator parked forever.
        let m = ModuleId("Wide");
        let spawn = ActionDef::new(
            "Spawn",
            m,
            Granularity::Baseline,
            vec!["a"],
            vec!["a"],
            |s: &Pair| {
                if s.a == 0 {
                    return (1..=100)
                        .map(|i| {
                            ActionInstance::new(
                                format!("Spawn({i})"),
                                Pair {
                                    a: i,
                                    b: 0,
                                    max: 100,
                                },
                            )
                        })
                        .collect();
                }
                if s.a == 42 {
                    panic!("boom in successor closure");
                }
                vec![]
            },
        );
        let spec = Spec::new(
            "wide",
            vec![Pair {
                a: 0,
                b: 0,
                max: 100,
            }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![spawn])],
            vec![],
        );
        let _ = check_bfs(&spec, &CheckOptions::default().with_workers(4));
    }

    #[test]
    fn parallel_workers_agree_with_sequential() {
        let spec = pair_spec(12, Some((9, 4)));
        let seq = check_bfs(&spec, &CheckOptions::default());
        let par = check_bfs(&spec, &CheckOptions::default().with_workers(4));
        assert_eq!(
            seq.first_violation().unwrap().depth,
            par.first_violation().unwrap().depth
        );
        let full_seq = check_bfs(&pair_spec(12, None), &CheckOptions::default());
        let full_par = check_bfs(
            &pair_spec(12, None),
            &CheckOptions::default().with_workers(4),
        );
        assert_eq!(
            full_seq.stats.distinct_states,
            full_par.stats.distinct_states
        );
    }

    #[test]
    fn sharding_and_batching_knobs_do_not_change_the_search() {
        let spec = pair_spec(14, None);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        for (shards, batch) in [(1, 1), (2, 3), (256, 4096)] {
            for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
                let outcome = check_bfs(
                    &spec,
                    &CheckOptions::default()
                        .with_workers(3)
                        .with_shards(shards)
                        .with_batch_size(batch)
                        .with_store_mode(mode),
                );
                assert_eq!(
                    outcome.stats.distinct_states,
                    baseline.stats.distinct_states
                );
                assert_eq!(outcome.stats.max_depth, baseline.stats.max_depth);
                assert_eq!(outcome.stop_reason, StopReason::Exhausted);
            }
        }
    }

    #[test]
    fn tiny_memory_budget_spills_but_does_not_change_the_search() {
        // A budget far below the state count must force fingerprint runs (and, in Full
        // mode, frontier levels) onto disk while leaving every reported statistic and
        // the violation identical to the in-RAM run.
        use crate::spill::SpillConfig;
        let spec = pair_spec(40, None);
        // Explicitly in-RAM so the baseline ignores any ambient REMIX_MEM_BUDGET
        // (the CI spill leg sets one for the whole test suite).
        let baseline = check_bfs(
            &spec,
            &CheckOptions::default().with_spill(SpillConfig::in_ram()),
        );
        for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
            let spilled = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_store_mode(mode)
                    .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
            );
            assert_eq!(
                spilled.stats.distinct_states, baseline.stats.distinct_states,
                "store mode {mode}"
            );
            assert_eq!(spilled.stats.transitions, baseline.stats.transitions);
            assert_eq!(spilled.stats.max_depth, baseline.stats.max_depth);
            assert_eq!(spilled.stop_reason, StopReason::Exhausted);
            assert!(
                spilled.stats.spill.runs_spilled > 0,
                "a 1 KiB budget over {} states must spill: {:?}",
                spilled.stats.distinct_states,
                spilled.stats.spill
            );
            assert!(spilled.stats.spill.disk_probes > 0);
            assert_eq!(
                spilled.stats.spill.frontier_spilled, 0,
                "pair_spec levels are narrower than the minimum spill chunk"
            );
        }
        assert_eq!(
            baseline.stats.spill,
            Default::default(),
            "no budget, no spill activity"
        );
    }

    /// A three-level comb: one root fans out to `width` children, each ticking twice.
    /// Every level after the root is `width` states wide, far past the budgeted chunk.
    fn wide_spec(width: u32) -> Spec<Pair> {
        let m = ModuleId("Wide");
        let spawn = ActionDef::new(
            "Spawn",
            m,
            Granularity::Baseline,
            vec!["a", "b"],
            vec!["a", "b"],
            move |s: &Pair| {
                if s.a == 0 {
                    (1..=width)
                        .map(|i| {
                            ActionInstance::new(
                                format!("Spawn({i})"),
                                Pair {
                                    a: i,
                                    b: 0,
                                    max: width,
                                },
                            )
                        })
                        .collect()
                } else if s.b < 2 {
                    vec![ActionInstance::new(
                        format!("Tick({},{})", s.a, s.b),
                        Pair {
                            b: s.b + 1,
                            ..s.clone()
                        },
                    )]
                } else {
                    vec![]
                }
            },
        );
        Spec::new(
            "wide",
            vec![Pair {
                a: 0,
                b: 0,
                max: width,
            }],
            vec![ModuleSpec::new(m, Granularity::Baseline, vec![spawn])],
            vec![],
        )
    }

    #[test]
    fn wide_levels_round_trip_through_the_frontier_queue() {
        use crate::spill::SpillConfig;
        let spec = wide_spec(600);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        assert_eq!(baseline.stats.distinct_states, 1 + 3 * 600);
        for workers in [1, 3] {
            let spilled = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_workers(workers)
                    .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
            );
            assert_eq!(
                spilled.stats.distinct_states, baseline.stats.distinct_states,
                "workers {workers}"
            );
            assert_eq!(spilled.stats.transitions, baseline.stats.transitions);
            assert_eq!(spilled.stats.max_depth, baseline.stats.max_depth);
            assert_eq!(spilled.stop_reason, StopReason::Exhausted);
            assert!(
                spilled.stats.spill.frontier_spilled > 0,
                "600-wide levels exceed the budgeted chunk: {:?}",
                spilled.stats.spill
            );
        }
        // Fingerprint-only frontiers are the sole holders of the live states, so they
        // must stay resident however small the budget is.
        let fp_only = check_bfs(
            &spec,
            &CheckOptions::default()
                .with_store_mode(StoreMode::FingerprintOnly)
                .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
        );
        assert_eq!(
            fp_only.stats.distinct_states,
            baseline.stats.distinct_states
        );
        assert_eq!(fp_only.stats.spill.frontier_spilled, 0);
    }

    #[test]
    fn spilled_run_finds_the_same_counterexample() {
        use crate::spill::SpillConfig;
        let spec = pair_spec(30, Some((20, 10)));
        let in_ram = check_bfs(&spec, &CheckOptions::default());
        let spilled = check_bfs(
            &spec,
            &CheckOptions::default().with_spill(SpillConfig::in_ram().with_budget_bytes(512)),
        );
        let (a, b) = (
            in_ram.first_violation().unwrap(),
            spilled.first_violation().unwrap(),
        );
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.trace.last_state(), b.trace.last_state());
        assert_eq!(a.trace.action_labels(), b.trace.action_labels());
        assert!(spilled.stats.spill.spilled());
    }

    #[test]
    fn owner_routing_agrees_with_lock_striping() {
        let spec = pair_spec(14, None);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        for workers in [1, 3] {
            for mode in [StoreMode::Full, StoreMode::FingerprintOnly] {
                let routed = check_bfs(
                    &spec,
                    &CheckOptions::default()
                        .with_workers(workers)
                        .with_store_mode(mode)
                        .with_owner_routing(true),
                );
                assert_eq!(
                    routed.stats.distinct_states, baseline.stats.distinct_states,
                    "workers {workers}, store mode {mode}"
                );
                assert_eq!(routed.stats.transitions, baseline.stats.transitions);
                assert_eq!(routed.stats.max_depth, baseline.stats.max_depth);
                assert_eq!(routed.stop_reason, StopReason::Exhausted);
            }
        }
    }

    #[test]
    fn owner_routing_reports_the_same_minimal_violation() {
        let spec = pair_spec(12, Some((9, 4)));
        let plain = check_bfs(&spec, &CheckOptions::default());
        for workers in [1, 4] {
            let routed = check_bfs(
                &spec,
                &CheckOptions::default()
                    .with_workers(workers)
                    .with_owner_routing(true),
            );
            assert_eq!(
                routed.first_violation().unwrap().depth,
                plain.first_violation().unwrap().depth,
                "workers {workers}"
            );
            assert_eq!(routed.stop_reason, StopReason::FirstViolation);
        }
    }

    #[test]
    fn owner_routing_composes_with_spilling() {
        use crate::spill::SpillConfig;
        let spec = pair_spec(30, None);
        let baseline = check_bfs(&spec, &CheckOptions::default());
        let combined = check_bfs(
            &spec,
            &CheckOptions::default()
                .with_workers(3)
                .with_owner_routing(true)
                .with_spill(SpillConfig::in_ram().with_budget_bytes(1 << 10)),
        );
        assert_eq!(
            combined.stats.distinct_states,
            baseline.stats.distinct_states
        );
        assert_eq!(combined.stats.transitions, baseline.stats.transitions);
        assert_eq!(combined.stats.max_depth, baseline.stats.max_depth);
        assert!(combined.stats.spill.spilled());
    }

    #[test]
    fn per_worker_transitions_sum_to_the_total() {
        let spec = pair_spec(12, None);
        let outcome = check_bfs(&spec, &CheckOptions::default().with_workers(4));
        assert_eq!(outcome.stats.per_worker_transitions.len(), 4);
        assert_eq!(
            outcome.stats.per_worker_transitions.iter().sum::<u64>(),
            outcome.stats.transitions
        );
        assert_eq!(
            outcome.stats.shard_contention.len(),
            CheckOptions::default().shards
        );
    }
}
