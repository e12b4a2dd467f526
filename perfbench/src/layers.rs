//! Per-layer attribution for the traced run.
//!
//! The layers of the checker are public `Arc<dyn Fn>` fields of [`Spec`] and
//! [`TraceProjection`]; [`wrap_spec`] and [`wrap_projection`] rebuild them around the
//! originals so every call adds its duration and count to per-thread aggregates.  The
//! engine itself is not instrumented.
//!
//! Aggregates are per thread: a thread registers one slot on its first call (the only
//! lock, taken once per thread) and is afterwards the sole writer of that slot, so the
//! successor path takes no lock and writes no shared cache line.  [`totals`] sums all
//! slots; the engines join their workers before returning a verdict, so reading the
//! totals after a call sees every update the call made.
//!
//! Spans are coarse — one per job and per top-level checker call — and are kept in
//! memory by [`Spans`] until the run writes them out.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use remix_spec::{ModuleId, Spec, TraceProjection};
use remix_zab::modules::{BROADCAST, DISCOVERY, ELECTION, FAULTS, SYNCHRONIZATION};
use remix_zab::ZabState;

/// The modules of a Zab spec, in the order of the per-module counters.
pub const MODULES: [ModuleId; 5] = [ELECTION, DISCOVERY, SYNCHRONIZATION, BROADCAST, FAULTS];

/// Index of one aggregate counter.
#[derive(Debug, Clone, Copy)]
pub enum C {
    /// Calls of one action's successor closure, per module (`+ module index`).
    SuccCalls = 0,
    /// Nanoseconds inside successor closures, per module.
    SuccNs = 5,
    /// Successor instances returned, per module.
    SuccInstances = 10,
    /// Calls of the first action of a spec: one per state expansion.
    Expansions = 15,
    InvCalls,
    InvNs,
    /// Full canonicalization (`Spec::symmetry`).
    CanonCalls,
    CanonNs,
    /// `IncrementalCanon::memo`.
    MemoCalls,
    MemoNs,
    /// `IncrementalCanon::canon`.
    IncrCalls,
    IncrNs,
    /// `IncrementalCanon::full_owned`.
    FullOwnedCalls,
    FullOwnedNs,
    ProjectCalls,
    ProjectNs,
    LabelCalls,
    LabelNs,
    StableCalls,
    StableNs,
}

/// Number of aggregate counters.
pub const N: usize = C::StableNs as usize + 1;

/// A snapshot of all aggregate counters.
pub type Totals = [u64; N];

struct ThreadAgg([AtomicU64; N]);

static REGISTRY: Mutex<Vec<Arc<ThreadAgg>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceCell<Arc<ThreadAgg>> = const { OnceCell::new() };
}

#[inline]
fn record(pairs: &[(usize, u64)]) {
    LOCAL.with(|cell| {
        let agg = cell.get_or_init(|| {
            let agg = Arc::new(ThreadAgg(std::array::from_fn(|_| AtomicU64::new(0))));
            REGISTRY
                .lock()
                .expect("no thread panics while registering")
                .push(Arc::clone(&agg));
            agg
        });
        for &(i, v) in pairs {
            // ordering: Relaxed — each slot has a single writer (its thread); readers
            // sum the slots after the writing threads have been joined.
            agg.0[i].fetch_add(v, Ordering::Relaxed);
        }
    });
}

/// Sums every thread's aggregates.
pub fn totals() -> Totals {
    let registry = REGISTRY.lock().expect("no thread panics while registering");
    let mut out = [0u64; N];
    for agg in registry.iter() {
        for (o, c) in out.iter_mut().zip(agg.0.iter()) {
            *o += c.load(Ordering::Relaxed);
        }
    }
    out
}

/// The name of counter `i` in the run records, e.g. `succ_ns.Election`.
pub fn counter_name(i: usize) -> String {
    const PER_MODULE: [&str; 3] = ["succ_calls", "succ_ns", "succ_instances"];
    const REST: [&str; N - 15] = [
        "expansions",
        "invariant_calls",
        "invariant_ns",
        "canon_calls",
        "canon_ns",
        "memo_calls",
        "memo_ns",
        "incremental_calls",
        "incremental_ns",
        "full_owned_calls",
        "full_owned_ns",
        "project_calls",
        "project_ns",
        "label_calls",
        "label_ns",
        "stable_calls",
        "stable_ns",
    ];
    if i < C::Expansions as usize {
        format!("{}.{}", PER_MODULE[i / 5], MODULES[i % 5].name())
    } else {
        REST[i - C::Expansions as usize].to_owned()
    }
}

/// Element-wise `after - before`.
pub fn delta(after: &Totals, before: &Totals) -> Totals {
    std::array::from_fn(|i| after[i] - before[i])
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A copy of `spec` whose actions, invariants and symmetry closures record their calls
/// and busy time.  Labels, states, effects and results are passed through unchanged.
pub fn wrap_spec(spec: &Spec<ZabState>) -> Spec<ZabState> {
    let mut spec = spec.clone();
    for (mi, module) in spec.modules.iter_mut().enumerate() {
        let m = MODULES
            .iter()
            .position(|id| *id == module.module)
            .expect("every Zab module is one of the five phases");
        for (ai, action) in module.actions.iter_mut().enumerate() {
            let inner = Arc::clone(&action.successors);
            let first = mi == 0 && ai == 0;
            action.successors = Arc::new(move |s: &ZabState| {
                let t = Instant::now();
                let out = inner(s);
                let ns = elapsed_ns(t);
                let n = out.len() as u64;
                let e = C::Expansions as usize;
                record(&[
                    (C::SuccCalls as usize + m, 1),
                    (C::SuccNs as usize + m, ns),
                    (C::SuccInstances as usize + m, n),
                    (e, u64::from(first)),
                ]);
                out
            });
        }
    }
    for inv in &mut spec.invariants {
        let inner = Arc::clone(&inv.check);
        inv.check = Arc::new(move |s: &ZabState| {
            let t = Instant::now();
            let ok = inner(s);
            record(&[
                (C::InvCalls as usize, 1),
                (C::InvNs as usize, elapsed_ns(t)),
            ]);
            ok
        });
    }
    if let Some(inner) = spec.symmetry.take() {
        spec.symmetry = Some(Arc::new(move |s: &ZabState| {
            let t = Instant::now();
            let out = inner(s);
            record(&[
                (C::CanonCalls as usize, 1),
                (C::CanonNs as usize, elapsed_ns(t)),
            ]);
            out
        }));
    }
    if let Some(incr) = spec.incremental_symmetry.as_mut() {
        let memo = Arc::clone(&incr.memo);
        incr.memo = Arc::new(move |s: &ZabState| {
            let t = Instant::now();
            let out = memo(s);
            record(&[
                (C::MemoCalls as usize, 1),
                (C::MemoNs as usize, elapsed_ns(t)),
            ]);
            out
        });
        let canon = Arc::clone(&incr.canon);
        incr.canon = Arc::new(
            move |s: ZabState, m: &(dyn std::any::Any + Send + Sync), touched: u8| {
                let t = Instant::now();
                let out = canon(s, m, touched);
                record(&[
                    (C::IncrCalls as usize, 1),
                    (C::IncrNs as usize, elapsed_ns(t)),
                ]);
                out
            },
        );
        let full = Arc::clone(&incr.full_owned);
        incr.full_owned = Arc::new(move |s: ZabState| {
            let t = Instant::now();
            let out = full(s);
            record(&[
                (C::FullOwnedCalls as usize, 1),
                (C::FullOwnedNs as usize, elapsed_ns(t)),
            ]);
            out
        });
    }
    spec
}

/// A projection that behaves like `original` and records its calls and busy time.
pub fn wrap_projection(original: &TraceProjection<ZabState>) -> TraceProjection<ZabState> {
    let (p1, p2, p3) = (original.clone(), original.clone(), original.clone());
    let wrapped = TraceProjection::identity(original.name.clone(), original.coarse, original.fine)
        .with_state(move |s: &ZabState| {
            let t = Instant::now();
            let out = p1.project_state(s);
            record(&[
                (C::ProjectCalls as usize, 1),
                (C::ProjectNs as usize, elapsed_ns(t)),
            ]);
            out
        })
        .with_label(move |l: &str| {
            let t = Instant::now();
            let out = p2.project_label(l);
            record(&[
                (C::LabelCalls as usize, 1),
                (C::LabelNs as usize, elapsed_ns(t)),
            ]);
            out
        })
        .with_stability(move |s: &ZabState| {
            let t = Instant::now();
            let out = p3.is_stable(s);
            record(&[
                (C::StableCalls as usize, 1),
                (C::StableNs as usize, elapsed_ns(t)),
            ]);
            out
        });
    if original.is_equivariant() {
        wrapped.assume_equivariant()
    } else {
        wrapped
    }
}

/// Derived sums over a counter snapshot.
pub trait TotalsExt {
    fn succ_calls(&self) -> u64;
    fn succ_ns(&self) -> u64;
    fn instances(&self) -> u64;
    fn canon_calls(&self) -> u64;
    fn canon_ns(&self) -> u64;
    fn project_ns(&self) -> u64;
    fn project_calls(&self) -> u64;
    /// Busy time of every wrapped closure.
    fn wrapped_ns(&self) -> u64;
}

impl TotalsExt for Totals {
    fn succ_calls(&self) -> u64 {
        self[C::SuccCalls as usize..C::SuccCalls as usize + 5]
            .iter()
            .sum()
    }
    fn succ_ns(&self) -> u64 {
        self[C::SuccNs as usize..C::SuccNs as usize + 5]
            .iter()
            .sum()
    }
    fn instances(&self) -> u64 {
        self[C::SuccInstances as usize..C::SuccInstances as usize + 5]
            .iter()
            .sum()
    }
    fn canon_calls(&self) -> u64 {
        self[C::CanonCalls as usize]
            + self[C::IncrCalls as usize]
            + self[C::FullOwnedCalls as usize]
    }
    fn canon_ns(&self) -> u64 {
        self[C::CanonNs as usize]
            + self[C::MemoNs as usize]
            + self[C::IncrNs as usize]
            + self[C::FullOwnedNs as usize]
    }
    fn project_ns(&self) -> u64 {
        self[C::ProjectNs as usize] + self[C::LabelNs as usize] + self[C::StableNs as usize]
    }
    fn project_calls(&self) -> u64 {
        self[C::ProjectCalls as usize]
    }
    fn wrapped_ns(&self) -> u64 {
        self.succ_ns() + self[C::InvNs as usize] + self.canon_ns() + self.project_ns()
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub job: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        job: Option<usize>,
        parent: Option<usize>,
    ) -> usize {
        let now = elapsed_ns(self.origin);
        self.spans.push(Span {
            name: name.into(),
            job,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = elapsed_ns(self.origin);
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}
