//! Host speed sampling, for check times that do not drift with the host's load.
//!
//! The benchmark host is a shared 2-vCPU virtual machine.  Each vCPU's speed for
//! identical work varies by up to 2× within seconds, independently of the other vCPU,
//! and the guest sees no steal time, so wall time and CPU time drift together.  While a
//! repetition runs, one sampler thread per vCPU the checker uses is pinned to that vCPU
//! and times a fixed kernel every [`PERIOD`], preempting the checker for about 150
//! microseconds.  `REFERENCE_KERNEL_S / sample` is the vCPU's speed relative to the
//! reference, and a checker call's *reference time* is its wall time
//! multiplied by the mean speed its vCPUs showed during the call: the time the call
//! would have taken with every vCPU at reference speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two speed samples of one vCPU.
const PERIOD: Duration = Duration::from_millis(20);
/// Kernel time of an uncontended vCPU of the reference host (2-vCPU Intel Xeon VM).
const REFERENCE_KERNEL_S: f64 = 70e-6;

/// The reference kernel: ordered-map inserts of freshly formatted strings, the
/// allocation-, pointer- and branch-heavy mix a checker edge is made of (labels,
/// `BTreeMap`-keyed state, small heap objects).  Of the kernels tried it follows the
/// checker's slowdowns most closely; it is the benchmark's own code, so optimising the
/// program under test cannot speed it up.
fn kernel(seed: u64) -> usize {
    let mut map = BTreeMap::new();
    let mut x = seed | 1;
    for _ in 0..300 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1000, format!("Act({}, {})", x % 7, x % 5));
    }
    map.values().map(String::len).sum()
}

/// One speed sample: a warm-up run of the kernel, then a timed one.
fn sample() -> f64 {
    black_box(kernel(black_box(1)));
    let t = Instant::now();
    black_box(kernel(black_box(1)));
    t.elapsed().as_secs_f64()
}

/// CPU affinity of the calling thread, through glibc (which `std` links on Linux).
pub mod affinity {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a valid, writable `cpu_set_t` of the size passed; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; `false` when the kernel refuses.
    pub fn set(cpus: &[usize]) -> bool {
        let mut set = CpuSet([0; 16]);
        for &cpu in cpus.iter().filter(|&&c| c < 1024) {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a valid `cpu_set_t` of the size passed; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }

    /// The CPU the calling thread runs on now.
    pub fn current() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler state.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
}

/// Running samplers, one per vCPU; [`Sampler::finish`] stops them.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<Vec<(Instant, f64)>>>,
}

impl Sampler {
    /// Starts one sampler pinned to each of `cpus`.
    pub fn start(cpus: &[usize]) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = cpus
            .iter()
            .map(|&cpu| {
                let flag = Arc::clone(&stop);
                std::thread::spawn(move || {
                    affinity::set(&[cpu]);
                    let mut samples = Vec::new();
                    // ordering: Relaxed — a stop request; nothing is published with it.
                    while !flag.load(Ordering::Relaxed) {
                        let at = Instant::now();
                        samples.push((at, sample()));
                        std::thread::sleep(PERIOD);
                    }
                    samples
                })
            })
            .collect();
        Sampler { stop, handles }
    }

    /// Stops the samplers and returns their samples.
    pub fn finish(self) -> Speeds {
        // ordering: Relaxed — see `start`.
        self.stop.store(true, Ordering::Relaxed);
        Speeds(
            self.handles
                .into_iter()
                .map(|h| h.join().expect("a speed sampler does not panic"))
                .collect(),
        )
    }
}

/// The samples of one repetition, per vCPU.
pub struct Speeds(Vec<Vec<(Instant, f64)>>);

impl Speeds {
    /// Mean speed relative to the reference over `[from, to]` (widened by one period,
    /// so that short calls see a sample), averaged over the sampled vCPUs.
    pub fn mean_speed(&self, from: Instant, to: Instant) -> f64 {
        let from = from.checked_sub(PERIOD).unwrap_or(from);
        let per_cpu: Vec<f64> = self
            .0
            .iter()
            .filter_map(|samples| {
                let inside: Vec<f64> = samples
                    .iter()
                    .filter(|(at, _)| *at >= from && *at <= to)
                    .map(|(_, k)| REFERENCE_KERNEL_S / k)
                    .collect();
                (!inside.is_empty()).then(|| inside.iter().sum::<f64>() / inside.len() as f64)
            })
            .collect();
        if per_cpu.is_empty() {
            1.0
        } else {
            per_cpu.iter().sum::<f64>() / per_cpu.len() as f64
        }
    }
}
