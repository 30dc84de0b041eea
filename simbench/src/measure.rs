//! Host-side measurement: spans around library calls, process CPU time,
//! peak heap, and sample summaries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ffi::{c_int, c_long};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::Instant;

/// One timed call into a library layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.routing`.
    pub name: &'static str,
    /// Index of the span that made this call, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder, written out once at the end of a run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            // Room for a whole run, so that the vector does not grow, and
            // move the heap peak, inside a measured repetition.
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `ix` and returns its duration in seconds.
    pub fn close(&mut self, ix: usize) -> f64 {
        self.spans[ix].end_ns = self.now_ns();
        self.spans[ix].secs()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let ix = self.open(name, parent);
        let r = std::hint::black_box(f());
        self.close(ix);
        r
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// CPU time (user + system) of this process and all its threads, in
/// seconds.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds.
fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Reads `clock` with `clock_gettime(2)`, in seconds.
fn clock_s(clock: c_int) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// The benchmark's global allocator: the system allocator, plus a count
/// of the bytes live on the heap and their peak, read with
/// [`heap_live_mib`], [`heap_window`] and [`heap_peak_mib`].
///
/// Each thread batches its count and adds it to the shared one only
/// when it passes [`HEAP_BATCH`] bytes either way, so the sharded
/// engine's threads do not contend on one counter at every allocation.
/// The peak is exact to within that much per thread.
pub struct CountingAlloc;

/// Bytes live on the heap, as far as the threads have reported them.
static HEAP_LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `HEAP_LIVE` since the last [`heap_window`].
static HEAP_PEAK: AtomicIsize = AtomicIsize::new(0);
/// How far a thread's unreported count may go before it reports it.
const HEAP_BATCH: isize = 32 << 10;

thread_local! {
    /// This thread's allocations net of its frees, not yet in `HEAP_LIVE`.
    static HEAP_UNREPORTED: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to this thread's count, and reports the count when
/// it is due (or at once, while the thread is being torn down).
fn heap_count(delta: isize) {
    let due = HEAP_UNREPORTED
        .try_with(|u| {
            let n = u.get() + delta;
            if n.abs() < HEAP_BATCH {
                u.set(n);
                0
            } else {
                u.set(0);
                n
            }
        })
        .unwrap_or(delta);
    if due != 0 {
        heap_report(due);
    }
}

fn heap_report(n: isize) {
    let live = HEAP_LIVE.fetch_add(n, Relaxed) + n;
    HEAP_PEAK.fetch_max(live, Relaxed);
}

/// Reports this thread's unreported count.
fn heap_flush() {
    heap_report(HEAP_UNREPORTED.with(|u| u.replace(0)));
}

// SAFETY: every call goes to `System` unchanged; the count only reads
// the layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            heap_count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            heap_count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        heap_count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            heap_count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The bytes live on the heap now, in MiB.
pub fn heap_live_mib() -> f64 {
    heap_flush();
    mib(HEAP_LIVE.load(Relaxed))
}

/// Starts a heap window: the peak starts again from the bytes live now.
pub fn heap_window() {
    heap_flush();
    HEAP_PEAK.store(HEAP_LIVE.load(Relaxed), Relaxed);
}

/// The most bytes live on the heap since the last [`heap_window`], in
/// MiB.
pub fn heap_peak_mib() -> f64 {
    heap_flush();
    mib(HEAP_PEAK.load(Relaxed))
}

fn mib(bytes: isize) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

/// The `p`-quantile of `xs` by linear interpolation between order
/// statistics (`p` in `[0, 1]`). `xs` must be non-empty.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile with at least ten samples above it, or the
/// maximum when the sample has fewer than eleven values. Returns the
/// percentile (0–100) and its value.
pub fn high_percentile(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 11 {
        return (100.0, quantile(xs, 1.0));
    }
    let p = (n - 10) as f64 / n as f64;
    let p = (p * 100.0).floor() / 100.0;
    (p * 100.0, quantile(xs, p))
}

/// One timing of the reference computation.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds.
    pub cpu_s: f64,
}

impl Reference {
    /// The mean of two timings.
    pub fn mean(self, other: Reference) -> Reference {
        Reference {
            wall_s: 0.5 * (self.wall_s + other.wall_s),
            cpu_s: 0.5 * (self.cpu_s + other.cpu_s),
        }
    }
}

/// Times a fixed reference computation owned by this benchmark, run on
/// `threads` threads at once: the slowest thread's wall-clock and CPU
/// seconds. A multi-threaded engine waits for its slowest shard at every
/// barrier, so its reference is the slowest of as many threads.
///
/// Each thread runs a discrete-event loop over a binary heap of 1 k
/// pending entries that updates a 512 KB table at random, the same mix
/// of heap sifts, branches and scattered memory access as the
/// simulator's event loop. No library code runs in it, so a change to
/// the simulator cannot move it; only the host's speed at the moment
/// can.
pub fn reference(threads: usize) -> Reference {
    if threads <= 1 {
        return reference_loop();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(reference_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .fold(
                Reference {
                    wall_s: 0.0,
                    cpu_s: 0.0,
                },
                |a, b| Reference {
                    wall_s: a.wall_s.max(b.wall_s),
                    cpu_s: a.cpu_s.max(b.cpu_s),
                },
            )
    })
}

fn reference_loop() -> Reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    const PENDING: u64 = 1_024;
    const POPS: u64 = 3_000_000;
    let mut state = vec![0u64; 1 << 16];
    let mut heap = BinaryHeap::with_capacity(PENDING as usize * 2);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..PENDING {
        heap.push(Reverse((next() % 1_000, i)));
    }
    let t0 = Instant::now();
    let cpu0 = thread_cpu_s();
    let mut acc = 0u64;
    for _ in 0..POPS {
        let Reverse((t, id)) = heap.pop().expect("the heap never drains");
        let r = next();
        let slot = (r as usize ^ id as usize) & (state.len() - 1);
        state[slot] = state[slot].wrapping_add(t ^ id);
        acc = acc.wrapping_add(state[slot]);
        heap.push(Reverse((t + 1 + r % 1_000, id)));
    }
    std::hint::black_box(acc);
    Reference {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: thread_cpu_s() - cpu0,
    }
}
