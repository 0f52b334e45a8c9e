//! What every workload shares: the run context, one repetition's
//! result, the closed-loop repetition loop, and the per-layer metrics
//! read from the trace and from the run's own metrics snapshot.

use crate::trace::{self, Layer, LayerStats};
use sa_platform::{MetricsSnapshot, Scheduling};
use std::collections::BTreeMap;
use std::time::Instant;

/// Engine workers: the reference host has two cores.
pub const WORKERS: usize = 2;

pub fn scheduling() -> Scheduling {
    Scheduling::WorkStealing { workers: WORKERS }
}

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes, for the benchmark's own tests.
    pub smoke: bool,
}

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Input records the repetition processed.
    pub records: u64,
    /// Records ÷ wall seconds from run start to the result covering all.
    pub throughput_rps: f64,
    /// Wall seconds of the timed run (pool capacity = this × workers).
    pub run_s: f64,
    /// Process CPU seconds the timed run consumed, load threads included.
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Checkpoint commits the store accepted during the run.
    pub commits: u64,
    pub traced: bool,
    /// The warm-up repetition: checked for correctness, not measured.
    pub warmup: bool,
    /// Layer counters accumulated while the repetition ran.
    pub layers: Vec<LayerStats>,
    /// Per-layer metric values measured by this repetition.
    pub values: BTreeMap<&'static str, f64>,
}

/// A finished workload: every repetition plus its parameters.
pub struct Outcome {
    pub reps: Vec<Rep>,
    pub params: Vec<(&'static str, String)>,
}

/// Run `rep` once as a warm-up, then repeatedly until `ctx.seconds`
/// have passed (at least `min_reps` measured repetitions). In a traced
/// run, repetitions alternate untraced and traced so that the tracing
/// overhead is measured on the same inputs.
pub fn closed_loop(ctx: &Ctx, min_reps: usize, mut rep: impl FnMut() -> Rep) -> Vec<Rep> {
    let mut warm = rep();
    warm.warmup = true;
    let mut reps = vec![warm];
    let start = Instant::now();
    while reps.len() <= min_reps || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && reps.len() % 2 == 0;
        reps.push(measure(traced, &mut rep));
    }
    reps
}

/// Run one repetition with tracing on or off and attach the layer
/// counters it accumulated.
pub fn measure(traced: bool, rep: impl FnOnce() -> Rep) -> Rep {
    trace::set_enabled(traced);
    let before = trace::snapshot();
    let mut r = rep();
    trace::set_enabled(false);
    r.layers = trace::delta(&before, &trace::snapshot());
    r.traced = traced;
    if traced {
        layer_values(&mut r);
    }
    r
}

/// Trace-derived per-layer metrics of one repetition: mean call time of
/// each timed layer plus call counts and bytes.
fn layer_values(rep: &mut Rep) {
    let commits = rep.commits;
    let l = |layer: Layer| rep.layers[Layer::ALL.iter().position(|&x| x == layer).unwrap()];
    let (next, update, encode) =
        (l(Layer::LogNext), l(Layer::OperatorUpdate), l(Layer::CheckpointEncode));
    let (append, fsync, other) =
        (l(Layer::StorageAppend), l(Layer::StorageFsync), l(Layer::StorageOther));
    let (restore, merge, get) =
        (l(Layer::ServingRestore), l(Layer::ServingMerge), l(Layer::ServingGet));
    let execute = l(Layer::OperatorExecute);
    let v = &mut rep.values;
    // A layer without calls stays absent, so the report lists it as not
    // applicable instead of measured at 0.
    if next.calls > 0 {
        v.insert("log.next_tuple_ns", next.mean_ns());
    }
    if update.calls > 0 {
        v.insert("operator.update_ns", update.mean_ns());
    }
    // Bench-owned bolts count the tuples each call handled as its bytes.
    if execute.calls > 0 {
        v.insert("operator.execute_ns_per_tuple", ratio(execute.total_ns, execute.bytes));
    }
    if commits > 0 {
        v.insert("operator.commits", commits as f64);
        v.insert("checkpoint.encode_us", encode.mean_ns() / 1e3);
        v.insert("checkpoint.encode_bytes_per_commit", ratio(encode.bytes, commits));
    }
    if append.calls + fsync.calls + other.calls > 0 {
        v.insert("storage.append_us", append.mean_ns() / 1e3);
        v.insert("storage.appends", append.calls as f64);
        v.insert("storage.append_bytes", append.bytes as f64);
        v.insert("storage.fsync_us", fsync.mean_ns() / 1e3);
        v.insert("storage.fsyncs", fsync.calls as f64);
        v.insert("storage.write_bytes", other.bytes as f64);
    }
    if restore.calls > 0 {
        v.insert("serving.restores", restore.calls as f64);
        v.insert("serving.restore_us", restore.mean_ns() / 1e3);
        v.insert("serving.merge_us", merge.mean_ns() / 1e3);
        let epochs = v.get("serving.epochs").copied().unwrap_or(0.0);
        v.insert("serving.restores_per_epoch", restore.calls as f64 / epochs.max(1.0));
    }
    if get.calls > 0 {
        v.insert("serving.get_us", get.mean_ns() / 1e3);
    }
}

/// Engine-side per-layer metrics of one repetition, read from the run's
/// own snapshot: acker settlements, link backpressure, scheduler
/// activity and allocations.
pub fn engine_values(rep: &mut Rep, snap: &MetricsSnapshot, spout: &str, allocs: u64) {
    let v = &mut rep.values;
    v.insert("acker.acks", snap.acked_roots as f64);
    v.insert("acker.fails", snap.failed_roots as f64);
    let ack = snap.histogram(&format!("{spout}.ack_latency_us")).map_or(0.0, |h| h.p50);
    v.insert("acker.ack_latency_p50_us", ack);
    let stall: u64 = snap.links.values().map(|l| l.stall_ns).sum();
    let hwm = snap.links.values().map(|l| l.high_water).max().unwrap_or(0);
    v.insert("channel.stall_ns", stall as f64);
    v.insert("channel.depth_hwm", hwm as f64);
    let sched = |suffix: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with("sched.worker") && k.ends_with(suffix))
            .map(|(_, &n)| n as f64)
            .sum()
    };
    v.insert("sched.steals", sched(".steals"));
    v.insert("sched.parks", sched(".parks"));
    v.insert("alloc.allocs_per_record", ratio(allocs, rep.records));
}

impl Rep {
    /// Records per CPU-second of the timed run.
    pub fn records_per_cpu_s(&self) -> f64 {
        self.records as f64 / self.cpu_s
    }
}

/// Wall and process-CPU time from one starting point. Set-up is timed
/// in CPU seconds and throughput is also reported per CPU-second: on a
/// shared host, time stolen by other tenants inflates wall clocks from
/// one run to the next but not the process's own CPU clock.
pub struct Stopwatch {
    pub wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu: process_cpu_s() }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}

/// CPU time this process has consumed, in seconds: every thread's
/// on-CPU time, not counting time the host stole from the machine.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live, writable local, and retains no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
