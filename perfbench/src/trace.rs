//! Outside-in layer attribution.
//!
//! Every seam the benchmark wraps (storage, spout, aggregate, bench-owned
//! bolts, view reads) opens a [`span`] around the call it delegates. A
//! span adds its duration to its layer's total, its duration minus the
//! time of spans nested inside it to the layer's self time, and its call
//! count and bytes to the layer's counters. One in [`SPAN_SAMPLE`] spans
//! per layer is also kept in memory, with its parent layer, so the trace
//! written at exit shows what caused what.
//!
//! Tracing is off unless [`set_enabled`] turned it on: a disabled span is
//! one relaxed load, so untraced runs measure the platform, not the
//! instrumentation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers the benchmark can time from outside, named after the
/// platform modules whose public seam the span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Spout::next_tuple` of the log spout (`log` module).
    LogNext,
    /// The query's update closure folding one record (`operator`).
    OperatorUpdate,
    /// A bench-owned bolt's `execute`/`execute_frame` (`operator`).
    OperatorExecute,
    /// `Synopsis::snapshot` of the aggregate (`checkpoint` encode).
    CheckpointEncode,
    /// `Storage::append` (`storage`).
    StorageAppend,
    /// `Storage::sync` (`storage`).
    StorageFsync,
    /// Every other `Storage` call: write, read, rename, list, ... .
    StorageOther,
    /// `Synopsis::restore` of the aggregate (`serving`).
    ServingRestore,
    /// `Merge::merge` of the aggregate (`serving`).
    ServingMerge,
    /// `ViewHandle::get` on the reader thread (`serving`).
    ServingGet,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::LogNext,
        Layer::OperatorUpdate,
        Layer::OperatorExecute,
        Layer::CheckpointEncode,
        Layer::StorageAppend,
        Layer::StorageFsync,
        Layer::StorageOther,
        Layer::ServingRestore,
        Layer::ServingMerge,
        Layer::ServingGet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::LogNext => "log.next_tuple",
            Layer::OperatorUpdate => "operator.update",
            Layer::OperatorExecute => "operator.execute",
            Layer::CheckpointEncode => "checkpoint.encode",
            Layer::StorageAppend => "storage.append",
            Layer::StorageFsync => "storage.fsync",
            Layer::StorageOther => "storage.other",
            Layer::ServingRestore => "serving.restore",
            Layer::ServingMerge => "serving.merge",
            Layer::ServingGet => "serving.get",
        }
    }

    /// Whether the layer runs on the engine's worker pool. Reads run on
    /// the benchmark's own reader thread and are kept out of the pool's
    /// busy-time account.
    pub fn on_pool(self) -> bool {
        self != Layer::ServingGet
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Keep one span in this many per layer.
const SPAN_SAMPLE: u64 = 64;
/// Kept spans per layer, at most.
const SPAN_CAP: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

struct Cells {
    calls: AtomicU64,
    bytes: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const CELLS: Cells = Cells {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    self_ns: AtomicU64::new(0),
};
static LAYERS: [Cells; Layer::ALL.len()] = [CELLS; Layer::ALL.len()];
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static KEPT: [AtomicU64; Layer::ALL.len()] = [ZERO; Layer::ALL.len()];

/// One kept span: layer, start and end (ns since the trace epoch), the
/// layer of the enclosing span, and bytes handled.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<Layer>,
    pub bytes: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread: (layer, ns covered by nested spans).
    static STACK: RefCell<Vec<(Layer, u64)>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    let mut epoch = EPOCH.lock().expect("trace epoch lock poisoned");
    epoch.get_or_insert_with(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` as one span of `layer` handling `bytes`.
#[inline]
pub fn span<R>(layer: Layer, bytes: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push((layer, 0)));
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let dur = end.duration_since(start).as_nanos() as u64;
    let (child_ns, parent) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (_, child) = s.pop().expect("span stack underflow");
        if let Some(top) = s.last_mut() {
            top.1 += dur;
        }
        (child, s.last().map(|t| t.0))
    });
    let cells = &LAYERS[layer.idx()];
    let n = cells.calls.fetch_add(1, Ordering::Relaxed);
    cells.bytes.fetch_add(bytes, Ordering::Relaxed);
    cells.total_ns.fetch_add(dur, Ordering::Relaxed);
    cells.self_ns.fetch_add(dur.saturating_sub(child_ns), Ordering::Relaxed);
    if n.is_multiple_of(SPAN_SAMPLE) {
        keep(layer, start, end, parent, bytes);
    }
    r
}

/// Add `bytes` to a layer without timing a call (for sizes known only
/// after the span closed).
pub fn add_bytes(layer: Layer, bytes: u64) {
    if enabled() {
        LAYERS[layer.idx()].bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn keep(layer: Layer, start: Instant, end: Instant, parent: Option<Layer>, bytes: u64) {
    let Some(epoch) = *EPOCH.lock().expect("trace epoch lock poisoned") else { return };
    if KEPT[layer.idx()].fetch_add(1, Ordering::Relaxed) >= SPAN_CAP as u64 {
        return;
    }
    SPANS.lock().expect("span buffer lock poisoned").push(Span {
        layer,
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        end_ns: end.duration_since(epoch).as_nanos() as u64,
        parent,
        bytes,
    });
}

/// Accumulated counters of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub bytes: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerStats {
    /// Mean duration of one call in ns (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Counters of every layer, in [`Layer::ALL`] order.
pub fn snapshot() -> Vec<LayerStats> {
    LAYERS
        .iter()
        .map(|c| LayerStats {
            calls: c.calls.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            total_ns: c.total_ns.load(Ordering::Relaxed),
            self_ns: c.self_ns.load(Ordering::Relaxed),
        })
        .collect()
}

/// Per-layer growth between two [`snapshot`]s.
pub fn delta(before: &[LayerStats], after: &[LayerStats]) -> Vec<LayerStats> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| LayerStats {
            calls: a.calls - b.calls,
            bytes: a.bytes - b.bytes,
            total_ns: a.total_ns - b.total_ns,
            self_ns: a.self_ns - b.self_ns,
        })
        .collect()
}

/// Kept spans, in recording order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span buffer lock poisoned").clone()
}
