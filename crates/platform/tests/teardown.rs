//! Run teardown and at-most-once settlement, under both schedulers,
//! fused and unfused:
//!
//! * every spout and bolt instance is dropped by the time
//!   `run_topology` returns — also while a `RescaleController` that
//!   holds the run's inbox senders is still alive;
//! * at-most-once settles each message on emit: the spout's `ack` runs
//!   exactly once per emitted tuple and `fail` never, without counting
//!   acker settlements;
//! * so an at-most-once `LogSpout::with_frontier` run persists a
//!   frontier at the log's end offset.

use sa_platform::{
    frontier_offset, run_topology, tuple_of, Bolt, CheckpointStore, ExecutorConfig, Frame, Log,
    LogSpout, OutputCollector, Record, RescaleController, RunResult, Scheduling, Semantics, Spout,
    TopologyBuilder, Tuple, VecSpout,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const N: usize = 2_000;

/// Both schedulers, fused and unfused.
fn variants() -> Vec<(&'static str, Scheduling, bool)> {
    vec![
        ("thread-per-task", Scheduling::ThreadPerTask, true),
        ("thread-per-task-unfused", Scheduling::ThreadPerTask, false),
        ("ws-fused", Scheduling::WorkStealing { workers: 2 }, true),
        ("ws-unfused", Scheduling::WorkStealing { workers: 2 }, false),
    ]
}

fn config(scheduling: Scheduling, fuse: bool, semantics: Semantics) -> ExecutorConfig {
    ExecutorConfig { scheduling, fuse_chains: fuse, semantics, seed: 7, ..Default::default() }
}

/// Bumps a shared counter when dropped.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A reliable spout that counts its own drop.
struct CountedSpout {
    inner: VecSpout,
    _drop: DropCount,
}

impl Spout for CountedSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        self.inner.next_tuple()
    }

    fn ack(&mut self, root: u64) {
        self.inner.ack(root)
    }

    fn fail(&mut self, root: u64) -> bool {
        self.inner.fail(root)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A forwarding bolt (optionally frame-taking) that counts its drop and
/// the rows it saw.
struct CountedBolt {
    frames: bool,
    rows: Arc<AtomicUsize>,
    _drop: DropCount,
}

impl Bolt for CountedBolt {
    fn execute(&mut self, input: &Tuple, out: &mut OutputCollector) {
        self.rows.fetch_add(1, Ordering::Relaxed);
        out.emit(input.clone());
    }

    fn wants_frames(&self) -> bool {
        self.frames
    }

    fn execute_frame(&mut self, frame: &Frame, _out: &mut OutputCollector) {
        self.rows.fetch_add(frame.len(), Ordering::Relaxed);
    }
}

fn stream() -> Vec<Tuple> {
    (0..N as i64).map(|i| tuple_of([i])).collect()
}

/// `src → mid → {left, right}` (broadcast): `mid` fuses into the spout
/// when fusion is on; the frame-taking sinks get columnar links on an
/// unfused work-stealing head. Returns the builder and the rows seen by
/// each sink.
fn counted_topology(drops: &Arc<AtomicUsize>) -> (TopologyBuilder, Vec<Arc<AtomicUsize>>) {
    let bolt = |frames: bool, rows: &Arc<AtomicUsize>| -> Box<dyn Bolt> {
        Box::new(CountedBolt { frames, rows: rows.clone(), _drop: DropCount(drops.clone()) })
    };
    let rows: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let mut tb = TopologyBuilder::new();
    let spout = CountedSpout { inner: VecSpout::new(stream()), _drop: DropCount(drops.clone()) };
    tb.set_spout("src", vec![Box::new(spout) as Box<dyn Spout>]);
    tb.set_bolt("mid", vec![bolt(false, &rows[0])]).shuffle("src");
    tb.set_bolt("left", vec![bolt(true, &rows[1])]).all("mid");
    tb.set_bolt("right", vec![bolt(true, &rows[2])]).all("mid");
    (tb, rows)
}

/// Instances in `counted_topology`: one spout, three bolts.
const INSTANCES: usize = 4;

#[test]
fn every_spout_and_bolt_drops_when_the_run_returns() {
    for semantics in [Semantics::AtMostOnce, Semantics::AtLeastOnce] {
        for (name, scheduling, fuse) in variants() {
            let drops = Arc::new(AtomicUsize::new(0));
            let (tb, rows) = counted_topology(&drops);
            let result = run_topology(tb, config(scheduling, fuse, semantics)).unwrap();
            assert!(result.clean_shutdown, "{name} {semantics:?}: unclean run");
            for r in &rows {
                assert_eq!(r.load(Ordering::Relaxed), N, "{name} {semantics:?}: lost rows");
            }
            drop(result);
            assert_eq!(
                drops.load(Ordering::SeqCst),
                INSTANCES,
                "{name} {semantics:?}: task graph outlived the run"
            );
        }
    }
}

#[test]
fn task_graph_drops_while_a_rescale_controller_holds_senders() {
    for (name, scheduling, fuse) in variants() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tb, _) = counted_topology(&drops);
        let ctl = RescaleController::new();
        let mut cfg = config(scheduling, fuse, Semantics::AtLeastOnce);
        cfg.rescale = Some(ctl.clone());
        let result = run_topology(tb, cfg).unwrap();
        assert!(result.clean_shutdown, "{name}: unclean run");
        assert_eq!(drops.load(Ordering::SeqCst), INSTANCES, "{name}: controller pinned the graph");
        drop(ctl);
    }
}

/// A spout recording every `ack` and `fail` it receives.
struct RecordingSpout {
    next: u64,
    acks: Arc<Mutex<Vec<u64>>>,
    fails: Arc<AtomicUsize>,
}

impl Spout for RecordingSpout {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if self.next == N as u64 {
            return None;
        }
        self.next += 1;
        let mut t = tuple_of([self.next as i64]);
        t.root = self.next;
        Some(t)
    }

    fn ack(&mut self, root: u64) {
        self.acks.lock().unwrap().push(root);
    }

    fn fail(&mut self, _root: u64) -> bool {
        self.fails.fetch_add(1, Ordering::SeqCst);
        false
    }
}

/// `src → pass` (a forwarding bolt), run at-most-once.
fn run_at_most_once(spout: Box<dyn Spout>, scheduling: Scheduling, fuse: bool) -> RunResult {
    let mut tb = TopologyBuilder::new();
    tb.set_spout("src", vec![spout]);
    let pass = |t: &Tuple, out: &mut OutputCollector| out.emit(t.clone());
    tb.set_bolt("pass", vec![Box::new(pass) as Box<dyn Bolt>]).shuffle("src");
    run_topology(tb, config(scheduling, fuse, Semantics::AtMostOnce)).unwrap()
}

#[test]
fn at_most_once_acks_each_emitted_tuple_once_and_never_fails() {
    for (name, scheduling, fuse) in variants() {
        let acks = Arc::new(Mutex::new(Vec::new()));
        let fails = Arc::new(AtomicUsize::new(0));
        let spout = RecordingSpout { next: 0, acks: acks.clone(), fails: fails.clone() };
        let result = run_at_most_once(Box::new(spout), scheduling, fuse);
        assert!(result.clean_shutdown, "{name}: unclean run");
        assert_eq!(result.outputs["pass"].len(), N, "{name}: lost tuples");
        let mut acked = acks.lock().unwrap().clone();
        acked.sort_unstable();
        assert_eq!(acked.len(), N, "{name}: not one ack per emitted tuple");
        assert!(acked.iter().copied().eq(1..=N as u64), "{name}: acked ids differ from emitted");
        assert_eq!(fails.load(Ordering::SeqCst), 0, "{name}: at-most-once failed a message");
        let snap = result.metrics.snapshot();
        assert_eq!(snap.acked_roots, 0, "{name}: settle-on-emit counted as acker settlement");
        assert_eq!(snap.failed_roots, 0, "{name}");
    }
}

#[test]
fn at_most_once_log_spout_frontier_reaches_the_log_end() {
    for (name, scheduling, fuse) in variants() {
        let log = Log::new(1).unwrap();
        for i in 0..N {
            log.append(&format!("k{}", i % 17), Vec::new());
        }
        let store = CheckpointStore::new();
        let spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()]))
            .with_frontier(&store, "frontier", 1);
        let result = run_at_most_once(Box::new(spout), scheduling, fuse);
        assert!(result.clean_shutdown, "{name}: unclean run");
        assert_eq!(result.outputs["pass"].len(), N, "{name}: lost tuples");
        assert_eq!(
            frontier_offset(&store, "frontier"),
            log.end_offset(0),
            "{name}: frontier stalled behind consumed records"
        );
    }
}
