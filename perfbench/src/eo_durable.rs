//! `eo-durable`: the exactly-once reference pipeline on disk, drained
//! closed-loop from a pre-filled log.
//!
//! `LogSpout` (with a persisted frontier) → `Query::key_by` → two
//! exactly-once `SynopsisBolt`s holding a CountMin 2048×4 → `MergeServe`
//! → `ServingView`, checkpointing into `CheckpointStore::durable` on
//! `DiskStorage` under the default group commit. Most of its time goes
//! to the acker, operator commit, checkpoint encode, WAL append/fsync
//! and serve-merge layers.

use crate::harness::{engine_values, scheduling, Ctx, Outcome, Rep, Stopwatch};
use crate::seams::{Traced, TracedSpout, TracedStorage};
use crate::trace::{span, Layer};
use crate::workdir;
use sa_core::traits::FrequencyEstimator;
use sa_platform::{
    alloc_stats, CheckpointStore, DiskStorage, DurableConfig, ExecutorConfig, Log, LogSpout, Query,
    Record, Semantics, Spout, Tuple, Value,
};
use sa_sketches::frequency::CountMinSketch;
use std::sync::Arc;
use std::time::Duration;

const WIDTH: usize = 2048;
const DEPTH: usize = 4;
const TASKS: usize = 2;
const VOCAB: u64 = 50_000;
const ZIPF_S: f64 = 1.05;
const FRONTIER_EVERY: u64 = 256;

pub fn sketch() -> CountMinSketch {
    CountMinSketch::new(WIDTH, DEPTH).expect("valid CountMin shape")
}

/// The query's update: fold the record's key hash into the sketch.
pub fn fold(t: &Tuple, s: &mut Traced<CountMinSketch>) {
    span(Layer::OperatorUpdate, 0, || s.0.add_hash(t.get(0).expect("key field").hash64(), 1));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = if ctx.smoke { 4_000 } else { 200_000 };
    let keys = crate::zipf_keys(n, VOCAB, ZIPF_S, ctx.seed);
    let (reference, fold_rps) = crate::reference_fold(&keys, sketch());
    let reps = crate::harness::closed_loop(ctx, 3, || rep(&keys, &reference));
    let mut out = Outcome {
        reps,
        params: vec![
            ("records_per_rep", n.to_string()),
            ("key_vocab", VOCAB.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("sketch", format!("CountMin {WIDTH}x{DEPTH}")),
            ("agg_tasks", TASKS.to_string()),
            ("checkpoint_every", "256".into()),
            ("storage", "DiskStorage, DurableConfig::default() (group commit every 32)".into()),
        ],
    };
    for r in &mut out.reps {
        r.values.insert("reference.fold_rps", fold_rps);
    }
    out
}

fn rep(keys: &[Arc<str>], reference: &CountMinSketch) -> Rep {
    let dir = workdir("eo-durable");
    let setup = Stopwatch::start();
    let log = Log::new(1).expect("one-partition log");
    for k in keys {
        log.append(k, Vec::new());
    }
    let storage = Arc::new(TracedStorage::new(Arc::new(
        DiskStorage::new(&dir).expect("benchmark data directory"),
    )));
    let store = CheckpointStore::durable(storage.clone(), "ckpt", DurableConfig::default())
        .expect("open durable checkpoint store");
    let spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| {
        Tuple::new(vec![Value::Str(r.key.as_str().into())])
    })
    .with_frontier(&store, "log.frontier", FRONTIER_EVERY);
    let compiled = Query::from("log")
        .source_fields(["key"])
        .key_by(vec![0])
        .parallelism(TASKS)
        .checkpoint(&store)
        .aggregate(Traced(sketch()), fold)
        .serve("eo")
        .compile(vec![Box::new(TracedSpout::new(spout, None)) as Box<dyn Spout>])
        .expect("compile eo-durable query");
    let view = compiled.view();
    let setup_s = setup.cpu_s();

    let (allocs0, _) = alloc_stats::totals();
    let run = Stopwatch::start();
    let result = compiled
        .run(ExecutorConfig {
            scheduling: scheduling(),
            semantics: Semantics::AtLeastOnce,
            shutdown_timeout: Duration::from_secs(60),
            ..Default::default()
        })
        .expect("run eo-durable");
    let (run_s, cpu_s) = (run.wall_s(), run.cpu_s());
    let (allocs1, _) = alloc_stats::totals();
    let last = view.snapshot();
    let elapsed = last.published.duration_since(run.wall).as_secs_f64();

    let n = keys.len() as u64;
    let served = view.global().map(|r| r.value.0);
    let mut failed = u64::from(!result.clean_shutdown);
    failed += crate::sketch_mismatch(served.as_ref(), reference, n);
    let snap = result.metrics.snapshot();
    let mut rep = Rep {
        setup_s,
        records: n,
        throughput_rps: n as f64 / elapsed,
        run_s,
        cpu_s,
        attempted: n + 1,
        failed,
        commits: store.stats().0,
        ..Default::default()
    };
    engine_values(&mut rep, &snap, "log", allocs1 - allocs0);
    let exec = snap.histogram("eo.agg.execute_us").map_or(0.0, |h| h.p50 * 1e3);
    rep.values.insert("operator.execute_ns_per_tuple", exec);
    rep.values.insert("serving.epochs", last.epoch as f64);
    rep.values.insert("write_bytes_per_record", storage.bytes_handed() as f64 / n as f64);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}
