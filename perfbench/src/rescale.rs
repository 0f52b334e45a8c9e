//! `rescale-eo`: a closed exactly-once keyed drain on
//! `Parallelism::Auto { min: 1, max: 2 }`, in memory, resized by hand at
//! fixed input fractions (not by the timing-dependent autoscaler). It is
//! the only workload that runs `rescale`: `KeyGroupBolt`'s per-group
//! child bolts and the quiesce → migrate → replay protocol.

use crate::harness::{engine_values, median, scheduling, Ctx, Outcome, Rep, Stopwatch};
use crate::seams::{Traced, TracedSpout};
use crate::trace::{span, Layer};
use sa_core::traits::FrequencyEstimator;
use sa_platform::{
    alloc_stats, CheckpointStore, ExecutorConfig, Log, LogSpout, Parallelism, Query, Record,
    Semantics, Spout, Tuple, Value,
};
use sa_sketches::frequency::CountMinSketch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WIDTH: usize = 64;
const DEPTH: usize = 4;
const VOCAB: u64 = 20_000;
const ZIPF_S: f64 = 1.05;
/// Partials per served epoch: one per key group. `MergeServe` restores
/// every partition per publish (measured on `eo-durable`); per-group
/// partials at the default cadence would bury the rescale protocol
/// under that cost.
const PUBLISH_EVERY: u64 = sa_platform::KEY_GROUPS as u64;
/// Resize targets and the share of the input applied before each.
const STEPS: [(f64, usize); 2] = [(1.0 / 3.0, 2), (2.0 / 3.0, 1)];

fn sketch() -> CountMinSketch {
    CountMinSketch::new(WIDTH, DEPTH).expect("valid CountMin shape")
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = if ctx.smoke { 6_000 } else { 100_000 };
    let keys = crate::zipf_keys(n, VOCAB, ZIPF_S, ctx.seed);
    let (reference, fold_rps) = crate::reference_fold(&keys, sketch());
    let reps = crate::harness::closed_loop(ctx, 3, || rep(&keys, &reference));
    let mut out = Outcome {
        reps,
        params: vec![
            ("records_per_rep", n.to_string()),
            ("key_vocab", VOCAB.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("sketch", format!("CountMin {WIDTH}x{DEPTH} per key group")),
            ("parallelism", "Auto { min: 1, max: 2 }".into()),
            ("resizes", "to 2 at 1/3 of the input applied, to 1 at 2/3".into()),
            ("publish_every", PUBLISH_EVERY.to_string()),
            ("storage", "in-memory CheckpointStore".into()),
        ],
    };
    for r in &mut out.reps {
        r.values.insert("reference.fold_rps", fold_rps);
    }
    out
}

fn rep(keys: &[Arc<str>], reference: &CountMinSketch) -> Rep {
    let setup = Stopwatch::start();
    let log = Log::new(1).expect("one-partition log");
    for k in keys {
        log.append(k, Vec::new());
    }
    let store = CheckpointStore::new();
    let applied = Arc::new(AtomicU64::new(0));
    let counter = applied.clone();
    let update = move |t: &Tuple, s: &mut Traced<CountMinSketch>| {
        span(Layer::OperatorUpdate, 0, || s.0.add_hash(t.get(0).expect("key field").hash64(), 1));
        counter.fetch_add(1, Ordering::Relaxed);
    };
    let spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| {
        Tuple::new(vec![Value::Str(r.key.as_str().into())])
    });
    let compiled = Query::from("log")
        .source_fields(["key"])
        .key_by(vec![0])
        .parallelism(Parallelism::Auto { min: 1, max: 2 })
        .checkpoint(&store)
        .publish_every(PUBLISH_EVERY)
        .aggregate(Traced(sketch()), update)
        .serve("rs")
        .compile(vec![Box::new(TracedSpout::new(spout, None)) as Box<dyn Spout>])
        .expect("compile rescale-eo query");
    let view = compiled.view();
    let ctl = compiled.controller().expect("Auto plan has a controller");
    let agg = compiled.agg_component().to_string();
    let setup_s = setup.cpu_s();

    let n = keys.len() as u64;
    let done = AtomicBool::new(false);
    let (allocs0, _) = alloc_stats::totals();
    let run = Stopwatch::start();
    let (result, pauses_ms) = std::thread::scope(|s| {
        // Resize when the applied count crosses each fraction. Replays
        // after a migration re-apply records, so the count only paces.
        let resizer = s.spawn(|| {
            let mut pauses = Vec::new();
            for (share, target) in STEPS {
                let at = (share * n as f64) as u64;
                while applied.load(Ordering::Relaxed) < at && !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(500));
                }
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let t = Instant::now();
                if ctl.resize(&agg, target).is_ok() {
                    pauses.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            pauses
        });
        let result = compiled
            .run(ExecutorConfig {
                scheduling: scheduling(),
                semantics: Semantics::AtLeastOnce,
                shutdown_timeout: Duration::from_secs(60),
                ..Default::default()
            })
            .expect("run rescale-eo");
        done.store(true, Ordering::SeqCst);
        (result, resizer.join().expect("resize thread"))
    });
    let (run_s, cpu_s) = (run.wall_s(), run.cpu_s());
    let (allocs1, _) = alloc_stats::totals();
    let last = view.snapshot();
    let elapsed = last.published.duration_since(run.wall).as_secs_f64();

    let served = view.global().map(|r| r.value.0);
    // A resize that never happened (or failed) is a failed operation.
    let missing = STEPS.len() as u64 - pauses_ms.len() as u64;
    let failed = u64::from(!result.clean_shutdown)
        + missing
        + crate::sketch_mismatch(served.as_ref(), reference, n);
    let snap = result.metrics.snapshot();
    let table = ctl.table_of(&agg).expect("registered shard table");
    let mut rep = Rep {
        setup_s,
        records: n,
        throughput_rps: n as f64 / elapsed,
        run_s,
        cpu_s,
        attempted: n + 1 + STEPS.len() as u64,
        failed,
        commits: store.stats().0,
        ..Default::default()
    };
    engine_values(&mut rep, &snap, "log", allocs1 - allocs0);
    let v = &mut rep.values;
    v.insert("rescale.resizes", pauses_ms.len() as f64);
    v.insert("rescale.migrated_groups", table.migrated_groups() as f64);
    v.insert("rescale.rerouted", snap.counter(&format!("{agg}.rerouted")) as f64);
    v.insert("rescale_pause_p50_ms", median(&pauses_ms));
    v.insert("serving.epochs", last.epoch as f64);
    rep
}
