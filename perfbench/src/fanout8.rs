//! `fanout8`: a closed at-most-once broadcast (`All`) of Zipf
//! clickstream keys to eight bench-owned sketch bolts that take columnar
//! frames. There is no log, acker, checkpoint or storage, so the run
//! isolates emit/batching, `frame`, `channel` and the scheduler: a
//! storage or serving change must leave it flat.

use crate::harness::{engine_values, scheduling, Ctx, Outcome, Rep, Stopwatch};
use crate::trace::{span, Layer};
use sa_core::traits::{CardinalityEstimator, FrequencyEstimator, MembershipFilter};
use sa_core::Synopsis;
use sa_platform::topology::vec_spout;
use sa_platform::{
    alloc_stats, run_topology, Bolt, ExecutorConfig, Frame, OutputCollector, Semantics,
    TopologyBuilder, Tuple, Value,
};
use sa_sketches::cardinality::HyperLogLog;
use sa_sketches::frequency::CountMinSketch;
use sa_sketches::membership::BloomFilter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FANOUT: usize = 8;
const VOCAB: u64 = 20_000;
const ZIPF_S: f64 = 1.05;
const BATCH: usize = 512;

/// The eight consumers: three resolutions each of distinct count and
/// frequency, two of membership — a dashboard tracking the same stream
/// several ways. All three families fold order-independently, so each
/// bolt's final state must equal a direct fold bit for bit.
#[derive(Clone)]
enum Sketch {
    Hll(HyperLogLog),
    Cms(CountMinSketch),
    Bloom(BloomFilter),
}

fn sketches() -> Vec<Sketch> {
    let hll = |p| Sketch::Hll(HyperLogLog::new(p).expect("valid HLL precision"));
    let cms = |w, d| Sketch::Cms(CountMinSketch::new(w, d).expect("valid CountMin shape"));
    let bloom = |f| Sketch::Bloom(BloomFilter::with_fpp(50_000, f).expect("valid Bloom shape"));
    vec![
        hll(14),
        hll(12),
        hll(10),
        cms(2048, 4),
        cms(8192, 2),
        cms(1024, 4),
        bloom(0.01),
        bloom(0.001),
    ]
}

impl Sketch {
    fn insert(&mut self, h: u64) {
        match self {
            Sketch::Hll(s) => s.insert_hash(h),
            Sketch::Cms(s) => s.add_hash(h, 1),
            Sketch::Bloom(s) => {
                s.insert_hash(h);
            }
        }
    }

    fn insert_all(&mut self, hs: &[u64]) {
        match self {
            Sketch::Hll(s) => s.insert_hashes(hs),
            Sketch::Cms(s) => s.add_hashes(hs, 1),
            Sketch::Bloom(s) => s.insert_hashes(hs),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        match self {
            Sketch::Hll(s) => s.snapshot(),
            Sketch::Cms(s) => s.snapshot(),
            Sketch::Bloom(s) => s.snapshot(),
        }
    }
}

/// Calls into the bench-owned bolts: columnar frames and row fallbacks.
#[derive(Default)]
struct Calls {
    frames: AtomicU64,
    rows: AtomicU64,
}

struct SketchBolt {
    index: usize,
    sketch: Sketch,
    calls: Arc<Calls>,
}

impl Bolt for SketchBolt {
    fn execute(&mut self, t: &Tuple, _out: &mut OutputCollector) {
        let h = t.get(0).expect("key field").hash64();
        span(Layer::OperatorExecute, 1, || self.sketch.insert(h));
        self.calls.rows.fetch_add(1, Ordering::Relaxed);
    }

    fn wants_frames(&self) -> bool {
        true
    }

    fn execute_frame(&mut self, frame: &Frame, _out: &mut OutputCollector) {
        let n = frame.len() as u64;
        span(Layer::OperatorExecute, n, || self.sketch.insert_all(frame.column_hashes(0)));
        self.calls.frames.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&mut self, out: &mut OutputCollector) {
        out.emit(Tuple::new(vec![
            Value::Int(self.index as i64),
            Value::Bytes(self.sketch.snapshot().into()),
        ]));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = if ctx.smoke { 20_000 } else { 1_000_000 };
    let keys = crate::zipf_keys(n, VOCAB, ZIPF_S, ctx.seed);
    let fold_start = Instant::now();
    let reference: Vec<Vec<u8>> = sketches()
        .into_iter()
        .map(|mut s| {
            for k in &keys {
                s.insert(Value::Str(k.clone()).hash64());
            }
            s.snapshot()
        })
        .collect();
    let fold_rps = n as f64 / fold_start.elapsed().as_secs_f64();
    // Tuples share their interned key, so cloning the prepared input per
    // repetition costs one vector, not a million allocations.
    let tuples: Vec<Tuple> = keys.iter().map(|k| Tuple::new(vec![Value::Str(k.clone())])).collect();
    let reps = crate::harness::closed_loop(ctx, 3, || rep(&tuples, &reference));
    let mut out = Outcome {
        reps,
        params: vec![
            ("records_per_rep", n.to_string()),
            ("key_vocab", VOCAB.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("fanout", FANOUT.to_string()),
            ("batch_size", BATCH.to_string()),
            ("sketches", "HLL p14/p12/p10, CountMin 2048x4/8192x2/1024x4, Bloom 1%/0.1%".into()),
        ],
    };
    for r in &mut out.reps {
        r.values.insert("reference.fold_rps", fold_rps);
    }
    out
}

fn rep(input: &[Tuple], reference: &[Vec<u8>]) -> Rep {
    let setup = Stopwatch::start();
    let tuples = input.to_vec();
    let calls = Arc::new(Calls::default());
    let mut tb = TopologyBuilder::new();
    tb.set_spout("clicks", vec![vec_spout(tuples)]);
    let bolts: Vec<Box<dyn Bolt>> = sketches()
        .into_iter()
        .enumerate()
        .map(|(index, sketch)| {
            Box::new(SketchBolt { index, sketch, calls: calls.clone() }) as Box<dyn Bolt>
        })
        .collect();
    tb.set_bolt("analytics", bolts).all("clicks");
    let setup_s = setup.cpu_s();

    let (allocs0, _) = alloc_stats::totals();
    let run = Stopwatch::start();
    let result = run_topology(
        tb,
        ExecutorConfig {
            scheduling: scheduling(),
            semantics: Semantics::AtMostOnce,
            batch_size: BATCH,
            shutdown_timeout: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .expect("run fanout8");
    let (run_s, cpu_s) = (run.wall_s(), run.cpu_s());
    let (allocs1, _) = alloc_stats::totals();

    // Per-bolt check: each bolt's final sketch against the direct fold.
    let mut got: Vec<Option<Vec<u8>>> = vec![None; FANOUT];
    for t in result.outputs.get("analytics").map_or(&[][..], |v| v.as_slice()) {
        if let (Some(i), Some(b)) =
            (t.get(0).and_then(Value::as_int), t.get(1).and_then(Value::as_bytes))
        {
            if let Some(slot) = got.get_mut(i as usize) {
                *slot = Some(b.to_vec());
            }
        }
    }
    let mismatched = got.iter().zip(reference).filter(|(g, r)| g.as_deref() != Some(r.as_slice()));
    let failed = mismatched.count() as u64 + u64::from(!result.clean_shutdown);

    let n = input.len() as u64;
    let mut rep = Rep {
        setup_s,
        records: n,
        throughput_rps: n as f64 / run_s,
        run_s,
        cpu_s,
        attempted: FANOUT as u64 + 1,
        failed,
        ..Default::default()
    };
    engine_values(&mut rep, &result.metrics.snapshot(), "clicks", allocs1 - allocs0);
    rep.values.insert("frame.frame_calls", calls.frames.load(Ordering::Relaxed) as f64);
    rep.values.insert("frame.row_calls", calls.rows.load(Ordering::Relaxed) as f64);
    rep
}
