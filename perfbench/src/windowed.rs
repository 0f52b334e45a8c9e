//! `windowed-serve`: an open-loop, event-time, exactly-once windowed
//! dashboard with readers beside the writer.
//!
//! One generator thread appends Zipf page-view records to an in-memory
//! `Log` on a fixed schedule; a record's event time is its scheduled
//! send time in ms. A per-page tumbling-window query (`WindowBolt` →
//! `WindowServe`) counts distinct users per page per second into a
//! `ServingView`, checkpointing into `CheckpointStore::durable` on
//! `MemStorage` (many small idle-triggered commits). One reader thread
//! issues paced `ViewHandle::get` point reads and watches the view's
//! epochs for newly served page-windows. It is the only workload that
//! runs `window`/`time` and reads beside writes.

use crate::harness::{engine_values, median, quantile, scheduling, Ctx, Outcome, Rep, Stopwatch};
use crate::seams::{Traced, TracedSpout, TracedStorage};
use crate::trace::{span, Layer};
use sa_core::traits::CardinalityEstimator;
use sa_core::Synopsis;
use sa_platform::{
    alloc_stats, tumbling, CheckpointStore, CompiledQuery, DurableConfig, ExecutorConfig, Log,
    LogSpout, MemStorage, Query, Record, Semantics, Spout, Tuple, Value, ViewHandle,
};
use sa_sketches::cardinality::HyperLogLog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dashboard-sized key count: every page publishes a window result per
/// second, and `WindowServe` restores every page's sketch per publish.
const PAGES: u64 = 200;
const ZIPF_S: f64 = 1.0;
const USERS: u64 = 100_000;
const RATE: u64 = 20_000;
const WINDOW_MS: u64 = 1_000;
/// The generator appends on a fixed 20 ms tick, as a producer batching
/// with a 20 ms linger would. With a finer tick the pool goes idle, and
/// commits, at a rate set by the host's scheduling rather than by the
/// input, so the CPU a record costs would follow the load of other tenants.
/// Window ends fall on tick boundaries, so each window's last record is
/// appended at its end.
const TICK_MS: u64 = 20;
/// Windows per repetition. A run is a warm-up repetition plus one per
/// `REP_WINDOWS` seconds of `--seconds`, and reports their median, so one
/// slow stretch on a shared host moves one repetition, not the result.
const REP_WINDOWS: u64 = 2;
const READS_PER_S: u64 = 2_000;
const HLL_P: u32 = 10;
const TASKS: usize = 2;
/// Timed pipeline builds per repetition; `setup_s` is their median.
const SETUPS: usize = 15;

type Agg = Traced<HyperLogLog>;

fn sketch() -> HyperLogLog {
    HyperLogLog::new(HLL_P).expect("valid HLL precision")
}

fn fold(t: &Tuple, s: &mut Agg) {
    span(Layer::OperatorUpdate, 0, || s.0.insert_hash(t.get(1).expect("user field").hash64()));
}

/// The generated schedule: page index and user per record, in send
/// order; record `i` is due `i / RATE` seconds after the start.
struct Input {
    pages: Vec<Arc<str>>,
    records: Vec<(u32, u64)>,
}

fn event_ms(i: usize) -> u64 {
    i as u64 * 1_000 / RATE
}

pub fn run(ctx: &Ctx) -> Outcome {
    // Whole windows only: the last window ends when the generator stops.
    let n = (REP_WINDOWS * WINDOW_MS * RATE / 1_000) as usize;
    let mut zipf = sa_core::generators::ZipfStream::new(PAGES, ZIPF_S, ctx.seed);
    let mut rng = sa_core::rng::SplitMix64::new(ctx.seed ^ 0x5EED);
    let input = Input {
        pages: (0..PAGES).map(|p| Arc::from(format!("p{p}"))).collect(),
        records: (0..n).map(|_| (zipf.next_id() as u32, rng.next_below(USERS))).collect(),
    };
    let fold_start = Instant::now();
    let mut windows_ref: HashMap<(u32, u64), HyperLogLog> = HashMap::new();
    for (i, &(page, user)) in input.records.iter().enumerate() {
        let start = event_ms(i) / WINDOW_MS * WINDOW_MS;
        let h = Value::Int(user as i64).hash64();
        windows_ref.entry((page, start)).or_insert_with(sketch).insert_hash(h);
    }
    let fold_rps = n as f64 / fold_start.elapsed().as_secs_f64();
    let reference: HashMap<(u32, u64), Vec<u8>> =
        windows_ref.into_iter().map(|(k, s)| (k, s.snapshot())).collect();

    // One warm-up repetition (checked, not measured), then as many as
    // fill `--seconds`, alternating untraced and traced in a traced run.
    let measured = (ctx.seconds as u64 / REP_WINDOWS).max(2) as usize;
    let mut reps = Vec::new();
    for i in 0..=measured {
        if i == 0 && ctx.smoke {
            continue;
        }
        let traced = ctx.trace && i > 0 && i % 2 == 0;
        let mut r = crate::harness::measure(traced, || rep(&input, &reference, ctx.seed));
        r.warmup = i == 0;
        r.values.insert("reference.fold_rps", fold_rps);
        reps.push(r);
    }
    Outcome {
        reps,
        params: vec![
            ("records_per_rep", n.to_string()),
            ("rate_rps", RATE.to_string()),
            ("windows_per_rep", format!("{REP_WINDOWS} tumbling x {WINDOW_MS} ms")),
            ("generator_tick_ms", TICK_MS.to_string()),
            ("pages", PAGES.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("sketch", format!("HyperLogLog p{HLL_P} of users per page-window")),
            ("agg_tasks", TASKS.to_string()),
            ("reads_per_s", READS_PER_S.to_string()),
            ("storage", "MemStorage, DurableConfig::default()".into()),
        ],
    }
}

/// One pipeline: the live log, the traced storage and checkpoint store
/// under it, and the compiled query.
type Pipeline = (Log, Arc<TracedStorage>, CheckpointStore, CompiledQuery<Agg>);

fn build(live: &Arc<AtomicBool>) -> Pipeline {
    let log = Log::new(1).expect("one-partition log");
    let storage = Arc::new(TracedStorage::new(Arc::new(MemStorage::new())));
    let store = CheckpointStore::durable(storage.clone(), "ckpt", DurableConfig::default())
        .expect("open checkpoint store");
    let spout = LogSpout::new(&log, 0, 0, 0, |r: &Record| {
        let user = u64::from_le_bytes(r.value[..8].try_into().expect("8-byte user id"));
        Tuple::new(vec![Value::Str(r.key.as_str().into()), Value::Int(user as i64)])
    });
    let compiled = Query::from("events")
        .source_fields(["page", "user"])
        .key_by(vec![0])
        .window(tumbling(WINDOW_MS))
        .parallelism(TASKS)
        .checkpoint(&store)
        .aggregate(Traced(sketch()), fold)
        .serve("dash")
        .compile(vec![Box::new(TracedSpout::new(spout, Some(live.clone()))) as Box<dyn Spout>])
        .expect("compile windowed-serve query");
    (log, storage, store, compiled)
}

/// What the reader thread saw.
#[derive(Default)]
struct Observed {
    read_us: Vec<f64>,
    read_lateness_ms: Vec<f64>,
    failed_reads: u64,
    /// (page, window start) → (freshness ms, equals the reference).
    windows: HashMap<(u32, u64), (f64, bool)>,
}

fn rep(input: &Input, reference: &HashMap<(u32, u64), Vec<u8>>, seed: u64) -> Rep {
    let live = Arc::new(AtomicBool::new(true));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    let mut payloads = Vec::new();
    // The first build is a warm-up; each build starts from the previous
    // one's freed memory, so the timed ones see the same allocator state.
    for i in 0..=SETUPS {
        drop(built.take());
        payloads.clear();
        let t = Stopwatch::start();
        payloads = input.records.iter().map(|&(_, user)| user.to_le_bytes().to_vec()).collect();
        built = Some(build(&live));
        if i > 0 {
            setups.push(t.cpu_s());
        }
    }
    let (log, storage, store, compiled) = built.expect("at least one set-up");
    let view = compiled.view();
    let page_index: HashMap<&str, u32> =
        input.pages.iter().enumerate().map(|(i, p)| (&**p, i as u32)).collect();

    let stop = AtomicBool::new(false);
    let (allocs0, _) = alloc_stats::totals();
    let run = Stopwatch::start();
    let t0 = run.wall;
    let (result, gen_late_ms, last_send, observed, run_end) = std::thread::scope(|s| {
        let gen = s.spawn(|| generate(input, payloads, &log, &live, t0));
        let reader = s.spawn(|| read(&view, input, &page_index, reference, &stop, t0, seed));
        let result = compiled
            .run(ExecutorConfig {
                scheduling: scheduling(),
                semantics: Semantics::AtLeastOnce,
                shutdown_timeout: Duration::from_secs(60),
                ..Default::default()
            })
            .expect("run windowed-serve");
        let run_end = Instant::now();
        stop.store(true, Ordering::SeqCst);
        let (late, last_send) = gen.join().expect("generator thread");
        let observed = reader.join().expect("reader thread");
        (result, late, last_send, observed, run_end)
    });
    let (allocs1, _) = alloc_stats::totals();

    let mut failed = u64::from(!result.clean_shutdown) + observed.failed_reads;
    for key in reference.keys() {
        match observed.windows.get(key) {
            Some((_, true)) => {}
            _ => failed += 1,
        }
    }
    failed += observed.windows.keys().filter(|k| !reference.contains_key(k)).count() as u64;
    let fresh: Vec<f64> = observed.windows.values().map(|w| w.0).collect();

    let n = input.records.len() as u64;
    let cpu_s = run.cpu_s();
    let run_s = run_end.duration_since(t0).as_secs_f64();
    let snap = result.metrics.snapshot();
    let mut rep = Rep {
        setup_s: median(&setups),
        records: n,
        throughput_rps: n as f64 / run_s,
        run_s,
        cpu_s,
        attempted: reference.len() as u64 + observed.read_us.len() as u64 + 1,
        failed,
        commits: store.stats().0,
        ..Default::default()
    };
    engine_values(&mut rep, &snap, "events", allocs1 - allocs0);
    let v = &mut rep.values;
    v.insert("freshness_p50_ms", quantile(&fresh, 0.5));
    v.insert("freshness_p99_ms", quantile(&fresh, 0.99));
    v.insert("query_p50_us", quantile(&observed.read_us, 0.5));
    v.insert("query_p99_us", quantile(&observed.read_us, 0.99));
    v.insert("drain_ms", run_end.duration_since(last_send).as_secs_f64() * 1e3);
    v.insert("gen.lateness_max_ms", gen_late_ms);
    v.insert("gen.reader_lateness_p99_ms", quantile(&observed.read_lateness_ms, 0.99));
    v.insert("window.fired", snap.counter("dash.win.fired") as f64);
    v.insert("window.late", snap.counter("dash.win.dropped_late") as f64);
    v.insert("serving.epochs", view.epoch() as f64);
    v.insert("write_bytes_per_record", storage.bytes_handed() as f64 / n as f64);
    rep
}

/// On each tick, append the records due in the tick's 20 ms slot; return
/// the generator's worst lateness behind its tick schedule in ms and the
/// instant of the last send.
fn generate(
    input: &Input,
    payloads: Vec<Vec<u8>>,
    log: &Log,
    live: &AtomicBool,
    t0: Instant,
) -> (f64, Instant) {
    let n = input.records.len();
    let mut next = 0;
    let mut late_max = 0.0f64;
    let mut payloads = payloads.into_iter();
    let per_tick = (RATE * TICK_MS / 1_000) as usize;
    let mut tick = 0u32;
    while next < n {
        tick += 1;
        let due_at = t0 + Duration::from_millis(TICK_MS) * tick;
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let late = Instant::now().saturating_duration_since(due_at);
        late_max = late_max.max(late.as_secs_f64() * 1e3);
        let due = (tick as usize * per_tick).min(n);
        while next < due {
            let (page, _) = input.records[next];
            let value = payloads.next().expect("one payload per record");
            log.append_at(&input.pages[page as usize], value, event_ms(next));
            next += 1;
        }
    }
    let last_send = Instant::now();
    // The last window closes at the end of its second, not at the last
    // record: stay live until then so it is not drained early.
    let end = Duration::from_millis(event_ms(n - 1) / WINDOW_MS * WINDOW_MS + WINDOW_MS);
    if let Some(wait) = end.checked_sub(t0.elapsed()) {
        std::thread::sleep(wait);
    }
    live.store(false, Ordering::SeqCst);
    (late_max, last_send)
}

/// Paced point reads of seeded pages; between reads, scan each new epoch
/// for page-windows served for the first time.
fn read(
    view: &ViewHandle<Agg>,
    input: &Input,
    page_index: &HashMap<&str, u32>,
    reference: &HashMap<(u32, u64), Vec<u8>>,
    stop: &AtomicBool,
    t0: Instant,
    seed: u64,
) -> Observed {
    let mut obs = Observed::default();
    let mut rng = sa_core::rng::SplitMix64::new(seed ^ 0x4EAD);
    let mut seen_epoch = 0;
    // Newest window start served per page, once observed.
    let mut newest: HashMap<u32, u64> = HashMap::new();
    let mut j = 0u64;
    let mut scan = |obs: &mut Observed, newest: &mut HashMap<u32, u64>| {
        let epoch = view.snapshot();
        if epoch.epoch == seen_epoch {
            return;
        }
        seen_epoch = epoch.epoch;
        for (key, entry) in &epoch.table {
            let (Some(&page), Some((start, end))) = (page_index.get(key.as_str()), entry.window)
            else {
                obs.failed_reads += 1;
                continue;
            };
            if newest.get(&page) == Some(&start) {
                continue;
            }
            newest.insert(page, start);
            let closes = t0 + Duration::from_millis(end);
            let fresh = epoch.published.saturating_duration_since(closes).as_secs_f64() * 1e3;
            let same = reference.get(&(page, start)).is_some_and(|r| *r == entry.agg.0.snapshot());
            obs.windows.insert((page, start), (fresh, same));
        }
    };
    while !stop.load(Ordering::SeqCst) {
        let due = t0 + Duration::from_secs_f64(j as f64 / READS_PER_S as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        obs.read_lateness_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let page = rng.next_below(PAGES) as u32;
        let key = &input.pages[page as usize];
        let t = Instant::now();
        let got = span(Layer::ServingGet, 0, || view.get(key));
        obs.read_us.push(t.elapsed().as_secs_f64() * 1e6);
        // A page once served never disappears from the view.
        if got.is_none() && newest.contains_key(&page) {
            obs.failed_reads += 1;
        }
        scan(&mut obs, &mut newest);
        j += 1;
    }
    scan(&mut obs, &mut newest);
    obs
}
