//! The repository benchmark: four stream workloads, their end-to-end
//! metrics, and an outside-in per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eo-durable --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! measured on traced repetitions interleaved with untraced ones. The
//! lines before it carry the run's provenance and, for traced runs, the
//! layer table. Provenance, layer table and kept spans are also written
//! to `perfbench/out/`. `--smoke` runs every workload at reduced size
//! with its correctness oracle on. See `perfbench/NOTES.md` for why
//! each workload exists.

mod eo_durable;
mod fanout8;
mod harness;
mod rescale;
mod seams;
mod trace;
mod windowed;

use harness::{median, Ctx, Outcome, Rep, WORKERS};
use sa_core::traits::FrequencyEstimator;
use sa_core::Synopsis;
use sa_platform::Value;
use sa_sketches::frequency::CountMinSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::Layer;

const WORKLOADS: [&str; 4] = ["eo-durable", "fanout8", "windowed-serve", "rescale-eo"];

/// End-to-end metrics: (name, unit). Every workload reports each.
const END_TO_END: [(&str, &str); 2] = [("records_per_cpu_s", "rec/cpu-s"), ("setup_s", "s")];

/// Per-layer metrics: (name, unit). A workload that does not exercise
/// a layer reports 0 for it and names it in the layer table.
const PER_LAYER: [(&str, &str); 47] = [
    ("throughput_rps", "1/s"),
    ("log.next_tuple_ns", "ns"),
    ("acker.acks", "count"),
    ("acker.fails", "count"),
    ("acker.ack_latency_p50_us", "us"),
    ("operator.update_ns", "ns"),
    ("operator.commits", "count"),
    ("operator.execute_ns_per_tuple", "ns"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.encode_bytes_per_commit", "bytes"),
    ("storage.append_us", "us"),
    ("storage.appends", "count"),
    ("storage.append_bytes", "bytes"),
    ("storage.fsync_us", "us"),
    ("storage.fsyncs", "count"),
    ("storage.write_bytes", "bytes"),
    ("serving.restores", "count"),
    ("serving.restore_us", "us"),
    ("serving.merge_us", "us"),
    ("serving.epochs", "count"),
    ("serving.restores_per_epoch", "count"),
    ("serving.get_us", "us"),
    ("frame.frame_calls", "count"),
    ("frame.row_calls", "count"),
    ("channel.stall_ns", "ns"),
    ("channel.depth_hwm", "count"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("alloc.allocs_per_record", "count"),
    ("window.fired", "count"),
    ("window.late", "count"),
    ("rescale.resizes", "count"),
    ("rescale.migrated_groups", "count"),
    ("rescale.rerouted", "count"),
    ("gen.lateness_max_ms", "ms"),
    ("gen.reader_lateness_p99_ms", "ms"),
    ("reference.fold_rps", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("residual_frac", "frac"),
    ("write_bytes_per_record", "bytes"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("drain_ms", "ms"),
    ("rescale_pause_p50_ms", "ms"),
    ("failed_frac", "frac"),
];

/// Per-layer values read from untraced repetitions: user-visible
/// latencies and sizes that the tracing itself would distort.
const UNTRACED: [&str; 11] = [
    "throughput_rps",
    "write_bytes_per_record",
    "freshness_p50_ms",
    "freshness_p99_ms",
    "query_p50_us",
    "query_p99_us",
    "drain_ms",
    "rescale_pause_p50_ms",
    "gen.lateness_max_ms",
    "gen.reader_lateness_p99_ms",
    "reference.fold_rps",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let (workload, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 | --smoke",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out = run_workload(&workload, &ctx);
    report(&workload, &ctx, &out);
}

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok((workload.to_string(), Ctx { seed, seconds, trace, smoke: false }))
}

fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "eo-durable" => eo_durable::run(ctx),
        "fanout8" => fanout8::run(ctx),
        "windowed-serve" => windowed::run(ctx),
        "rescale-eo" => rescale::run(ctx),
        other => unreachable!("workload {other} was validated by parse"),
    }
}

/// Every workload at reduced size, traced and untraced, oracle on.
/// Returns the process exit code.
fn smoke() -> i32 {
    let mut code = 0;
    for w in WORKLOADS {
        let ctx = Ctx { seed: 7, seconds: 0.01, trace: true, smoke: true };
        let out = run_workload(w, &ctx);
        let (attempted, failed) = totals(&out.reps);
        println!("smoke {w}: reps={} attempted={attempted} failed={failed}", out.reps.len());
        if failed > 0 {
            code = 1;
        }
    }
    code
}

fn totals(reps: &[Rep]) -> (u64, u64) {
    (reps.iter().map(|r| r.attempted).sum(), reps.iter().map(|r| r.failed).sum())
}

/// Print provenance, the layer table (traced runs), and the result line;
/// write all of it plus the kept spans under `perfbench/out/`.
fn report(workload: &str, ctx: &Ctx, out: &Outcome) {
    let measured: Vec<&Rep> = out.reps.iter().filter(|r| !r.warmup).collect();
    let plain: Vec<&Rep> = measured.iter().copied().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = measured.iter().copied().filter(|r| r.traced).collect();
    let (attempted, failed) = totals(&out.reps);

    let mut params = String::new();
    for (i, (k, v)) in out.params.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(params, "{sep}\"{k}\": \"{}\"", escape(v));
    }
    let provenance = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"engine_workers\": {WORKERS}, \"git_revision\": \"{}\", \
         \"source_digest\": \"{:016x}\", \"reps_measured\": {}, \"reps_traced\": {}, \
         \"rep_throughput_rps\": [{}], \"rep_setup_s\": [{}], \"rep_records_per_cpu_s\": [{}], \
         \"params\": {{{params}}}}}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_revision(),
        source_digest(),
        measured.len(),
        traced.len(),
        list(&measured, |r| r.throughput_rps),
        list(&measured, |r| r.setup_s),
        list(&measured, Rep::records_per_cpu_s),
    );
    println!("{{\"provenance\": {provenance}}}");

    let value = |f: fn(&Rep) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut table = String::from("null");
    if ctx.trace {
        let mut na = Vec::new();
        for (name, unit) in PER_LAYER {
            let from = if UNTRACED.contains(&name) { &plain } else { &traced };
            let vals: Vec<f64> = from.iter().filter_map(|r| r.values.get(name).copied()).collect();
            let v = match name {
                "throughput_rps" => value(|r| r.throughput_rps),
                "trace.overhead_frac" => overhead(&plain, &traced),
                "residual_frac" => layer_table(&traced).1,
                "failed_frac" => harness::ratio(failed, attempted),
                _ if vals.is_empty() => {
                    na.push(name);
                    0.0
                }
                _ => median(&vals),
            };
            metrics.push((name, unit, v));
        }
        let (t, _) = layer_table(&traced);
        let na: Vec<String> = na.iter().map(|n| format!("\"{n}\"")).collect();
        table = format!(
            "{{\"workload\": \"{workload}\", {t}, \"not_applicable\": [{}]}}",
            na.join(", ")
        );
        println!("{{\"layers\": {table}}}");
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "records_per_cpu_s" => value(Rep::records_per_cpu_s),
                "setup_s" => value(|r| r.setup_s),
                other => unreachable!("end-to-end metric {other} has no reader"),
            };
            metrics.push((name, unit, v));
        }
    }

    let mut m = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(m, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v));
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0
    );
    write_out(workload, ctx, &provenance, &table, &result);
    println!("{result}");
}

/// Relative CPU cost of tracing: untraced over traced records per
/// CPU-second, less one.
fn overhead(plain: &[&Rep], traced: &[&Rep]) -> f64 {
    let rate =
        |reps: &[&Rep]| median(&reps.iter().map(|r| r.records_per_cpu_s()).collect::<Vec<_>>());
    let t = rate(traced);
    if t > 0.0 {
        rate(plain) / t - 1.0
    } else {
        0.0
    }
}

/// The layer table of the traced repetitions: each layer's self time,
/// total time, calls and bytes, the pool's capacity (wall × workers)
/// and the residual no measured layer covers. Returns the table's JSON
/// fields and the residual as a share of capacity.
fn layer_table(traced: &[&Rep]) -> (String, f64) {
    let wall_s: f64 = traced.iter().map(|r| r.run_s).sum();
    let capacity_ns = wall_s * WORKERS as f64 * 1e9;
    let mut rows = Vec::new();
    let mut busy_ns = 0.0;
    for (i, layer) in Layer::ALL.iter().enumerate() {
        let sum = |f: fn(&trace::LayerStats) -> u64| -> u64 {
            traced.iter().map(|r| r.layers.get(i).map_or(0, f)).sum()
        };
        let (self_ns, total_ns) = (sum(|s| s.self_ns), sum(|s| s.total_ns));
        if layer.on_pool() {
            busy_ns += self_ns as f64;
        }
        rows.push(format!(
            "{{\"layer\": \"{}\", \"on_pool\": {}, \"self_ns\": {self_ns}, \"total_ns\": \
             {total_ns}, \"calls\": {}, \"bytes\": {}, \"share\": {}}}",
            layer.name(),
            layer.on_pool(),
            sum(|s| s.calls),
            sum(|s| s.bytes),
            num(if capacity_ns > 0.0 { self_ns as f64 / capacity_ns } else { 0.0 }),
        ));
    }
    let residual_ns = capacity_ns - busy_ns;
    let residual_frac = if capacity_ns > 0.0 { residual_ns / capacity_ns } else { 0.0 };
    // Layers are disjoint self times, so they can only over-fill the
    // pool through a counting error; the check catches that.
    let accounted =
        if capacity_ns > 0.0 { (busy_ns + residual_ns.max(0.0)) / capacity_ns } else { 0.0 };
    let fields = format!(
        "\"wall_s\": {}, \"workers\": {WORKERS}, \"capacity_ns\": {}, \"layers\": [{}], \
         \"busy_ns\": {}, \"residual_ns\": {}, \"residual_frac\": {}, \"accounted_frac\": {}, \
         \"accounted_ok\": {}",
        num(wall_s),
        num(capacity_ns),
        rows.join(", "),
        num(busy_ns),
        num(residual_ns),
        num(residual_frac),
        num(accounted),
        (accounted - 1.0).abs() <= 0.10,
    );
    (fields, residual_frac)
}

fn write_out(workload: &str, ctx: &Ctx, provenance: &str, table: &str, result: &str) {
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let spans: Vec<String> = trace::spans()
        .iter()
        .map(|s| {
            format!(
                "{{\"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"bytes\": {}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                s.bytes
            )
        })
        .collect();
    let body = format!(
        "{{\"provenance\": {provenance},\n\"layers\": {table},\n\"result\": {result},\n\
         \"spans\": [\n{}\n]}}\n",
        spans.join(",\n")
    );
    let file = dir.join(format!("{workload}-seed{}-trace{}.json", ctx.seed, u8::from(ctx.trace)));
    let _ = std::fs::write(file, body);
}

/// Where the benchmark writes: `perfbench/out/` of the checkout it was
/// built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh scratch directory for one repetition's on-disk state.
pub fn workdir(name: &str) -> PathBuf {
    let dir = out_dir().join("data").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` Zipf-distributed keys over `vocab` interned names, from `seed`.
pub fn zipf_keys(n: usize, vocab: u64, s: f64, seed: u64) -> Vec<Arc<str>> {
    let names: Vec<Arc<str>> = (0..vocab).map(|i| Arc::from(format!("u{i}"))).collect();
    let mut zipf = sa_core::generators::ZipfStream::new(vocab, s, seed);
    (0..n).map(|_| names[zipf.next_id() as usize].clone()).collect()
}

/// The same CountMin fold the pipeline performs, single-threaded over
/// the generated keys: the oracle and the `reference.fold_rps` baseline.
pub fn reference_fold(keys: &[Arc<str>], mut sketch: CountMinSketch) -> (CountMinSketch, f64) {
    let start = Instant::now();
    for k in keys {
        sketch.add_hash(Value::Str(k.clone()).hash64(), 1);
    }
    let rps = keys.len() as f64 / start.elapsed().as_secs_f64();
    (sketch, rps)
}

/// Failed records of a served CountMin against the reference: records
/// lost or double-counted, or one when the totals agree but the
/// counters differ. Nothing served fails every record.
pub fn sketch_mismatch(served: Option<&CountMinSketch>, reference: &CountMinSketch, n: u64) -> u64 {
    let Some(s) = served else { return n };
    let diff = (s.total() - n as i64).unsigned_abs();
    if diff == 0 && s.snapshot() != reference.snapshot() {
        1
    } else {
        diff
    }
}

/// `HEAD` of the checkout's git repository, when it is one.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).map_or(r.to_string(), |s| s.trim().into()),
        None => head.trim().to_string(),
    }
}

/// FNV-1a over the workspace sources the benchmark measured (every file
/// under `crates/`, in path order): identifies the code when the
/// checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f.strip_prefix(&root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One value per repetition, as a JSON list body.
fn list(reps: &[&Rep], f: fn(&Rep) -> f64) -> String {
    reps.iter().map(|r| num(f(r))).collect::<Vec<_>>().join(", ")
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_run(w: &str) {
        let ctx = Ctx { seed: 11, seconds: 0.01, trace: true, smoke: true };
        let out = run_workload(w, &ctx);
        let (attempted, failed) = totals(&out.reps);
        assert!(attempted > 0, "{w}: nothing attempted");
        assert_eq!(failed, 0, "{w}: {failed} of {attempted} operations failed");
        assert!(out.reps.iter().any(|r| r.traced), "{w}: no traced repetition");
    }

    #[test]
    fn smoke_eo_durable() {
        smoke_run("eo-durable");
    }

    #[test]
    fn smoke_fanout8() {
        smoke_run("fanout8");
    }

    #[test]
    fn smoke_windowed_serve() {
        smoke_run("windowed-serve");
    }

    #[test]
    fn smoke_rescale_eo() {
        smoke_run("rescale-eo");
    }

    #[test]
    fn parse_rejects_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload fanout8 --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse(&args("--workload fanout8 --seed x --seconds 2 --trace 0")).is_err());
        assert!(parse(&args("--workload fanout8 --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload fanout8 --seed 1 --seconds 2 --trace 2")).is_err());
    }
}
