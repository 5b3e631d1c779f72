//! End-to-end and per-layer benchmark of the compressed collectives.
//!
//! ```text
//! perfbench --workload <ar-large-thr|step-small-thr|ar-auto-sim>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--source <digest>]
//! ```
//!
//! Prints a stamp line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`
//! (which also writes the span file under `perfbench/out/`). See
//! `perfbench/README.md` for the tables.

mod layers;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;

use ccoll_comm::{Category, CostModel, Kernel};
use ccoll_compress::dispatch;

use stats::{median, quantile, Obj};
use trace::{durations_us, Tracer};
use workload::{run_world, Ctx, Inputs, Mode, PhaseLog, RankReport, Workload, MIN_OPS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut commit, mut source) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--commit" => commit = value,
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        source,
    })
}

/// The configuration every number of this run traces to.
fn stamp(a: &Args) -> Obj {
    let cost = CostModel::default();
    let mut model = Obj::new().str("name", "default");
    for k in [Kernel::SzxCompress, Kernel::SzxDecompress, Kernel::Reduce] {
        model = model.num(&format!("{k:?}_Bps"), cost.throughput(k));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Obj::new()
        .str("workload", a.workload.name())
        .int("seed", a.seed)
        .num("seconds", a.seconds)
        .str("mode", if a.trace { "trace" } else { "measure" })
        .str("simd", dispatch::active().level().label())
        .obj("cost_model", model)
        .int("nproc", nproc)
        .str("git_commit", &a.commit)
        .str("source_digest", &a.source)
}

/// Collected metrics, printed in insertion order.
struct Metrics {
    obj: Obj,
    ok: bool,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            obj: Obj::new(),
            ok: true,
        }
    }

    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.ok &= value.is_finite();
        let m = Obj::new().num("value", value).str("unit", unit);
        self.obj = std::mem::take(&mut self.obj).obj(name, m);
    }
}

/// Selects one phase log of a rank report.
type Phase = fn(&RankReport) -> &PhaseLog;

/// Sum over ops of `max end − min start` across ranks, per op, in ms;
/// over the first `ops` ops of each rank's `phase`.
fn clock_ms_per_op(reports: &[RankReport], phase: Phase, ops: usize) -> f64 {
    let n = reports
        .iter()
        .map(|r| phase(r).clock.len())
        .min()
        .unwrap_or(0)
        .min(ops);
    let total: u64 = (0..n)
        .map(|i| {
            let start = reports
                .iter()
                .map(|r| phase(r).clock[i].0)
                .min()
                .unwrap_or(0);
            let end = reports
                .iter()
                .map(|r| phase(r).clock[i].1)
                .max()
                .unwrap_or(0);
            end - start
        })
        .sum();
    total as f64 / 1e6 / n.max(1) as f64
}

/// `(messages, bytes)` all ranks sent over the first `ops` ops of `phase`.
fn traffic(reports: &[RankReport], phase: Phase, ops: usize) -> (u64, u64) {
    reports
        .iter()
        .flat_map(|r| phase(r).traffic.iter().take(ops))
        .fold((0, 0), |(m, b), &(dm, db)| (m + dm, b + db))
}

fn ops_in(reports: &[RankReport], phase: Phase, ops: usize) -> usize {
    reports
        .iter()
        .map(|r| phase(r).traffic.len())
        .min()
        .unwrap_or(0)
        .min(ops)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args).finish();
    println!("{{\"stamp\": {stamp}}}");

    let w = args.workload;
    let mode = if args.trace {
        Mode::Trace
    } else {
        Mode::Measure
    };
    let inputs = Arc::new(Inputs::generate(w, args.seed));
    let cx = Arc::new(Ctx::new(w, Arc::clone(&inputs), mode, args.seconds));
    let reports = match run_world(Arc::clone(&cx), w.simulated()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!(
                "{}",
                Obj::new()
                    .boolean("correct", false)
                    .int("attempted", 1)
                    .int("failed", 1)
                    .obj("metrics", Obj::new())
                    .finish()
            );
            return ExitCode::SUCCESS;
        }
    };

    let mut attempted = reports.iter().map(|r| r.ops).max().unwrap_or(0) as u64;
    let mut failed: BTreeSet<u32> = reports
        .iter()
        .flat_map(|r| r.failed.iter().copied())
        .collect();
    let mut correct = reports.iter().all(|r| r.self_test_ok);
    let mut worst = reports.iter().map(|r| r.verdict.worst).fold(0.0, f64::max);
    let r0 = &reports[0];
    let main: Phase = |r| &r.main;
    let mut m = Metrics::new();

    if !args.trace {
        // Every workload reports every end-to-end metric, so threaded
        // workloads get their virtual time from a replay of the same ops
        // on the simulator under the default cost model.
        let virt_ms = if w.simulated() {
            clock_ms_per_op(&reports, main, MIN_OPS)
        } else {
            let replay = Arc::new(Ctx::new(w, Arc::clone(&inputs), Mode::Replay, 0.0));
            match run_world(replay, true) {
                Ok(rr) => {
                    let base = attempted as u32;
                    attempted += rr.iter().map(|r| r.ops).max().unwrap_or(0) as u64;
                    failed.extend(rr.iter().flat_map(|r| r.failed.iter().map(|i| base + i)));
                    worst = rr.iter().map(|r| r.verdict.worst).fold(worst, f64::max);
                    clock_ms_per_op(&rr, main, usize::MAX)
                }
                Err(e) => {
                    eprintln!("perfbench: replay: {e}");
                    correct = false;
                    f64::NAN
                }
            }
        };
        let wall = &r0.main.wall_s;
        let ops = ops_in(&reports, main, MIN_OPS);
        let (_, bytes) = traffic(&reports, main, MIN_OPS);
        m.put("setup_s", median(&r0.setup_s), "s");
        m.put(
            "op_ms_p50",
            quantile(wall, 0.5).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        m.put(
            "op_ms_p90",
            quantile(wall, 0.9).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        m.put(
            "raw_gbps",
            w.raw_bytes_per_op() * wall.len() as f64 / wall.iter().sum::<f64>() / 1e9,
            "GB/s",
        );
        m.put("virt_ms_per_op", virt_ms, "ms");
        m.put(
            "wire_ratio",
            w.raw_bytes_per_op() * ops as f64 / bytes as f64,
            "ratio",
        );
        m.put("err_over_bound", worst, "ratio");
        m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    } else {
        let mut tr = Tracer::new(true, w.ranks(), cx.epoch);
        let k = layers::kernel_rates(w, &inputs, &mut tr);
        let ops = ops_in(&reports, main, MIN_OPS);
        let (msgs, bytes) = traffic(&reports, main, MIN_OPS);
        let msg_bytes = (bytes / msgs.max(1)) as usize;
        let (frame_ns, unframe_ns) = layers::wire_ns(w.ranks(), msg_bytes, &mut tr);
        let mut spans: Vec<_> = reports
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect();

        m.put("compress.encode_gbps", k.encode, "GB/s");
        m.put("compress.decode_gbps", k.decode, "GB/s");
        m.put("compress.fused_reduce_gbps", k.fused, "GB/s");
        m.put("reduce.fold_gbps", k.fold, "GB/s");
        m.put("wire.frame_ns", frame_ns, "ns");
        m.put("wire.unframe_ns", unframe_ns, "ns");
        m.put("threaded.msg_us", layers::ping_pong_us(msg_bytes), "us");

        // Calls per op: spans of one name over the distinct (rank, op)
        // pairs they occurred in.
        let per_op = |name: &str| {
            let hits: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            let distinct: BTreeSet<(u16, u32)> = hits.iter().map(|s| (s.rank, s.op)).collect();
            hits.len() as f64 / distinct.len().max(1) as f64
        };
        let slices: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "nonblocking.progress")
            .collect();
        let pending = slices.iter().filter(|s| s.pending).count();
        m.put(
            "nonblocking.slices_per_op",
            per_op("nonblocking.progress"),
            "count",
        );
        m.put(
            "nonblocking.slice_us",
            median(&durations_us(&spans, "nonblocking.progress")),
            "us",
        );
        m.put(
            "nonblocking.pending_share",
            pending as f64 / slices.len().max(1) as f64,
            "ratio",
        );
        // The engine probe drives its ops by passes alone, so every pass
        // the engine needed is a span.
        m.put("engine.passes_per_step", per_op("engine.pass"), "count");
        m.put(
            "engine.pass_us",
            median(&durations_us(&spans, "engine.pass")),
            "us",
        );

        let auto: Phase = |r| &r.auto;
        let pinned: Phase = |r| &r.pinned;
        let probe = w.probe_ops();
        let (auto_msgs, _) = traffic(&reports, auto, probe);
        let (pinned_msgs, _) = traffic(&reports, pinned, probe);
        m.put(
            "algorithm.auto_overhead",
            clock_ms_per_op(&reports, auto, probe) / clock_ms_per_op(&reports, pinned, probe),
            "ratio",
        );
        m.put(
            "algorithm.ctrl_msgs_per_op",
            (auto_msgs as f64 - pinned_msgs as f64) / ops_in(&reports, auto, probe).max(1) as f64,
            "count",
        );

        let algorithm = r0.algorithm.unwrap_or(c_coll::Algorithm::Ring);
        let measured_ms = if w.simulated() {
            clock_ms_per_op(&reports, main, MIN_OPS)
        } else {
            median(&r0.main.wall_s) * 1e3
        };
        let predicted_ms = layers::predicted_op(w, algorithm, &k).as_secs_f64() * 1e3;
        m.put("cost.pred_over_meas", predicted_ms / measured_ms, "ratio");
        m.put(
            "traffic.msgs_per_op",
            msgs as f64 / ops.max(1) as f64,
            "count",
        );
        m.put(
            "traffic.wire_kb_per_op",
            bytes as f64 / 1024.0 / ops.max(1) as f64,
            "KiB",
        );

        let sim_inputs = if w.simulated() {
            None
        } else {
            Some(Arc::new(Inputs::generate(Workload::ArAutoSim, args.seed)))
        };
        let (us_per_msg, sys_share) =
            layers::sim_overhead(sim_inputs.as_ref().unwrap_or(&inputs), 16);
        m.put("sim.wall_us_per_msg", us_per_msg, "us");
        m.put("sim.sys_share", sys_share, "ratio");

        // The profile's denominator: backend-clock time per op of the same
        // phase (wall on threads, virtual on the sim), max over ranks.
        let op_ms = reports
            .iter()
            .map(|r| {
                let c = &r.main.clock;
                c.iter().map(|&(s, e)| (e - s) as f64).sum::<f64>() / 1e6 / c.len().max(1) as f64
            })
            .fold(0.0, f64::max);
        m.put("profile.op_ms", op_ms, "ms");
        for (i, cat) in Category::ALL.iter().enumerate() {
            let per_op = reports
                .iter()
                .map(|r| r.main.cats[i] / r.main.wall_s.len().max(1) as f64)
                .fold(0.0, f64::max);
            m.put(
                &format!("profile.{}_ms", cat.label().to_lowercase()),
                per_op * 1e3,
                "ms",
            );
        }
        let sum = |f: fn(&c_coll::SessionStats) -> u64| {
            reports.iter().map(|r| f(&r.session)).sum::<u64>()
        };
        m.put("session.retries", sum(|s| s.retries) as f64, "count");
        m.put("session.timeouts", sum(|s| s.timeouts) as f64, "count");
        m.put("session.aborts", sum(|s| s.aborts) as f64, "count");
        m.put(
            "trace.overhead",
            median(&r0.traced.wall_s) / median(&r0.main.wall_s),
            "ratio",
        );

        spans.extend(tr.into_spans());
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.json",
            w.name(),
            args.seed
        ));
        match trace::write_span_file(&path, &stamp, &mut spans) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                correct = false;
            }
        }
    }

    let failed = failed.len() as u64;
    let result = Obj::new()
        .boolean("correct", correct && m.ok && failed == 0 && attempted > 0)
        .int("attempted", attempted.max(1))
        .int("failed", failed)
        .obj("metrics", m.obj)
        .finish();
    println!("{result}");
    ExitCode::SUCCESS
}
