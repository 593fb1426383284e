//! Host-time benchmark of the PICASSO reproduction.
//!
//! ```text
//! perfbench --workload <ablation|cluster|serve|recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs in this process on this thread: set-up three times,
//! then whole ops until `--seconds` have passed. Host times are normalized
//! by a reference kernel sampled between blocks of ops (see `host`). The
//! last line of standard output is the JSON result; the lines before it
//! give the raw figures, the kernel's timings and the host-noise
//! diagnostics. With `--trace 1` the run also records layer spans, writes
//! a Chrome trace to `.bench_out/<workload>-trace.json`, prints the
//! per-layer self-time table, and reports the per-layer metrics. See
//! README.md.

mod host;
mod record;
mod workloads;

use host::{CountingAlloc, RefKernel, NOMINAL_REF_NS};
use record::Recorder;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Ops run back to back between two reference-kernel samples.
const BLOCK: Duration = Duration::from_millis(500);
/// Kernel samples on each side of a block that its normalization uses.
const REF_WINDOW: usize = 8;
/// Where traces and checkpoints go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Distance between the quartiles as a percentage of the median.
fn iqr_pct(v: &[f64]) -> f64 {
    100.0 * (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

/// Linear-interpolated quantile of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Per-block normalization: the nominal reference time over the median of
/// the kernel samples within `REF_WINDOW` blocks of block `b`, whose own
/// samples are `refs[b]` (before) and `refs[b + 1]` (after). The window
/// follows drift over a few seconds while one slow sample moves little.
fn block_scales(refs: &[f64], blocks: usize) -> Vec<f64> {
    (0..blocks)
        .map(|b| {
            let lo = b.saturating_sub(REF_WINDOW);
            let hi = (b + 1 + REF_WINDOW).min(refs.len() - 1);
            NOMINAL_REF_NS / median(&refs[lo..=hi])
        })
        .collect()
}

/// Per-layer time metrics: `(metric, span or derived cost name)`.
const LAYER_TIMES: [(&str, &str); 17] = [
    ("data.batch_ms", "data.batch"),
    ("exec.warmup_ms", "exec.warmup"),
    ("exec.plan_ms", "exec.plan"),
    ("graph.passes_ms", "graph.passes"),
    ("exec.stage_lint_ms", "exec.stage_lint"),
    ("sim.simulate_ms", "sim.simulate"),
    ("exec.report_ms", "exec.report"),
    ("exec.analyze_ms", "exec.analyze"),
    ("exec.chrome_ms", "exec.chrome"),
    ("obs.chrome_json_ms", "obs.chrome_json"),
    ("exec.serving_plan_ms", "exec.serving_plan"),
    ("sim.traffic_ms", "sim.traffic"),
    ("embedding.lookup_ms", "embedding.lookup"),
    ("serve.replica_ms", "serve.replica"),
    ("train.run_ms", "train.run"),
    ("exec.recovery_ms", "exec.recovery"),
    ("ckpt.verify_ms", "ckpt.verify"),
];

/// Exact per-layer values the workloads report: `(metric, unit)`.
const LAYER_VALUES: [(&str, &str); 13] = [
    ("data.ids", "count"),
    ("sim.tasks", "count"),
    ("sim.ips_wdl", "1/s"),
    ("sim.ips_can", "1/s"),
    ("obs.trace_kb", "KiB"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.sim_p50_ms", "ms"),
    ("serve.sim_p99_ms", "ms"),
    ("serve.sim_capacity_rps", "1/s"),
    ("embedding.hit_ratio", "ratio"),
    ("sim.recover_s", "s"),
    ("ckpt.bytes", "B"),
];

/// One finished run.
struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut rec = Recorder::new(args.trace);

    let rss_before = host::status_bytes("VmRSS").unwrap_or(0);
    let mut kernel = RefKernel::new();
    let kernel_bytes = host::status_bytes("VmRSS")
        .unwrap_or(0)
        .saturating_sub(rss_before)
        .max(kernel.resident_bytes());
    let mut sample = |rec: &Recorder| {
        let t0 = rec.now_ns();
        let ns = kernel.sample_ns() as f64;
        rec.mark("bench.ref", t0, rec.now_ns());
        ns
    };

    // Set-up, several times; the last state runs the ops.
    let mut setup_raw = Vec::new();
    let mut setup_refs = vec![sample(&rec)];
    let mut state: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        rec.begin_block();
        let t0 = Instant::now();
        let s = W::setup(args.seed, out_dir, &mut rec)?;
        setup_raw.push(t0.elapsed().as_nanos() as f64);
        rec.end_round();
        setup_refs.push(sample(&rec));
        state = Some(s);
    }
    let mut w = state.expect("at least one set-up");
    let scales = block_scales(&setup_refs, SETUP_REPS);
    let setup_ns: Vec<f64> = setup_raw.iter().zip(&scales).map(|(r, s)| r * s).collect();
    rec.finish(&scales);
    let setup_rounds = std::mem::take(&mut rec.rounds);

    // Ops in blocks between reference-kernel samples, until time is up.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    let mut sim_ips: Option<f64> = None;
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    let mut op_allocs: Vec<(f64, f64)> = Vec::new();
    let sched0 = host::schedstat();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut refs = vec![sample(&rec)];
    while start.elapsed() < deadline {
        rec.begin_block();
        let block_start = Instant::now();
        let mut block = Vec::new();
        loop {
            let t0 = rec.now_ns();
            rec.take_top();
            let mut bad = w.op(&mut rec);
            let op = rec.take_top();
            rec.mark("bench.op", t0, rec.now_ns());
            let ips = w.sim_ips();
            match sim_ips {
                _ if !bad.is_empty() => {}
                None => sim_ips = Some(ips),
                Some(prev) if prev.to_bits() != ips.to_bits() => {
                    bad.push(format!("simulated throughput {ips} differs from {prev}"))
                }
                Some(_) => {}
            }
            attempted += 1;
            if !bad.is_empty() {
                failed += 1;
                if failed <= 3 {
                    println!("failed op {attempted}: {}", bad.join("; "));
                }
            }
            if attempted == 1 {
                if let Err(e) = w.self_test() {
                    println!("self-test: FAILED: {e}");
                    correct = false;
                } else {
                    println!("self-test: corrupted output detected by its check");
                }
            }
            if rec.traced() && bad.is_empty() {
                w.probe(&mut rec);
            }
            rec.end_round();
            op_allocs.push((op.bytes, op.allocs));
            block.push(op.ns);
            if block_start.elapsed() >= BLOCK || start.elapsed() >= deadline {
                break;
            }
        }
        refs.push(sample(&rec));
        blocks.push(block);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let sched1 = host::schedstat();
    drop(w);
    let scales = block_scales(&refs, blocks.len());
    let (mut ops_raw, mut ops_norm) = (Vec::new(), Vec::new());
    for (block, scale) in blocks.iter().zip(&scales) {
        ops_raw.extend(block.iter().copied());
        ops_norm.extend(block.iter().map(|ns| ns * scale));
    }
    rec.finish(&scales);

    // End-to-end metrics.
    let mib = (1u64 << 20) as f64;
    let hwm = host::status_bytes("VmHWM").unwrap_or(0);
    let peak_rss = hwm.saturating_sub(kernel_bytes) as f64 / mib;
    let op_p50_ms = median(&ops_norm) / 1e6;
    let ops_per_s = ops_norm.len() as f64 / (ops_norm.iter().sum::<f64>() / 1e9);
    let setup_s = median(&setup_ns) / 1e9;
    let sim_ips = sim_ips.unwrap_or(0.0);

    // Raw figures and host-noise diagnostics.
    let ref_ms = median(&refs) / 1e6;
    let ref_iqr_pct = iqr_pct(&refs);
    let raw_p50_ms = median(&ops_raw) / 1e6;
    let (cpu_pct, runq_ms) = match (sched0, sched1) {
        (Some(a), Some(b)) => (
            100.0 * (b.0 - a.0) as f64 / wall_ns,
            (b.1 - a.1) as f64 / 1e6,
        ),
        _ => (0.0, 0.0),
    };
    println!(
        "workload {} seed {} trace {}: {} ops in {:.1} s, set-up {:?} s (normalized)",
        args.workload,
        args.seed,
        args.trace as u8,
        ops_norm.len(),
        wall_ns / 1e9,
        setup_ns.iter().map(|s| s / 1e9).collect::<Vec<_>>()
    );
    println!(
        "op p50: {op_p50_ms:.3} ms normalized, {raw_p50_ms:.3} ms raw; \
         set-up median {setup_s:.4} s normalized, {:.4} s raw",
        median(&setup_raw) / 1e9
    );
    println!(
        "op IQR: {:.2} % normalized, {:.2} % raw",
        iqr_pct(&ops_norm),
        iqr_pct(&ops_raw)
    );
    if ops_norm.len() >= 40 {
        let mut sorted = ops_norm.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p = 100.0 * (n - 10) as f64 / n as f64;
        println!(
            "op tail: p{p:.1} = {:.3} ms normalized over {n} ops (10 slower)",
            sorted[n - 11] / 1e6
        );
    }
    println!(
        "reference kernel: median {ref_ms:.3} ms, IQR {ref_iqr_pct:.2} % over {} samples \
         (nominal {:.1} ms)",
        refs.len(),
        NOMINAL_REF_NS / 1e6
    );
    println!(
        "host: CPU {cpu_pct:.1} % of wall, run-queue wait {runq_ms:.1} ms; \
         VmHWM {:.1} MiB of which {:.1} MiB is the reference kernel's",
        hwm as f64 / mib,
        kernel_bytes as f64 / mib
    );
    if args.workload == "recover" {
        println!(
            "checkpoints: {} ({})",
            out_dir.join("ckpt-*").display(),
            host::fs_type(out_dir)
        );
    }

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if !args.trace {
        metrics.push(("ops_per_s".into(), ops_per_s, "ops/s"));
        metrics.push(("op_p50_ms".into(), op_p50_ms, "ms"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss, "MiB"));
        metrics.push(("sim_ips".into(), sim_ips, "instances/s"));
    } else {
        let rounds = &rec.rounds;
        let costs = |name: &str| -> Vec<record::Cost> {
            let from_ops: Vec<record::Cost> =
                rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            if !from_ops.is_empty() {
                return from_ops;
            }
            setup_rounds
                .iter()
                .filter_map(|r| r.get(name).copied())
                .collect()
        };
        for (metric, name) in LAYER_TIMES {
            let c = costs(name);
            let ns: Vec<f64> = c.iter().map(|c| c.ns).collect();
            metrics.push((metric.into(), median(&ns) / 1e6, "ms"));
            if name == "graph.passes" {
                continue;
            }
            let bytes: Vec<f64> = c.iter().map(|c| c.bytes).collect();
            let allocs: Vec<f64> = c.iter().map(|c| c.allocs).collect();
            metrics.push((format!("{name}.alloc_mb"), median(&bytes) / mib, "MiB"));
            metrics.push((format!("{name}.allocs"), median(&allocs), "count"));
        }
        for (metric, unit) in LAYER_VALUES {
            let v = rec.values.get(metric).copied().unwrap_or(0.0);
            metrics.push((metric.into(), v, unit));
        }
        let bytes: Vec<f64> = op_allocs.iter().map(|a| a.0).collect();
        let allocs: Vec<f64> = op_allocs.iter().map(|a| a.1).collect();
        metrics.push(("bench.op_alloc_mb".into(), median(&bytes) / mib, "MiB"));
        metrics.push(("bench.op_allocs".into(), median(&allocs), "count"));
        metrics.push(("bench.traced_op_p50_ms".into(), op_p50_ms, "ms"));
        metrics.push(("bench.traced_ops_per_s".into(), ops_per_s, "ops/s"));
        metrics.push(("bench.raw_op_p50_ms".into(), raw_p50_ms, "ms"));
        metrics.push(("bench.ref_ms".into(), ref_ms, "ms"));
        metrics.push(("bench.ref_iqr_pct".into(), ref_iqr_pct, "%"));
        metrics.push(("bench.cpu_pct".into(), cpu_pct, "%"));
        metrics.push(("bench.runq_wait_ms".into(), runq_ms, "ms"));

        let path = out_dir.join(format!("{}-trace.json", args.workload));
        std::fs::write(&path, rec.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("Chrome trace: {}", path.display());
        print_table(&rec);
    }
    for (name, v, _) in &mut metrics {
        if !v.is_finite() {
            println!("metric {name} is not finite");
            *v = 0.0;
            correct = false;
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
    })
}

/// Prints the traced run's per-span self-time table, raw host time.
fn print_table(rec: &Recorder) {
    let total: f64 = rec.table.values().map(|r| r.own.ns).sum();
    println!("per-span costs over the whole run, set-up included (raw host time):");
    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>7} {:>11} {:>11}",
        "span", "calls", "total ms", "self ms", "self %", "self MiB", "self allocs"
    );
    for (name, r) in &rec.table {
        println!(
            "{:<20} {:>7} {:>12.1} {:>12.1} {:>7.1} {:>11.1} {:>11.0}",
            name,
            r.calls,
            r.total.ns / 1e6,
            r.own.ns / 1e6,
            100.0 * r.own.ns / total.max(1.0),
            r.own.bytes / (1u64 << 20) as f64,
            r.own.allocs
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ablation" => run::<workloads::ablation::Ablation>(&args),
        "cluster" => run::<workloads::cluster::Cluster>(&args),
        "serve" => run::<workloads::serve::Serve>(&args),
        "recover" => run::<workloads::recover::Recover>(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
