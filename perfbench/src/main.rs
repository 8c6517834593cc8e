//! Closed-loop query benchmark of the ftpde engine: one single-threaded
//! client keeps exactly one query in flight against a 1-node engine over
//! TPC-H at SF 0.02, checks every result, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object; `perfbench/README.md` describes the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` alternates untraced and traced cycles and reports the
//! per-layer metrics, timed from outside the engine.

mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ftpde_obs::sync::clock;
use workload::{Bench, Layers, OpResult, Outcome, SetupTimes, Workload, CYCLE, WARMUP_OPS};

const USAGE: &str = "usage: perfbench --workload <scan-join-mem|recover-best-mem|resume-disk> --seed <u64> --seconds <n> --trace <0|1>";
/// Scratch directory for the disk stores, under the working directory.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(PathBuf::from(WORK_DIR).join(std::process::id().to_string()));
    match run(&args, &work) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Removes the benchmark's scratch directory when dropped, error paths
/// included.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// Outcome counts over every checked operation of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    correct: u64,
    bytes_stored: u64,
    node_retries: u64,
}

impl Tally {
    fn add(&mut self, op: &OpResult) {
        self.attempted += 1;
        if op.outcome == Outcome::Correct {
            self.correct += 1;
        } else {
            eprintln!("perfbench: query {:?}", op.outcome);
        }
        self.bytes_stored += op.bytes_stored;
        self.node_retries += op.node_retries;
    }

    fn failed(&self) -> u64 {
        self.attempted - self.correct
    }
}

/// One measured cycle of an untraced run.
struct CycleStats {
    qps: f64,
    p50_ms: f64,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs the first `n` operations of a cycle, checking every one; returns
/// their summed wall in microseconds.
fn run_ops(
    bench: &Bench,
    n: usize,
    traced: bool,
    tally: &mut Tally,
    mut each: impl FnMut(&OpResult),
) -> Result<f64, String> {
    let mut wall_us = 0.0;
    for k in 0..n {
        let op = bench.run_op(k, traced)?;
        tally.add(&op);
        wall_us += op.wall_us;
        each(&op);
    }
    Ok(wall_us)
}

fn run(args: &Args, work: &WorkDir) -> Result<(), String> {
    let (bench, mut setups) = Bench::setup(args.workload, args.seed, &work.0)?;
    let mut tally = Tally::default();
    // Warm-up, checked but not timed, so caches, the allocator and lazily
    // built state are ready.
    run_ops(&bench, WARMUP_OPS, false, &mut tally, |_| {})?;
    if args.trace {
        run_ops(&bench, WARMUP_OPS, true, &mut tally, |_| {})?;
    }

    let budget = Duration::from_secs(args.seconds);
    let started = clock::now();
    let metrics = if args.trace {
        let mut sum = Layers::default();
        let mut traced = 0u64;
        let mut overheads = Vec::new();
        // Per untraced cycle, the p90 of its correct queries' latency.
        let mut tail_ms = Vec::new();
        let mut pair = 0;
        while pair == 0 || clock::elapsed(started) < budget {
            // Alternate which side of a pair runs first, so drift and
            // first-runner effects cancel over the pairs.
            let mut walls = [0.0; 2];
            for side in [pair % 2 == 1, pair % 2 == 0] {
                let mut latencies_us = Vec::with_capacity(CYCLE);
                walls[usize::from(side)] = run_ops(&bench, CYCLE, side, &mut tally, |op| {
                    if let Some(l) = &op.layers {
                        sum.add(l);
                        traced += 1;
                    } else if op.outcome == Outcome::Correct {
                        latencies_us.push(op.wall_us);
                    }
                })?;
                if !side {
                    latencies_us.sort_by(f64::total_cmp);
                    tail_ms.push(quantile(&latencies_us, 0.90) / 1e3);
                }
            }
            overheads.push((walls[1] - walls[0]) / walls[0] * 100.0);
            pair += 1;
        }
        setups.extend(bench.repeat_setup()?);
        let n = traced as f64;
        let median_setup = |f: fn(&SetupTimes) -> f64| median(setups.iter().map(f).collect());
        vec![
            metric("query.traced_wall_ms", sum.wall_us / n / 1e3, "ms"),
            metric("query.latency_p90_ms", median(tail_ms), "ms"),
            metric("search.us", sum.search_us / n, "us"),
            metric("search.configs_explored", sum.configs_explored / n, "count"),
            metric("search.materialized_ops", sum.materialized_ops / n, "count"),
            metric("engine.stage_ms", sum.stage_us / n / 1e3, "ms"),
            metric("engine.attempt_ms", sum.attempt_us / n / 1e3, "ms"),
            metric("engine.coord_ms", sum.coord_us / n / 1e3, "ms"),
            metric("engine.node_retries", sum.node_retries / n, "count"),
            metric("engine.stages_skipped", sum.stages_skipped / n, "count"),
            metric("store.put_ms", sum.put_us / n / 1e3, "ms"),
            metric("store.puts", sum.puts / n, "count"),
            metric("store.fsyncs", sum.fsyncs / n, "count"),
            metric("store.get_ms", sum.get_us / n / 1e3, "ms"),
            metric("store.gets", sum.gets / n, "count"),
            metric("store.read_kb", sum.read_bytes / n / 1e3, "KB"),
            metric("store.open_ms", sum.open_us / n / 1e3, "ms"),
            metric("store.calls", sum.store_calls / n, "count"),
            metric("setup.datagen_s", median_setup(|t| t.datagen_s), "s"),
            metric("setup.catalog_s", median_setup(|t| t.catalog_s), "s"),
            metric("setup.checkpoint_s", median_setup(|t| t.checkpoint_s), "s"),
            metric("obs.trace_overhead_pct", median(overheads), "%"),
            metric("error_rate", tally.failed() as f64 / tally.attempted as f64, "fraction"),
            metric(
                "stored_kb_per_query",
                tally.bytes_stored as f64 / tally.attempted as f64 / 1e3,
                "KB",
            ),
        ]
    } else {
        // Each cycle is measured on its own and the run reports the median
        // cycle, so a burst of interference shorter than half the run does
        // not move the result.
        let mut cycles: Vec<CycleStats> = Vec::new();
        let mut samples = 0;
        while cycles.is_empty() || clock::elapsed(started) < budget {
            let cycle_started = clock::now();
            let mut latencies_us = Vec::with_capacity(CYCLE);
            run_ops(&bench, CYCLE, false, &mut tally, |op| {
                if op.outcome == Outcome::Correct {
                    latencies_us.push(op.wall_us);
                }
            })?;
            let qps = latencies_us.len() as f64 / clock::elapsed(cycle_started).as_secs_f64();
            latencies_us.sort_by(f64::total_cmp);
            samples += latencies_us.len();
            cycles.push(CycleStats { qps, p50_ms: quantile(&latencies_us, 0.50) / 1e3 });
        }
        let measured_s = clock::elapsed(started).as_secs_f64();
        // Read before the trailing set-ups, which build a second catalog.
        let peak_rss_mb = trace::peak_rss_mb()?;
        setups.extend(bench.repeat_setup()?);
        let mut qps: Vec<f64> = cycles.iter().map(|c| c.qps).collect();
        qps.sort_by(f64::total_cmp);
        println!(
            "# {} seed {}: {samples} correct queries in {} cycles of {CYCLE} over {measured_s:.3} s; \
             queries/s by cycle: min {:.1}, median {:.1}, max {:.1}",
            args.workload.name(),
            args.seed,
            cycles.len(),
            qps[0],
            quantile(&qps, 0.5),
            qps[qps.len() - 1],
        );
        let median_cycle = |f: fn(&CycleStats) -> f64| median(cycles.iter().map(f).collect());
        vec![
            metric("throughput_qps", median_cycle(|c| c.qps), "queries/s"),
            metric("latency_p50_ms", median_cycle(|c| c.p50_ms), "ms"),
            metric("success_rate", tally.correct as f64 / tally.attempted as f64, "fraction"),
            metric("setup_s", median(setups.iter().map(SetupTimes::total).collect()), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    // A run in which no query succeeded reports that instead.
    if tally.correct > 0 {
        bench.check_run_shape(tally.node_retries)?;
    }
    emit(&metrics, &tally);
    Ok(())
}

/// Prints every metric on its own line, then the result object.
fn emit(metrics: &[Metric], tally: &Tally) {
    for m in metrics {
        println!("{:<26} {:>16} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted,
        tally.failed(),
        body.join(", ")
    );
}

/// A finite value in full precision; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Linearly interpolated quantile of sorted `v`; NaN when `v` is empty
/// (no query returned a correct result).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
