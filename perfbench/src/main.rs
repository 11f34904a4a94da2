//! Fixed-work benchmark of the QPSeeker planner.
//!
//! ```text
//! qpseeker-perfbench --workload <plan-large|serve-mixed|online-drift>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! qpseeker-perfbench --list-metrics
//! ```
//!
//! Every run of a seed does exactly the same work: search stops on a
//! simulation or evaluation cap, never on a wall-clock budget; deadlines
//! never bind; serving pools assign jobs independently of thread
//! scheduling. `--seconds` sets the amount of work (requests scale with
//! it), not a wall-clock stop. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it runs the same timed phase, then
//! replays calls into each layer's public functions and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; a failed correctness check exits nonzero without one.

mod fixture;
mod gate;
mod layers;
mod metrics;
mod online_drift;
mod plan_large;
mod serve_mixed;
mod stats;

use metrics::Metrics;
use qpseeker_engine::plan::PlanNode;
use qpseeker_engine::query::Query;
use qpseeker_storage::Database;
use std::path::PathBuf;
use std::sync::Arc;

/// Where reference counts and per-run scratch state live, relative to the
/// directory the benchmark is run from.
pub const STATE_DIR: &str = ".bench_state";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One served request: its plan and whether the neural planner chose it.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub plan: PlanNode,
    pub neural: bool,
}

/// What a workload's timed phase produced.
pub struct Outcome {
    /// Every request's query, in submission order.
    pub queries: Vec<Query>,
    /// One entry per request; `None` when it was shed or failed.
    pub served: Vec<Option<Served>>,
    /// Each batch of the timed phase, in order: its request count and its
    /// wall time (ms), which is the latency of every request in it.
    pub batches: Vec<(usize, f64)>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Exact counts that every run of the seed must reproduce.
    pub counts: Vec<(&'static str, u64)>,
    /// Workload-specific per-layer values: counters and batch timings of
    /// the timed phase, plus serve-mixed's broker-off replay with
    /// `--trace 1`.
    pub layers: Metrics,
    /// The database requests were served against.
    pub serve_db: Arc<Database>,
}

impl Outcome {
    pub fn neural(&self) -> usize {
        self.served.iter().flatten().filter(|s| s.neural).count()
    }

    pub fn failed(&self) -> usize {
        self.served.iter().filter(|s| s.is_none()).count()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: qpseeker-perfbench --workload <plan-large|serve-mixed|online-drift> \
         --seed <n> --seconds <s> --trace <0|1>\n       qpseeker-perfbench --list-metrics"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--list-metrics" {
            println!("{}", metrics::spec_json());
            std::process::exit(0);
        }
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s >= 1),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage(),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: FAILED: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let state = PathBuf::from(STATE_DIR);
    if let Err(e) = std::fs::create_dir_all(&state) {
        fail(&format!("cannot create {}: {e}", state.display()));
    }

    let t_start = std::time::Instant::now();
    let with_drift = args.workload == "online-drift";
    let fx = fixture::build(with_drift, nproc).unwrap_or_else(|e| fail(&e));
    let digest = metrics::source_digest();
    println!("{}", metrics::stamp_json(&args, nproc, &fx.model.config, &digest));

    let t_setup = t_start.elapsed().as_secs_f64();
    let outcome = match args.workload.as_str() {
        "plan-large" => plan_large::run(&args, &fx),
        "serve-mixed" => serve_mixed::run(&args, &fx, nproc),
        "online-drift" => online_drift::run(&args, &fx, nproc, &state),
        _ => usage(),
    }
    .unwrap_or_else(|e| fail(&e));

    // Memory peaks are read before the plan-quality pass, whose executions
    // are the benchmark's own work.
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(f64::NAN);
    let t_workload = t_start.elapsed().as_secs_f64();
    let quality = layers::plan_quality(&outcome, nproc);
    let t_quality = t_start.elapsed().as_secs_f64();
    let mut counts = outcome.counts.clone();
    counts.push(("requests", outcome.queries.len() as u64));
    counts.push(("neural", outcome.neural() as u64));
    counts.push(("failed", outcome.failed() as u64));
    counts.push(("plan_digest", layers::plan_digest(&outcome)));
    counts.push(("plan_cost_micro", (quality.ratio * 1e6).round() as u64));

    let e2e = metrics::end_to_end(&outcome, &quality, &fx, peak_rss_mb);
    let mut report = e2e.clone();
    if args.trace {
        let traced = layers::trace(&args, &fx, &outcome, &quality, &e2e, &state)
            .unwrap_or_else(|e| fail(&e));
        counts.extend(traced.counts);
        report = traced.metrics;
    }
    gate::check(&state, &args, &digest, &counts).unwrap_or_else(|e| fail(&e));
    let names: Vec<&str> = if args.trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let line = metrics::result_json(&names, &report, outcome.queries.len(), outcome.failed())
        .unwrap_or_else(|e| fail(&e));
    eprintln!(
        "perfbench: {} seed {}: {} requests in {:.3} s ({} batches); \
         set-up ended at {t_setup:.1} s, workload at {t_workload:.1} s, plan quality at \
         {t_quality:.1} s, run at {:.1} s",
        args.workload,
        args.seed,
        outcome.queries.len(),
        outcome.timed_s,
        outcome.batches.len(),
        t_start.elapsed().as_secs_f64(),
    );
    println!("{line}");
}
