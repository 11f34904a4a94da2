//! Metric definitions, the environment stamp and the result line.

use crate::fixture::Fixture;
use crate::layers::Quality;
use crate::stats::{median, percentile, Fnv};
use crate::{Args, Outcome};
use qpseeker_core::config::ModelConfig;
use std::collections::BTreeMap;
use std::path::Path;

/// Metric name → measured value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The seed runs are quoted at, and the held-out seed a later change uses
/// to confirm a claim made on the default one.
pub const DEFAULT_SEED: u64 = 1;
pub const HOLDOUT_SEED: u64 = 977;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better, bound: 0.0 }
}

/// Metrics a user of the planner sees, reported with `--trace 0`.
pub const END_TO_END: &[Spec] = &[
    e2e("throughput_qps", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p95_ms", "ms", "lower", 0.25),
    e2e("plan_cost_ratio", "ratio", "lower", 0.25),
    e2e("neural_share", "ratio", "higher", 0.05),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

/// Per-layer metrics, reported with `--trace 1`. Every workload reports
/// every name; a layer the workload does not use reports its counts as 0.
pub const PER_LAYER: &[Spec] = &[
    layer("storage.datagen_s", "s", "lower"),
    layer("workloads.qep_gen_s", "s", "lower"),
    layer("core.model.fit_s", "s", "lower"),
    layer("core.featurize.query_context_ms", "ms", "lower"),
    layer("core.model.predict_row_us.b1", "us", "lower"),
    layer("core.model.predict_row_us.b16", "us", "lower"),
    layer("core.model.predict_row_us.b64", "us", "lower"),
    layer("core.model.risk_row_us.b16", "us", "lower"),
    layer("nn.flops_per_row", "count", "lower"),
    layer("nn.weight_bytes", "bytes", "lower"),
    layer("core.search.evals_per_query", "count", "lower"),
    layer("core.search.sims_per_query", "count", "lower"),
    layer("core.search.plan_ms", "ms", "lower"),
    layer("core.search.forward_ms", "ms", "lower"),
    layer("core.search.self_ms", "ms", "lower"),
    layer("core.search.mcts_risk_plan_ms", "ms", "lower"),
    layer("core.search.beam_plan_ms", "ms", "lower"),
    layer("core.plancache.hit_rate", "ratio", "higher"),
    layer("core.plancache.lookup_us", "us", "lower"),
    layer("core.plancache.fingerprint_us", "us", "lower"),
    layer("core.evalbroker.fused_batches", "count", "lower"),
    layer("core.evalbroker.occupancy_mean", "rows", "higher"),
    layer("core.evalbroker.flush_size", "count", "higher"),
    layer("core.evalbroker.flush_deadline", "count", "lower"),
    layer("core.evalbroker.net_ms_per_req", "ms", "lower"),
    layer("core.serve.batch_ms", "ms", "lower"),
    layer("core.serve.admitted", "count", "higher"),
    layer("core.serve.served_neural", "count", "higher"),
    layer("core.serve.served_classical", "count", "lower"),
    layer("core.serve.shed", "count", "lower"),
    layer("core.serve.failed", "count", "lower"),
    layer("core.serve.eval_candidates", "count", "lower"),
    layer("engine.execute_ms", "ms", "lower"),
    layer("engine.pg_plan_ms", "ms", "lower"),
    layer("core.online.rounds", "count", "higher"),
    layer("core.online.promotions", "count", "higher"),
    layer("core.online.rejections", "count", "lower"),
    layer("core.online.rollbacks", "count", "lower"),
    layer("core.online.round_ms", "ms", "lower"),
    layer("core.checkpoint.roundtrip_ms", "ms", "lower"),
    layer("core.experience.append_us", "us", "lower"),
    layer("core.experience.bytes_per_record", "bytes", "lower"),
    layer("trace.throughput_qps", "1/s", "higher"),
    layer("trace.latency_p50_ms", "ms", "lower"),
    layer("trace.replay_s", "s", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name).map_or("", |s| s.unit)
}

/// The `end_to_end` and `per_layer` arrays of `BENCHMARK.json`.
pub fn spec_json() -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name, s.unit, s.better, s.bound
            )
        })
        .collect();
    let per: Vec<String> = PER_LAYER
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name, s.unit, s.better
            )
        })
        .collect();
    format!(
        "  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]",
        e2e.join(",\n"),
        per.join(",\n")
    )
}

/// Consecutive parts of the timed phase the wall-clock metrics are taken
/// over; each is reported as the median of its per-part values, so a slow
/// spell of the machine during one part does not move the run's figure.
pub const PARTS: usize = 3;

/// The end-to-end metrics of a run's timed phase.
pub fn end_to_end(out: &Outcome, quality: &Quality, fx: &Fixture, peak_rss_mb: f64) -> Metrics {
    let n = out.queries.len() as f64;
    let (mut qps, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    for part in parts(&out.batches) {
        let lat: Vec<f64> =
            part.iter().flat_map(|&(reqs, ms)| std::iter::repeat_n(ms, reqs)).collect();
        qps.push(lat.len() as f64 / (part.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3));
        p50.push(percentile(&lat, 0.50));
        p95.push(percentile(&lat, 0.95));
    }
    let mut m = Metrics::new();
    m.insert("throughput_qps", median(&qps));
    m.insert("latency_p50_ms", median(&p50));
    m.insert("latency_p95_ms", median(&p95));
    m.insert("plan_cost_ratio", quality.ratio);
    m.insert("neural_share", out.neural() as f64 / n);
    m.insert("setup_s", fx.setup_s);
    m.insert("peak_rss_mb", peak_rss_mb);
    m
}

/// Split the batches into `PARTS` consecutive runs of about equal request
/// counts.
fn parts(batches: &[(usize, f64)]) -> Vec<&[(usize, f64)]> {
    let total: usize = batches.iter().map(|&(r, _)| r).sum();
    let mut out = Vec::with_capacity(PARTS);
    let (mut start, mut seen) = (0, 0);
    for (i, &(reqs, _)) in batches.iter().enumerate() {
        seen += reqs;
        if seen * PARTS >= total * (out.len() + 1) {
            out.push(&batches[start..=i]);
            start = i + 1;
        }
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    names: &[&str],
    values: &Metrics,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(names.len());
    for &name in names {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name)));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// Digest of the sources the benchmark was built from, for checkouts that
/// carry no version-control metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&p, files);
                }
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml" | "lock"))
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench", "Cargo.toml", "Cargo.lock"] {
        let p = Path::new(root);
        if p.is_dir() {
            walk(p, &mut files);
        } else if p.is_file() {
            files.push(p.to_path_buf());
        }
    }
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// The environment stamp printed before the result line: numbers with
/// different ISA tiers, model fingerprints or sources are not comparable.
pub fn stamp_json(args: &Args, nproc: usize, cfg: &ModelConfig, digest: &str) -> String {
    format!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"default_seed\": {DEFAULT_SEED}, \"holdout_seed\": {HOLDOUT_SEED}, \
         \"isa\": \"{}\", \"nproc\": {nproc}, \"model_fingerprint\": \"{:016x}\", \
         \"git_rev\": \"{}\", \"source_digest\": \"{}\", \"wal_fsync\": \"per-append\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        qpseeker_nn::isa::active().name(),
        cfg.fingerprint(),
        git_rev(),
        digest,
    )
}
