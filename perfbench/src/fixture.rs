//! The benchmark's set-up: database generation, generation of the
//! training QEPs (plan-space samples) and `QPSeeker::fit`.
//!
//! The fixture does not depend on the workload seed: the seed chooses the
//! request stream, so runs with different seeds measure the same trained
//! model. Set-up is repeated several times per run and the median is
//! reported; every repetition must produce bitwise-identical parameters.

use crate::stats::{median, Fnv};
use qpseeker_core::prelude::*;
use qpseeker_storage::Database;
use qpseeker_workloads::{drift, job, JobConfig, Qep};
use std::sync::Arc;
use std::time::Instant;

/// IMDb scale of every database the benchmark builds.
pub const SCALE: f64 = 0.02;
/// Data seed of the fixture database (independent of the workload seed).
pub const DB_SEED: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The training workload: a JOB-shaped sample of the plan space with a
/// uniform spread of cheap and bad plans, so the cost model can rank plans.
fn training_config() -> JobConfig {
    JobConfig {
        n_queries: 8,
        n_templates: 6,
        target_qeps: 96,
        keep_fraction: 1.0,
        ..JobConfig::default()
    }
}

/// The `ModelConfig::bench()` architecture, trained briefly.
pub fn model_config(nproc: usize) -> ModelConfig {
    ModelConfig {
        epochs: 4,
        // Data-parallel training is bit-identical for every thread count.
        train_threads: nproc.clamp(1, 2),
        ..ModelConfig::bench()
    }
}

pub struct Fixture {
    /// The database the model was trained on (the pre-drift shape).
    pub db: Arc<Database>,
    /// The post-drift database, when the workload serves one.
    pub post_db: Option<Arc<Database>>,
    pub model: Arc<QPSeeker>,
    /// Median seconds of each set-up phase and of the whole set-up.
    pub datagen_s: f64,
    pub qep_gen_s: f64,
    pub fit_s: f64,
    pub setup_s: f64,
}

/// Digest of every parameter's bits: equal digests mean equal models.
pub fn param_digest(model: &QPSeeker) -> u64 {
    let mut h = Fnv::new();
    for (_, p) in model.store.iter() {
        h.bytes(p.name.as_bytes());
        for x in p.value.data() {
            h.bytes(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Run the set-up `SETUP_REPS` times and keep the last result.
pub fn build(with_drift: bool, nproc: usize) -> Result<Fixture, String> {
    let mut phases = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut kept = None;
    let mut digest = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let db = Arc::new(drift::pre_db(SCALE, DB_SEED));
        let post_db = with_drift.then(|| Arc::new(drift::post_db(SCALE, DB_SEED)));
        let t1 = Instant::now();
        let workload = job::generate(&db, &training_config());
        let t2 = Instant::now();
        let refs: Vec<&Qep> = workload.qeps.iter().collect();
        let mut model = QPSeeker::new(&db, model_config(nproc));
        model.fit(&refs).map_err(|e| format!("set-up: fit failed: {e}"))?;
        model.store.warm_packed();
        let t3 = Instant::now();
        phases[0].push((t1 - t0).as_secs_f64());
        phases[1].push((t2 - t1).as_secs_f64());
        phases[2].push((t3 - t2).as_secs_f64());
        phases[3].push((t3 - t0).as_secs_f64());

        let d = param_digest(&model);
        if *digest.get_or_insert(d) != d {
            return Err("set-up: repeated fits produced different parameters".into());
        }
        kept = Some((db, post_db, model));
    }
    let (db, post_db, model) = kept.expect("at least one set-up ran");
    Ok(Fixture {
        db,
        post_db,
        model: Arc::new(model),
        datagen_s: median(&phases[0]),
        qep_gen_s: median(&phases[1]),
        fit_s: median(&phases[2]),
        setup_s: median(&phases[3]),
    })
}
