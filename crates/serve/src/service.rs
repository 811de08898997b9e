//! Job execution: typed requests in, JSON results out, cache in the middle.
//!
//! The [`Service`] owns the content-addressed caches and is shared by every
//! worker thread. Execution delegates to the same `lvf2::flow` entry points
//! the batch CLI uses — the daemon adds memoization and wiring, never its
//! own math — so a served result is bit-identical to a batch run with the
//! same options.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use lvf2::binning::BinSet;
use lvf2::cells::{CellType, ConditionTailYield};
use lvf2::flow::{
    arc_cell, arc_jobs, characterize_arc_models, library_shell, tail_yield_arc_models,
    ArcModelGrids, FlowOptions,
};
use lvf2::liberty::{write_cell, write_footer, write_header};
use lvf2::stats::Distribution;
use lvf2::{fit_model, Lvf2Error};
use lvf2_obs::json::Value;
use lvf2_obs::{warn, Obs};
use lvf2_parallel::Parallelism;

use crate::cache::{arc_cache_key, tail_cache_key, CacheStats, SingleFlightCache};
use crate::fault::{self, FaultAction};
use crate::request::{BinJob, CharacterizeJob, FitJob, JobRequest, TailYieldJob};
use crate::store::{
    encode_arc_models, encode_tail_yields, RecoveredRecord, Store, StoredValue, KIND_ARC_MODELS,
    KIND_TAIL_YIELD,
};

/// A request's execution budget: when it expires and how large it was
/// (the latter echoed in the `deadline_exceeded` error).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// The instant the budget runs out.
    pub at: Instant,
    /// The original budget in milliseconds.
    pub budget_ms: u64,
}

impl Deadline {
    /// A deadline `budget_ms` from `start`.
    pub fn new(start: Instant, budget_ms: u64) -> Self {
        Deadline {
            at: start + std::time::Duration::from_millis(budget_ms),
            budget_ms,
        }
    }

    /// The typed error if the deadline has passed at `stage`.
    fn check(self, stage: &'static str) -> Result<(), Lvf2Error> {
        if Instant::now() >= self.at {
            Obs::current().inc("serve.deadline_exceeded", 1);
            Err(Lvf2Error::DeadlineExceeded {
                deadline_ms: self.budget_ms,
                stage,
            })
        } else {
            Ok(())
        }
    }
}

/// One arc-cache entry: the arc's fitted models and, once the arc has
/// been hit, its rendered Liberty `cell (…) { … }` group.
///
/// The group is a pure function of the entry's key: the key hashes the
/// grid, which names the LUT template, and everything the models depend
/// on. It is filled on the arc's first hit, never on the miss that
/// computes the arc, so arcs that are never asked for again cost no text;
/// it is never persisted, and it is dropped with the entry. It is held
/// as a `Box<str>`, sized to the text, not to the capacity the writer grew.
#[derive(Debug)]
struct CachedArc {
    models: ArcModelGrids,
    group: OnceLock<Box<str>>,
}

impl CachedArc {
    fn new(models: ArcModelGrids) -> Self {
        CachedArc {
            models,
            group: OnceLock::new(),
        }
    }
}

/// Executes jobs against the shared caches. One per server, shared by all
/// workers.
#[derive(Debug)]
pub struct Service {
    models: SingleFlightCache<CachedArc>,
    tails: SingleFlightCache<Vec<ConditionTailYield>>,
    parallelism: Parallelism,
    store: Option<Arc<Store>>,
}

/// Per-job cache accounting, reported in the response `stats` object.
#[derive(Debug, Clone, Copy, Default)]
struct JobCacheStats {
    hits: u64,
    misses: u64,
}

impl Service {
    /// A service whose caches hold at most `cache_capacity` arcs each,
    /// executing on `parallelism`'s pool.
    pub fn new(cache_capacity: usize, parallelism: Parallelism) -> Self {
        Service {
            models: SingleFlightCache::new(cache_capacity),
            tails: SingleFlightCache::new(cache_capacity),
            parallelism,
            store: None,
        }
    }

    /// Attaches the persistent store: every cache miss is appended to it,
    /// and [`Service::replay`] seeds the caches from its recovered records.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Seeds the caches from records recovered by [`Store::open`] — the
    /// warm-restart path. Returns how many entries were seeded.
    pub fn replay(&self, records: Vec<RecoveredRecord>) -> usize {
        let mut seeded = 0;
        for rec in records {
            let tag = rec.value.tag();
            let inserted = match rec.value {
                StoredValue::ArcModels(m) => self.models.seed(rec.key, tag, CachedArc::new(*m)),
                StoredValue::TailYield(t) => self.tails.seed(rec.key, tag, t),
            };
            seeded += usize::from(inserted);
        }
        Obs::current().inc("store.seeded_entries", seeded as u64);
        seeded
    }

    /// Flushes and fsyncs the store, when one is attached — the shutdown
    /// barrier ([`crate::Server::join`] calls this after workers drain).
    ///
    /// # Errors
    ///
    /// Store I/O failures.
    pub fn sync_store(&self) -> Result<(), Lvf2Error> {
        match &self.store {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Appends a freshly computed entry to the store; a store failure is a
    /// warning, never a job failure — the store is a cache, not a source
    /// of truth.
    fn persist(&self, obs: &Obs, kind: u8, key: u64, payload: &[u8]) {
        let Some(store) = &self.store else { return };
        if let Err(e) = store.append(kind, key, payload) {
            obs.inc("store.append_errors", 1);
            warn!(obs, "store append failed (entry stays in memory): {e}");
        }
    }

    /// Combined statistics of both caches.
    pub fn cache_stats(&self) -> CacheStats {
        let m = self.models.stats();
        let t = self.tails.stats();
        CacheStats {
            hits: m.hits + t.hits,
            misses: m.misses + t.misses,
            waits: m.waits + t.waits,
            len: m.len + t.len,
            evictions: m.evictions + t.evictions,
        }
    }

    /// Executes one job, returning `(result, stats)` JSON for the response
    /// envelope. `Shutdown` is handled by the server before jobs reach the
    /// service; executing it here is a no-op acknowledgement.
    ///
    /// # Errors
    ///
    /// [`Lvf2Error`], serialized by the server as `{kind, message}`.
    pub fn execute(&self, req: &JobRequest) -> Result<(Value, Value), Lvf2Error> {
        self.execute_with_deadline(req, None)
    }

    /// As [`Service::execute`], enforcing `deadline` between arcs: a job
    /// whose budget runs out mid-library stops with `deadline_exceeded`
    /// instead of computing results nobody will read.
    ///
    /// # Errors
    ///
    /// [`Lvf2Error`], serialized by the server as `{kind, message}`.
    pub fn execute_with_deadline(
        &self,
        req: &JobRequest,
        deadline: Option<Deadline>,
    ) -> Result<(Value, Value), Lvf2Error> {
        let obs = Obs::current();
        obs.inc("serve.jobs", 1);
        let start = Instant::now();
        let mut cache = JobCacheStats::default();
        let result = match req {
            JobRequest::Ping | JobRequest::Shutdown => {
                Value::Obj(vec![("pong".into(), Value::from(1u64))])
            }
            JobRequest::Metrics => self.metrics_json(&obs),
            JobRequest::Invalidate { cells } => self.invalidate(cells.as_deref()),
            JobRequest::Characterize(job) => {
                let _span = obs.span("serve.job.characterize");
                obs.inc("serve.jobs.characterize", 1);
                self.characterize(job, &obs, &mut cache, deadline)?
            }
            JobRequest::TailYield(job) => {
                let _span = obs.span("serve.job.tail_yield");
                obs.inc("serve.jobs.tail_yield", 1);
                self.tail_yield(job, &obs, &mut cache, deadline)?
            }
            JobRequest::Fit(job) => {
                let _span = obs.span("serve.job.fit");
                obs.inc("serve.jobs.fit", 1);
                Self::fit(job)?
            }
            JobRequest::Bin(job) => {
                let _span = obs.span("serve.job.bin");
                obs.inc("serve.jobs.bin", 1);
                Self::bin(job)
            }
        };
        let stats = Value::Obj(vec![
            (
                "wall_us".into(),
                Value::from(start.elapsed().as_micros() as u64),
            ),
            ("cache_hits".into(), Value::from(cache.hits)),
            ("cache_misses".into(), Value::from(cache.misses)),
        ]);
        Ok((result, stats))
    }

    /// Server-side parallelism applied to a request's options (requests
    /// never carry thread counts — see `crate::request`).
    fn effective(&self, opts: &FlowOptions) -> FlowOptions {
        let mut opts = opts.clone();
        opts.parallelism = self.parallelism;
        opts
    }

    /// Sleeps if the `exec.hold` fault site fires, then checks `deadline`.
    /// One shared per-arc boundary for both cached job kinds.
    fn arc_boundary(deadline: Option<Deadline>) -> Result<(), Lvf2Error> {
        if let Some(FaultAction::Delay(d)) = fault::check("exec.hold") {
            std::thread::sleep(d);
        }
        match deadline {
            Some(d) => d.check("execute"),
            None => Ok(()),
        }
    }

    /// Answers with the library of the job's arcs, assembled from the
    /// library header, one cell group per arc and the closing `}` —
    /// byte for byte `write_library(&library_from_models(..))`. A hit
    /// reuses its arc's rendered group (rendering it on the first hit); a
    /// miss renders its group straight into the reply.
    fn characterize(
        &self,
        job: &CharacterizeJob,
        obs: &Obs,
        cache: &mut JobCacheStats,
        deadline: Option<Deadline>,
    ) -> Result<Value, Lvf2Error> {
        let mut arcs: Vec<(Arc<CachedArc>, bool)> = Vec::new();
        for &cell in &job.cells {
            let opts = self.effective(&job.options_for(cell));
            for spec in arc_jobs(&[cell], &opts) {
                Self::arc_boundary(deadline)?;
                let key = arc_cache_key(&spec, &opts);
                let (arc, hit) = self.models.get_or_compute(key, cell.name(), || {
                    characterize_arc_models(&spec, &opts).map(CachedArc::new)
                })?;
                Self::account(obs, cache, hit);
                if !hit {
                    self.persist(obs, KIND_ARC_MODELS, key, &encode_arc_models(&arc.models));
                }
                arcs.push((arc, hit));
            }
        }
        let shell = library_shell(&job.options.grid);
        let template = &shell.templates[0].name;
        let mut text = String::new();
        write_header(&mut text, &shell);
        let mut rendered_hits = 0u64;
        for (arc, hit) in &arcs {
            if !hit {
                write_cell(&mut text, &arc_cell(&arc.models, template));
                continue;
            }
            let mut filled = false;
            let group = arc.group.get_or_init(|| {
                filled = true;
                let mut group = String::new();
                write_cell(&mut group, &arc_cell(&arc.models, template));
                group.into_boxed_str()
            });
            rendered_hits += u64::from(!filled);
            text.push_str(group);
        }
        write_footer(&mut text);
        obs.inc("liberty.cells_written", arcs.len() as u64 - rendered_hits);
        obs.inc("serve.cache.rendered_hits", rendered_hits);
        Ok(Value::Obj(vec![
            ("library".into(), Value::from(text)),
            ("cells".into(), Value::from(arcs.len())),
            ("arcs".into(), Value::from(arcs.len())),
        ]))
    }

    fn tail_yield(
        &self,
        job: &TailYieldJob,
        obs: &Obs,
        cache: &mut JobCacheStats,
        deadline: Option<Deadline>,
    ) -> Result<Value, Lvf2Error> {
        let req = &job.request;
        req.options.validate()?;
        let mut arcs = Vec::new();
        for &cell in &req.cells {
            let opts = self.effective(&req.options);
            for spec in arc_jobs(&[cell], &opts) {
                Self::arc_boundary(deadline)?;
                let key = tail_cache_key(&spec, &opts);
                let (tails, hit) = self.tails.get_or_compute(key, cell.name(), || {
                    Ok::<_, Lvf2Error>(tail_yield_arc_models(&spec, &opts))
                })?;
                Self::account(obs, cache, hit);
                if !hit {
                    self.persist(obs, KIND_TAIL_YIELD, key, &encode_tail_yields(&tails));
                }
                arcs.push(Value::Obj(vec![
                    ("cell".into(), Value::from(cell.name())),
                    ("arc".into(), Value::from(spec.id.index)),
                    (
                        "conditions".into(),
                        Value::Arr(tails.iter().map(condition_json).collect()),
                    ),
                ]));
            }
        }
        Ok(Value::Obj(vec![("arcs".into(), Value::Arr(arcs))]))
    }

    fn fit(job: &FitJob) -> Result<Value, Lvf2Error> {
        let fitted = fit_model(job.model, &job.samples, &job.config)?;
        Ok(Value::Obj(vec![
            ("family".into(), Value::from(job.model.name())),
            ("mean".into(), Value::Num(fitted.model.mean())),
            ("std".into(), Value::Num(fitted.model.std_dev())),
            (
                "log_likelihood".into(),
                Value::Num(fitted.report.log_likelihood),
            ),
            ("iterations".into(), Value::from(fitted.report.iterations)),
            ("converged".into(), Value::Bool(fitted.report.converged)),
        ]))
    }

    fn bin(job: &BinJob) -> Value {
        let bins = BinSet::new(job.edges.clone());
        let probs = bins.probabilities_from_samples(&job.samples);
        Value::Obj(vec![
            ("bin_count".into(), Value::from(probs.len())),
            (
                "probabilities".into(),
                Value::Arr(probs.into_iter().map(Value::Num).collect()),
            ),
        ])
    }

    fn invalidate(&self, cells: Option<&[CellType]>) -> Value {
        let dropped = match cells {
            None => {
                let n = self.models.stats().len + self.tails.stats().len;
                self.models.clear();
                self.tails.clear();
                n
            }
            Some(cells) => cells
                .iter()
                .map(|c| self.models.invalidate_tag(c.name()) + self.tails.invalidate_tag(c.name()))
                .sum(),
        };
        Value::Obj(vec![("invalidated".into(), Value::from(dropped))])
    }

    fn metrics_json(&self, obs: &Obs) -> Value {
        let s = self.cache_stats();
        let cache = Value::Obj(vec![
            ("hits".into(), Value::from(s.hits)),
            ("misses".into(), Value::from(s.misses)),
            ("waits".into(), Value::from(s.waits)),
            ("entries".into(), Value::from(s.len)),
            ("evictions".into(), Value::from(s.evictions)),
            ("rendered".into(), Value::from(self.rendered_arcs())),
        ]);
        let metrics = match obs.snapshot() {
            Some(snap) => snap.to_json(),
            None => Value::Null,
        };
        Value::Obj(vec![("cache".into(), cache), ("metrics".into(), metrics)])
    }

    /// Cached arcs that hold their rendered Liberty group.
    fn rendered_arcs(&self) -> usize {
        self.models.count_ready(|arc| arc.group.get().is_some())
    }

    fn account(obs: &Obs, cache: &mut JobCacheStats, hit: bool) {
        if hit {
            cache.hits += 1;
            obs.inc("serve.cache.hits", 1);
        } else {
            cache.misses += 1;
            obs.inc("serve.cache.misses", 1);
        }
    }
}

fn condition_json(c: &ConditionTailYield) -> Value {
    Value::Obj(vec![
        ("slew_index".into(), Value::from(c.slew_index)),
        ("load_index".into(), Value::from(c.load_index)),
        ("slew".into(), Value::Num(c.slew)),
        ("load".into(), Value::Num(c.load)),
        ("threshold".into(), Value::Num(c.threshold)),
        ("tail_probability".into(), Value::Num(c.tail_probability)),
        ("std_error".into(), Value::Num(c.std_error)),
        ("ess".into(), Value::Num(c.ess)),
        ("evaluator_calls".into(), Value::from(c.evaluator_calls)),
        ("floored".into(), Value::Bool(c.floored)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_obs::json;

    fn service() -> Service {
        Service::new(256, Parallelism::auto())
    }

    fn job(text: &str) -> JobRequest {
        JobRequest::from_json(&json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn warm_repeat_hits_every_arc() {
        let svc = service();
        let req = job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#);
        let (cold, cold_stats) = svc.execute(&req).unwrap();
        let (warm, warm_stats) = svc.execute(&req).unwrap();
        assert_eq!(
            cold.get("library").unwrap().as_str(),
            warm.get("library").unwrap().as_str(),
            "cache hits must be bit-identical"
        );
        assert_eq!(cold_stats.get("cache_misses").unwrap().as_f64(), Some(2.0));
        assert_eq!(cold_stats.get("cache_hits").unwrap().as_f64(), Some(0.0));
        assert_eq!(warm_stats.get("cache_hits").unwrap().as_f64(), Some(2.0));
        assert_eq!(warm_stats.get("cache_misses").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn overlapping_jobs_share_arcs() {
        let svc = service();
        svc.execute(&job(
            r#"{"type":"characterize","cells":["INV"],"options":{"samples":400,"grid":"3x3"}}"#,
        ))
        .unwrap();
        // INV is shared; XOR2 is new.
        let (_, stats) = svc
            .execute(&job(r#"{"type":"characterize","cells":["INV","XOR2"],
                    "options":{"samples":400,"grid":"3x3"}}"#))
            .unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn sigma_scale_dirties_only_that_cell() {
        let svc = service();
        svc.execute(&job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#))
            .unwrap();
        // Re-characterize with NAND2's variation widened: INV stays warm.
        let (_, stats) = svc
            .execute(&job(r#"{"type":"characterize","cells":["INV","NAND2"],
                    "options":{"samples":400,"grid":"3x3"},
                    "sigma_scale":{"NAND2":1.5}}"#))
            .unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn fit_job_reply_is_the_same_with_or_without_an_empty_fit_object() {
        // Two-peak samples, enough for the pair-mean EM of `fast()`.
        let samples: Vec<String> = (0..600)
            .map(|i| {
                let u = (i as f64 + 0.5) / 600.0;
                let peak = if i % 3 == 0 { 1.4 } else { 1.0 };
                format!("{:?}", peak + 0.05 * (u - 0.5) + 0.01 * (7.0 * u).sin())
            })
            .collect();
        let samples = samples.join(",");
        let svc = service();
        let reply = |text: String| svc.execute(&job(&text)).unwrap().0.to_json();
        let bare = reply(format!(r#"{{"type":"fit","samples":[{samples}]}}"#));
        let empty = reply(format!(
            r#"{{"type":"fit","samples":[{samples}],"fit":{{}}}}"#
        ));
        assert_eq!(bare, empty);
    }

    #[test]
    fn invalidate_drops_selected_cells() {
        let svc = service();
        let req = job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#);
        svc.execute(&req).unwrap();
        let (res, _) = svc
            .execute(&job(r#"{"type":"invalidate","cells":["INV"]}"#))
            .unwrap();
        assert_eq!(res.get("invalidated").unwrap().as_f64(), Some(1.0));
        let (_, stats) = svc.execute(&req).unwrap();
        assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn fit_and_bin_jobs_execute() {
        let svc = service();
        let xs = lvf2::cells::Scenario::TwoPeaks.sample(2000, 7);
        let samples = Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
        let fit_job = JobRequest::from_json(&Value::Obj(vec![
            ("type".into(), Value::from("fit")),
            ("model".into(), Value::from("lvf2")),
            ("samples".into(), samples.clone()),
        ]))
        .unwrap();
        let (res, _) = svc.execute(&fit_job).unwrap();
        assert_eq!(res.get("family").unwrap().as_str(), Some("LVF2"));
        assert!(res.get("mean").unwrap().as_f64().unwrap().is_finite());

        let bin_job = JobRequest::from_json(&Value::Obj(vec![
            ("type".into(), Value::from("bin")),
            ("samples".into(), samples),
            (
                "edges".into(),
                Value::Arr(vec![Value::Num(0.9), Value::Num(1.1)]),
            ),
        ]))
        .unwrap();
        let (res, _) = svc.execute(&bin_job).unwrap();
        let Value::Arr(probs) = res.get("probabilities").unwrap() else {
            panic!("probabilities must be an array")
        };
        assert_eq!(probs.len(), 3);
        let total: f64 = probs.iter().map(|p| p.as_f64().unwrap()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expired_deadline_fails_typed_before_computing() {
        let svc = service();
        let req = job(
            r#"{"type":"characterize","cells":["INV"],"options":{"samples":400,"grid":"3x3"}}"#,
        );
        let past = Instant::now() - std::time::Duration::from_millis(50);
        let deadline = Deadline::new(past, 10);
        let err = svc.execute_with_deadline(&req, Some(deadline)).unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        assert!(err.to_string().contains("execute"));
        // Nothing was computed: the next run is a full miss, not a hit.
        let (_, stats) = svc.execute(&req).unwrap();
        assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn store_backed_service_restarts_warm_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("lvf2-svc-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = job(
            r#"{"type":"characterize","cells":["INV"],"options":{"samples":400,"grid":"3x3"}}"#,
        );
        let cold_library;
        {
            let (store, recovered) =
                Store::open(crate::store::StoreConfig::new(&dir)).expect("open");
            let svc = service().with_store(Arc::new(store));
            assert_eq!(svc.replay(recovered), 0);
            let (res, stats) = svc.execute(&req).unwrap();
            assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
            cold_library = res.get("library").unwrap().as_str().unwrap().to_string();
            svc.sync_store().unwrap();
        }
        // "Restart": a brand-new service seeded purely from disk.
        let (store, recovered) = Store::open(crate::store::StoreConfig::new(&dir)).expect("open");
        let svc = service().with_store(Arc::new(store));
        assert_eq!(svc.replay(recovered), 1);
        let (res, stats) = svc.execute(&req).unwrap();
        assert_eq!(
            stats.get("cache_misses").unwrap().as_f64(),
            Some(0.0),
            "warm restart must not recompute"
        );
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            res.get("library").unwrap().as_str().unwrap(),
            cold_library,
            "replayed model must serve byte-identical Liberty text"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn library_of(reply: &Value) -> String {
        reply.get("library").unwrap().as_str().unwrap().to_string()
    }

    fn rendered_in_metrics(svc: &Service) -> Option<f64> {
        let (res, _) = svc.execute(&job(r#"{"type":"metrics"}"#)).unwrap();
        res.get("cache")?.get("rendered")?.as_f64()
    }

    /// The batch writer's text for `req`'s arcs, computed afresh.
    fn fresh_library(req: &JobRequest) -> String {
        let JobRequest::Characterize(job) = req else {
            panic!("a characterize job")
        };
        let mut models = Vec::new();
        for &cell in &job.cells {
            let opts = job.options_for(cell);
            for spec in arc_jobs(&[cell], &opts) {
                models.push(characterize_arc_models(&spec, &opts).unwrap());
            }
        }
        let lib = lvf2::flow::library_from_models(&models, &job.options.grid);
        lvf2::liberty::write_library(&lib)
    }

    #[test]
    fn a_job_that_only_missed_leaves_no_rendered_text() {
        let svc = service();
        let req = job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#);
        svc.execute(&req).unwrap();
        assert_eq!(svc.rendered_arcs(), 0, "a miss must not keep text");
        assert_eq!(rendered_in_metrics(&svc), Some(0.0));
        svc.execute(&req).unwrap();
        assert_eq!(rendered_in_metrics(&svc), Some(2.0), "the first hit fills");
    }

    #[test]
    fn repeated_job_is_byte_identical_at_every_stage() {
        let dir = std::env::temp_dir().join(format!("lvf2-svc-render-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#);
        let expected = fresh_library(&req);
        let run = |svc: &Service, stage: &str, hits: f64| {
            let (res, stats) = svc.execute(&req).unwrap();
            assert_eq!(library_of(&res), expected, "{stage}: reply drifted");
            assert_eq!(
                stats.get("cache_hits").unwrap().as_f64(),
                Some(hits),
                "{stage}"
            );
        };
        {
            let (store, recovered) =
                Store::open(crate::store::StoreConfig::new(&dir)).expect("open");
            let svc = service().with_store(Arc::new(store));
            svc.replay(recovered);
            run(&svc, "cold", 0.0);
            assert_eq!(svc.rendered_arcs(), 0);
            run(&svc, "first hit", 2.0);
            assert_eq!(svc.rendered_arcs(), 2);
            run(&svc, "rendered hit", 2.0);
            run(&svc, "rendered hit again", 2.0);
            svc.sync_store().unwrap();
        }
        let (store, recovered) = Store::open(crate::store::StoreConfig::new(&dir)).expect("open");
        let svc = service().with_store(Arc::new(store));
        assert_eq!(svc.replay(recovered), 2);
        assert_eq!(svc.rendered_arcs(), 0, "text is never persisted");
        run(&svc, "replayed first hit", 2.0);
        run(&svc, "replayed rendered hit", 2.0);
        svc.execute(&job(r#"{"type":"invalidate"}"#)).unwrap();
        assert_eq!(svc.rendered_arcs(), 0, "text leaves with its arc");
        run(&svc, "after invalidate", 0.0);
        run(&svc, "first hit after invalidate", 2.0);
        run(&svc, "rendered hit after invalidate", 2.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidating_one_cell_keeps_the_other_cells_group() {
        let svc = service();
        let req = job(r#"{"type":"characterize","cells":["INV","NAND2"],
                "options":{"samples":400,"grid":"3x3"}}"#);
        svc.execute(&req).unwrap();
        svc.execute(&req).unwrap();
        let JobRequest::Characterize(cj) = &req else {
            unreachable!()
        };
        let inv_opts = svc.effective(&cj.options_for(CellType::Inv));
        let inv_key = arc_cache_key(&arc_jobs(&[CellType::Inv], &inv_opts)[0], &inv_opts);
        let inv_group = || {
            let (arc, hit) = svc
                .models
                .get_or_compute(inv_key, "INV", || Err::<CachedArc, _>(()))
                .unwrap();
            assert!(hit);
            arc.group.get().expect("INV was hit once").as_ptr()
        };
        let before = inv_group();
        svc.execute(&job(r#"{"type":"invalidate","cells":["NAND2"]}"#))
            .unwrap();
        let (res, stats) = svc.execute(&req).unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("cache_misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(inv_group(), before, "INV's rendered group is reused");
        assert_eq!(svc.rendered_arcs(), 1, "the recomputed NAND2 holds none");
        assert_eq!(library_of(&res), fresh_library(&req));
    }

    #[test]
    fn tail_yield_jobs_cache_per_arc() {
        let svc = service();
        let req = job(r#"{"type":"tail_yield","cells":["INV"],
                "options":{"grid":"3x3","tail_samples":256}}"#);
        let (a, s1) = svc.execute(&req).unwrap();
        let (b, s2) = svc.execute(&req).unwrap();
        assert_eq!(a, b);
        assert_eq!(s1.get("cache_misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(s2.get("cache_hits").unwrap().as_f64(), Some(1.0));
    }
}
