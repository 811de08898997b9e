//! `serve_mix`: an in-process `lvf2-serve` daemon with a persistent store
//! on loopback, driven in a closed loop by one client per hardware thread,
//! each on its own connection. Four jobs in five repeat a pre-warmed hot
//! set (cache reads answered with Liberty text); the fifth carries a fresh
//! key and runs MC + EM and a store append.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lvf2::binning::{score_model, GoldenReference, ModelScore};
use lvf2::cells::{characterize_arc_par_in, SlewLoadGrid, TimingArcSpec};
use lvf2::liberty::{parse_library, write_library, BaseKind, TimingModelGrid};
use lvf2::mc::VariationSpace;
use lvf2::obs::json::{self, Value};
use lvf2::parallel::Parallelism;
use lvf2_serve::{Client, Response, Server, ServerConfig};

use crate::inputs::{flow_samples, serve_hot_set, serve_item, ServeJob, StreamItem};
use crate::metrics::{cpu_seconds, mean, median, peak_rss_mb, quantile};
use crate::trace::{shares, Tracer};
use crate::{Ctx, Report};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Sanity ceiling on the served models' mean errors against MC.
const MAX_MEAN_ERR: f64 = 0.05;

/// One request as the client saw it.
struct JobRecord {
    hit: bool,
    ok: bool,
    /// Send to reply, µs.
    rtt_us: f64,
    /// The daemon's own `stats.wall_us`.
    service_us: f64,
}

fn stat(resp: &Response, name: &str) -> f64 {
    resp.stats.get(name).and_then(Value::as_f64).unwrap_or(-1.0)
}

fn library(resp: &Response) -> Option<&str> {
    resp.result.get("library").and_then(Value::as_str)
}

fn parse_job(job: &ServeJob) -> Result<Value, String> {
    json::parse(&job.to_json()).map_err(|e| format!("job JSON: {e}"))
}

fn spawn(store: &Path, workers: usize) -> Result<Server, String> {
    let dir = store
        .to_str()
        .ok_or_else(|| format!("store path {} is not UTF-8", store.display()))?;
    Server::spawn(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_workers(workers)
            .with_store_dir(dir),
    )
    .map_err(|e| format!("daemon spawn: {e}"))
}

fn stop(server: Server) -> Result<(), String> {
    let mut c = Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.join();
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One set-up: spawn on an empty store, compute the hot set cold (misses
/// that append to the store), stop, and restart on the store so the hot
/// set is replayed. Returns the restarted daemon and the cold libraries.
fn set_up(
    store: &Path,
    workers: usize,
    hot: &[Value],
    report: &mut Report,
) -> Result<(Server, Vec<String>), String> {
    let _ = std::fs::remove_dir_all(store);
    let server = spawn(store, workers)?;
    let mut client =
        Client::connect(&server.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    let mut cold = Vec::with_capacity(hot.len());
    for job in hot {
        let resp = client
            .call(job.clone())
            .map_err(|e| format!("hot-set warm-up: {e}"))?;
        report.record(stat(&resp, "cache_misses") == 1.0, || {
            "hot-set warm-up was not a miss".into()
        });
        cold.push(library(&resp).unwrap_or_default().to_string());
    }
    drop(client);
    stop(server)?;
    Ok((spawn(store, workers)?, cold))
}

/// What every client of a pass shares: the daemon, the seed, the hot jobs
/// and their cold libraries.
struct Load<'a> {
    addr: &'a str,
    ctx: &'a Ctx,
    hot: &'a [Value],
    cold: &'a [String],
}

/// How long a client's loop runs.
#[derive(Clone, Copy)]
enum Limit {
    Jobs(usize),
    Until(Instant),
}

/// Runs one client's closed loop over its job stream.
fn client_loop(
    load: &Load,
    pass: u64,
    client: usize,
    limit: Limit,
    tracer: &Tracer,
) -> Vec<JobRecord> {
    Tracer::set_track(client as u64 + 1);
    let mut out = Vec::new();
    let Ok(mut conn) = Client::connect(load.addr) else {
        return out;
    };
    for k in 0.. {
        let done = match limit {
            Limit::Jobs(n) => k >= n,
            Limit::Until(t) => Instant::now() >= t,
        };
        if done {
            break;
        }
        let item = serve_item(load.ctx.seed, pass, client, k, load.hot.len());
        let job = match item {
            StreamItem::Hit(i) => load.hot[i].clone(),
            StreamItem::Miss(j) => match parse_job(&j) {
                Ok(v) => v,
                Err(_) => {
                    out.push(JobRecord {
                        hit: false,
                        ok: false,
                        rtt_us: 0.0,
                        service_us: 0.0,
                    });
                    continue;
                }
            },
        };
        let t = Instant::now();
        let record = tracer.span("op", || {
            let resp = tracer.span("serve", || conn.call(job));
            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
            let Ok(resp) = resp else {
                return JobRecord {
                    hit: false,
                    ok: false,
                    rtt_us,
                    service_us: 0.0,
                };
            };
            let service_us = stat(&resp, "wall_us");
            let ok = match item {
                StreamItem::Hit(i) => {
                    stat(&resp, "cache_hits") == 1.0
                        && stat(&resp, "cache_misses") == 0.0
                        && library(&resp) == Some(load.cold[i].as_str())
                }
                StreamItem::Miss(_) => {
                    stat(&resp, "cache_misses") == 1.0
                        && library(&resp).is_some_and(|l| l.contains("cell ("))
                }
            };
            JobRecord {
                hit: matches!(item, StreamItem::Hit(_)),
                ok,
                rtt_us,
                service_us,
            }
        });
        let failed = !record.ok;
        out.push(record);
        if failed && Client::connect(load.addr).map(|c| conn = c).is_err() {
            break;
        }
    }
    out
}

/// Runs every client's loop concurrently, each for its budget of jobs or,
/// without budgets, for `window`; returns the per-client records and the
/// wall time.
fn drive(
    load: &Load,
    pass: u64,
    budgets: Option<&[usize]>,
    window: Duration,
    tracer: &Tracer,
) -> (Vec<Vec<JobRecord>>, f64) {
    let t = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.ctx.threads)
            .map(|c| {
                let limit = budgets.map_or(Limit::Until(t + window), |b| Limit::Jobs(b[c]));
                s.spawn(move || client_loop(load, pass, c, limit, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (per_client, t.elapsed().as_secs_f64())
}

/// What the hot-set check measured.
struct HotQuality {
    scores: Vec<ModelScore>,
    parse_ms: Vec<f64>,
    write_ms: Vec<f64>,
    /// `write(parse(text))` reproduced every library byte for byte.
    roundtrip_ok: bool,
}

/// Scores the served hot-set models against MC drawn in process for the
/// same arcs, and times the Liberty parse and write of each library.
fn hot_quality(hot: &[ServeJob], cold: &[String], par: &Parallelism) -> Result<HotQuality, String> {
    let grid = SlewLoadGrid::small_3x3();
    let mut q = HotQuality {
        scores: Vec::new(),
        parse_ms: Vec::new(),
        write_ms: Vec::new(),
        roundtrip_ok: true,
    };
    for (job, text) in hot.iter().zip(cold) {
        let t = Instant::now();
        let lib = parse_library(text).map_err(|e| format!("{}: parse: {e}", job.cell.name()))?;
        q.parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let rewritten = write_library(&lib);
        q.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        q.roundtrip_ok &= rewritten == *text;

        let timing = lib
            .cells
            .first()
            .and_then(|c| c.pins.first())
            .and_then(|p| p.timings.first())
            .ok_or_else(|| format!("{}: no timing group", job.cell.name()))?;
        let spec = TimingArcSpec::of(job.cell, 0);
        let space = VariationSpace::tt_22nm().scaled(job.scale);
        let ch = characterize_arc_par_in(&space, &spec, &grid, flow_samples(), par);
        for base in [BaseKind::CellRise, BaseKind::RiseTransition] {
            let decoded = TimingModelGrid::from_timing(timing, base)
                .map_err(|e| format!("{}: decode: {e}", job.cell.name()))?;
            for (k, model) in decoded.models.iter().flatten().enumerate() {
                let c = &ch.conditions[k];
                let samples = if base == BaseKind::CellRise {
                    &c.delays
                } else {
                    &c.transitions
                };
                let golden = GoldenReference::from_samples(samples).map_err(|e| e.to_string())?;
                q.scores.push(score_model(model, &golden));
            }
        }
    }
    Ok(q)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let hot_jobs = serve_hot_set();
    let hot: Vec<Value> = hot_jobs.iter().map(parse_job).collect::<Result<_, _>>()?;
    let store_root: PathBuf =
        ctx.out_dir
            .join("serve-store")
            .join(format!("{}-{}", std::process::id(), ctx.seed));

    // Set-up, repeated: every repetition must reproduce the same cold
    // libraries; the last restarted daemon serves the measured window.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<(Server, PathBuf)> = None;
    let mut cold: Vec<String> = Vec::new();
    for r in 0..SETUP_REPEATS {
        let store = store_root.join(format!("setup{r}"));
        let t = Instant::now();
        let (server, libs) = set_up(&store, ctx.threads, &hot, &mut report)?;
        setup.push(t.elapsed().as_secs_f64());
        if r == 0 {
            cold = libs;
        } else {
            report.record(libs == cold, || {
                "hot-set libraries differ between set-ups".into()
            });
        }
        if let Some((old, _)) = live.replace((server, store)) {
            stop(old)?;
        }
    }
    let (server, store) = live.expect("at least one set-up repetition");
    let addr = server.addr().to_string();
    println!(
        "serve_mix: daemon on {addr}, {} hot jobs, {} closed-loop clients, 1 miss in 5 jobs",
        hot.len(),
        ctx.threads
    );

    let off = Tracer::new(false);
    let window = Duration::from_secs_f64(ctx.seconds);
    let load = Load {
        addr: &addr,
        ctx,
        hot: &hot,
        cold: &cold,
    };
    let (records, wall, traced) = if ctx.tracer.enabled() {
        let (untraced, wall_u) = drive(&load, 0, None, ctx.half_window(), &off);
        let budgets: Vec<usize> = untraced.iter().map(Vec::len).collect();
        let cpu0 = cpu_seconds();
        let (traced, wall_t) = drive(&load, 1, Some(&budgets), window, &ctx.tracer);
        let m = &mut report.metrics;
        m.set("trace_overhead", wall_t / wall_u);
        m.set(
            "parallel.cpu_util",
            (cpu_seconds() - cpu0) / (wall_t * ctx.threads as f64),
        );
        m.set("latency.samples", budgets.iter().sum::<usize>() as f64);
        for (name, v) in shares(&ctx.tracer, wall_t, ctx.threads) {
            m.set(name, v);
        }
        let mut all = untraced;
        all.extend(traced);
        (all, wall_t, true)
    } else {
        let (records, wall) = drive(&load, 0, None, window, &off);
        // Read before the quality check's in-process MC below.
        report.metrics.set("peak_rss_mb", peak_rss_mb());
        (records, wall, false)
    };
    stop(server)?;
    let store_bytes = dir_bytes(&store);
    let _ = std::fs::remove_dir_all(&store_root);

    let jobs: Vec<&JobRecord> = records.iter().flatten().collect();
    for j in &jobs {
        report.record(j.ok, || {
            format!(
                "{} job failed or returned an unexpected library",
                if j.hit { "hit" } else { "miss" }
            )
        });
    }
    // In a traced run the second half of `records` is the traced pass.
    let measured: Vec<&JobRecord> = if traced {
        records[ctx.threads..].iter().flatten().collect()
    } else {
        jobs.clone()
    };

    let par = Parallelism::auto().with_threads(ctx.threads);
    let q = hot_quality(&hot_jobs, &cold, &par)?;
    report.record(q.roundtrip_ok, || {
        "Liberty write(parse(text)) changed a served library".into()
    });
    let binning_err = mean(&q.scores.iter().map(|s| s.binning_error).collect::<Vec<_>>());
    let yield_err = mean(
        &q.scores
            .iter()
            .map(|s| s.yield_3sigma_error)
            .collect::<Vec<_>>(),
    );
    report.record(
        binning_err < MAX_MEAN_ERR && yield_err < MAX_MEAN_ERR,
        || format!("served models off MC: binning {binning_err}, 3σ yield {yield_err}"),
    );

    let lat: Vec<f64> = measured.iter().map(|j| j.rtt_us / 1e3).collect();
    let hits: Vec<&&JobRecord> = measured.iter().filter(|j| j.hit && j.ok).collect();
    let misses: Vec<&&JobRecord> = measured.iter().filter(|j| !j.hit && j.ok).collect();
    println!(
        "serve_mix: {} jobs ({} hits, {} misses) in {wall:.2} s, p50 {:.2} ms, p90 {:.2} ms; quality over {} entries: binning_err {binning_err:.5}, yield3s_err {yield_err:.5}",
        lat.len(),
        hits.len(),
        misses.len(),
        median(&lat),
        quantile(&lat, 0.9),
        q.scores.len()
    );
    let m = &mut report.metrics;
    if traced {
        let service =
            |js: &[&&JobRecord]| median(&js.iter().map(|j| j.service_us / 1e3).collect::<Vec<_>>());
        m.set("serve.service_ms", service(&hits));
        m.set("serve.service_miss_ms", service(&misses));
        m.set(
            "serve.transport_hit_ms",
            median(
                &hits
                    .iter()
                    .map(|j| (j.rtt_us - j.service_us) / 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        m.set(
            "serve.hit_ratio",
            hits.len() as f64 / measured.len().max(1) as f64,
        );
        m.set("serve.store_bytes", store_bytes as f64);
        m.set("liberty.parse_ms", median(&q.parse_ms));
        m.set("liberty.write_ms", median(&q.write_ms));
        m.set(
            "liberty.bytes",
            mean(&cold.iter().map(|l| l.len() as f64).collect::<Vec<_>>()),
        );
    } else {
        m.set("setup_s", median(&setup));
        m.set("throughput_per_s", lat.len() as f64 / wall);
        m.set("latency_p50_ms", median(&lat));
        m.set("latency_p90_ms", quantile(&lat, 0.9));
        m.set("binning_err", binning_err);
        m.set("yield3s_err", yield_err);
    }
    Ok(report)
}
