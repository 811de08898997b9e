//! Characterization-daemon bench: cold vs warm latency of a full library
//! job through a real in-process `lvf2-serve` instance (TCP loopback,
//! length-prefixed JSON, content-addressed arc cache).
//!
//! Submits one library job cold (every arc computed: MC + EM), then repeats
//! it warm (every arc served from the cache) and writes a `lvf2-bench-v1`
//! summary (`BENCH_serve.json`) with:
//!
//! - `cold_ms` — first submission, cache empty (lower better);
//! - `warm_ms` — min over `--warm-repeats` repeats, cache full and every
//!   arc's Liberty group already rendered by an untimed first hit (lower
//!   better);
//! - `speedup` — `cold_ms / warm_ms` (higher better; asserted ≥ 100,
//!   which a Nagle/delayed-ACK stall on the round trip would break);
//! - `hit_rate` — warm-phase cache hits / lookups, first hit included
//!   (asserted = 1);
//! - `bit_identical` — 1.0 iff every warm library, first hit included,
//!   matches the cold one byte for byte (asserted);
//! - `warm_restart_ms` — the same job against a **freshly restarted**
//!   daemon whose cache was replayed from the persistent store (lower
//!   better) — the crash-recovery answer to `cold_ms`;
//! - `speedup_restart` — `cold_ms / warm_restart_ms` (higher better;
//!   asserted ≥ 10: a restart must behave like a warm cache, not a cold
//!   one — zero MC draws, zero EM runs, bit-identical bytes).
//!
//! Flags: `--samples`, `--grid 8x8|3x3`, `--warm-repeats`, `--workers`,
//! plus the shared observability/bench flags (`--bench-json`,
//! `--metrics-json`, …).

use std::time::Instant;

use lvf2_bench::{arg, host_cores, obs_init, BenchReport};
use lvf2_obs::json::{self, Value};
use lvf2_serve::{Client, Response, Server, ServerConfig};

fn stat(resp: &Response, name: &str) -> f64 {
    resp.stats.get(name).and_then(Value::as_f64).unwrap_or(0.0)
}

fn main() {
    let _obs = obs_init();
    // Warm latency is dominated by response serialization and is independent
    // of the sample count; 4000 samples keeps the cold phase comfortably
    // above the asserted 100x separation without stretching CI.
    let samples: usize = arg("--samples", 4000);
    let grid: String = arg("--grid", "3x3".to_string());
    // Five timed repeats: besides `warm_ms` (their min), the rendered hits
    // are five of the eight jobs behind `job_p50_ms`, so that median is a
    // rendered hit's service time even when one repeat is preempted.
    let warm_repeats: usize = arg("--warm-repeats", 5usize).max(1);
    let workers: usize = arg("--workers", 2);
    let host_cores = host_cores();

    let job = json::parse(&format!(
        r#"{{"type":"characterize","cells":["INV","NAND2","XOR2"],
            "options":{{"samples":{samples},"grid":"{grid}"}}}}"#
    ))
    .expect("job literal parses");

    let store_dir = std::env::temp_dir().join(format!("lvf2-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let spawn = || {
        Server::spawn(
            ServerConfig::default()
                .with_addr("127.0.0.1:0")
                .with_workers(workers)
                .with_store_dir(store_dir.to_str().expect("utf-8 temp path")),
        )
        .expect("daemon binds a loopback port")
    };
    let server = spawn();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("loopback connect");

    let mut report = BenchReport::start("serve");
    report.param("samples", samples as f64);
    report.param("grid", grid.as_str());
    report.param("warm_repeats", warm_repeats as f64);
    report.param("workers", workers as f64);
    report.param("host_cores", host_cores as f64);
    report.param("cells", "INV,NAND2,XOR2");

    // Phase 1 — cold: the cache is empty, every arc pays MC + EM.
    let t0 = Instant::now();
    let cold = client.call(job.clone()).expect("cold job succeeds");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(stat(&cold, "cache_hits"), 0.0, "cold run must miss");
    let arcs = stat(&cold, "cache_misses");
    assert!(arcs > 0.0, "cold run must compute at least one arc");
    let cold_lib = cold
        .result
        .get("library")
        .and_then(Value::as_str)
        .expect("characterize returns liberty text")
        .to_string();

    // Phase 2 — warm: identical job; the content-addressed cache answers
    // every arc. The first hit renders each arc's Liberty group and is not
    // timed; the timed repeats serve those groups, as a repeated job does.
    // Min-of-repeats damps loopback scheduling noise.
    let mut warm_ms = f64::INFINITY;
    let mut hits = 0.0;
    let mut lookups = 0.0;
    let mut bit_identical = true;
    for repeat in 0..=warm_repeats {
        let t1 = Instant::now();
        let warm = client.call(job.clone()).expect("warm job succeeds");
        if repeat > 0 {
            warm_ms = warm_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        }
        hits += stat(&warm, "cache_hits");
        lookups += stat(&warm, "cache_hits") + stat(&warm, "cache_misses");
        bit_identical &=
            warm.result.get("library").and_then(Value::as_str) == Some(cold_lib.as_str());
    }
    let hit_rate = hits / lookups;
    let speedup = cold_ms / warm_ms;

    client.shutdown().expect("daemon acknowledges shutdown");
    server.join();

    // Phase 3 — warm restart: a brand-new daemon process state (fresh
    // in-memory cache) replays the persistent store and must serve the
    // same job with zero recomputation — the crash-safety contract.
    let mc_before = lvf2_obs::Obs::current()
        .snapshot()
        .map_or(0, |s| s.counter("cells.mc_samples"));
    let server = spawn();
    let mut client = Client::connect(&server.addr().to_string()).expect("loopback reconnect");
    let t2 = Instant::now();
    let restart = client.call(job.clone()).expect("restart job succeeds");
    let warm_restart_ms = t2.elapsed().as_secs_f64() * 1e3;
    let restart_identical =
        restart.result.get("library").and_then(Value::as_str) == Some(cold_lib.as_str());
    assert_eq!(
        stat(&restart, "cache_misses"),
        0.0,
        "restart must replay every arc from the store"
    );
    let mc_after = lvf2_obs::Obs::current()
        .snapshot()
        .map_or(0, |s| s.counter("cells.mc_samples"));
    assert_eq!(mc_after, mc_before, "restart must draw zero MC samples");
    let speedup_restart = cold_ms / warm_restart_ms;
    client
        .shutdown()
        .expect("restarted daemon acknowledges shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&store_dir);

    assert!(bit_identical, "warm libraries drifted from the cold one");
    assert!(
        restart_identical,
        "restart-from-store library drifted from the cold one"
    );
    assert!(
        speedup_restart >= 10.0,
        "restart must serve warm, got {speedup_restart:.1}x \
         (cold {cold_ms:.2} ms, restart {warm_restart_ms:.2} ms)"
    );
    assert!(
        (hit_rate - 1.0).abs() < f64::EPSILON,
        "warm phase must be all hits, got {hit_rate}"
    );
    assert!(
        speedup >= 100.0,
        "warm repeat must be at least 100x faster than cold, got {speedup:.1}x \
         (cold {cold_ms:.2} ms, warm {warm_ms:.2} ms)"
    );

    println!("workload: 3 cells x {arcs:.0} arcs, {samples} samples/condition, {grid} grid");
    println!("cold    {cold_ms:9.2} ms  (cache empty: MC + EM per arc)");
    println!("warm    {warm_ms:9.2} ms  (min of {warm_repeats}; all arcs from cache, rendered)");
    println!("restart {warm_restart_ms:9.2} ms  (fresh daemon, cache replayed from store)");
    println!(
        "speedup {speedup:8.1}x   restart {speedup_restart:.1}x   hit rate {:.0}%",
        hit_rate * 100.0
    );

    report.quality("cold_ms", cold_ms);
    report.quality("warm_ms", warm_ms);
    report.quality("warm_restart_ms", warm_restart_ms);
    report.quality("speedup", speedup);
    report.quality("speedup_restart", speedup_restart);
    report.quality("hit_rate", hit_rate);
    report.quality("bit_identical", f64::from(bit_identical));
    // Server-side job latency percentiles from the daemon's own timing
    // histogram (needs --metrics; CI gates p99 on these via
    // `obs-check --quantile-at-most`).
    if let Some(snap) = lvf2_obs::Obs::current().snapshot() {
        if let Some(h) = snap.histograms.get("time.serve.job.characterize.us") {
            report.quality("job_p50_ms", h.p50() / 1e3);
            report.quality("job_p99_ms", h.p99() / 1e3);
            println!(
                "job latency (server-side): p50 {:.2} ms, p99 {:.2} ms over {} jobs",
                h.p50() / 1e3,
                h.p99() / 1e3,
                h.count
            );
        }
    }
    report.finish();
}
