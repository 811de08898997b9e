//! End-to-end daemon test: multiple clients over real TCP, cache hits served
//! bit-identically, and — the headline contract — a warm repeat of a full
//! library job performing **zero** MC draws and **zero** EM runs, asserted
//! through the process-global `lvf2-obs` metrics. Warm round trips must
//! cost the service, not a Nagle/delayed-ACK stall.
//!
//! Everything lives in one `#[test]` because the Obs registry is
//! process-global: a second test running characterization concurrently would
//! perturb the counter deltas this test pins down.

use std::thread;
use std::time::Instant;

use lvf2_obs::json::{self, Value};
use lvf2_obs::{Obs, ObsConfig};
use lvf2_serve::{Client, ClientError, Server, ServerConfig};

fn library_job() -> Value {
    json::parse(
        r#"{"type":"characterize","cells":["INV","NAND2"],
            "options":{"samples":256,"grid":"3x3"}}"#,
    )
    .unwrap()
}

fn stat(resp: &lvf2_serve::Response, name: &str) -> u64 {
    resp.stats.get(name).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

#[test]
fn daemon_serves_overlapping_clients_from_cache_with_zero_recompute() {
    let _guard = Obs::install(&ObsConfig {
        metrics: true,
        ..ObsConfig::off()
    })
    .unwrap();

    let server = Server::spawn(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_workers(2)
            .with_cache_capacity(256),
    )
    .unwrap();
    let addr = server.addr().to_string();

    // ---- cold: the first client pays for every arc ------------------------
    let mut first = Client::connect(&addr).unwrap();
    let cold = first.call(library_job()).unwrap();
    assert_eq!(stat(&cold, "cache_misses"), 2, "INV + NAND2, one arc each");
    assert_eq!(stat(&cold, "cache_hits"), 0);
    let cold_lib = cold
        .result
        .get("library")
        .and_then(Value::as_str)
        .expect("characterize returns liberty text")
        .to_string();
    assert!(cold_lib.contains("lu_table_template"));

    let snap = Obs::current().snapshot().unwrap();
    let mc_after_cold = snap.counter("cells.mc_samples");
    let em_after_cold = snap.counter("fit.em.runs");
    assert!(mc_after_cold > 0, "cold job must draw MC samples");
    assert!(em_after_cold > 0, "cold job must run EM fits");

    // ---- warm: two more clients, concurrently, same logical job -----------
    let spawn_client = |addr: String| {
        thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.call(library_job()).unwrap()
        })
    };
    let (h1, h2) = (spawn_client(addr.clone()), spawn_client(addr.clone()));
    let (warm1, warm2) = (h1.join().unwrap(), h2.join().unwrap());
    for warm in [&warm1, &warm2] {
        assert_eq!(
            warm.result.get("library").and_then(Value::as_str),
            Some(cold_lib.as_str()),
            "cached arcs must reassemble into a bit-identical library"
        );
        assert_eq!(stat(warm, "cache_hits"), 2);
        assert_eq!(stat(warm, "cache_misses"), 0);
    }

    // ---- acceptance criterion: warm repeat = zero MC draws, zero EM runs --
    let snap = Obs::current().snapshot().unwrap();
    assert_eq!(
        snap.counter("cells.mc_samples"),
        mc_after_cold,
        "warm repeats must not draw a single MC sample"
    );
    assert_eq!(
        snap.counter("fit.em.runs"),
        em_after_cold,
        "warm repeats must not run a single EM fit"
    );
    assert!(snap.counter("serve.cache.hits") >= 4);
    assert_eq!(snap.counter("serve.jobs.characterize"), 3);

    // ---- metrics job exposes the same picture over the wire ---------------
    let metrics = first.metrics().unwrap();
    let cache = metrics.result.get("cache").expect("cache block");
    assert!(cache.get("hits").and_then(Value::as_f64).unwrap() >= 4.0);
    assert_eq!(cache.get("misses").and_then(Value::as_f64), Some(2.0));

    // ---- bad requests get a typed error and leave the connection usable ---
    let bad = json::parse(r#"{"type":"characterize","cells":["NOPE"]}"#).unwrap();
    match first.call(bad).unwrap_err() {
        ClientError::Server { kind, message, .. } => {
            assert_eq!(kind, "invalid_config");
            assert!(message.contains("NOPE"), "message: {message}");
        }
        other => panic!("expected a server error, got {other}"),
    }
    first.ping().unwrap();

    // ---- a per-cell σ override dirties only that cell ---------------------
    let scaled = json::parse(
        r#"{"type":"characterize","cells":["INV","NAND2"],
            "options":{"samples":256,"grid":"3x3"},
            "sigma_scale":{"INV":1.5}}"#,
    )
    .unwrap();
    let resp = first.call(scaled).unwrap();
    assert_eq!(stat(&resp, "cache_misses"), 1, "only INV recomputes");
    assert_eq!(stat(&resp, "cache_hits"), 1, "NAND2 stays cached");
    assert_ne!(
        resp.result.get("library").and_then(Value::as_str),
        Some(cold_lib.as_str()),
        "wider σ must change the INV tables"
    );

    // ---- selective invalidation, then a deterministic recompute -----------
    let inv = json::parse(r#"{"type":"invalidate","cells":["INV"]}"#).unwrap();
    let resp = first.call(inv).unwrap();
    assert!(
        resp.result
            .get("invalidated")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
    let resp = first.call(library_job()).unwrap();
    assert_eq!(stat(&resp, "cache_misses"), 1);
    assert_eq!(stat(&resp, "cache_hits"), 1);
    assert_eq!(
        resp.result.get("library").and_then(Value::as_str),
        Some(cold_lib.as_str()),
        "recomputation is deterministic: same library, bit for bit"
    );

    // ---- warm round trips cost the service, not a transport stall --------
    // A frame split across writes on a Nagle socket waits for the peer's
    // delayed ACK (>= 40 ms on Linux) on every round trip; a warm hit's
    // service is well under a millisecond. 20 ms is half the stall.
    let mut rtt_ms: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            let resp = first.call(library_job()).unwrap();
            assert_eq!(stat(&resp, "cache_misses"), 0);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtt_ms.sort_by(f64::total_cmp);
    let median = (rtt_ms[19] + rtt_ms[20]) / 2.0;
    assert!(
        median < 20.0,
        "warm round trip median {median:.2} ms: transport stall? {rtt_ms:?}"
    );

    // ---- clean shutdown ---------------------------------------------------
    let resp = first.shutdown().unwrap();
    assert_eq!(resp.result.get("stopping"), Some(&Value::Bool(true)));
    server.join();
}
