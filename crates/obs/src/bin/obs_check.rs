//! `obs-check` — validates emitted observability artifacts against the
//! documented schemas (`docs/OBSERVABILITY.md`) and gates bench summaries
//! against committed baselines. CI runs this over real pipeline output so
//! the schemas cannot silently drift and the benches cannot silently regress.
//!
//! ```text
//! obs-check --metrics metrics.json --trace trace.jsonl --bench BENCH_mc.json
//! obs-check --bench-compare bench/baselines/BENCH_mc.json BENCH_mc.json \
//!           --wall-tol 0.25 --acc-tol 0.05 --diff-out bench_diff.txt
//! obs-check --counter-at-least metrics.json serve.cache.hits 1
//! obs-check --quantile-at-most BENCH_serve.json time.serve.job.characterize.us p99 2e6
//! ```
//!
//! Each flag may repeat; exits non-zero on the first invalid file or failed
//! comparison. `--diff-out` writes the full comparison report (pass or fail)
//! for artifact upload.

use std::process::ExitCode;

use lvf2_obs::compare::{compare_bench, CompareConfig};
use lvf2_obs::{json, schema};

const USAGE: &str = "\
obs-check — validate lvf2 observability artifacts

USAGE:
  obs-check [--metrics FILE]... [--trace FILE]... [--bench FILE]...
            [--bench-compare BASELINE CURRENT]...
            [--counter-at-least FILE NAME MIN]...
            [--counter-at-most FILE NAME MAX]...
            [--quantile-at-most FILE METRIC P MAX]...
            [--wall-tol X] [--acc-tol X] [--diff-out FILE]

Validates --metrics-json output, --trace-json JSONL streams, and
BENCH_*.json summaries against the schemas in docs/OBSERVABILITY.md.

--counter-at-least validates FILE as lvf2-metrics-v1 and fails unless its
counter NAME is present with a value of at least MIN (CI uses this to gate
the daemon's cache hit-rate).

--counter-at-most is the inverse gate: it fails when counter NAME exceeds
MAX. An absent counter passes with MAX 0 semantics — the chaos-smoke job
uses `--counter-at-most metrics.json cells.mc_samples 0` to prove a warm
restart from the persistent store performs zero Monte-Carlo draws.

--quantile-at-most reads histogram METRIC from FILE — either an
lvf2-metrics-v1 document or an lvf2-bench-v1 summary with embedded metrics
— and fails when its P (p50|p95|p99) quantile exceeds MAX (CI uses this to
gate the daemon's p99 job latency from BENCH_serve.json).

--bench-compare gates CURRENT against BASELINE: fails on >X relative
wall-time growth (--wall-tol, default 0.25) or >X accuracy degradation
(--acc-tol, default 0.05) on any direction-gated quality key. Wall keys
are judged only when both files record the same params.host_cores;
otherwise each prints a `refused` line naming both core counts. The full
diff report goes to stdout and, when --diff-out is given, to that file.";

enum Job {
    Check(&'static str, String),
    Compare(String, String),
    CounterAtLeast(String, String, u64),
    CounterAtMost(String, String, u64),
    QuantileAtMost(String, String, String, f64),
}

fn check_file(kind: &str, path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match kind {
        "trace" => {
            let n = schema::check_trace_text(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("ok: {path} ({n} trace records)"))
        }
        _ => {
            let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            match kind {
                "metrics" => schema::check_metrics(&doc),
                "bench" => schema::check_bench(&doc),
                _ => unreachable!("kinds are fixed above"),
            }
            .map_err(|e| format!("{path}: {e}"))?;
            Ok(format!("ok: {path} ({kind})"))
        }
    }
}

fn load_bench(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    schema::check_bench(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

fn check_counter(path: &str, name: &str, min: u64) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    schema::check_metrics(&doc).map_err(|e| format!("{path}: {e}"))?;
    let value = doc
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("{path}: counter `{name}` not present"))?;
    if value < min as f64 {
        return Err(format!(
            "{path}: counter `{name}` is {value}, expected at least {min}"
        ));
    }
    Ok(format!("ok: {path} ({name} = {value} >= {min})"))
}

fn check_counter_at_most(path: &str, name: &str, max: u64) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    schema::check_metrics(&doc).map_err(|e| format!("{path}: {e}"))?;
    // A counter that never incremented may be absent entirely; that is the
    // strongest possible pass for an upper bound.
    let value = doc
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(json::Value::as_f64)
        .unwrap_or(0.0);
    if value > max as f64 {
        return Err(format!(
            "{path}: counter `{name}` is {value}, expected at most {max}"
        ));
    }
    Ok(format!("ok: {path} ({name} = {value} <= {max})"))
}

fn check_quantile(path: &str, metric: &str, p: &str, max: f64) -> Result<String, String> {
    if !matches!(p, "p50" | "p95" | "p99") {
        return Err(format!("quantile `{p}` is not one of p50, p95, p99"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // Accept either a metrics document or a bench summary carrying one.
    let metrics = match doc.get("schema").and_then(json::Value::as_str) {
        Some(schema::METRICS_SCHEMA) => {
            schema::check_metrics(&doc).map_err(|e| format!("{path}: {e}"))?;
            doc
        }
        Some(schema::BENCH_SCHEMA) => {
            schema::check_bench(&doc).map_err(|e| format!("{path}: {e}"))?;
            let metrics = doc.get("metrics").cloned().unwrap_or(json::Value::Null);
            if metrics.as_obj().is_none_or(<[_]>::is_empty) {
                return Err(format!(
                    "{path}: bench summary has no embedded metrics (run the bench with --metrics)"
                ));
            }
            metrics
        }
        other => {
            return Err(format!(
                "{path}: schema {other:?} is neither metrics nor bench"
            ))
        }
    };
    let value = metrics
        .get("histograms")
        .and_then(|h| h.get(metric))
        .ok_or_else(|| format!("{path}: histogram `{metric}` not present"))?
        .get(p)
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("{path}: histogram `{metric}` has no `{p}`"))?;
    if value > max {
        return Err(format!(
            "{path}: {metric} {p} is {value}, expected at most {max}"
        ));
    }
    Ok(format!("ok: {path} ({metric} {p} = {value} <= {max})"))
}

fn run_compare(
    base_path: &str,
    cur_path: &str,
    cfg: &CompareConfig,
    diff_out: Option<&str>,
) -> Result<String, String> {
    let base = load_bench(base_path)?;
    let current = load_bench(cur_path)?;
    let cmp = compare_bench(&base, &current, cfg)
        .map_err(|e| format!("{base_path} vs {cur_path}: {e}"))?;
    let report = cmp.report();
    if let Some(path) = diff_out {
        std::fs::write(path, &report).map_err(|e| format!("{path}: {e}"))?;
    }
    if cmp.passed() {
        Ok(format!(
            "{report}ok: {cur_path} within tolerances of {base_path}"
        ))
    } else {
        Err(format!(
            "{report}bench regression: {cur_path} vs baseline {base_path}"
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs: Vec<Job> = Vec::new();
    let mut cfg = CompareConfig::default();
    let mut diff_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let kind = match a.as_str() {
            "--metrics" => "metrics",
            "--trace" => "trace",
            "--bench" => "bench",
            "--bench-compare" => {
                match (it.next(), it.next()) {
                    (Some(base), Some(cur)) => {
                        jobs.push(Job::Compare(base.clone(), cur.clone()));
                    }
                    _ => {
                        eprintln!("error: --bench-compare requires BASELINE and CURRENT paths");
                        return ExitCode::FAILURE;
                    }
                }
                continue;
            }
            "--counter-at-least" | "--counter-at-most" => {
                let flag = a.as_str();
                match (it.next(), it.next(), it.next()) {
                    (Some(path), Some(name), Some(bound)) => {
                        let Ok(bound) = bound.parse::<u64>() else {
                            eprintln!("error: invalid bound `{bound}` for {flag}");
                            return ExitCode::FAILURE;
                        };
                        jobs.push(if flag == "--counter-at-least" {
                            Job::CounterAtLeast(path.clone(), name.clone(), bound)
                        } else {
                            Job::CounterAtMost(path.clone(), name.clone(), bound)
                        });
                    }
                    _ => {
                        eprintln!("error: {flag} requires FILE NAME and a bound");
                        return ExitCode::FAILURE;
                    }
                }
                continue;
            }
            "--quantile-at-most" => {
                match (it.next(), it.next(), it.next(), it.next()) {
                    (Some(path), Some(metric), Some(p), Some(max)) => {
                        let Ok(max) = max.parse::<f64>() else {
                            eprintln!("error: invalid maximum `{max}` for --quantile-at-most");
                            return ExitCode::FAILURE;
                        };
                        jobs.push(Job::QuantileAtMost(
                            path.clone(),
                            metric.clone(),
                            p.clone(),
                            max,
                        ));
                    }
                    _ => {
                        eprintln!("error: --quantile-at-most requires FILE METRIC P MAX");
                        return ExitCode::FAILURE;
                    }
                }
                continue;
            }
            "--wall-tol" | "--acc-tol" | "--diff-out" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value");
                    return ExitCode::FAILURE;
                };
                match a.as_str() {
                    "--diff-out" => diff_out = Some(v.clone()),
                    flag => {
                        let Ok(x) = v.parse::<f64>() else {
                            eprintln!("error: invalid value `{v}` for {flag}");
                            return ExitCode::FAILURE;
                        };
                        if x.is_nan() || x < 0.0 {
                            eprintln!("error: {flag} must be non-negative, got {x}");
                            return ExitCode::FAILURE;
                        }
                        if flag == "--wall-tol" {
                            cfg.wall_tol = x;
                        } else {
                            cfg.acc_tol = x;
                        }
                    }
                }
                continue;
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        match it.next() {
            Some(path) => jobs.push(Job::Check(kind, path.clone())),
            None => {
                eprintln!("error: --{kind} requires a file path");
                return ExitCode::FAILURE;
            }
        }
    }
    if jobs.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    for job in jobs {
        let outcome = match &job {
            Job::Check(kind, path) => check_file(kind, path),
            Job::Compare(base, cur) => run_compare(base, cur, &cfg, diff_out.as_deref()),
            Job::CounterAtLeast(path, name, min) => check_counter(path, name, *min),
            Job::CounterAtMost(path, name, max) => check_counter_at_most(path, name, *max),
            Job::QuantileAtMost(path, metric, p, max) => check_quantile(path, metric, p, *max),
        };
        match outcome {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
