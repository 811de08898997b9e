//! Bench-regression comparison: a committed `BENCH_*.json` baseline vs the
//! current run, with direction-aware tolerances.
//!
//! Every quality figure in this workspace is produced by a seeded,
//! thread-count-invariant pipeline, so accuracy numbers are expected to be
//! *stable* run-to-run — the default accuracy tolerance is tight (5%) and a
//! violation means the code changed behaviour, not that the machine was
//! busy. Wall time is the one genuinely noisy axis; it gets its own, looser
//! tolerance (25%).
//!
//! Direction is inferred from the key name:
//!
//! - `wall_ms`, any `wall_ms*` quality key, and latency keys ending in
//!   `_ms` or `_us` (e.g. `cold_ms`, `job_p99_ms`) — **lower is better**,
//!   judged against the loose [`CompareConfig::wall_tol`] since they all
//!   measure the wall clock;
//! - keys starting with `speedup` — **higher is better**, and also wall
//!   keys: a speedup is a ratio of two wall times, as noisy and as bound to
//!   the host's core count as either (`speedup_1000` of the SSTA bench
//!   spread from 1.30 to 2.01 over eight runs of one binary);
//! - keys ending in `_err`, `_error`, `_rmse`, `_gap`, or `_cv2` — **lower
//!   is better**, judged against [`CompareConfig::acc_tol`];
//! - keys ending in `_x` or `_ratio`, or containing `ess` — **higher is
//!   better**, judged against [`CompareConfig::acc_tol`];
//! - anything else is reported but never gates.
//!
//! A quality key present in the baseline but missing from the current run
//! always fails (a silently dropped metric is how regressions hide); new
//! keys in the current run are informational.
//!
//! Wall keys are judged only when both summaries record the same
//! `params.host_cores`: a wall time from a 1-core host says nothing about a
//! 4-core one. Otherwise each wall key prints a `refused` line naming both
//! core counts (`missing` where a side has none) and never gates, while the
//! other keys stay gated — as `perfbench/compare.py` refuses wall-time
//! metrics across core counts.

use crate::json::Value;

/// Tolerances for [`compare_bench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Allowed relative wall-time growth (0.25 = +25%).
    pub wall_tol: f64,
    /// Allowed relative degradation of accuracy/quality figures (0.05 = 5%).
    pub acc_tol: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            wall_tol: 0.25,
            acc_tol: 0.05,
        }
    }
}

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerBetter,
    HigherBetter,
    Informational,
}

/// Wall-clock keys, speedups included: judged with the loose
/// [`CompareConfig::wall_tol`] and refused across core counts.
fn is_wall_key(key: &str) -> bool {
    key.starts_with("wall_ms")
        || key.ends_with("_ms")
        || key.ends_with("_us")
        || key.starts_with("speedup")
}

fn direction(key: &str) -> Direction {
    if key.starts_with("speedup") {
        Direction::HigherBetter
    } else if is_wall_key(key)
        || key.ends_with("_err")
        || key.ends_with("_error")
        || key.ends_with("_rmse")
        || key.ends_with("_gap")
        || key.ends_with("_cv2")
    {
        Direction::LowerBetter
    } else if key.ends_with("_x") || key.ends_with("_ratio") || key.contains("ess") {
        Direction::HigherBetter
    } else {
        Direction::Informational
    }
}

/// The outcome of one baseline-vs-current comparison.
#[derive(Debug, Clone, Default)]
pub struct BenchComparison {
    /// One human-readable line per metric compared.
    pub lines: Vec<String>,
    /// One message per gating violation; empty means the gate passes.
    pub failures: Vec<String>,
}

impl BenchComparison {
    /// `true` when no gated metric regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full diff report (every metric line, then the verdict) — what CI
    /// uploads as an artifact.
    pub fn report(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        if self.passed() {
            out.push_str("verdict: PASS\n");
        } else {
            out.push_str(&format!(
                "verdict: FAIL ({} regression(s))\n",
                self.failures.len()
            ));
            for f in &self.failures {
                out.push_str(&format!("  regression: {f}\n"));
            }
        }
        out
    }
}

fn rel_change(base: f64, current: f64) -> f64 {
    if base == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - base) / base.abs()
    }
}

/// `params.host_cores` of a bench summary, when it records one.
fn host_cores(doc: &Value) -> Option<f64> {
    doc.get("params")?.get("host_cores")?.as_f64()
}

/// Why wall keys cannot be judged across these two summaries, or `None`
/// when both ran on the same recorded core count.
fn wall_refusal(base: &Value, current: &Value) -> Option<String> {
    let (b, c) = (host_cores(base), host_cores(current));
    if b.is_some() && b == c {
        return None;
    }
    let show = |n: Option<f64>| n.map_or_else(|| "missing".to_string(), |n| n.to_string());
    Some(format!(
        "host_cores {} (baseline) vs {} (current)",
        show(b),
        show(c)
    ))
}

fn judge(
    out: &mut BenchComparison,
    key: &str,
    base: f64,
    current: f64,
    cfg: &CompareConfig,
    refusal: Option<&str>,
) {
    if let (true, Some(why)) = (is_wall_key(key), refusal) {
        out.lines.push(format!(
            "{key}: {base:.6} -> {current:.6} [refused: wall key across {why}]"
        ));
        return;
    }
    let dir = direction(key);
    let tol = if is_wall_key(key) {
        cfg.wall_tol
    } else {
        cfg.acc_tol
    };
    let change = rel_change(base, current);
    let (gate, bad) = match dir {
        Direction::LowerBetter => (format!("≤ +{:.0}%", tol * 100.0), change > tol),
        Direction::HigherBetter => (format!("≥ -{:.0}%", tol * 100.0), change < -tol),
        Direction::Informational => ("info".to_string(), false),
    };
    let verdict = if bad { "FAIL" } else { "ok" };
    out.lines.push(format!(
        "{key}: {base:.6} -> {current:.6} ({:+.1}%) [{verdict}, {gate}]",
        change * 100.0
    ));
    if bad {
        out.failures.push(format!(
            "{key} moved {:+.1}% (baseline {base:.6}, current {current:.6}, tolerance {:.0}%)",
            change * 100.0,
            tol * 100.0
        ));
    }
}

fn quality_map(doc: &Value) -> Result<Vec<(&str, f64)>, String> {
    doc.get("quality")
        .and_then(Value::as_obj)
        .ok_or_else(|| "bench summary: missing `quality` object".to_string())?
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|n| (k.as_str(), n))
                .ok_or_else(|| format!("bench summary: quality `{k}` is not a number"))
        })
        .collect()
}

/// Compares a current `lvf2-bench-v1` summary against a committed baseline.
///
/// Both documents must already pass [`crate::schema::check_bench`]; this
/// function additionally requires matching `name` fields so a fit baseline
/// can never silently gate an MC run.
///
/// # Errors
///
/// A message describing the first structural problem (not a regression —
/// regressions are reported in [`BenchComparison::failures`]).
pub fn compare_bench(
    base: &Value,
    current: &Value,
    cfg: &CompareConfig,
) -> Result<BenchComparison, String> {
    let base_name = base
        .get("name")
        .and_then(Value::as_str)
        .ok_or("baseline: missing `name`")?;
    let cur_name = current
        .get("name")
        .and_then(Value::as_str)
        .ok_or("current: missing `name`")?;
    if base_name != cur_name {
        return Err(format!(
            "bench name mismatch: baseline `{base_name}` vs current `{cur_name}`"
        ));
    }

    let mut out = BenchComparison::default();
    out.lines.push(format!(
        "bench `{cur_name}` (wall_tol {:.0}%, acc_tol {:.0}%)",
        cfg.wall_tol * 100.0,
        cfg.acc_tol * 100.0
    ));

    let base_wall = base
        .get("wall_ms")
        .and_then(Value::as_f64)
        .ok_or("baseline: missing `wall_ms`")?;
    let cur_wall = current
        .get("wall_ms")
        .and_then(Value::as_f64)
        .ok_or("current: missing `wall_ms`")?;
    let refusal = wall_refusal(base, current);
    let refusal = refusal.as_deref();
    judge(&mut out, "wall_ms", base_wall, cur_wall, cfg, refusal);

    let base_q = quality_map(base)?;
    let cur_q = quality_map(current)?;
    for (key, bv) in &base_q {
        match cur_q.iter().find(|(k, _)| k == key) {
            Some((_, cv)) => judge(&mut out, key, *bv, *cv, cfg, refusal),
            None => {
                out.lines
                    .push(format!("{key}: {bv:.6} -> (missing) [FAIL]"));
                out.failures.push(format!(
                    "quality `{key}` present in baseline but missing from current run"
                ));
            }
        }
    }
    for (key, cv) in &cur_q {
        if !base_q.iter().any(|(k, _)| k == key) {
            out.lines
                .push(format!("{key}: (new) -> {cv:.6} [info, no baseline]"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn bench(wall: f64, quality: &str) -> Value {
        bench_on(r#""host_cores":4"#, wall, quality)
    }

    /// A summary whose `params` object holds `params` (JSON members).
    fn bench_on(params: &str, wall: f64, quality: &str) -> Value {
        parse(&format!(
            r#"{{"schema":"lvf2-bench-v1","name":"mc","wall_ms":{wall},
                "params":{{{params}}},"quality":{{{quality}}},"metrics":{{}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn wall_keys_across_core_counts_are_refused_not_judged() {
        let quality = |p99: f64, err: f64| format!(r#""job_p99_ms":{p99},"tail_rel_err":{err}"#);
        let base = bench_on(r#""host_cores":1"#, 100.0, &quality(40.0, 0.1));
        // 3x slower on every wall key, on a 2-core host: refused, passes.
        let slow = bench_on(r#""host_cores":2"#, 300.0, &quality(120.0, 0.1));
        let cmp = compare_bench(&base, &slow, &CompareConfig::default()).unwrap();
        assert!(cmp.passed(), "{}", cmp.report());
        for key in ["wall_ms", "job_p99_ms"] {
            let line = cmp.lines.iter().find(|l| l.starts_with(key)).unwrap();
            assert!(line.contains("refused"), "{line}");
            assert!(
                line.contains("host_cores 1 (baseline) vs 2 (current)"),
                "{line}"
            );
        }
        // Quality keys stay gated across core counts.
        let worse = bench_on(r#""host_cores":2"#, 100.0, &quality(40.0, 0.2));
        let cmp = compare_bench(&base, &worse, &CompareConfig::default()).unwrap();
        assert!(!cmp.passed());
        assert!(
            cmp.failures.iter().all(|f| f.contains("tail_rel_err")),
            "{cmp:?}"
        );
    }

    #[test]
    fn wall_keys_without_a_recorded_core_count_are_refused() {
        let with = bench_on(r#""host_cores":2"#, 100.0, r#""tail_rel_err":0.1"#);
        let without = bench_on("", 300.0, r#""tail_rel_err":0.1"#);
        for (base, current, want) in [
            (
                &with,
                &without,
                "host_cores 2 (baseline) vs missing (current)",
            ),
            (
                &without,
                &with,
                "host_cores missing (baseline) vs 2 (current)",
            ),
            (
                &without,
                &without,
                "host_cores missing (baseline) vs missing (current)",
            ),
        ] {
            let cmp = compare_bench(base, current, &CompareConfig::default()).unwrap();
            assert!(cmp.passed(), "{}", cmp.report());
            let line = cmp.lines.iter().find(|l| l.starts_with("wall_ms")).unwrap();
            assert!(line.contains("refused") && line.contains(want), "{line}");
        }
        // Same recorded count: judged as before.
        let slow = bench_on(r#""host_cores":2"#, 300.0, r#""tail_rel_err":0.1"#);
        let cmp = compare_bench(&with, &slow, &CompareConfig::default()).unwrap();
        assert!(!cmp.passed());
        assert!(cmp.report().contains("wall_ms moved"), "{}", cmp.report());
    }

    #[test]
    fn identical_runs_pass() {
        let b = bench(100.0, r#""tail_rel_err":0.05,"ess":700.0"#);
        let c = compare_bench(&b, &b, &CompareConfig::default()).unwrap();
        assert!(c.passed(), "{}", c.report());
    }

    #[test]
    fn wall_time_gets_the_loose_tolerance() {
        let b = bench(100.0, "");
        let ok = compare_bench(&b, &bench(120.0, ""), &CompareConfig::default()).unwrap();
        assert!(ok.passed(), "{}", ok.report());
        let bad = compare_bench(&b, &bench(130.0, ""), &CompareConfig::default()).unwrap();
        assert!(!bad.passed());
        assert!(bad.report().contains("wall_ms"));
    }

    #[test]
    fn error_metrics_gate_tightly_in_one_direction() {
        let b = bench(100.0, r#""tail_rel_err":0.100"#);
        // 4% worse: within the 5% gate.
        let ok = compare_bench(
            &b,
            &bench(100.0, r#""tail_rel_err":0.104"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(ok.passed(), "{}", ok.report());
        // 10% worse: fails.
        let bad = compare_bench(
            &b,
            &bench(100.0, r#""tail_rel_err":0.110"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!bad.passed());
        // 50% better: improvement never fails a lower-is-better key.
        let better = compare_bench(
            &b,
            &bench(100.0, r#""tail_rel_err":0.05"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(better.passed(), "{}", better.report());
    }

    #[test]
    fn higher_better_metrics_gate_on_drops() {
        let b = bench(100.0, r#""ess":700.0,"evaluator_call_ratio":25.0"#);
        let bad = compare_bench(
            &b,
            &bench(100.0, r#""ess":600.0,"evaluator_call_ratio":25.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!bad.passed());
        assert!(bad.report().contains("ess"));
        let up = compare_bench(
            &b,
            &bench(100.0, r#""ess":900.0,"evaluator_call_ratio":26.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(up.passed(), "{}", up.report());
    }

    #[test]
    fn missing_baseline_key_fails_and_new_key_informs() {
        let b = bench(100.0, r#""tail_rel_err":0.1"#);
        let c = bench(100.0, r#""brand_new_metric":1.0"#);
        let cmp = compare_bench(&b, &c, &CompareConfig::default()).unwrap();
        assert!(!cmp.passed());
        assert!(cmp.report().contains("missing from current"));
        assert!(cmp.report().contains("no baseline"));
    }

    #[test]
    fn name_mismatch_is_a_structural_error() {
        let b = bench(100.0, "");
        let mut other = bench(100.0, "");
        if let Value::Obj(fields) = &mut other {
            for (k, v) in fields.iter_mut() {
                if k == "name" {
                    *v = Value::from("fit");
                }
            }
        }
        assert!(compare_bench(&b, &other, &CompareConfig::default())
            .unwrap_err()
            .contains("mismatch"));
    }

    #[test]
    fn latency_quantile_keys_gate_like_wall_time() {
        // `*_ms` latency keys (serve bench p50/p99) are lower-better under
        // the loose wall tolerance, not the tight accuracy one.
        let b = bench(100.0, r#""job_p50_ms":10.0,"job_p99_ms":40.0"#);
        // +20%: noisy but within the 25% wall tolerance.
        let ok = compare_bench(
            &b,
            &bench(100.0, r#""job_p50_ms":12.0,"job_p99_ms":48.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(ok.passed(), "{}", ok.report());
        // +50% p99: a real latency regression.
        let bad = compare_bench(
            &b,
            &bench(100.0, r#""job_p50_ms":10.0,"job_p99_ms":60.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!bad.passed());
        assert!(bad.report().contains("job_p99_ms"));
        // Faster is never a failure.
        let faster = compare_bench(
            &b,
            &bench(100.0, r#""job_p50_ms":1.0,"job_p99_ms":2.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(faster.passed(), "{}", faster.report());
    }

    #[test]
    fn zero_baseline_fails_any_growth_but_allows_zero() {
        // A zero baseline on a gated key: rel_change is +inf for any
        // nonzero current value, so growth always fails...
        let b = bench(100.0, r#""queue_wait_ms":0.0"#);
        let bad = compare_bench(
            &b,
            &bench(100.0, r#""queue_wait_ms":0.001"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!bad.passed(), "{}", bad.report());
        // ...while zero-to-zero is no change and passes.
        let same = compare_bench(&b, &b, &CompareConfig::default()).unwrap();
        assert!(same.passed(), "{}", same.report());
        // Informational keys shrug off a zero baseline entirely.
        let b = bench(100.0, r#""some_gauge":0.0"#);
        let c = bench(100.0, r#""some_gauge":5.0"#);
        assert!(compare_bench(&b, &c, &CompareConfig::default())
            .unwrap()
            .passed());
    }

    #[test]
    fn speedup_keys_gate_like_wall_time_but_higher_better() {
        let b = bench(100.0, r#""speedup_1000":2.0"#);
        // −20%: within the 25% wall tolerance (the 5% accuracy one would
        // fail it).
        let noisy = compare_bench(
            &b,
            &bench(100.0, r#""speedup_1000":1.6"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(noisy.passed(), "{}", noisy.report());
        // −40%: a real slowdown of the parallel path.
        let bad = compare_bench(
            &b,
            &bench(100.0, r#""speedup_1000":1.2"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!bad.passed());
        assert!(bad.report().contains("speedup_1000"), "{}", bad.report());
        // Faster is never a failure.
        let up = compare_bench(
            &b,
            &bench(100.0, r#""speedup_1000":4.0"#),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(up.passed(), "{}", up.report());
        // Across core counts the key is refused, not judged.
        let base = bench_on(r#""host_cores":8"#, 100.0, r#""speedup":5.0"#);
        let few = bench_on(r#""host_cores":2"#, 100.0, r#""speedup":1.1"#);
        let cmp = compare_bench(&base, &few, &CompareConfig::default()).unwrap();
        assert!(cmp.passed(), "{}", cmp.report());
        let line = cmp.lines.iter().find(|l| l.starts_with("speedup")).unwrap();
        assert!(
            line.contains("refused") && line.contains("host_cores 8 (baseline) vs 2 (current)"),
            "{line}"
        );
    }

    #[test]
    fn informational_keys_never_gate() {
        let b = bench(100.0, r#""thread_determinism":1.0"#);
        let c = bench(100.0, r#""thread_determinism":0.0"#);
        assert!(compare_bench(&b, &c, &CompareConfig::default())
            .unwrap()
            .passed());
    }
}
