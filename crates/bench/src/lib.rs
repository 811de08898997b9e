//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper.
//!
//! Each binary prints the same rows/series the paper reports; see
//! `EXPERIMENTS.md` at the repository root for the experiment ↔ binary map
//! and the recorded paper-vs-measured comparison.
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — scenario binning-error reductions |
//! | `table2` | Table 2 — per-cell-type binning / 3σ-yield reductions |
//! | `fig3` | Figure 3 — PDF fits + LVF² decomposition (CSV curves) |
//! | `fig4` | Figure 4 — 8×8 CDF-RMSE-reduction heatmaps (NAND2) |
//! | `fig5` | Figure 5 — binning-error reduction along two critical paths |
//! | `clt` | §3.4 — Berry–Esseen convergence of the FO4 chain |
//! | `ablation_quality` | DESIGN.md ablations — init / M-step / reduction quality |

use std::time::Instant;

use lvf2_obs::json::Value;
use lvf2_obs::schema::BENCH_SCHEMA;
use lvf2_obs::{Obs, ObsConfig, ObsGuard};

/// Installs the shared observability flags (`-v`, `-q`, `--progress`,
/// `--trace-json`, `--metrics-json`) for a bench binary. Call once at the
/// top of `main` and keep the guard alive for the whole run.
pub fn obs_init() -> Option<ObsGuard> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match ObsConfig::from_args(&args) {
        Ok((cfg, _rest)) => match Obs::install(&cfg) {
            Ok(guard) => Some(guard),
            Err(e) => {
                eprintln!("error: failed to open observability sinks: {e}");
                None
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    }
}

/// Accumulates one bench run's parameters and quality figures and writes a
/// `lvf2-bench-v1` summary (`BENCH_<name>.json`, or the `--bench-json` path)
/// on [`BenchReport::finish`].
///
/// The summary embeds the active metrics snapshot, so a run with
/// `--metrics-json`-style collection enabled carries its EM/MC counters
/// alongside wall time and quality.
#[derive(Debug)]
pub struct BenchReport {
    name: &'static str,
    start: Instant,
    params: Vec<(String, Value)>,
    quality: Vec<(String, f64)>,
}

impl BenchReport {
    /// Starts the wall clock for a named bench run. Every report records
    /// the host's [`kernel_isa`] as its first param.
    pub fn start(name: &'static str) -> Self {
        BenchReport {
            name,
            start: Instant::now(),
            params: vec![("kernel_isa".to_string(), Value::from(kernel_isa()))],
            quality: Vec::new(),
        }
    }

    /// Records an input parameter (sample count, seed, …).
    pub fn param(&mut self, key: &str, value: impl Into<Value>) {
        self.params.push((key.to_string(), value.into()));
    }

    /// Records a quality figure (error reductions, gaps, …).
    pub fn quality(&mut self, key: &str, value: f64) {
        self.quality.push((key.to_string(), value));
    }

    /// Writes `BENCH_<name>.json` (override with `--bench-json PATH`).
    /// Failures are reported to stderr, never panicking the bench.
    pub fn finish(self) {
        let path = arg("--bench-json", format!("BENCH_{}.json", self.name));
        let metrics = match Obs::current().snapshot() {
            Some(snap) => snap.to_json(),
            None => Value::Obj(Vec::new()),
        };
        let doc = Value::Obj(vec![
            ("schema".into(), Value::from(BENCH_SCHEMA)),
            ("name".into(), Value::from(self.name)),
            (
                "wall_ms".into(),
                Value::Num(self.start.elapsed().as_secs_f64() * 1e3),
            ),
            ("params".into(), Value::Obj(self.params)),
            (
                "quality".into(),
                Value::Obj(
                    self.quality
                        .into_iter()
                        .map(|(k, v)| (k, Value::Num(v)))
                        .collect(),
                ),
            ),
            ("metrics".into(), metrics),
        ]);
        if let Err(e) = std::fs::write(&path, doc.to_json() + "\n") {
            eprintln!("error: failed to write bench summary {path}: {e}");
        } else {
            eprintln!("bench summary: {path}");
        }
    }
}

/// Returns the value following `--name` in the process arguments, parsed.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                if let Ok(parsed) = v.parse::<T>() {
                    return parsed;
                }
            }
        }
    }
    default
}

/// Hardware threads available to this process, recorded as the
/// `host_cores` param of every `BENCH_*.json` so wall-time keys are only
/// compared between hosts of the same width.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which build of the batched EM kernels this host runs: `"avx2"` or
/// `"portable"` (see `lvf2_stats::kernels::avx2_enabled`). Both give the
/// same bits; only wall-time keys depend on it, so it is recorded in the
/// params of every `BENCH_*.json` next to `host_cores`.
pub fn kernel_isa() -> &'static str {
    if lvf2::stats::kernels::avx2_enabled() {
        "avx2"
    } else {
        "portable"
    }
}

/// `true` when the bare flag `--name` is present.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Geometric mean of strictly positive values (the right average for
/// error-reduction *ratios*).
///
/// # Example
///
/// ```
/// let g = lvf2_bench::geo_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Formats a reduction multiple the way the paper prints them.
pub fn fmt_x(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
    }

    #[test]
    fn fmt_x_widths() {
        assert_eq!(fmt_x(7.7432), "7.74");
        assert_eq!(fmt_x(123.4), "123");
    }

    #[test]
    fn arg_falls_back_to_default() {
        assert_eq!(arg::<usize>("--definitely-not-passed", 42), 42);
        assert!(!flag("--definitely-not-passed"));
    }
}
