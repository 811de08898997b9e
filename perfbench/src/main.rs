//! Benchmark of record for the LVF² paper flow.
//!
//! ```text
//! perfbench run --workload <libchar|ssta_graph|serve_mix> --seed N --seconds S --trace 0|1 [--out DIR]
//! perfbench digest --workload W --seed N
//! ```
//!
//! `run` generates the workload's inputs from the seed, sets up, runs the
//! correctness checks, measures for `--seconds`, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced). It
//! exits 1 when any check fails. `digest` prints the FNV-1a digest of the
//! generated inputs. See `perfbench/README.md`.

mod inputs;
mod libchar;
mod metrics;
mod serve_mix;
mod ssta_graph;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;

/// What a workload run needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Records spans in a traced run; disabled otherwise.
    pub tracer: Tracer,
    /// Where traces and scratch state go (inside the checkout).
    pub out_dir: PathBuf,
    /// Worker threads and clients: the host's hardware threads.
    pub threads: usize,
}

impl Ctx {
    /// Time limit of the untraced pass in a traced run; the traced pass
    /// then repeats the same operations.
    pub fn half_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// Counts and metrics of one workload run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Report {
    /// Counts one operation or check; a failure is kept for the log.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Repeats `f` until `window` has passed (and at least `min` times);
/// returns the count and the wall time.
pub fn run_for(window: Duration, min: usize, mut f: impl FnMut(usize)) -> (usize, f64) {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed() < window {
        f(n);
        n += 1;
    }
    (n, t0.elapsed().as_secs_f64())
}

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let cmd = argv
        .first()
        .cloned()
        .ok_or("missing command (run or digest)")?;
    let mut a = Args {
        cmd,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err(bad("seconds in (0, 120]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("missing --workload".into());
    }
    Ok(a)
}

fn run(a: Args) -> Result<ExitCode, String> {
    match a.cmd.as_str() {
        "digest" => {
            println!(
                "{} seed {} digest {:016x}",
                a.workload,
                a.seed,
                inputs::digest(&a.workload, a.seed)?
            );
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let ctx = Ctx {
                seed: a.seed,
                seconds: a.seconds,
                tracer: Tracer::new(a.trace),
                out_dir: a.out.clone(),
                threads: metrics::nproc(),
            };
            let report = match a.workload.as_str() {
                "libchar" => libchar::run(&ctx)?,
                "ssta_graph" => ssta_graph::run(&ctx)?,
                "serve_mix" => serve_mix::run(&ctx)?,
                other => return Err(format!("unknown workload `{other}`")),
            };
            let metrics_json = if a.trace {
                let path = a
                    .out
                    .join("traces")
                    .join(format!("{}-seed{}.json", a.workload, a.seed));
                ctx.tracer
                    .write_chrome(&path)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("trace: {}", path.display());
                report.metrics.to_json(PER_LAYER, false)?
            } else {
                report.metrics.to_json(END_TO_END, true)?
            };
            for f in &report.failures {
                println!("FAILED: {f}");
            }
            let correct = report.failed == 0;
            println!(
                r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {metrics_json}}}"#,
                report.attempted, report.failed
            );
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            })
        }
        other => Err(format!("unknown command `{other}` (run or digest)")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
