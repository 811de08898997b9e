//! EM-fit wall-time bench.
//!
//! Runs the default table1 arc workload (`Scenario::TwoPeaks`, 2000 samples)
//! through `fit_lvf2_with` with one reused [`FitWorkspace`] and writes a
//! `lvf2-bench-v1` summary (`BENCH_fit.json`) with the median wall time
//! (`wall_ms_batched`) and the EM iteration count (`iterations`).
//!
//! Flags: `--n`, `--seed`, `--repeats`, `--inner-evals`, `--init`, plus the
//! shared observability/bench flags (`--bench-json`, `--metrics-json`, …).

use std::time::Instant;

use lvf2::cells::Scenario;
use lvf2::fit::{fit_lvf2_with, FitConfig, FitWorkspace, InitStrategy};
use lvf2_bench::{arg, host_cores, obs_init, BenchReport};

/// Median wall time (ms) of `repeats` runs of `f`, discarding one warmup.
fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..=repeats {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if last.is_some() {
            times.push(dt); // first run is warmup
        }
        last = Some(r);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], last.unwrap())
}

fn main() {
    let _obs = obs_init();
    let n: usize = arg("--n", 2000);
    let seed: u64 = arg("--seed", 7);
    let repeats: usize = arg("--repeats", 5);
    let inner_evals: usize = arg("--inner-evals", FitConfig::default().inner_evals);
    let init = match arg::<String>("--init", "best".into()).as_str() {
        "kmeans" => InitStrategy::KMeansMoments,
        "scale" => InitStrategy::ScaleSplit,
        _ => InitStrategy::Best,
    };

    let xs = Scenario::TwoPeaks.sample(n, seed);
    let cfg = FitConfig::default()
        .with_inner_evals(inner_evals)
        .with_init(init);

    let mut report = BenchReport::start("fit");
    report.param("n", n as f64);
    report.param("seed", seed as f64);
    report.param("repeats", repeats as f64);
    report.param("inner_evals", inner_evals as f64);
    report.param("scenario", "two_peaks");
    report.param("host_cores", host_cores() as f64);

    let mut ws = FitWorkspace::new();
    let (t_batched, r_batched) = time_ms(repeats, || fit_lvf2_with(&xs, &cfg, &mut ws).unwrap());

    println!("workload: two_peaks n={n} seed={seed} inner_evals={inner_evals}");
    println!(
        "batched  {t_batched:9.2} ms  (ll {:.3})",
        r_batched.report.log_likelihood
    );

    report.quality("wall_ms_batched", t_batched);
    report.quality("iterations", r_batched.report.iterations as f64);
    report.finish();
}
