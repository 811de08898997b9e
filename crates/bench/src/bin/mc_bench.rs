//! Monte-Carlo tail-yield bench: mixture importance sampling vs the
//! brute-force golden run, at a fixed 25× evaluator-call advantage.
//!
//! Runs the balanced-bimodal regime-competition arc at one (slew, load)
//! point twice — once with a large plain-MC golden sweep, once with the IS
//! engine at 1/25 of the evaluator calls — and writes a `lvf2-bench-v1`
//! summary (`BENCH_mc.json`) carrying the accuracy and diagnostic figures
//! the CI bench-regression gate tracks:
//!
//! - `tail_rel_err` — 3σ tail probability, IS vs golden (lower better);
//! - `rare_bin_rel_err` — upper sigma-bin mass, IS vs golden (lower better);
//! - `bulk_bin_max_rel_err` — worst golden-resolved bin (lower better);
//! - `ess`, `ess_fraction` — weight health (higher better);
//! - `weight_cv2` — weight variance diagnostic (lower better);
//! - `evaluator_call_ratio` — golden calls / IS calls (higher better);
//! - `wall_ms_golden`, `wall_ms_is` — the two phases' wall time;
//! - `thread_determinism` — 1.0 iff the IS run is bit-identical at 1 vs 8
//!   threads (also asserted: a mismatch aborts the bench).
//!
//! Flags: `--golden-n`, `--is-n`, `--pilot-n`, `--seed`, `--target-sigma`,
//! `--repeats` (each timed phase runs this many times and reports the
//! minimum wall time — the phases are seeded-deterministic, so repeats only
//! damp scheduler noise on the short IS phase), plus the shared
//! observability/bench flags (`--bench-json`, `--metrics-json`, …).

use std::time::Instant;

use lvf2::binning::BinSet;
use lvf2::mc::{IsConfig, McEngine, RegimeCompetitionArc, SamplingScheme, VariationSpace};
use lvf2::parallel::Parallelism;
use lvf2::stats::{sample_mean, sample_std};
use lvf2_bench::{arg, host_cores, obs_init, BenchReport};

const SLEW: f64 = 0.02;
const LOAD: f64 = 0.05;

fn main() {
    let _obs = obs_init();
    let golden_n: usize = arg("--golden-n", 512_000);
    let is_n: usize = arg("--is-n", 19_968);
    let pilot_n: usize = arg("--pilot-n", 512);
    let seed: u64 = arg("--seed", 77);
    let golden_seed: u64 = arg("--golden-seed", 20_240_601);
    let target_sigma: f64 = arg("--target-sigma", 3.0);
    let repeats: usize = arg("--repeats", 3usize).max(1);

    let arc = RegimeCompetitionArc::balanced_bimodal();
    let space = VariationSpace::tt_22nm();
    let cfg = IsConfig {
        pilot_samples: pilot_n,
        ..IsConfig::default()
    }
    .with_target_sigma(target_sigma);

    let mut report = BenchReport::start("mc");
    report.param("golden_n", golden_n as f64);
    report.param("is_n", is_n as f64);
    report.param("pilot_n", pilot_n as f64);
    report.param("seed", seed as f64);
    report.param("golden_seed", golden_seed as f64);
    report.param("target_sigma", target_sigma);
    report.param("repeats", repeats as f64);
    report.param("arc", "balanced_bimodal");
    report.param("host_cores", host_cores() as f64);

    // Phase 1 — golden brute force. Min-of-repeats wall time: the run is
    // seeded-deterministic, so repeats differ only by scheduler noise.
    let mut wall_golden = f64::INFINITY;
    let mut gold = Vec::new();
    for _ in 0..repeats {
        let t0 = Instant::now();
        gold = McEngine::new(space, golden_n, golden_seed)
            .with_scheme(SamplingScheme::Plain)
            .simulate(&arc, SLEW, LOAD)
            .delays;
        wall_golden = wall_golden.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean = sample_mean(&gold);
    let std = sample_std(&gold);
    let threshold = mean + target_sigma * std;
    let p_gold = gold.iter().filter(|d| **d > threshold).count() as f64 / gold.len() as f64;
    assert!(
        p_gold > 0.0,
        "golden run must resolve the {target_sigma}σ tail"
    );
    let bins = BinSet::sigma_bins(mean, std);
    let gold_bins = bins.probabilities_from_samples(&gold);

    // Phase 2 — importance sampling at 1/25 the calls. The IS phase is only
    // a few ms, where single-shot timing is dominated by jitter — the
    // min-of-repeats keeps the 25% CI wall gate meaningful.
    let mut wall_is = f64::INFINITY;
    let mut is = None;
    for _ in 0..repeats {
        let t1 = Instant::now();
        is = Some(McEngine::new(space, is_n, seed).simulate_is(&arc, SLEW, LOAD, &cfg));
        wall_is = wall_is.min(t1.elapsed().as_secs_f64() * 1e3);
    }
    let is = is.expect("repeats >= 1");
    let est = is.tail_estimate(threshold);
    assert!(!est.floored, "IS must resolve the {target_sigma}σ tail");
    let w = is.normalized_weights();
    let is_bins = bins.probabilities_from_weighted_samples(&is.delays, &w);

    let call_ratio = golden_n as f64 / is.evaluator_calls() as f64;
    let tail_rel_err = (est.probability - p_gold).abs() / p_gold;
    let rare_bin_rel_err = {
        let (pg, pi) = (gold_bins.last().unwrap(), is_bins.last().unwrap());
        (pi - pg).abs() / pg
    };
    // Worst relative error over bins the golden run resolves (≥ 10 hits).
    let bulk_bin_max_rel_err = gold_bins
        .iter()
        .zip(&is_bins)
        .filter(|(pg, _)| **pg >= 10.0 / golden_n as f64)
        .map(|(pg, pi)| (pi - pg).abs() / pg)
        .fold(0.0f64, f64::max);

    // Phase 3 — thread-count determinism of the IS path (the contract the
    // gate's accuracy tolerances quietly rely on).
    let run = |par: Parallelism| {
        McEngine::new(space, is_n, seed)
            .with_parallelism(par)
            .simulate_is(&arc, SLEW, LOAD, &cfg)
    };
    let one = run(Parallelism::serial());
    let eight = run(Parallelism::auto().with_threads(8));
    let deterministic = one.delays == eight.delays && one.ln_weights == eight.ln_weights;
    assert!(deterministic, "IS results drifted between 1 and 8 threads");

    println!("workload: balanced_bimodal slew={SLEW} load={LOAD} target={target_sigma}σ");
    println!("golden  {wall_golden:9.2} ms  ({golden_n} calls, P(tail) {p_gold:.4e})");
    println!(
        "IS      {wall_is:9.2} ms  ({} calls, P(tail) {:.4e} ± {:.1e})",
        is.evaluator_calls(),
        est.probability,
        est.std_error
    );
    println!(
        "calls: {call_ratio:.1}x fewer; tail rel err {tail_rel_err:.3}; rare-bin rel err \
         {rare_bin_rel_err:.3}; ESS {:.0}/{is_n} (cv² {:.2})",
        est.ess,
        is.weight_cv2()
    );

    report.quality("wall_ms_golden", wall_golden);
    report.quality("wall_ms_is", wall_is);
    report.quality("tail_rel_err", tail_rel_err);
    report.quality("rare_bin_rel_err", rare_bin_rel_err);
    report.quality("bulk_bin_max_rel_err", bulk_bin_max_rel_err);
    report.quality("ess", est.ess);
    report.quality("ess_fraction", est.ess / is_n as f64);
    report.quality("weight_cv2", is.weight_cv2());
    report.quality("evaluator_call_ratio", call_ratio);
    report.quality("thread_determinism", f64::from(deterministic));
    report.finish();
}
