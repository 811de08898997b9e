//! Criterion benches for the EM hot path.
//!
//! Two groups:
//!
//! - `ln_pdf`: scalar-loop vs batched skew-normal log-density over a
//!   characterization-sized slice — the innermost kernel of the E-step and
//!   the weighted-MLE M-step. `sorted_2000` is the input the EM actually
//!   sweeps (the fitter sorts its samples first), where nearly every
//!   8-lane chunk sits in one `log Φ` regime; `batched` is the same slice
//!   in draw order.
//! - `em_fit_arc`: a full LVF² fit of the default table1 arc workload
//!   (`Scenario::TwoPeaks`, 2000 samples, default `FitConfig`) with a reused
//!   `FitWorkspace`; `bin/fit_bench.rs` records the same workload's wall
//!   time in `BENCH_fit.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use lvf2::cells::Scenario;
use lvf2::fit::{fit_lvf2_with, FitConfig, FitWorkspace};
use lvf2::stats::{Distribution, Moments, SkewNormal};

fn bench_ln_pdf(c: &mut Criterion) {
    let sn = SkewNormal::from_moments(Moments::new(0.12, 0.015, 0.5)).unwrap();
    let xs = Scenario::TwoPeaks.sample(2000, 7);
    let mut out = vec![0.0; xs.len()];

    let mut group = c.benchmark_group("ln_pdf");
    group.bench_function("scalar_loop", |b| {
        b.iter(|| {
            for (o, &x) in out.iter_mut().zip(&xs) {
                *o = sn.ln_pdf(x);
            }
            out[0]
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            sn.ln_pdf_batch(&xs, &mut out);
            out[0]
        })
    });
    let mut sorted = xs.clone();
    sorted.sort_by(f64::total_cmp);
    group.bench_function("sorted_2000", |b| {
        b.iter(|| {
            sn.ln_pdf_batch(&sorted, &mut out);
            out[0]
        })
    });
    group.finish();
}

fn bench_em_fit_arc(c: &mut Criterion) {
    let xs = Scenario::TwoPeaks.sample(2000, 7);
    let cfg = FitConfig::default();
    let mut ws = FitWorkspace::new();

    let mut group = c.benchmark_group("em_fit_arc");
    group.bench_function("batched", |b| {
        b.iter(|| {
            fit_lvf2_with(&xs, &cfg, &mut ws)
                .unwrap()
                .report
                .log_likelihood
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ln_pdf, bench_em_fit_arc
}
criterion_main!(benches);
