//! `ssta_graph`: levelized LVF² propagation over reconvergent generated
//! netlists, with the sink arrivals put into speed bins. A separate netlist
//! from the same generator has every sink arrival checked against a
//! sample-level golden propagation.

use std::time::Instant;

use lvf2::binning::{score_model, BinSet, GoldenReference};
use lvf2::parallel::Parallelism;
use lvf2::ssta::{golden, CsrGraph, Propagation, TimingDist};
use lvf2::stats::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{ssta_inputs, ssta_reference, stream, GraphInput};
use crate::metrics::{cpu_seconds, mean, median, peak_rss_mb, quantile};
use crate::trace::{shares, Tracer};
use crate::{run_for, Ctx, Report};

/// A netlist elaborated for propagation: graph, virtual source, sinks.
type Built = (CsrGraph, usize, Vec<usize>);
/// Golden MC samples per edge.
const GOLDEN_SAMPLES: usize = 20_000;
/// Golden-check tolerances per sink: relative error of the mean and of σ,
/// and the LVF² binning error. The operators ignore the correlation that
/// reconvergence builds, so σ errors of 10–20% are expected; the limits sit
/// well above that and catch broken operators, not approximation.
const GOLDEN_MEAN_TOL: f64 = 0.03;
const GOLDEN_SIGMA_TOL: f64 = 0.35;
const GOLDEN_BINNING_TOL: f64 = 0.10;
/// Seed of the golden sample stream.
const REFERENCE_RNG_SEED: u64 = 0x601d;
/// Operand pairs timed for `ssta.max_us` / `ssta.sum_us`.
const OP_PAIRS: usize = 48;

/// One set-up: generate the netlists, elaborate their delays, and build
/// and levelize the CSR graphs. Returns them with the seconds it took.
fn set_up(seed: u64) -> Result<(Vec<Built>, f64), String> {
    let t = Instant::now();
    let graphs = ssta_inputs(seed)
        .iter()
        .map(GraphInput::build)
        .collect::<Result<_, _>>()?;
    Ok((graphs, t.elapsed().as_secs_f64()))
}

/// Speed-bin probabilities of every sink arrival.
fn bin_sinks(prop: &Propagation, sinks: &[usize]) -> Result<Vec<Vec<f64>>, String> {
    sinks
        .iter()
        .map(|&s| {
            let d = prop.arrivals[s]
                .as_ref()
                .ok_or_else(|| format!("sink {s} unreached"))?;
            Ok(BinSet::sigma_bins(d.mean(), d.std_dev()).probabilities(|x| d.cdf(x)))
        })
        .collect()
}

/// One sink's LVF² arrival against its golden samples.
struct SinkError {
    mean_rel: f64,
    sigma_rel: f64,
    binning: f64,
    yield3s: f64,
}

/// Scores every sink arrival of `prop` against golden propagation over the
/// same graph: per-edge samples drawn from the edge's own `TimingDist`,
/// summed along edges and maxed at merges, level by level. A node's samples
/// are freed once its last fan-out has consumed them, so memory stays at
/// the live wavefront width.
fn golden_check(
    csr: &CsrGraph,
    source: usize,
    sinks: &[usize],
    prop: &Propagation,
    rng_seed: u64,
) -> Result<Vec<SinkError>, String> {
    let n = csr.node_count();
    let mut pending: Vec<usize> = (0..n).map(|v| csr.fanout(v).len()).collect();
    let mut arrival: Vec<Option<Vec<f64>>> = vec![None; n];
    arrival[source] = Some(vec![0.0; GOLDEN_SAMPLES]);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for l in 0..csr.level_count() {
        for &v in csr.level(l) {
            let v = v as usize;
            let mut acc: Option<Vec<f64>> = None;
            for &e in csr.fanin(v) {
                let (from, _) = csr.edge(e as usize);
                let edge = csr.delay(e as usize).sample_n(&mut rng, GOLDEN_SAMPLES);
                let base = arrival[from]
                    .as_ref()
                    .ok_or_else(|| format!("golden: node {from} has no samples"))?;
                let through = golden::sum_samples(base, &edge);
                acc = Some(match acc {
                    Some(a) => golden::max_samples(&a, &through),
                    None => through,
                });
                pending[from] -= 1;
                if pending[from] == 0 {
                    arrival[from] = None;
                }
            }
            if v != source {
                arrival[v] = acc;
            }
        }
    }
    sinks
        .iter()
        .map(|&s| {
            let model = prop.arrivals[s]
                .as_ref()
                .ok_or_else(|| format!("sink {s} unreached"))?;
            let samples = arrival[s]
                .as_ref()
                .ok_or_else(|| format!("golden: sink {s} has no samples"))?;
            let reference = GoldenReference::from_samples(samples).map_err(|e| e.to_string())?;
            let score = score_model(model, &reference);
            let (gm, gs) = (
                lvf2::stats::sample_mean(samples),
                lvf2::stats::sample_std(samples),
            );
            Ok(SinkError {
                mean_rel: (model.mean() - gm).abs() / gm,
                sigma_rel: (model.std_dev() - gs).abs() / gs,
                binning: score.binning_error,
                yield3s: score.yield_3sigma_error,
            })
        })
        .collect()
}

/// Median wall time, in µs, of `f` over the operand pairs.
fn time_pairs(
    pairs: &[(&TimingDist, &TimingDist)],
    f: impl Fn(&TimingDist, &TimingDist) -> Result<TimingDist, lvf2::ssta::SstaError>,
) -> f64 {
    let us: Vec<f64> = pairs
        .iter()
        .map(|(a, b)| {
            let t = Instant::now();
            let r = f(a, b);
            let dt = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(r).ok();
            dt
        })
        .collect();
    median(&us)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let par = Parallelism::auto().with_threads(ctx.threads);
    let off = Tracer::new(false);

    // Set-up takes about a millisecond, so a repetition sees only the
    // host's speed of that instant, and the host's speed drifts over
    // seconds. Set-up is therefore repeated after every propagation of the
    // window too, at about 0.2% of its time, and `setup_s` is the median of
    // all repetitions: it samples the same stretch of time as the window.
    let (graphs, first_setup_s) = set_up(ctx.seed)?;
    let mut setup = vec![first_setup_s];
    let sum_over = |f: fn(&Built) -> usize| graphs.iter().map(f).sum::<usize>();
    println!(
        "ssta_graph: {} netlists, {} nodes, {} edges, {} sinks, {} threads; set-up {:.2} ms",
        graphs.len(),
        sum_over(|g| g.0.node_count()),
        sum_over(|g| g.0.edge_count()),
        sum_over(|g| g.2.len()),
        ctx.threads,
        first_setup_s * 1e3
    );

    // Operation `k`: propagate netlist `k mod count`, then bin its sinks.
    // The first propagation of each netlist is kept; every later one must
    // reproduce it bit for bit.
    let mut first: Vec<Option<Propagation>> = graphs.iter().map(|_| None).collect();
    let mut lat_ms = Vec::new();
    let mut prop_ms = Vec::new();
    let mut nodes_done = 0;
    let mut step = |k: usize, tracer: &Tracer, report: &mut Report| {
        let g = k % graphs.len();
        let (csr, source, sinks) = &graphs[g];
        let t = Instant::now();
        let ok = tracer.span("op", || {
            let tp = Instant::now();
            let prop = tracer.span("ssta", || csr.propagate(*source, &par));
            prop_ms.push(tp.elapsed().as_secs_f64() * 1e3);
            let Ok(p) = prop else {
                return false;
            };
            let binned = tracer
                .span("binning", || bin_sinks(&p, sinks))
                .is_ok_and(|b| {
                    b.iter()
                        .all(|probs| (probs.iter().sum::<f64>() - 1.0).abs() < 1e-6)
                });
            let same = match &first[g] {
                Some(f) => f.arrivals == p.arrivals,
                None => {
                    first[g] = Some(p);
                    true
                }
            };
            binned && same
        });
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        nodes_done += csr.node_count();
        report.record(ok, || format!("netlist {g}: propagation failed or drifted"));
        match tracer.span("ssta", || set_up(ctx.seed)) {
            Ok((_, s)) => setup.push(s),
            Err(e) => report.record(false, || format!("set-up repetition: {e}")),
        }
    };

    let window = std::time::Duration::from_secs_f64(ctx.seconds);
    let traced = if ctx.tracer.enabled() {
        let (n, wall_u) = run_for(ctx.half_window(), graphs.len(), |k| {
            step(k, &off, &mut report)
        });
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        ctx.tracer.span("window", || {
            for k in 0..n {
                step(k, &ctx.tracer, &mut report);
            }
        });
        let wall_t = t.elapsed().as_secs_f64();
        let m = &mut report.metrics;
        m.set("trace_overhead", wall_t / wall_u);
        m.set(
            "parallel.cpu_util",
            (cpu_seconds() - cpu0) / (wall_t * ctx.threads as f64),
        );
        m.set("latency.samples", n as f64);
        for (name, v) in shares(&ctx.tracer, wall_t, 1) {
            m.set(name, v);
        }
        Some(prop_ms.split_off(n))
    } else {
        let (n, wall) = run_for(window, graphs.len(), |k| step(k, &off, &mut report));
        println!(
            "ssta_graph: {n} propagations in {wall:.2} s, p50 {:.1} ms, p90 {:.1} ms ({} samples)",
            median(&lat_ms),
            quantile(&lat_ms, 0.9),
            lat_ms.len()
        );
        let m = &mut report.metrics;
        // Read before the golden check below: its per-node sample vectors
        // would otherwise set the high-water mark.
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("setup_s", median(&setup));
        m.set("throughput_per_s", nodes_done as f64 / wall);
        m.set("latency_p50_ms", median(&lat_ms));
        m.set("latency_p90_ms", quantile(&lat_ms, 0.9));
        None
    };
    // The window ran at least one propagation of every netlist.
    let first: Vec<Propagation> = first
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a netlist was never propagated")?;

    // Check: arrivals bit-identical at 1 and `threads` threads.
    let (csr, source, _) = &graphs[0];
    let reference = &first[0];
    let serial = csr
        .propagate(*source, &Parallelism::serial())
        .map_err(|e| format!("serial propagation: {e}"))?;
    report.record(serial.arrivals == reference.arrivals, || {
        format!("arrivals differ between 1 and {} threads", ctx.threads)
    });

    // Check: the reference netlist's sinks against golden propagation.
    let t_golden = Instant::now();
    let (rcsr, rsource, rsinks) = ssta_reference().build()?;
    let rprop = rcsr
        .propagate(rsource, &par)
        .map_err(|e| format!("reference propagation: {e}"))?;
    let errors = golden_check(&rcsr, rsource, &rsinks, &rprop, REFERENCE_RNG_SEED)?;
    for e in &errors {
        report.record(
            e.mean_rel < GOLDEN_MEAN_TOL
                && e.sigma_rel < GOLDEN_SIGMA_TOL
                && e.binning < GOLDEN_BINNING_TOL,
            || {
                format!(
                    "sink off golden (mean {:.4}, σ {:.4}, binning {:.4})",
                    e.mean_rel, e.sigma_rel, e.binning
                )
            },
        );
    }
    let binning_err = mean(&errors.iter().map(|e| e.binning).collect::<Vec<_>>());
    let yield_err = mean(&errors.iter().map(|e| e.yield3s).collect::<Vec<_>>());
    let worst = |f: fn(&SinkError) -> f64| errors.iter().map(f).fold(0.0, f64::max);
    println!(
        "golden check ({:.2} s): {} sinks, binning_err {binning_err:.5}, yield3s_err {yield_err:.5}; worst sink |Δμ|/μ {:.4}, |Δσ|/σ {:.4}, binning {:.4}",
        t_golden.elapsed().as_secs_f64(),
        errors.len(),
        worst(|e| e.mean_rel),
        worst(|e| e.sigma_rel),
        worst(|e| e.binning),
    );
    if traced.is_none() {
        report.metrics.set("binning_err", binning_err);
        report.metrics.set("yield3s_err", yield_err);
    }

    if let Some(traced_prop_ms) = traced {
        let m = &mut report.metrics;
        m.set("ssta.build_ms", median(&setup) * 1e3);
        m.set("ssta.propagate_ms", median(&traced_prop_ms));
        m.set(
            "ssta.max_ops",
            first.iter().map(|p| p.maxes).sum::<u64>() as f64,
        );
        m.set(
            "ssta.sum_ops",
            first.iter().map(|p| p.sums).sum::<u64>() as f64,
        );
        m.set(
            "ssta.levels",
            graphs.iter().map(|g| g.0.level_count()).max().unwrap_or(0) as f64,
        );
        m.set(
            "ssta.peak_width",
            graphs
                .iter()
                .map(|g| g.0.peak_level_width())
                .max()
                .unwrap_or(0) as f64,
        );
        // Direct timed calls on operand pairs drawn from netlist 0.
        let reached: Vec<&TimingDist> = reference.arrivals.iter().flatten().collect();
        let mut pick = stream(ctx.seed, 300);
        let mut max_pairs = Vec::with_capacity(OP_PAIRS);
        let mut sum_pairs = Vec::with_capacity(OP_PAIRS);
        for _ in 0..OP_PAIRS {
            let a = reached[pick.gen_range(0..reached.len())];
            max_pairs.push((a, reached[pick.gen_range(0..reached.len())]));
            sum_pairs.push((a, csr.delay(pick.gen_range(0..csr.edge_count()))));
        }
        m.set("ssta.max_us", time_pairs(&max_pairs, |a, b| a.max(b)));
        m.set("ssta.sum_us", time_pairs(&sum_pairs, |a, b| a.sum(b)));
    }
    Ok(report)
}
