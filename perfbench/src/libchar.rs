//! `libchar`: the paper's characterization flow, in process, over the 8×8
//! slew–load grid. Every arc runs MC → batched LVF² EM → Liberty
//! write → parse → binning score of each parsed table entry against that
//! entry's own MC samples.

use std::time::Instant;

use lvf2::binning::{score_model, GoldenReference, ModelScore};
use lvf2::cells::{characterize_arc_par_in, ArcCharacterization, SlewLoadGrid};
use lvf2::fit::fit_lvf2_batch;
use lvf2::flow::{library_from_models, ArcModelGrids, FlowOptions};
use lvf2::liberty::{parse_library, write_library, BaseKind, Library, TimingModelGrid};
use lvf2::parallel::Parallelism;
use lvf2::stats::sample_mean;

use crate::inputs::{libchar_arcs, ArcInput, LIBCHAR_ARCS, LIBCHAR_REFERENCE_ARCS};
use crate::metrics::{cpu_seconds, mean, median, peak_rss_mb, quantile};
use crate::trace::{shares, Tracer};
use crate::{run_for, Ctx, Report};

/// The quality metrics cover the fixed leading arcs of the list, so they
/// depend neither on the seed nor on how many arcs the window fits.
const QUALITY_ARCS: usize = LIBCHAR_REFERENCE_ARCS;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Sanity ceiling on the mean LVF² binning and 3σ-yield errors: a fitter
/// that breaks lands far above it.
const MAX_MEAN_ERR: f64 = 0.05;

/// Measurements of one arc.
struct ArcRun {
    total_ms: f64,
    cells_ms: f64,
    fit_ms: f64,
    write_ms: f64,
    parse_ms: f64,
    score_ms: f64,
    entries: usize,
    iterations: usize,
    nonconverged: usize,
    mc_samples: usize,
    lib_bytes: usize,
    /// Round trip reproduced every table.
    roundtrip_ok: bool,
    scores: Vec<ModelScore>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The (pick, row, col)-ordered sample sets of an arc: delays, then
/// transitions.
fn entry_samples(ch: &ArcCharacterization) -> Vec<&[f64]> {
    let mut out = Vec::with_capacity(2 * ch.rows * ch.cols);
    for pick in 0..2 {
        for i in 0..ch.rows {
            for j in 0..ch.cols {
                let c = ch.at(i, j);
                out.push(if pick == 0 {
                    c.delays.as_slice()
                } else {
                    c.transitions.as_slice()
                });
            }
        }
    }
    out
}

/// Whether `b` holds exactly the tables of `a`, value for value.
fn same_tables(a: &Library, b: &Library) -> bool {
    let tables = |l: &Library| {
        l.cells
            .iter()
            .flat_map(|c| &c.pins)
            .flat_map(|p| &p.timings)
            .flat_map(|t| &t.tables)
            .cloned()
            .collect::<Vec<_>>()
    };
    a.cells.len() == b.cells.len() && tables(a) == tables(b)
}

/// Runs one arc on `grid` with the sample count, fit configuration,
/// variation space and parallelism of `flow`.
fn run_arc(
    arc: &ArcInput,
    grid: &SlewLoadGrid,
    flow: &FlowOptions,
    tracer: &Tracer,
) -> Result<ArcRun, String> {
    let par = &flow.parallelism;
    let t0 = Instant::now();
    tracer.span("op", || {
        let space = flow.variation.scaled(arc.scale);
        let t = Instant::now();
        let ch = tracer.span("cells", || {
            characterize_arc_par_in(&space, &arc.spec, grid, flow.samples, par)
        });
        let cells_ms = ms_since(t);
        let entries = entry_samples(&ch);

        let t = Instant::now();
        let fitted = tracer
            .span("fit", || fit_lvf2_batch(&entries, &flow.fit, par))
            .map_err(|e| format!("{}: fit: {e}", arc.spec))?;
        let fit_ms = ms_since(t);
        let iterations = fitted.iter().map(|f| f.report.iterations).sum();
        let nonconverged = fitted.iter().filter(|f| !f.report.converged).count();

        let t = Instant::now();
        let (lib, text) = tracer.span("liberty", || {
            let (rows, cols) = (ch.rows, ch.cols);
            let mut fits = fitted.into_iter().map(|f| f.model);
            let mut grid_of = |base: BaseKind, pick: usize| TimingModelGrid {
                base,
                index_1: grid.slews().to_vec(),
                index_2: grid.loads().to_vec(),
                nominal: (0..rows)
                    .map(|i| {
                        (0..cols)
                            .map(|j| sample_mean(entries[pick * rows * cols + i * cols + j]))
                            .collect()
                    })
                    .collect(),
                models: (0..rows)
                    .map(|_| fits.by_ref().take(cols).collect())
                    .collect(),
            };
            let delay = grid_of(BaseKind::CellRise, 0);
            let transition = grid_of(BaseKind::RiseTransition, 1);
            let models = ArcModelGrids {
                spec: arc.spec,
                delay,
                transition,
                entry_fits: entries.len(),
                nonconverged_fits: nonconverged,
            };
            let lib = library_from_models(&[models], grid);
            let text = write_library(&lib);
            (lib, text)
        });
        let write_ms = ms_since(t);

        let t = Instant::now();
        let parsed = tracer
            .span("liberty", || parse_library(&text))
            .map_err(|e| format!("{}: parse: {e}", arc.spec))?;
        let parse_ms = ms_since(t);
        let roundtrip_ok = same_tables(&lib, &parsed);

        let t = Instant::now();
        let scores = tracer.span("binning", || -> Result<Vec<ModelScore>, String> {
            let timing = parsed
                .cells
                .first()
                .and_then(|c| c.pins.first())
                .and_then(|p| p.timings.first())
                .ok_or_else(|| format!("{}: parsed library has no timing group", arc.spec))?;
            let mut scores = Vec::with_capacity(entries.len());
            for (pick, base) in [BaseKind::CellRise, BaseKind::RiseTransition]
                .into_iter()
                .enumerate()
            {
                let decoded = TimingModelGrid::from_timing(timing, base)
                    .map_err(|e| format!("{}: decode {base:?}: {e}", arc.spec))?;
                for (k, model) in decoded.models.iter().flatten().enumerate() {
                    let golden =
                        GoldenReference::from_samples(entries[pick * ch.rows * ch.cols + k])
                            .map_err(|e| format!("{}: golden: {e}", arc.spec))?;
                    scores.push(score_model(model, &golden));
                }
            }
            Ok(scores)
        })?;
        let score_ms = ms_since(t);

        Ok(ArcRun {
            total_ms: ms_since(t0),
            cells_ms,
            fit_ms,
            write_ms,
            parse_ms,
            score_ms,
            entries: entries.len(),
            iterations,
            nonconverged,
            mc_samples: ch.rows * ch.cols * flow.samples,
            lib_bytes: text.len(),
            roundtrip_ok,
            scores,
        })
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    // The paper flow's defaults (8×8 grid, sample count, fit configuration,
    // variation space) at the host's thread count.
    let flow = FlowOptions {
        parallelism: Parallelism::auto().with_threads(ctx.threads),
        ..FlowOptions::default()
    };
    let grid = &flow.grid;
    let off = Tracer::new(false);

    // Set-up: generate the inputs and warm the pools, allocator and code
    // paths with the first arc on the 3×3 grid.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut arcs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        arcs = libchar_arcs(ctx.seed, LIBCHAR_ARCS);
        run_arc(&arcs[0], &SlewLoadGrid::small_3x3(), &flow, &off)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    println!(
        "libchar: {} arcs queued (INV/NAND2/XOR2), {}x{} grid, {} samples, {} threads",
        arcs.len(),
        grid.slews().len(),
        grid.loads().len(),
        flow.samples,
        ctx.threads
    );

    let mut runs: Vec<ArcRun> = Vec::new();
    let run_one = |tracer: &Tracer, n: usize, runs: &mut Vec<ArcRun>, report: &mut Report| {
        let arc = &arcs[n % arcs.len()];
        match run_arc(arc, grid, &flow, tracer) {
            Ok(r) => {
                report.record(r.roundtrip_ok, || {
                    format!("{}: Liberty round trip changed a table", arc.spec)
                });
                runs.push(r);
            }
            Err(e) => report.record(false, || e),
        }
    };

    let window = std::time::Duration::from_secs_f64(ctx.seconds);
    let (wall, traced) = if ctx.tracer.enabled() {
        let (n, wall_u) = run_for(ctx.half_window(), QUALITY_ARCS, |n| {
            run_one(&off, n, &mut runs, &mut report)
        });
        let quality = runs.drain(..).take(QUALITY_ARCS).collect::<Vec<_>>();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        ctx.tracer.span("window", || {
            for k in 0..n {
                run_one(&ctx.tracer, k, &mut runs, &mut report);
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
        let traced = std::mem::replace(&mut runs, quality);
        (wall_t, Some(traced))
    } else {
        let (_, wall) = run_for(window, QUALITY_ARCS, |n| {
            run_one(&off, n, &mut runs, &mut report)
        });
        report.metrics.set("peak_rss_mb", peak_rss_mb());
        (wall, None)
    };

    // Quality of the reference arcs, the same for every seed.
    let first: Vec<&ModelScore> = runs
        .iter()
        .take(QUALITY_ARCS)
        .flat_map(|r| &r.scores)
        .collect();
    let binning_err = mean(&first.iter().map(|s| s.binning_error).collect::<Vec<_>>());
    let yield_err = mean(
        &first
            .iter()
            .map(|s| s.yield_3sigma_error)
            .collect::<Vec<_>>(),
    );
    report.record(
        binning_err < MAX_MEAN_ERR && yield_err < MAX_MEAN_ERR,
        || format!("LVF² errors against MC too large: binning {binning_err}, 3σ yield {yield_err}"),
    );
    println!(
        "libchar quality over {QUALITY_ARCS} arcs: binning_err {binning_err:.5}, yield3s_err {yield_err:.5}"
    );

    let m = &mut report.metrics;
    match traced {
        None => {
            let lat: Vec<f64> = runs.iter().map(|r| r.total_ms).collect();
            println!(
                "libchar: {} arcs in {wall:.2} s, p50 {:.1} ms, p90 {:.1} ms ({} samples)",
                runs.len(),
                median(&lat),
                quantile(&lat, 0.9),
                lat.len()
            );
            m.set("setup_s", median(&setup));
            m.set("throughput_per_s", runs.len() as f64 / wall);
            m.set("latency_p50_ms", median(&lat));
            m.set("latency_p90_ms", quantile(&lat, 0.9));
            m.set("binning_err", binning_err);
            m.set("yield3s_err", yield_err);
        }
        Some(t) => {
            let col = |f: fn(&ArcRun) -> f64| t.iter().map(f).collect::<Vec<f64>>();
            let entries: usize = t.iter().map(|r| r.entries).sum();
            let samples: usize = t.iter().map(|r| r.mc_samples).sum();
            let cells_s: f64 = col(|r| r.cells_ms).iter().sum::<f64>() / 1e3;
            m.set("cells.characterize_ms", median(&col(|r| r.cells_ms)));
            m.set("mc.samples", samples as f64);
            m.set("mc.samples_per_s", samples as f64 / cells_s);
            m.set("fit.batch_ms", median(&col(|r| r.fit_ms)));
            m.set("fit.entries", entries as f64);
            m.set(
                "fit.iterations_mean",
                t.iter().map(|r| r.iterations).sum::<usize>() as f64 / entries as f64,
            );
            m.set(
                "fit.nonconverged_ratio",
                t.iter().map(|r| r.nonconverged).sum::<usize>() as f64 / entries as f64,
            );
            let rmse: Vec<f64> = t
                .iter()
                .flat_map(|r| &r.scores)
                .map(|s| s.cdf_rmse)
                .collect();
            m.set("fit.cdf_rmse_p50", median(&rmse));
            m.set("liberty.write_ms", median(&col(|r| r.write_ms)));
            m.set("liberty.parse_ms", median(&col(|r| r.parse_ms)));
            m.set("liberty.bytes", mean(&col(|r| r.lib_bytes as f64)));
            m.set("binning.score_ms", median(&col(|r| r.score_ms)));
        }
    }
    Ok(report)
}
