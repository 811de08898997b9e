//! The end-to-end library-vendor flow: characterize a set of cells over a
//! grid and emit one Liberty library carrying both LVF and LVF² content —
//! the glue a characterization team would actually run.
//!
//! The flow is parallel at its two natural fan-out points — grid conditions
//! during characterization and table entries during fitting — governed by
//! [`FlowOptions::parallelism`]. Outputs are bit-identical at every thread
//! count (see `lvf2-parallel`), so `--threads` is purely a speed knob.
//!
//! Options are constructed through the validating [`FlowOptions::builder`];
//! the CLI flags, the `lvf2-serve` request JSON, and library callers all
//! funnel through this one typed path, so an impossible configuration is
//! rejected before any Monte-Carlo draw runs. The flow itself is split into
//! per-arc units ([`characterize_arc_models`]) plus a pure assembly step
//! ([`library_from_models`]) — exactly the granularity the `lvf2-serve`
//! content-addressed cache memoizes.

use lvf2_cells::{
    characterize_arc_par_in, tail_yield_arc_in, CellLibrary, CellType, ConditionTailYield,
    SlewLoadGrid, TailYieldOptions, TimingArcSpec,
};
use lvf2_fit::{fit_lvf2_batch, FitConfig};
use lvf2_liberty::ast::{Cell, Pin, TimingGroup};
use lvf2_liberty::{BaseKind, Library, LutTemplate, TimingModelGrid};
use lvf2_mc::{IsConfig, McMode, VariationSpace};
use lvf2_obs::{info, progress, warn, Obs, ObsConfig};
use lvf2_parallel::Parallelism;

use crate::error::Lvf2Error;

/// Options for [`characterize_to_library`] and [`tail_yield_report`].
///
/// Construct via [`FlowOptions::builder`] (validating) or
/// [`FlowOptions::default`]. Direct struct-literal construction still
/// compiles for backward compatibility but bypasses validation; new code
/// should use the builder.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Monte-Carlo samples per grid condition.
    pub samples: usize,
    /// Arcs characterized per cell type (a real flow does all of them; the
    /// default keeps the demo fast).
    pub arcs_per_cell: usize,
    /// The slew–load grid.
    pub grid: SlewLoadGrid,
    /// Fit configuration.
    pub fit: FitConfig,
    /// Process-variation space the Monte-Carlo engine samples. Part of the
    /// `lvf2-serve` cache key: changing any σ dirties every arc it applies
    /// to, and nothing else.
    pub variation: VariationSpace,
    /// Thread/chunk configuration for characterization and fitting.
    pub parallelism: Parallelism,
    /// Observability configuration. The default ([`ObsConfig::off`]) observes
    /// nothing; when a session is already installed (e.g. by the CLI), this
    /// field is ignored and the active session is used.
    pub obs: ObsConfig,
    /// How tail-yield metrics are produced (`--mc-mode`). The Liberty output
    /// is identical in both modes — the mode only selects the sampler behind
    /// [`tail_yield_report`] and the flow's tail stage.
    pub mc_mode: McMode,
    /// Tail threshold in σ above the mean (`--is-target-sigma`).
    pub is_target_sigma: f64,
    /// Main-stage draws per condition for tail-yield estimation
    /// (`--tail-samples`); IS adds its own pilot on top.
    pub tail_samples: usize,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            samples: 2000,
            arcs_per_cell: 1,
            grid: SlewLoadGrid::paper_8x8(),
            fit: FitConfig::fast(),
            variation: VariationSpace::tt_22nm(),
            parallelism: Parallelism::auto(),
            obs: ObsConfig::off(),
            mc_mode: McMode::Lhs,
            is_target_sigma: 3.0,
            tail_samples: 2000,
        }
    }
}

impl FlowOptions {
    /// Starts a validating builder from the defaults.
    pub fn builder() -> FlowOptionsBuilder {
        FlowOptionsBuilder {
            opts: FlowOptions::default(),
        }
    }

    /// Checks every invariant the builder enforces. Entry points call this
    /// too, so configurations assembled by struct literal are still rejected
    /// before any work runs.
    ///
    /// # Errors
    ///
    /// [`Lvf2Error::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), Lvf2Error> {
        if self.samples < 8 {
            return Err(Lvf2Error::invalid(
                "samples",
                format!(
                    "need at least 8 MC samples per condition, got {}",
                    self.samples
                ),
            ));
        }
        if self.arcs_per_cell == 0 {
            return Err(Lvf2Error::invalid("arcs_per_cell", "must be at least 1"));
        }
        if self.tail_samples == 0 {
            return Err(Lvf2Error::invalid("tail_samples", "must be at least 1"));
        }
        if !self.is_target_sigma.is_finite() || self.is_target_sigma <= 0.0 {
            return Err(Lvf2Error::invalid(
                "is_target_sigma",
                format!("must be a positive finite σ, got {}", self.is_target_sigma),
            ));
        }
        validate_fit(&self.fit)?;
        let sigmas = [
            ("variation.sigma_vth_n", self.variation.sigma_vth_n),
            ("variation.sigma_vth_p", self.variation.sigma_vth_p),
            ("variation.sigma_mu", self.variation.sigma_mu),
            ("variation.sigma_l", self.variation.sigma_l),
        ];
        for (name, v) in sigmas {
            if !v.is_finite() || v < 0.0 {
                return Err(Lvf2Error::invalid(
                    "variation",
                    format!("{name} must be finite and non-negative, got {v}"),
                ));
            }
        }
        if !self.variation.global_vth_shift.is_finite() {
            return Err(Lvf2Error::invalid(
                "variation",
                "global_vth_shift must be finite",
            ));
        }
        Ok(())
    }

    /// The per-condition tail-yield options implied by this flow config.
    pub fn tail_options(&self) -> TailYieldOptions {
        TailYieldOptions {
            mode: self.mc_mode,
            samples: self.tail_samples,
            is: IsConfig::default().with_target_sigma(self.is_target_sigma),
        }
    }
}

/// Checks the fit settings that every job running the EM must respect:
/// [`FlowOptions::validate`] runs it on `fit`, and a bare fit request runs
/// it on its own config.
///
/// # Errors
///
/// [`Lvf2Error::InvalidConfig`] naming the first offending field.
pub fn validate_fit(fit: &FitConfig) -> Result<(), Lvf2Error> {
    if fit.max_iterations == 0 {
        return Err(Lvf2Error::invalid(
            "fit.max_iterations",
            "must be at least 1",
        ));
    }
    if !fit.tolerance.is_finite() || fit.tolerance <= 0.0 {
        return Err(Lvf2Error::invalid(
            "fit.tolerance",
            format!("must be positive and finite, got {}", fit.tolerance),
        ));
    }
    // The EM clamps λ to [min_weight, 1 − min_weight], which panics when the
    // floor exceeds the ceiling.
    if !(0.0..=0.5).contains(&fit.min_weight) {
        return Err(Lvf2Error::invalid(
            "fit.min_weight",
            format!("must be in [0, 0.5], got {}", fit.min_weight),
        ));
    }
    if !fit.min_sigma_ratio.is_finite() || fit.min_sigma_ratio < 0.0 {
        return Err(Lvf2Error::invalid(
            "fit.min_sigma_ratio",
            format!(
                "must be finite and non-negative, got {}",
                fit.min_sigma_ratio
            ),
        ));
    }
    Ok(())
}

/// Validating builder for [`FlowOptions`]; see [`FlowOptions::builder`].
///
/// # Example
///
/// ```
/// use lvf2::flow::FlowOptions;
/// use lvf2::cells::SlewLoadGrid;
///
/// let opts = FlowOptions::builder()
///     .samples(800)
///     .grid(SlewLoadGrid::small_3x3())
///     .build()
///     .unwrap();
/// assert_eq!(opts.samples, 800);
/// assert!(FlowOptions::builder().samples(0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct FlowOptionsBuilder {
    opts: FlowOptions,
}

impl FlowOptionsBuilder {
    /// Monte-Carlo samples per grid condition.
    pub fn samples(mut self, n: usize) -> Self {
        self.opts.samples = n;
        self
    }

    /// Arcs characterized per cell type.
    pub fn arcs_per_cell(mut self, n: usize) -> Self {
        self.opts.arcs_per_cell = n;
        self
    }

    /// The slew–load grid.
    pub fn grid(mut self, grid: SlewLoadGrid) -> Self {
        self.opts.grid = grid;
        self
    }

    /// Fit configuration.
    pub fn fit(mut self, fit: FitConfig) -> Self {
        self.opts.fit = fit;
        self
    }

    /// Process-variation space.
    pub fn variation(mut self, space: VariationSpace) -> Self {
        self.opts.variation = space;
        self
    }

    /// Thread/chunk configuration.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.opts.parallelism = par;
        self
    }

    /// Observability configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.opts.obs = obs;
        self
    }

    /// Tail-yield sampler mode.
    pub fn mc_mode(mut self, mode: McMode) -> Self {
        self.opts.mc_mode = mode;
        self
    }

    /// Tail threshold in σ above the mean.
    pub fn is_target_sigma(mut self, k: f64) -> Self {
        self.opts.is_target_sigma = k;
        self
    }

    /// Main-stage tail-yield draws per condition.
    pub fn tail_samples(mut self, n: usize) -> Self {
        self.opts.tail_samples = n;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`Lvf2Error::InvalidConfig`] naming the first offending field.
    pub fn build(self) -> Result<FlowOptions, Lvf2Error> {
        self.opts.validate()?;
        Ok(self.opts)
    }
}

/// A tail-yield request: which cells, under which flow configuration.
///
/// This mirrors the `tail_yield` job of the `lvf2-serve` wire protocol, so
/// the in-process and over-the-socket APIs are the same shape (and the
/// argument list stops growing with every new knob).
#[derive(Debug, Clone, PartialEq)]
pub struct TailYieldRequest {
    /// Cell types to report on.
    pub cells: Vec<CellType>,
    /// Flow configuration (sampler mode, σ target, draw budget, grid, …).
    pub options: FlowOptions,
}

impl TailYieldRequest {
    /// A request for `cells` under default options.
    pub fn new(cells: impl Into<Vec<CellType>>) -> Self {
        TailYieldRequest {
            cells: cells.into(),
            options: FlowOptions::default(),
        }
    }

    /// Replaces the flow options (builder style).
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }
}

/// Expands `cells` into the per-arc job list the flow runs, honoring
/// [`FlowOptions::arcs_per_cell`] (clamped to each cell's real arc count).
pub fn arc_jobs(cells: &[CellType], opts: &FlowOptions) -> Vec<TimingArcSpec> {
    cells
        .iter()
        .flat_map(|&cell| {
            (0..opts.arcs_per_cell.min(cell.paper_arc_count()))
                .map(move |arc_idx| TimingArcSpec::of(cell, arc_idx))
        })
        .collect()
}

/// Tail-yield metrics for every arc of the requested cells, one entry per
/// (arc, grid condition), produced with the sampler selected by
/// [`FlowOptions::mc_mode`].
///
/// This is the flow's yield-signoff companion to the Liberty tables: at the
/// default 3σ target it reports `P(delay > μ + 3σ)` per condition, with the
/// ESS/evaluator-call diagnostics that justify trusting (or not trusting)
/// each number. Deterministic at any thread count.
///
/// # Errors
///
/// [`Lvf2Error::InvalidConfig`] when the request's options fail validation.
pub fn tail_yield_report(
    req: &TailYieldRequest,
) -> Result<Vec<(TimingArcSpec, Vec<ConditionTailYield>)>, Lvf2Error> {
    let opts = &req.options;
    opts.validate()?;
    let _obs_guard = Obs::ensure(&opts.obs);
    let obs = Obs::current();
    let _span = obs.span("flow.tail");
    let topts = opts.tail_options();
    let jobs = arc_jobs(&req.cells, opts);
    info!(
        obs,
        "tail-yield stage: {} arcs, mode={}, target={}σ, {} samples/condition",
        jobs.len(),
        topts.mode,
        opts.is_target_sigma,
        topts.samples
    );
    let reports: Vec<_> = jobs
        .iter()
        .map(|spec| (*spec, tail_yield_arc_models(spec, opts)))
        .collect();
    let conditions: usize = reports.iter().map(|(_, c)| c.len()).sum();
    let floored = reports
        .iter()
        .flat_map(|(_, c)| c)
        .filter(|c| c.floored)
        .count();
    let calls: usize = reports
        .iter()
        .flat_map(|(_, c)| c)
        .map(|c| c.evaluator_calls)
        .sum();
    obs.inc("flow.tail_conditions", conditions as u64);
    obs.inc("flow.tail_floored", floored as u64);
    obs.inc("flow.tail_evaluator_calls", calls as u64);
    if floored > 0 {
        warn!(
            obs,
            "{floored}/{conditions} tail estimates floored (unresolved tails) — \
             consider --mc-mode is or a bigger --tail-samples"
        );
    } else {
        info!(
            obs,
            "all {conditions} tail estimates resolved ({calls} evaluator calls)"
        );
    }
    Ok(reports)
}

/// The per-arc tail-yield unit of [`tail_yield_report`]: one arc, every grid
/// condition, under `opts`'s sampler and variation space. This is the
/// granularity the `lvf2-serve` cache memoizes for `tail_yield` jobs.
pub fn tail_yield_arc_models(spec: &TimingArcSpec, opts: &FlowOptions) -> Vec<ConditionTailYield> {
    tail_yield_arc_in(
        &opts.variation,
        spec,
        &opts.grid,
        &opts.tail_options(),
        &opts.parallelism,
    )
}

/// One arc's fitted characterization: the delay and transition model grids
/// plus fit-convergence bookkeeping.
///
/// Produced by [`characterize_arc_models`]; a slice of these assembles into
/// a Liberty library via [`library_from_models`]. This is the value the
/// `lvf2-serve` content-addressed cache stores — a warm hit skips both the
/// Monte-Carlo draws and the EM fits that built it.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcModelGrids {
    /// The characterized arc.
    pub spec: TimingArcSpec,
    /// Fitted `cell_rise` (delay) grid.
    pub delay: TimingModelGrid,
    /// Fitted `rise_transition` grid.
    pub transition: TimingModelGrid,
    /// Total table-entry fits behind the two grids (`2·rows·cols`).
    pub entry_fits: usize,
    /// How many of those hit the EM iteration cap without converging.
    pub nonconverged_fits: usize,
}

/// Characterizes and fits one arc: Monte-Carlo over every grid condition in
/// `opts.variation`, then one batched EM run per (base kind, grid entry).
///
/// Bit-identical at any thread count; deterministic given `(spec, opts)` —
/// which is exactly why the result can be content-addressed by a hash of
/// those inputs.
///
/// # Errors
///
/// Validation failures and fit errors, as [`Lvf2Error`].
pub fn characterize_arc_models(
    spec: &TimingArcSpec,
    opts: &FlowOptions,
) -> Result<ArcModelGrids, Lvf2Error> {
    opts.validate()?;
    let obs = Obs::current();
    let _span = obs.span("flow.characterize_arc");
    let par = &opts.parallelism;
    let rows = opts.grid.slews().len();
    let cols = opts.grid.loads().len();
    let ch = characterize_arc_par_in(&opts.variation, spec, &opts.grid, opts.samples, par);

    // Every (base-kind, grid-entry) sample set is an independent EM run;
    // flatten them into one batch so the pool stays saturated. Entry order
    // is (pick, i, j), which both the batch fitter and the reassembly below
    // preserve.
    let mut entries: Vec<&[f64]> = Vec::with_capacity(2 * rows * cols);
    for pick in 0..2 {
        for i in 0..rows {
            for j in 0..cols {
                let c = ch.at(i, j);
                entries.push(if pick == 0 {
                    c.delays.as_slice()
                } else {
                    c.transitions.as_slice()
                });
            }
        }
    }
    let fitted = {
        let _span = obs.span("flow.fit");
        fit_lvf2_batch(&entries, &opts.fit, par)?
    };
    let entry_fits = fitted.len();
    let nonconverged_fits = fitted.iter().filter(|f| !f.report.converged).count();

    let mut fit_iter = fitted.into_iter();
    let mut grids = Vec::with_capacity(2);
    for (base, pick) in [
        (BaseKind::CellRise, 0usize),
        (BaseKind::RiseTransition, 1usize),
    ] {
        let mut nominal = Vec::with_capacity(rows);
        let mut models = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut nrow = Vec::with_capacity(cols);
            let mut mrow = Vec::with_capacity(cols);
            for j in 0..cols {
                let c = ch.at(i, j);
                let data = if pick == 0 { &c.delays } else { &c.transitions };
                nrow.push(lvf2_stats::sample_mean(data));
                mrow.push(fit_iter.next().expect("one fit per entry").model);
            }
            nominal.push(nrow);
            models.push(mrow);
        }
        grids.push(TimingModelGrid {
            base,
            index_1: opts.grid.slews().to_vec(),
            index_2: opts.grid.loads().to_vec(),
            nominal,
            models,
        });
    }
    let transition = grids.pop().expect("two grids");
    let delay = grids.pop().expect("two grids");
    Ok(ArcModelGrids {
        spec: *spec,
        delay,
        transition,
        entry_fits,
        nonconverged_fits,
    })
}

/// Assembles fitted arc models into one Liberty library — pure bookkeeping,
/// no Monte-Carlo and no fitting. `grid` must be the grid the models were
/// characterized on (it names the LUT template).
pub fn library_from_models(models: &[ArcModelGrids], grid: &SlewLoadGrid) -> Library {
    let lib_meta = CellLibrary::tsmc22_like();
    let template = format!(
        "delay_template_{}x{}",
        grid.slews().len(),
        grid.loads().len()
    );
    let mut lib = Library::new(lib_meta.name().to_string());
    lib.templates.push(LutTemplate {
        name: template.clone(),
        index_1: grid.slews().to_vec(),
        index_2: grid.loads().to_vec(),
    });
    for m in models {
        let mut tables = Vec::new();
        tables.extend(m.delay.to_tables(&template));
        tables.extend(m.transition.to_tables(&template));
        lib.cells.push(Cell {
            name: format!(
                "{}_X{}_arc{}",
                m.spec.id.cell.name(),
                m.spec.drive,
                m.spec.id.index
            ),
            pins: vec![Pin {
                name: "Y".into(),
                direction: "output".into(),
                timings: vec![TimingGroup {
                    related_pin: "A".into(),
                    tables,
                    ..Default::default()
                }],
            }],
        });
    }
    lib
}

/// Characterizes `cells` and returns a Liberty library with one cell group
/// per (cell type, arc), each carrying the full 11-table LVF+LVF² stack for
/// `cell_rise` (delay) and `rise_transition`.
///
/// # Errors
///
/// Configuration-validation and fit errors, as [`Lvf2Error`].
///
/// # Example
///
/// ```no_run
/// use lvf2::flow::{characterize_to_library, FlowOptions};
/// use lvf2::cells::CellType;
///
/// # fn main() -> Result<(), lvf2::Lvf2Error> {
/// let opts = FlowOptions::builder().samples(2000).build()?;
/// let lib = characterize_to_library(&[CellType::Inv, CellType::Nand2], &opts)?;
/// let text = lvf2::liberty::write_library(&lib);
/// std::fs::write("cells.lib", text).expect("write .lib");
/// # Ok(())
/// # }
/// ```
pub fn characterize_to_library(
    cells: &[CellType],
    opts: &FlowOptions,
) -> Result<Library, Lvf2Error> {
    opts.validate()?;
    let _obs_guard = Obs::ensure(&opts.obs);
    let obs = Obs::current();
    let _span = obs.span("flow.characterize_to_library");
    let jobs = arc_jobs(cells, opts);
    info!(
        obs,
        "characterizing {} arcs over a {}x{} grid ({} samples/condition)",
        jobs.len(),
        opts.grid.slews().len(),
        opts.grid.loads().len(),
        opts.samples
    );
    let mut models = Vec::with_capacity(jobs.len());
    for (k, spec) in jobs.iter().enumerate() {
        models.push(characterize_arc_models(spec, opts)?);
        progress!(obs, "characterize: arc {}/{} done", k + 1, jobs.len());
    }

    // Per-library convergence summary: an arc "failed to converge" when any
    // of its 2·rows·cols table-entry fits hit the iteration cap.
    let bad_entries: usize = models.iter().map(|m| m.nonconverged_fits).sum();
    let total_entries: usize = models.iter().map(|m| m.entry_fits).sum();
    let bad_arcs = models.iter().filter(|m| m.nonconverged_fits > 0).count();
    if bad_arcs > 0 {
        warn!(
            obs,
            "{bad_arcs}/{} arcs failed to converge ({bad_entries}/{total_entries} table-entry fits)",
            jobs.len(),
        );
    } else {
        info!(
            obs,
            "all {} arcs converged ({total_entries} table-entry fits)",
            jobs.len(),
        );
    }
    Ok(library_from_models(&models, &opts.grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_liberty::{parse_library, write_library};
    use lvf2_stats::Distribution;

    #[test]
    fn two_cell_flow_produces_readable_library() {
        let opts = FlowOptions::builder()
            .samples(800)
            .grid(SlewLoadGrid::small_3x3())
            .build()
            .unwrap();
        let lib = characterize_to_library(&[CellType::Inv, CellType::Xor2], &opts).unwrap();
        assert_eq!(lib.cells.len(), 2);
        let text = write_library(&lib);
        let back = parse_library(&text).unwrap();
        assert_eq!(back.cells.len(), 2);
        // Both delay and transition grids decode from every cell.
        for cell in &back.cells {
            let timing = &cell.pins[0].timings[0];
            assert_eq!(timing.tables.len(), 22, "11 tables × 2 base kinds");
            for base in [BaseKind::CellRise, BaseKind::RiseTransition] {
                let g = TimingModelGrid::from_timing(timing, base).unwrap();
                assert!(g.models.iter().flatten().all(|m| m.mean() > 0.0));
            }
        }
    }

    #[test]
    fn builder_validates_and_struct_literals_still_work() {
        assert!(FlowOptions::builder().samples(0).build().is_err());
        assert!(FlowOptions::builder().tail_samples(0).build().is_err());
        assert!(FlowOptions::builder()
            .is_target_sigma(-1.0)
            .build()
            .is_err());
        assert!(FlowOptions::builder()
            .variation(VariationSpace {
                sigma_mu: f64::NAN,
                ..VariationSpace::tt_22nm()
            })
            .build()
            .is_err());
        // The legacy literal path stays available, and entry points validate.
        let opts = FlowOptions {
            samples: 0,
            ..FlowOptions::default()
        };
        assert!(matches!(
            characterize_to_library(&[CellType::Inv], &opts),
            Err(Lvf2Error::InvalidConfig {
                field: "samples",
                ..
            })
        ));
    }

    #[test]
    fn per_arc_split_matches_monolithic_assembly() {
        let opts = FlowOptions::builder()
            .samples(400)
            .grid(SlewLoadGrid::small_3x3())
            .build()
            .unwrap();
        let jobs = arc_jobs(&[CellType::Inv, CellType::Nand2], &opts);
        let models: Vec<_> = jobs
            .iter()
            .map(|s| characterize_arc_models(s, &opts).unwrap())
            .collect();
        let assembled = write_library(&library_from_models(&models, &opts.grid));
        let direct = write_library(
            &characterize_to_library(&[CellType::Inv, CellType::Nand2], &opts).unwrap(),
        );
        assert_eq!(assembled, direct, "assembly must be pure bookkeeping");
    }

    #[test]
    fn variation_space_changes_the_samples() {
        let base = FlowOptions::builder()
            .samples(400)
            .grid(SlewLoadGrid::small_3x3())
            .build()
            .unwrap();
        let wide = FlowOptions::builder()
            .samples(400)
            .grid(SlewLoadGrid::small_3x3())
            .variation(VariationSpace::tt_22nm().scaled(1.5))
            .build()
            .unwrap();
        let spec = TimingArcSpec::of(CellType::Inv, 0);
        let a = characterize_arc_models(&spec, &base).unwrap();
        let b = characterize_arc_models(&spec, &wide).unwrap();
        assert_ne!(a, b, "a wider σ space must change the fitted models");
        // σ of the fitted delay models grows with the variation scale.
        let sa = a.delay.models[1][1].std_dev();
        let sb = b.delay.models[1][1].std_dev();
        assert!(sb > sa, "σ {sb} should exceed {sa} at 1.5x variation");
    }

    #[test]
    fn tail_yield_report_covers_every_condition_in_both_modes() {
        let base = FlowOptions::builder()
            .tail_samples(512)
            .grid(SlewLoadGrid::small_3x3())
            .build()
            .unwrap();
        let lhs =
            tail_yield_report(&TailYieldRequest::new([CellType::Inv]).with_options(base.clone()))
                .unwrap();
        assert_eq!(lhs.len(), 1);
        assert_eq!(lhs[0].1.len(), 9);
        for c in &lhs[0].1 {
            assert_eq!(c.evaluator_calls, 512);
            assert!(c.tail_probability > 0.0);
        }

        let is = tail_yield_report(&TailYieldRequest::new([CellType::Inv]).with_options(
            FlowOptions {
                mc_mode: McMode::ImportanceSampling,
                ..base
            },
        ))
        .unwrap();
        for c in &is[0].1 {
            assert!(c.evaluator_calls > 512, "pilot rides on top of main draws");
            assert!(!c.floored, "IS resolves the 3σ tail");
        }
    }

    #[test]
    fn arcs_per_cell_is_clamped() {
        let opts = FlowOptions::builder()
            .samples(400)
            .arcs_per_cell(100) // HA only has 7 arcs
            .grid(SlewLoadGrid::small_3x3())
            .build()
            .unwrap();
        let lib = characterize_to_library(&[CellType::HalfAdder], &opts).unwrap();
        assert_eq!(lib.cells.len(), 7);
    }
}
