//! Typed job requests: the wire-level job JSON decoded into the same structs
//! the in-process API takes.
//!
//! Decoding funnels through [`lvf2::flow::FlowOptions`]'s validating
//! builder, so a job that would be rejected by the library is rejected at
//! the socket with the same [`Lvf2Error`] — the over-the-wire and in-process
//! APIs are one config path, not two. Unknown keys are errors (they are
//! almost always typos of real knobs).
//!
//! The job schema is documented in `docs/SERVER.md`. One deliberate
//! omission from the schema: `parallelism` is a server-side resource
//! decision, configured by `lvf2 serve --threads`. It cannot change a
//! result, so it belongs to neither a request nor its cache key.

use lvf2::cells::{CellType, SlewLoadGrid};
use lvf2::fit::{FitConfig, InitStrategy, MStep};
use lvf2::flow::{validate_fit, FlowOptions, TailYieldRequest};
use lvf2::mc::{McMode, VariationSpace};
use lvf2::{Lvf2Error, ModelKind};
use lvf2_obs::json::Value;

/// One decoded job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRequest {
    /// Liveness probe.
    Ping,
    /// The server's current metrics snapshot.
    Metrics,
    /// Drop cached models — everything, or one cell's entries.
    Invalidate {
        /// `None` clears the whole cache; `Some` drops only entries tagged
        /// with these cells.
        cells: Option<Vec<CellType>>,
    },
    /// Stop accepting connections and exit once in-flight jobs finish.
    Shutdown,
    /// Characterize cells into a Liberty library (cache-accelerated).
    Characterize(CharacterizeJob),
    /// Per-condition tail-yield metrics (cache-accelerated).
    TailYield(TailYieldJob),
    /// Fit one model family to raw samples.
    Fit(FitJob),
    /// Bin probabilities from raw samples.
    Bin(BinJob),
}

/// A `characterize` job: cells + flow options + per-cell variation scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeJob {
    /// Cell types to characterize.
    pub cells: Vec<CellType>,
    /// Flow configuration (validated by the builder during decode).
    pub options: FlowOptions,
    /// Per-cell σ-scale overrides, sorted by cell name. A cell listed here
    /// is characterized in `options.variation.scaled(k)` — the incremental
    /// re-characterization knob: only the overridden cells' arcs get new
    /// cache keys, every other arc stays warm.
    pub sigma_scale: Vec<(CellType, f64)>,
}

impl CharacterizeJob {
    /// The effective flow options for `cell`, with its σ-scale override (if
    /// any) applied.
    pub fn options_for(&self, cell: CellType) -> FlowOptions {
        let mut opts = self.options.clone();
        if let Some((_, k)) = self.sigma_scale.iter().find(|(c, _)| *c == cell) {
            opts.variation = opts.variation.scaled(*k);
        }
        opts
    }
}

/// A `tail_yield` job — the wire form of [`TailYieldRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct TailYieldJob {
    /// The in-process request this job decodes to.
    pub request: TailYieldRequest,
}

/// A `fit` job: one model family over inline samples.
#[derive(Debug, Clone, PartialEq)]
pub struct FitJob {
    /// Which family to fit.
    pub model: ModelKind,
    /// The samples.
    pub samples: Vec<f64>,
    /// Fit configuration.
    pub config: FitConfig,
}

/// A `bin` job: empirical bin probabilities over inline samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BinJob {
    /// The samples.
    pub samples: Vec<f64>,
    /// Strictly increasing bin boundaries (k+1 bins for k boundaries).
    pub edges: Vec<f64>,
}

fn invalid(field: &'static str, why: impl Into<String>) -> Lvf2Error {
    Lvf2Error::invalid(field, why)
}

fn cell_by_name(name: &str) -> Result<CellType, Lvf2Error> {
    CellType::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| invalid("cells", format!("unknown cell type `{name}`")))
}

fn as_f64(v: &Value, field: &'static str) -> Result<f64, Lvf2Error> {
    v.as_f64()
        .ok_or_else(|| invalid(field, "expected a number"))
}

fn as_usize(v: &Value, field: &'static str) -> Result<usize, Lvf2Error> {
    let n = as_f64(v, field)?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(invalid(
            field,
            format!("expected a non-negative integer, got {n}"),
        ));
    }
    Ok(n as usize)
}

fn as_str<'a>(v: &'a Value, field: &'static str) -> Result<&'a str, Lvf2Error> {
    v.as_str()
        .ok_or_else(|| invalid(field, "expected a string"))
}

fn f64_array(v: &Value, field: &'static str) -> Result<Vec<f64>, Lvf2Error> {
    match v {
        Value::Arr(items) => items.iter().map(|x| as_f64(x, field)).collect(),
        _ => Err(invalid(field, "expected an array of numbers")),
    }
}

fn decode_cells(v: &Value) -> Result<Vec<CellType>, Lvf2Error> {
    let Value::Arr(items) = v else {
        return Err(invalid("cells", "expected an array of cell names"));
    };
    if items.is_empty() {
        return Err(invalid("cells", "must name at least one cell"));
    }
    items
        .iter()
        .map(|x| cell_by_name(as_str(x, "cells")?))
        .collect()
}

fn decode_grid(v: &Value) -> Result<SlewLoadGrid, Lvf2Error> {
    match v {
        Value::Str(s) => match s.as_str() {
            "8x8" => Ok(SlewLoadGrid::paper_8x8()),
            "3x3" => Ok(SlewLoadGrid::small_3x3()),
            other => Err(invalid(
                "options.grid",
                format!("unknown grid `{other}` (8x8, 3x3, or {{slews, loads}})"),
            )),
        },
        Value::Obj(pairs) => {
            let mut slews = None;
            let mut loads = None;
            for (k, val) in pairs {
                match k.as_str() {
                    "slews" => slews = Some(f64_array(val, "options.grid.slews")?),
                    "loads" => loads = Some(f64_array(val, "options.grid.loads")?),
                    other => return Err(invalid("options.grid", format!("unknown key `{other}`"))),
                }
            }
            let slews = slews.ok_or_else(|| invalid("options.grid", "missing `slews`"))?;
            let loads = loads.ok_or_else(|| invalid("options.grid", "missing `loads`"))?;
            let sorted = |xs: &[f64]| !xs.is_empty() && xs.windows(2).all(|w| w[0] < w[1]);
            if !sorted(&slews) || !sorted(&loads) {
                return Err(invalid(
                    "options.grid",
                    "slews and loads must be non-empty and strictly increasing",
                ));
            }
            Ok(SlewLoadGrid::new(slews, loads))
        }
        _ => Err(invalid("options.grid", "expected a string or object")),
    }
}

fn decode_variation(v: &Value) -> Result<VariationSpace, Lvf2Error> {
    let Value::Obj(pairs) = v else {
        return Err(invalid("options.variation", "expected an object"));
    };
    let mut space = VariationSpace::tt_22nm();
    let mut scale = 1.0;
    for (k, val) in pairs {
        match k.as_str() {
            "sigma_vth_n" => space.sigma_vth_n = as_f64(val, "options.variation.sigma_vth_n")?,
            "sigma_vth_p" => space.sigma_vth_p = as_f64(val, "options.variation.sigma_vth_p")?,
            "sigma_mu" => space.sigma_mu = as_f64(val, "options.variation.sigma_mu")?,
            "sigma_l" => space.sigma_l = as_f64(val, "options.variation.sigma_l")?,
            "global_vth_shift" => {
                space.global_vth_shift = as_f64(val, "options.variation.global_vth_shift")?
            }
            "scale" => scale = as_f64(val, "options.variation.scale")?,
            other => {
                return Err(invalid(
                    "options.variation",
                    format!("unknown key `{other}`"),
                ))
            }
        }
    }
    Ok(space.scaled(scale))
}

fn decode_fit(v: &Value) -> Result<FitConfig, Lvf2Error> {
    let Value::Obj(pairs) = v else {
        return Err(invalid("options.fit", "expected an object"));
    };
    let mut cfg = FitConfig::fast();
    for (k, val) in pairs {
        match k.as_str() {
            "max_iterations" => cfg.max_iterations = as_usize(val, "options.fit.max_iterations")?,
            "tolerance" => cfg.tolerance = as_f64(val, "options.fit.tolerance")?,
            "inner_evals" => cfg.inner_evals = as_usize(val, "options.fit.inner_evals")?,
            "seed" => cfg.seed = as_usize(val, "options.fit.seed")? as u64,
            "m_step" => {
                cfg.m_step = match as_str(val, "options.fit.m_step")? {
                    "mle" => MStep::WeightedMle,
                    "moments" => MStep::WeightedMoments,
                    other => {
                        return Err(invalid(
                            "options.fit.m_step",
                            format!("unknown m-step `{other}` (mle or moments)"),
                        ))
                    }
                }
            }
            "init" => {
                cfg.init = match as_str(val, "options.fit.init")? {
                    "best" => InitStrategy::Best,
                    "kmeans" => InitStrategy::KMeansMoments,
                    "scale_split" => InitStrategy::ScaleSplit,
                    other => {
                        return Err(invalid(
                            "options.fit.init",
                            format!("unknown init `{other}` (best, kmeans, scale_split)"),
                        ))
                    }
                }
            }
            other => return Err(invalid("options.fit", format!("unknown key `{other}`"))),
        }
    }
    Ok(cfg)
}

/// Decodes the `options` object into validated [`FlowOptions`]. Keys not
/// present keep the library defaults; `parallelism` is deliberately not a
/// key (server-side resource, see the module docs).
pub fn decode_options(v: Option<&Value>) -> Result<FlowOptions, Lvf2Error> {
    let mut b = FlowOptions::builder();
    let Some(v) = v else { return b.build() };
    let Value::Obj(pairs) = v else {
        return Err(invalid("options", "expected an object"));
    };
    for (k, val) in pairs {
        b = match k.as_str() {
            "samples" => b.samples(as_usize(val, "options.samples")?),
            "arcs_per_cell" => b.arcs_per_cell(as_usize(val, "options.arcs_per_cell")?),
            "tail_samples" => b.tail_samples(as_usize(val, "options.tail_samples")?),
            "is_target_sigma" => b.is_target_sigma(as_f64(val, "options.is_target_sigma")?),
            "grid" => b.grid(decode_grid(val)?),
            "variation" => b.variation(decode_variation(val)?),
            "fit" => b.fit(decode_fit(val)?),
            "mc_mode" => {
                let s = as_str(val, "options.mc_mode")?;
                b.mc_mode(
                    s.parse::<McMode>()
                        .map_err(|e| invalid("options.mc_mode", e))?,
                )
            }
            other => return Err(invalid("options", format!("unknown key `{other}`"))),
        };
    }
    b.build()
}

fn decode_sigma_scale(v: Option<&Value>) -> Result<Vec<(CellType, f64)>, Lvf2Error> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let Value::Obj(pairs) = v else {
        return Err(invalid("sigma_scale", "expected an object of cell → scale"));
    };
    let mut out = Vec::with_capacity(pairs.len());
    for (name, val) in pairs {
        let cell = cell_by_name(name)?;
        let k = as_f64(val, "sigma_scale")?;
        if !k.is_finite() || k <= 0.0 {
            return Err(invalid(
                "sigma_scale",
                format!("scale for `{name}` must be positive and finite, got {k}"),
            ));
        }
        if out.iter().any(|(c, _)| *c == cell) {
            return Err(invalid("sigma_scale", format!("duplicate cell `{name}`")));
        }
        out.push((cell, k));
    }
    // Canonical order: requests that list the same overrides in a different
    // JSON order are the same job (and hash to the same cache keys).
    out.sort_by_key(|(c, _)| c.name());
    Ok(out)
}

impl JobRequest {
    /// Decodes the envelope's `job` object.
    ///
    /// # Errors
    ///
    /// [`Lvf2Error::InvalidConfig`] for unknown types/keys, malformed
    /// values, or options the [`FlowOptions`] builder rejects.
    pub fn from_json(job: &Value) -> Result<JobRequest, Lvf2Error> {
        let Value::Obj(pairs) = job else {
            return Err(invalid("job", "expected an object"));
        };
        let ty = job
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("job.type", "missing or non-string"))?;
        let known = |allowed: &[&str]| -> Result<(), Lvf2Error> {
            for (k, _) in pairs {
                if k != "type" && !allowed.contains(&k.as_str()) {
                    return Err(invalid("job", format!("unknown key `{k}` for type `{ty}`")));
                }
            }
            Ok(())
        };
        match ty {
            "ping" => {
                known(&[])?;
                Ok(JobRequest::Ping)
            }
            "metrics" => {
                known(&[])?;
                Ok(JobRequest::Metrics)
            }
            "shutdown" => {
                known(&[])?;
                Ok(JobRequest::Shutdown)
            }
            "invalidate" => {
                known(&["cells"])?;
                let cells = match job.get("cells") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(decode_cells(v)?),
                };
                Ok(JobRequest::Invalidate { cells })
            }
            "characterize" => {
                known(&["cells", "options", "sigma_scale"])?;
                let cells = decode_cells(
                    job.get("cells")
                        .ok_or_else(|| invalid("cells", "missing"))?,
                )?;
                Ok(JobRequest::Characterize(CharacterizeJob {
                    cells,
                    options: decode_options(job.get("options"))?,
                    sigma_scale: decode_sigma_scale(job.get("sigma_scale"))?,
                }))
            }
            "tail_yield" => {
                known(&["cells", "options"])?;
                let cells = decode_cells(
                    job.get("cells")
                        .ok_or_else(|| invalid("cells", "missing"))?,
                )?;
                let options = decode_options(job.get("options"))?;
                Ok(JobRequest::TailYield(TailYieldJob {
                    request: TailYieldRequest::new(cells).with_options(options),
                }))
            }
            "fit" => {
                known(&["model", "samples", "fit"])?;
                let model = match job.get("model").and_then(Value::as_str) {
                    None => ModelKind::Lvf2,
                    Some(name) => name.parse().map_err(|why: String| invalid("model", why))?,
                };
                let samples = f64_array(
                    job.get("samples")
                        .ok_or_else(|| invalid("samples", "missing"))?,
                    "samples",
                )?;
                if samples.len() < 8 {
                    return Err(invalid("samples", "need at least 8 samples"));
                }
                // The same base with or without a `fit` object: the keys
                // it holds override `FitConfig::fast()`.
                let config = match job.get("fit") {
                    Some(v) => decode_fit(v)?,
                    None => FitConfig::fast(),
                };
                validate_fit(&config)?;
                Ok(JobRequest::Fit(FitJob {
                    model,
                    samples,
                    config,
                }))
            }
            "bin" => {
                known(&["samples", "edges"])?;
                let samples = f64_array(
                    job.get("samples")
                        .ok_or_else(|| invalid("samples", "missing"))?,
                    "samples",
                )?;
                if samples.is_empty() {
                    return Err(invalid("samples", "must be non-empty"));
                }
                let edges = f64_array(
                    job.get("edges")
                        .ok_or_else(|| invalid("edges", "missing"))?,
                    "edges",
                )?;
                if edges.is_empty() || edges.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(invalid(
                        "edges",
                        "must be non-empty and strictly increasing",
                    ));
                }
                Ok(JobRequest::Bin(BinJob { samples, edges }))
            }
            other => Err(invalid("job.type", format!("unknown job type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvf2_obs::json;

    fn decode(text: &str) -> Result<JobRequest, Lvf2Error> {
        JobRequest::from_json(&json::parse(text).unwrap())
    }

    #[test]
    fn control_jobs_decode() {
        assert_eq!(decode(r#"{"type":"ping"}"#).unwrap(), JobRequest::Ping);
        assert_eq!(
            decode(r#"{"type":"metrics"}"#).unwrap(),
            JobRequest::Metrics
        );
        assert_eq!(
            decode(r#"{"type":"shutdown"}"#).unwrap(),
            JobRequest::Shutdown
        );
        assert_eq!(
            decode(r#"{"type":"invalidate","cells":["Inv"]}"#).unwrap(),
            JobRequest::Invalidate {
                cells: Some(vec![CellType::Inv])
            }
        );
    }

    #[test]
    fn characterize_decodes_through_the_builder() {
        let job = decode(
            r#"{"type":"characterize","cells":["INV","nand2"],
                "options":{"samples":400,"grid":"3x3","mc_mode":"is"}}"#,
        )
        .unwrap();
        let JobRequest::Characterize(c) = job else {
            panic!("wrong variant")
        };
        assert_eq!(c.cells, vec![CellType::Inv, CellType::Nand2]);
        assert_eq!(c.options.samples, 400);
        assert_eq!(c.options.grid, SlewLoadGrid::small_3x3());
        assert_eq!(c.options.mc_mode, McMode::ImportanceSampling);
        // Builder validation applies at the socket too.
        let err = decode(r#"{"type":"characterize","cells":["INV"],"options":{"samples":2}}"#)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid_config");
    }

    #[test]
    fn retired_fit_keys_are_invalid_config() {
        // The k-means budget and the weight and σ floors are constants of
        // the fitter, not wire keys: a job that sets one is told which key.
        for (key, value) in [
            ("kmeans_iterations", "50"),
            ("min_weight", "0.001"),
            ("min_sigma_ratio", "0.001"),
        ] {
            for job in [
                format!(
                    r#"{{"type":"characterize","cells":["INV"],"options":{{"fit":{{"{key}":{value}}}}}}}"#
                ),
                format!(
                    r#"{{"type":"fit","samples":[1,2,3,4,5,6,7,8],"fit":{{"{key}":{value}}}}}"#
                ),
            ] {
                let err = decode(&job).unwrap_err();
                assert_eq!(err.kind(), "invalid_config", "{job}");
                assert!(err.to_string().contains(key), "{job}: {err}");
            }
        }
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = decode(
            r#"{"type":"characterize","cells":["INV"],
                "options":{"samples":400,"grid":"3x3","is_target_sigma":3.5}}"#,
        )
        .unwrap();
        let b = decode(
            r#"{"options":{"is_target_sigma":3.5,"grid":"3x3","samples":400},
                "cells":["INV"],"type":"characterize"}"#,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sigma_scale_is_canonically_ordered() {
        let a = decode(
            r#"{"type":"characterize","cells":["INV","NAND2"],
                "sigma_scale":{"NAND2":1.5,"INV":1.2}}"#,
        )
        .unwrap();
        let b = decode(
            r#"{"type":"characterize","cells":["INV","NAND2"],
                "sigma_scale":{"INV":1.2,"NAND2":1.5}}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        let JobRequest::Characterize(c) = a else {
            panic!("wrong variant")
        };
        // The override reaches the effective per-cell options.
        assert_ne!(c.options_for(CellType::Inv).variation, c.options.variation);
        assert_eq!(c.options_for(CellType::Xor2).variation, c.options.variation);
    }

    #[test]
    fn unknown_keys_and_types_are_rejected() {
        assert!(decode(r#"{"type":"warp"}"#).is_err());
        assert!(decode(r#"{"type":"ping","extra":1}"#).is_err());
        assert!(
            decode(r#"{"type":"characterize","cells":["INV"],"options":{"threads":4}}"#).is_err(),
            "parallelism is not a request knob"
        );
        assert!(
            decode(
                r#"{"type":"characterize","cells":["INV"],"options":{"fit":{"engine":"scalar"}}}"#
            )
            .is_err(),
            "`engine` is not a fit option"
        );
    }

    #[test]
    fn fit_and_bin_jobs_decode() {
        let JobRequest::Fit(f) =
            decode(r#"{"type":"fit","model":"norm2","samples":[1,2,3,4,5,6,7,8]}"#).unwrap()
        else {
            panic!("wrong variant")
        };
        assert_eq!(f.model, ModelKind::Norm2);
        assert_eq!(f.samples.len(), 8);

        let JobRequest::Bin(b) =
            decode(r#"{"type":"bin","samples":[0.1,0.9,2.5],"edges":[1,2]}"#).unwrap()
        else {
            panic!("wrong variant")
        };
        assert_eq!(b.edges, vec![1.0, 2.0]);
        assert!(decode(r#"{"type":"bin","samples":[1],"edges":[2,2]}"#).is_err());
    }

    #[test]
    fn fit_job_without_a_fit_object_uses_the_same_base_as_an_empty_one() {
        let samples = "[1,2,3,4,5,6,7,8]";
        let bare = decode(&format!(r#"{{"type":"fit","samples":{samples}}}"#)).unwrap();
        let empty = decode(&format!(
            r#"{{"type":"fit","samples":{samples},"fit":{{}}}}"#
        ))
        .unwrap();
        assert_eq!(bare, empty);
        let JobRequest::Fit(f) = bare else {
            panic!("wrong variant")
        };
        assert_eq!(f.config, FitConfig::fast());
    }

    #[test]
    fn custom_grid_and_variation_decode() {
        let job = decode(
            r#"{"type":"tail_yield","cells":["XOR2"],
                "options":{"grid":{"slews":[0.01,0.05],"loads":[0.001,0.01,0.1]},
                           "variation":{"scale":1.25},"tail_samples":256}}"#,
        )
        .unwrap();
        let JobRequest::TailYield(t) = job else {
            panic!("wrong variant")
        };
        let o = &t.request.options;
        assert_eq!(o.grid.slews(), &[0.01, 0.05]);
        assert_eq!(o.grid.loads().len(), 3);
        assert_eq!(o.variation, VariationSpace::tt_22nm().scaled(1.25));
        assert_eq!(o.tail_samples, 256);
    }
}
