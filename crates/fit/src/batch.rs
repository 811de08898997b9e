//! Batched fitting: run independent per-table-entry fits across threads.
//!
//! A characterized arc yields `2 × rows × cols` sample sets (delay and
//! transition per grid condition), each fitted independently; at library
//! scale that is thousands of EM runs. Every fitter in this crate is
//! deterministic in `(samples, config)`, so fanning the entries out over a
//! [`Parallelism`] produces exactly the fits the serial loop would — in the
//! same order, with the same first error on failure.

use lvf2_parallel::Parallelism;
use lvf2_stats::Lvf2;

use crate::config::FitConfig;
use crate::error::FitError;
use crate::lvf2::fit_lvf2_with;
use crate::report::Fitted;
use crate::workspace::FitWorkspace;

/// Fits LVF² to every sample set in `datasets` concurrently.
///
/// Results are in input order. On failure, returns the error of the
/// lowest-index failing dataset — the one the serial loop would hit first.
///
/// # Errors
///
/// Propagates the first [`FitError`] by dataset index.
///
/// # Example
///
/// ```
/// use lvf2_fit::{fit_lvf2, fit_lvf2_batch, FitConfig};
/// use lvf2_parallel::Parallelism;
/// use lvf2_stats::{Distribution, Lvf2, Moments, SkewNormal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), lvf2_fit::FitError> {
/// let truth = Lvf2::new(
///     0.4,
///     SkewNormal::from_moments(Moments::new(1.0, 0.05, 0.3))?,
///     SkewNormal::from_moments(Moments::new(1.4, 0.08, -0.2))?,
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sets: Vec<Vec<f64>> = (0..4).map(|_| truth.sample_n(&mut rng, 500)).collect();
/// let cfg = FitConfig::fast();
///
/// let fits = fit_lvf2_batch(&sets, &cfg, &Parallelism::auto())?;
/// // Bit-identical to the serial loop:
/// for (set, fit) in sets.iter().zip(&fits) {
///     assert_eq!(fit.model, fit_lvf2(set, &cfg)?.model);
/// }
/// # Ok(())
/// # }
/// ```
pub fn fit_lvf2_batch<S>(
    datasets: &[S],
    config: &FitConfig,
    par: &Parallelism,
) -> Result<Vec<Fitted<Lvf2>>, FitError>
where
    S: AsRef<[f64]> + Sync,
{
    // One FitWorkspace per worker thread: every fit after a worker's first
    // reuses its buffers, so the sweep's steady state allocates nothing in
    // the EM hot path.
    par.try_par_map_with(datasets.len(), FitWorkspace::new, |ws, i| {
        fit_lvf2_with(datasets[i].as_ref(), config, ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit_lvf2;
    use lvf2_stats::{Distribution, Moments, SkewNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bimodal_sets(count: usize, n: usize) -> Vec<Vec<f64>> {
        let truth = Lvf2::new(
            0.45,
            SkewNormal::from_moments(Moments::new(0.10, 0.010, 0.4)).unwrap(),
            SkewNormal::from_moments(Moments::new(0.16, 0.012, -0.1)).unwrap(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        (0..count).map(|_| truth.sample_n(&mut rng, n)).collect()
    }

    #[test]
    fn batch_matches_serial_loop_at_any_thread_count() {
        let sets = bimodal_sets(6, 400);
        let cfg = FitConfig::fast();
        let serial: Vec<Lvf2> = sets
            .iter()
            .map(|s| fit_lvf2(s, &cfg).unwrap().model)
            .collect();
        for threads in [1, 2, 8] {
            let par = Parallelism::auto().with_threads(threads);
            let batch = fit_lvf2_batch(&sets, &cfg, &par).unwrap();
            let models: Vec<Lvf2> = batch.into_iter().map(|f| f.model).collect();
            assert_eq!(models, serial, "threads={threads}");
        }
    }

    #[test]
    fn batch_reports_first_failing_dataset() {
        let mut sets = bimodal_sets(5, 300);
        sets[1] = vec![1.0; 50]; // zero variance → DegenerateData
        sets[3] = vec![2.0; 50];
        let cfg = FitConfig::fast();
        for threads in [1, 4] {
            let par = Parallelism::auto().with_threads(threads);
            let err = fit_lvf2_batch(&sets, &cfg, &par).unwrap_err();
            // Same error the serial loop hits at index 1.
            let serial_err = fit_lvf2(&sets[1], &cfg).unwrap_err();
            assert_eq!(
                format!("{err}"),
                format!("{serial_err}"),
                "threads={threads}"
            );
        }
    }
}
