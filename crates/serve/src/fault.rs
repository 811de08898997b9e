//! Deterministic fault injection for the daemon — the test harness that
//! proves the crash-safety story instead of asserting it.
//!
//! Compiled as a real implementation only under the `fault-inject` feature;
//! without it every hook is an inlined no-op returning `None`, so
//! production builds carry zero overhead and zero attack surface.
//!
//! # Fault-spec grammar
//!
//! A plan is a `;`-separated list of `key=value` pairs, read from the
//! `LVF2_FAULTS` environment variable (or installed programmatically by
//! tests via `install` under the `fault-inject` feature):
//!
//! ```text
//! seed=42;worker.panic=1;worker.panic.max=2;exec.hold=1;exec.hold.ms=40
//! ```
//!
//! - `seed=N` — the plan's RNG seed (default 0).
//! - `<site>=P` — arm `site` with firing probability `P ∈ [0, 1]`.
//! - `<site>.max=N` — fire at most `N` times (default unlimited).
//! - `<site>.skip=N` — let the first `N` eligible checks pass (default 0).
//! - `<site>.ms=N` — delay parameter for delay sites (default 20).
//!
//! # Determinism
//!
//! Whether the `n`-th check of a site fires is a pure function of
//! `(seed, site, n)` — a SplitMix64 draw keyed by the site name's FNV-1a
//! hash and a per-site check counter — so a plan with `P = 1` fires
//! identically at any thread count and any scheduling, and fractional
//! probabilities replay exactly for a fixed per-site check order. The
//! chaos matrix (`crates/serve/tests/chaos.rs`) pins its assertions on
//! `P = 1` plans with `skip`/`max` windows, which are interleaving-proof.
//!
//! # Sites
//!
//! | site             | effect at the call site                           |
//! |------------------|---------------------------------------------------|
//! | `conn.read_delay`| sleep `.ms` before reading a request frame        |
//! | `conn.frame_corrupt` | flip the first byte of the inbound frame      |
//! | `conn.frame_truncate`| drop the second half of the inbound frame     |
//! | `worker.panic`   | panic at the worker's job boundary                |
//! | `exec.hold`      | sleep `.ms` between arcs inside job execution     |
//! | `store.torn_tail`| write only a prefix of the appended record        |
//! | `store.corrupt`  | flip one byte of the appended record              |
//!
//! The full failure model lives in `docs/ROBUSTNESS.md`.

use std::time::Duration;

/// What an armed site should do on a fired check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Perform the site's destructive effect (panic, corrupt, truncate…).
    Fire,
    /// Sleep for the configured duration, then proceed normally.
    Delay(Duration),
}

#[cfg(feature = "fault-inject")]
pub use imp::{check, install, FaultPlan};

#[cfg(feature = "fault-inject")]
mod imp {
    use super::FaultAction;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// One armed site.
    #[derive(Debug, Clone, PartialEq)]
    struct Rule {
        probability: f64,
        max_fires: u64,
        skip: u64,
        delay_ms: u64,
    }

    impl Default for Rule {
        fn default() -> Self {
            Rule {
                probability: 0.0,
                max_fires: u64::MAX,
                skip: 0,
                delay_ms: 20,
            }
        }
    }

    /// A parsed fault plan: the seed plus every armed site.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct FaultPlan {
        seed: u64,
        rules: HashMap<String, Rule>,
    }

    impl FaultPlan {
        /// Parses the `LVF2_FAULTS` grammar (see the module docs).
        ///
        /// # Errors
        ///
        /// A human-readable message naming the offending pair.
        pub fn parse(spec: &str) -> Result<FaultPlan, String> {
            let mut plan = FaultPlan::default();
            for pair in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("fault spec pair `{pair}` has no `=`"))?;
                let (key, value) = (key.trim(), value.trim());
                let num = || -> Result<f64, String> {
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("fault spec `{key}={value}`: not a number"))
                };
                if key == "seed" {
                    plan.seed = num()? as u64;
                } else if let Some(site) = key.strip_suffix(".max") {
                    plan.rules.entry(site.to_string()).or_default().max_fires = num()? as u64;
                } else if let Some(site) = key.strip_suffix(".skip") {
                    plan.rules.entry(site.to_string()).or_default().skip = num()? as u64;
                } else if let Some(site) = key.strip_suffix(".ms") {
                    plan.rules.entry(site.to_string()).or_default().delay_ms = num()? as u64;
                } else {
                    let p = num()?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault spec `{key}={value}`: probability ∉ [0, 1]"));
                    }
                    plan.rules.entry(key.to_string()).or_default().probability = p;
                }
            }
            Ok(plan)
        }
    }

    #[derive(Default)]
    struct SiteState {
        checks: u64,
        fires: u64,
    }

    struct Active {
        plan: FaultPlan,
        sites: HashMap<String, SiteState>,
    }

    static ACTIVE: OnceLock<Mutex<Option<Active>>> = OnceLock::new();

    fn active() -> &'static Mutex<Option<Active>> {
        ACTIVE.get_or_init(|| {
            let plan = std::env::var("LVF2_FAULTS")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .map(|spec| {
                    FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| panic!("invalid LVF2_FAULTS spec: {e}"))
                });
            Mutex::new(plan.map(|plan| Active {
                plan,
                sites: HashMap::new(),
            }))
        })
    }

    /// Installs `plan` (replacing the env-derived one) or disarms every
    /// site with `None`. Test-only control; resets all per-site counters.
    pub fn install(plan: Option<FaultPlan>) {
        let mut guard = active().lock().unwrap_or_else(|e| e.into_inner());
        *guard = plan.map(|plan| Active {
            plan,
            sites: HashMap::new(),
        });
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            state ^= b as u64;
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        state
    }

    fn splitmix64(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Checks whether `site` fires on this call. Returns `None` when no
    /// plan is active, the site is unarmed, or the deterministic draw for
    /// this check number does not fire.
    pub fn check(site: &str) -> Option<FaultAction> {
        let mut guard = active().lock().unwrap_or_else(|e| e.into_inner());
        let active = guard.as_mut()?;
        let rule = active.plan.rules.get(site)?.clone();
        if rule.probability <= 0.0 {
            return None;
        }
        let state = active.sites.entry(site.to_string()).or_default();
        let n = state.checks;
        state.checks += 1;
        if n < rule.skip || state.fires >= rule.max_fires {
            return None;
        }
        let draw = splitmix64(active.plan.seed ^ fnv1a(site.as_bytes()) ^ n);
        let fraction = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if fraction >= rule.probability {
            return None;
        }
        state.fires += 1;
        let action = if site.ends_with("delay") || site.ends_with("hold") {
            FaultAction::Delay(Duration::from_millis(rule.delay_ms))
        } else {
            FaultAction::Fire
        };
        Some(action)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parses_the_grammar() {
            let plan =
                FaultPlan::parse("seed=7; worker.panic=1; worker.panic.max=2; exec.hold.ms=40")
                    .unwrap();
            assert_eq!(plan.seed, 7);
            let p = &plan.rules["worker.panic"];
            assert_eq!((p.probability, p.max_fires), (1.0, 2));
            assert_eq!(plan.rules["exec.hold"].delay_ms, 40);
            assert!(FaultPlan::parse("worker.panic=2.0").is_err());
            assert!(FaultPlan::parse("nonsense").is_err());
            assert!(FaultPlan::parse("worker.panic=abc").is_err());
        }

        #[test]
        fn skip_and_max_bound_the_firing_window() {
            install(Some(
                FaultPlan::parse("seed=1;s=1;s.skip=2;s.max=2").unwrap(),
            ));
            let fired: Vec<bool> = (0..6).map(|_| check("s").is_some()).collect();
            assert_eq!(fired, [false, false, true, true, false, false]);
            install(None);
            assert!(check("s").is_none(), "disarmed after install(None)");
        }

        #[test]
        fn delay_sites_return_the_configured_duration() {
            install(Some(FaultPlan::parse("x.hold=1;x.hold.ms=7").unwrap()));
            assert_eq!(
                check("x.hold"),
                Some(FaultAction::Delay(Duration::from_millis(7)))
            );
            install(None);
        }

        #[test]
        fn draws_are_a_pure_function_of_seed_site_and_check_number() {
            let run = || -> Vec<bool> {
                install(Some(FaultPlan::parse("seed=9;s=0.5").unwrap()));
                (0..32).map(|_| check("s").is_some()).collect()
            };
            let a = run();
            let b = run();
            assert_eq!(a, b, "same plan must replay bit-identically");
            assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
            install(None);
        }
    }
}

/// No-op hook: without the `fault-inject` feature nothing ever fires.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn check(_site: &str) -> Option<FaultAction> {
    None
}
