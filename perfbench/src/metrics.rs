//! The metric dictionary, summary statistics, and process counters.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("binning_err", "prob"),
    ("yield3s_err", "prob"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cells.characterize_ms", "ms"),
    ("mc.samples", "count"),
    ("mc.samples_per_s", "1/s"),
    ("fit.batch_ms", "ms"),
    ("fit.entries", "count"),
    ("fit.iterations_mean", "count"),
    ("fit.nonconverged_ratio", "ratio"),
    ("fit.cdf_rmse_p50", "prob"),
    ("liberty.write_ms", "ms"),
    ("liberty.parse_ms", "ms"),
    ("liberty.bytes", "B"),
    ("binning.score_ms", "ms"),
    ("ssta.build_ms", "ms"),
    ("ssta.propagate_ms", "ms"),
    ("ssta.max_us", "us"),
    ("ssta.sum_us", "us"),
    ("ssta.max_ops", "count"),
    ("ssta.sum_ops", "count"),
    ("ssta.levels", "count"),
    ("ssta.peak_width", "count"),
    ("serve.service_ms", "ms"),
    ("serve.service_miss_ms", "ms"),
    ("serve.transport_hit_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.store_bytes", "B"),
    ("parallel.cpu_util", "ratio"),
    ("latency.samples", "count"),
    ("share.cells", "ratio"),
    ("share.fit", "ratio"),
    ("share.liberty", "ratio"),
    ("share.binning", "ratio"),
    ("share.ssta", "ratio"),
    ("share.serve", "ratio"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Renders the `metrics` object for `dictionary`, in its order. With
    /// `required`, every metric must have been set; otherwise unset ones
    /// read 0. A name outside the dictionary is an error either way.
    pub fn to_json(&self, dictionary: &[(&str, &str)], required: bool) -> Result<String, String> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|k| !dictionary.iter().any(|(n, _)| n == k))
        {
            return Err(format!("metric `{extra}` is not in the dictionary"));
        }
        let mut parts = Vec::with_capacity(dictionary.len());
        for (name, unit) in dictionary {
            let value = match self.0.get(*name) {
                Some(v) => *v,
                None if required => return Err(format!("metric `{name}` was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            parts.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads), in seconds.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `comm` field
    // (which may contain spaces), in clock ticks of 1/100 s.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_rejects_unknown_and_missing_names() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(m.to_json(END_TO_END, true).is_err(), "missing metrics");
        assert!(m.to_json(&[("setup_s", "s")], true).is_ok());
        m.set("bogus", 1.0);
        assert!(
            m.to_json(&[("setup_s", "s")], true).is_err(),
            "unknown name"
        );
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
