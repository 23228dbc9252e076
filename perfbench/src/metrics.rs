//! Metric values, the summary statistics behind them, and the result line.

use std::time::Duration;

use bc_experiments::schema::json;

/// The benchmark's manifest: which metrics each mode reports, and their
/// units. Compiled in so the binary and the manifest cannot drift apart.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// One measured quantity.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Which `BENCHMARK.json` list the result line carries.
#[derive(Debug, Clone, Copy)]
pub enum MetricKind {
    EndToEnd,
    PerLayer,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Harrell–Davis estimate of quantile `q` (0 < q < 1) of `values` (0 for
/// none): the mean of the order statistics weighted by a
/// Beta((n+1)q, (n+1)(1−q)) density. A single order statistic jumps
/// wherever the sample has a gap, and `fig4-ref`'s 70 cell latencies have
/// one right at the median (≈0.2 s → ≈0.4 s); this estimate moves
/// smoothly instead.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    /// Integration steps per order statistic.
    const STEPS: usize = 64;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    let grid = (n * STEPS) as f64;
    // Log-density on a midpoint grid, shifted by its peak so exp() cannot
    // underflow to all zeros.
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let x = (j as f64 + 0.5) / grid;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut weight) = (0.0, 0.0);
    for (j, ld) in log_density.iter().enumerate() {
        let w = (ld - peak).exp();
        sum += w * v[j / STEPS];
        weight += w;
    }
    sum / weight
}

/// [`quantile`] `q` of each consecutive block of `block` samples (the
/// last block takes the remainder; at least one block), then the median
/// over blocks. On samples in time order, a stall of the host that slows
/// one stretch of the run moves one block's value and not the result.
pub fn blocked_quantile(values: &[f64], block: usize, q: f64) -> f64 {
    let blocks = (values.len() / block.max(1)).max(1);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                values.len()
            } else {
                (b + 1) * block
            };
            quantile(&values[b * block..end], q)
        })
        .collect();
    median(&per_block)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(values: &[f64], p: u32) -> usize {
    values.len()
        - (values.len() * p as usize)
            .div_ceil(100)
            .max(1)
            .min(values.len())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(name, unit)` of every metric in one list of the manifest.
fn manifest_metrics(kind: MetricKind) -> Vec<(String, String)> {
    let key = match kind {
        MetricKind::EndToEnd => "end_to_end",
        MetricKind::PerLayer => "per_layer",
    };
    let doc = json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    let Some(json::Value::Array(entries)) = doc.get(key) else {
        panic!("BENCHMARK.json has no '{key}' list");
    };
    entries
        .iter()
        .map(|e| {
            let field = |f: &str| {
                e.get(f)
                    .and_then(json::Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks '{f}'"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The last line of the run: the manifest's metrics for `kind`, each
/// looked up among the measured ones. A manifest metric the workload did
/// not measure, or one measured in another unit, is a benchmark bug.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    measured: &[Metric],
    kind: MetricKind,
) -> String {
    let fields: Vec<String> = manifest_metrics(kind)
        .into_iter()
        .map(|(name, unit)| {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric '{name}' was not measured"));
            assert_eq!(m.unit, unit, "metric '{name}' measured in the wrong unit");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v: Vec<f64> = (1..=70).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 35.5).abs() < 1e-3);
        let p85 = quantile(&v, 0.85);
        assert!(p85 > 59.0 && p85 < 62.0, "{p85}");
        assert_eq!(beyond(&v, 85), 10);
        assert_eq!(quantile(&[4.0; 9], 0.85), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&v), 35.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // A stalled stretch moves one block, not the median over blocks.
        let mut stalled: Vec<f64> = (1..=210).map(|i| f64::from(i % 70)).collect();
        let plain = blocked_quantile(&stalled, 70, 0.85);
        stalled[140..].iter_mut().for_each(|x| *x *= 3.0);
        assert_eq!(blocked_quantile(&stalled, 70, 0.85), plain);
        assert_eq!(blocked_quantile(&v, 1000, 0.5), quantile(&v, 0.5));
    }

    #[test]
    fn manifest_lists_are_readable() {
        let e2e = manifest_metrics(MetricKind::EndToEnd);
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(!manifest_metrics(MetricKind::PerLayer).is_empty());
    }
}
