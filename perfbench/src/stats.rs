//! Sample statistics and histogram readers.

use crowd4u_telemetry::MetricsSnapshot;
use std::time::Duration;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the mean of the middle two of an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the fastest 95% of latency samples: the slowest 5% are host
/// stalls on a shared machine more often than they are the program, and
/// one 100 ms stall, which delays ten waves, can move a plain mean by a
/// quarter.
pub fn mean95(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() * 95).div_ceil(100).max(1));
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durations of one kind of operation, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn sum_ms(&self) -> f64 {
        self.0.iter().map(|&n| n as f64).sum::<f64>() / 1e6
    }

    /// Quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.0.iter().map(|&n| n as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }

    pub fn absorb(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// One stage histogram read off the telemetry registry: count, sum and
/// per-bucket counts keyed by the bucket's upper bound (ns).
#[derive(Debug, Default, Clone)]
pub struct Hist {
    pub count: u64,
    pub sum_ns: u64,
    buckets: Vec<(f64, u64)>,
}

impl Hist {
    /// Read histogram `name` (all label sets merged). The bucket layout is
    /// only exposed through the Prometheus rendering, so it is parsed back
    /// from there.
    pub fn read(snap: &MetricsSnapshot, name: &str) -> Hist {
        let (mut count, mut sum_ns) = (0, 0);
        for ((n, _), h) in &snap.histograms {
            if n == name {
                count += h.count;
                sum_ns += h.sum;
            }
        }
        let prefix = format!("{name}_bucket{{");
        let mut cumulative: Vec<(f64, u64)> = Vec::new();
        for line in snap.render().lines().filter(|l| l.starts_with(&prefix)) {
            let Some(le) = line.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            let value: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            cumulative.push((bound, value));
        }
        let mut buckets = Vec::with_capacity(cumulative.len());
        let mut prev = 0;
        for (bound, cum) in cumulative {
            buckets.push((bound, cum.saturating_sub(prev)));
            prev = cum;
        }
        Hist {
            count,
            sum_ns,
            buckets,
        }
    }

    /// Observations made between `earlier` and `self`.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|&(bound, c)| {
                let before = earlier
                    .buckets
                    .iter()
                    .find(|(b, _)| *b == bound)
                    .map_or(0, |&(_, c)| c);
                (bound, c.saturating_sub(before))
            })
            .collect();
        Hist {
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            buckets,
        }
    }

    /// Merge another histogram of the same bucket layout into this one.
    pub fn add(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for &(bound, c) in &other.buckets {
            match self.buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some(slot) => slot.1 += c,
                None => self.buckets.push((bound, c)),
            }
        }
        self.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// Quantile in nanoseconds, interpolated linearly inside the bucket
    /// that holds the rank. Buckets are powers of two (`Registry::new`),
    /// and empty ones are not rendered, so a bucket's lower edge is half
    /// its upper one.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().map(|b| b.1).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = q * total as f64;
        let (mut seen, mut lower) = (0u64, 0.0f64);
        for &(bound, c) in &self.buckets {
            if c > 0 && (seen + c) as f64 >= rank {
                if !bound.is_finite() {
                    return lower;
                }
                let lower = lower.max(bound / 2.0);
                let within = (rank - seen as f64) / c as f64;
                return lower + (bound - lower) * within.clamp(0.0, 1.0);
            }
            seen += c;
            if bound.is_finite() {
                lower = bound;
            }
        }
        lower
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_its_bucket() {
        let registry = crowd4u_telemetry::Registry::new();
        let hist = registry.handle().histogram("h_ns");
        for _ in 0..10 {
            hist.observe(1000);
        }
        let h = Hist::read(&registry.snapshot(), "h_ns");
        assert_eq!(h.count, 10);
        let p50 = h.quantile_ns(0.5);
        assert!(p50 > 511.0 && p50 <= 1024.0, "{p50}");
        let none = h.since(&h);
        assert_eq!(none.count, 0);
        assert_eq!(none.quantile_ns(0.5), 0.0);
    }
}
