//! Order statistics over raw samples. Every percentile the benchmark
//! reports is read off the sorted sample itself, never off a bucketed
//! histogram, so it carries its sample count and no quantisation error.

use std::time::Instant;

/// A latency summary: p50 and p99 from the raw samples, the sample count
/// and the highest percentile that still has at least ten samples beyond
/// it (the tail the sample actually supports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Samples summarised.
    pub count: usize,
    /// Highest percentile `q` (in percent) with `count · (1 − q/100) ≥ 10`;
    /// 0 when fewer than eleven samples exist.
    pub supported_pct: f64,
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values for even
/// counts).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Summarises a latency sample, sorting it in place.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentiles(values: &mut [f64]) -> Percentiles {
    values.sort_by(f64::total_cmp);
    let count = values.len();
    let supported_pct = if count > 10 {
        100.0 * (1.0 - 10.0 / count as f64)
    } else {
        0.0
    };
    Percentiles {
        p50: median(values),
        p99: quantile_sorted(values, 0.99),
        count,
        supported_pct,
    }
}

/// Latency samples summarised in consecutive passes over a workload's
/// script: a pass ends at its `ops`-th completion. Only the open pass's
/// raw samples are held, so the benchmark's own memory stays flat however
/// long it runs.
#[derive(Debug, Clone)]
pub struct Passes {
    ops: usize,
    last_end: Instant,
    last_at: Instant,
    open: Vec<f64>,
    count: usize,
    /// Wall seconds of each complete pass, from the previous pass's end.
    pub wall_s: Vec<f64>,
    /// Latency percentiles of each complete pass, µs.
    pub summaries: Vec<Percentiles>,
}

/// Cumulative CPU time the hypervisor took from this machine, in
/// `/proc/stat` ticks (0 where the kernel does not report it).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

impl Passes {
    /// Passes of `ops` completions, the first starting at `start`.
    pub fn new(ops: usize, start: Instant) -> Passes {
        let ops = ops.max(1);
        Passes {
            ops,
            last_end: start,
            last_at: start,
            open: Vec::with_capacity(ops),
            count: 0,
            wall_s: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// Records one completion `at` with its latency.
    pub fn record(&mut self, latency_us: f64, at: Instant) {
        self.open.push(latency_us);
        self.count += 1;
        self.last_at = self.last_at.max(at);
        if self.open.len() == self.ops {
            self.close();
        }
    }

    fn close(&mut self) {
        self.summaries.push(percentiles(&mut self.open));
        self.open.clear();
        self.wall_s
            .push(self.last_at.duration_since(self.last_end).as_secs_f64());
        self.last_end = self.last_at;
    }

    /// Completions recorded.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The complete passes only; a run too short to complete one keeps
    /// its partial pass, timed to its last completion.
    pub fn complete(mut self) -> Passes {
        if self.summaries.is_empty() && !self.open.is_empty() {
            self.close();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_support() {
        let mut v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p = percentiles(&mut v);
        assert_eq!(p.p50, 100.5);
        assert_eq!(p.p99, 198.0);
        assert_eq!(p.count, 200);
        assert!((p.supported_pct - 95.0).abs() < 1e-12);
        assert_eq!(percentiles(&mut [3.0]).supported_pct, 0.0);
    }
}
