//! The scheduler's simulated results: deterministic for a given seed,
//! so a performance change must leave them bit-identical.

use obs::Histogram;
use sim::Metrics;

/// Simulated outcome of one pass, summed over shards.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    pub arrivals: u64,
    pub served: u64,
    pub late: u64,
    pub dropped: u64,
    pub failed: u64,
    pub sheds: u64,
    pub rejected: u64,
    pub migrated: u64,
    pub inversions: u64,
    pub seek_us: u64,
    pub max_response_us: u64,
    pub response_us: Histogram,
}

impl SimSummary {
    pub fn new(
        per_shard: &[Metrics],
        arrivals: u64,
        sheds: u64,
        rejected: u64,
        migrated: u64,
        response_us: Histogram,
    ) -> Self {
        let total = Metrics::merged(per_shard);
        SimSummary {
            arrivals,
            served: total.served,
            late: total.late,
            dropped: total.dropped,
            failed: total.failed,
            sheds,
            rejected,
            migrated,
            inversions: total.inversions_total(),
            seek_us: total.seek_us,
            max_response_us: total.max_response_us,
            response_us,
        }
    }

    /// Arrivals in no terminal ledger bucket (0 when the ledger closes).
    pub fn unaccounted(&self) -> u64 {
        let accounted =
            self.served + self.dropped + self.failed + self.sheds + self.rejected + self.migrated;
        self.arrivals.abs_diff(accounted)
    }

    /// Late, dropped, shed, admission-rejected or failed, over arrivals.
    pub fn miss_ratio(&self) -> f64 {
        let missed = self.late + self.dropped + self.sheds + self.rejected + self.failed;
        missed as f64 / self.arrivals.max(1) as f64
    }

    pub fn response_ms(&self, q: f64) -> f64 {
        interpolated_quantile(&self.response_us, q) / 1e3
    }

    pub fn inversions_per_served(&self) -> f64 {
        self.inversions as f64 / self.served.max(1) as f64
    }

    pub fn seek_ms_per_served(&self) -> f64 {
        self.seek_us as f64 / 1e3 / self.served.max(1) as f64
    }
}

/// Nearest-rank quantile of a log₂ histogram, placed linearly inside its
/// bucket by rank. The histogram's own quantile reports the bucket's
/// upper bound, which moves only in factors of two; interpolating keeps
/// the value deterministic while letting it move with the data.
pub fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            let lo = lo.clamp(min, max) as f64;
            let hi = Histogram::bucket_high(i).clamp(min, max) as f64;
            let frac = (rank - seen) as f64 / c as f64;
            return lo + frac * (hi - lo);
        }
        seen += c;
    }
    max as f64
}
