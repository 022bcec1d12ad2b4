//! Streaming accumulators: fixed-range histograms and moment sums that
//! merge **associatively and in deterministic order**.
//!
//! The fleet engine accumulates per chunk and merges chunk accumulators in
//! chunk-index order, so every derived statistic (mean, deviation,
//! quantile, yield) is a pure function of `(spec, seed, chunk size)` — the
//! worker count and scheduling order cannot perturb a single bit.

use crate::error::FleetError;

/// Bins per histogram. Fixed (not configurable) so checkpoint layouts and
/// fingerprints stay stable.
pub const HIST_BINS: usize = 512;

/// A fixed-range histogram with explicit under/overflow counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    /// Samples below `lo`.
    pub below: u64,
    /// Samples at/above `hi` (NaN counts here too, defensively).
    pub above: u64,
    /// [`HIST_BINS`] equal-width bin counts.
    pub bins: Vec<u64>,
}

impl Histogram {
    /// An empty histogram over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Histogram {
            lo,
            hi,
            below: 0,
            above: 0,
            bins: vec![0; HIST_BINS],
        }
    }

    /// Lower edge of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v < self.lo {
            self.below += 1;
        } else if v < self.hi {
            let w = (self.hi - self.lo) / HIST_BINS as f64;
            let idx = (((v - self.lo) / w) as usize).min(HIST_BINS - 1);
            self.bins[idx] += 1;
        } else {
            // At/above the top edge — and NaN, which fails both compares.
            self.above += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.below + self.above + self.bins.iter().sum::<u64>()
    }

    /// Adds `other`'s counts into this histogram.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Internal`] when the ranges differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), FleetError> {
        if self.lo.to_bits() != other.lo.to_bits() || self.hi.to_bits() != other.hi.to_bits() {
            return Err(FleetError::Internal(
                "merging histograms with different ranges".to_owned(),
            ));
        }
        self.below += other.below;
        self.above += other.above;
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        Ok(())
    }

    /// The `p`-quantile by linear interpolation within the containing bin.
    ///
    /// Underflow mass resolves to `lo`, overflow mass to `hi`, so the
    /// result is always finite and monotone non-decreasing in `p`. Returns
    /// `lo` for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return self.lo;
        }
        let p = p.clamp(0.0, 1.0);
        let target = p * total as f64;
        let mut cum = self.below as f64;
        if cum >= target && self.below > 0 {
            return self.lo;
        }
        let w = (self.hi - self.lo) / HIST_BINS as f64;
        for (i, &b) in self.bins.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let next = cum + b as f64;
            if next >= target {
                let frac = ((target - cum) / b as f64).clamp(0.0, 1.0);
                return self.lo + w * (i as f64 + frac);
            }
            cum = next;
        }
        self.hi
    }

    fn push_words(&self, out: &mut Vec<u64>) {
        out.push(self.below);
        out.push(self.above);
        out.extend_from_slice(&self.bins);
    }

    fn pull_words(&mut self, words: &mut impl Iterator<Item = u64>) -> Option<()> {
        self.below = words.next()?;
        self.above = words.next()?;
        for b in self.bins.iter_mut() {
            *b = words.next()?;
        }
        Some(())
    }
}

/// Running first and second moments (plain sums: merged in fixed order,
/// bit-deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    /// Sample count.
    pub count: u64,
    /// Σx.
    pub sum: f64,
    /// Σx².
    pub sum_sq: f64,
}

impl Moments {
    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// Adds `other` into this accumulator.
    pub fn merge(&mut self, other: &Moments) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (n divisor, 0 when empty).
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }
}

/// Per-evaluation-time accumulator: delay-degradation histogram, moments,
/// and the within-guardband count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeAccum {
    /// Delay-degradation-fraction histogram over [`FRAC_LO`, `FRAC_HI`).
    pub frac: Histogram,
    /// Moments of the degradation fraction.
    pub moments: Moments,
    /// Samples whose degradation stayed within the guardband.
    pub ok: u64,
}

/// Degradation-fraction histogram range (0 % – 50 % delay growth).
pub const FRAC_LO: f64 = 0.0;
/// Upper edge of the degradation-fraction histogram.
pub const FRAC_HI: f64 = 0.5;
/// Lifetime histogram range in `log10(seconds)`: 1 s … 10^14 s.
pub const LIFE_LOG10_LO: f64 = 0.0;
/// Upper edge of the lifetime histogram (`log10` seconds).
pub const LIFE_LOG10_HI: f64 = 14.0;

impl TimeAccum {
    fn new() -> Self {
        TimeAccum {
            frac: Histogram::new(FRAC_LO, FRAC_HI),
            moments: Moments::default(),
            ok: 0,
        }
    }
}

/// Everything one chunk of samples contributes: per-time accumulators plus
/// the projected-lifetime histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkAccum {
    /// Samples folded into this accumulator.
    pub samples: u64,
    /// One accumulator per evaluation time, in spec order.
    pub per_time: Vec<TimeAccum>,
    /// Histogram of `log10(projected failure time in seconds)`.
    pub lifetime_log10: Histogram,
}

impl ChunkAccum {
    /// An empty accumulator for `times` evaluation points.
    pub fn new(times: usize) -> Self {
        ChunkAccum {
            samples: 0,
            per_time: (0..times).map(|_| TimeAccum::new()).collect(),
            lifetime_log10: Histogram::new(LIFE_LOG10_LO, LIFE_LOG10_HI),
        }
    }

    /// Folds `other` into this accumulator (callers merge in chunk order).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Internal`] on a layout mismatch.
    pub fn merge(&mut self, other: &ChunkAccum) -> Result<(), FleetError> {
        if self.per_time.len() != other.per_time.len() {
            return Err(FleetError::Internal(
                "merging chunk accumulators with different layouts".to_owned(),
            ));
        }
        self.samples += other.samples;
        for (a, b) in self.per_time.iter_mut().zip(&other.per_time) {
            a.frac.merge(&b.frac)?;
            a.moments.merge(&b.moments);
            a.ok += b.ok;
        }
        self.lifetime_log10.merge(&other.lifetime_log10)
    }

    /// Packs the accumulator into `u64` words (floats as IEEE-754 bits) —
    /// the checkpoint wire format, exact by construction.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 + self.per_time.len() * (HIST_BINS + 6) + HIST_BINS + 2);
        out.push(self.samples);
        for t in &self.per_time {
            t.frac.push_words(&mut out);
            out.push(t.moments.count);
            out.push(t.moments.sum.to_bits());
            out.push(t.moments.sum_sq.to_bits());
            out.push(t.ok);
        }
        self.lifetime_log10.push_words(&mut out);
        out
    }

    /// Rebuilds an accumulator for `times` evaluation points from its word
    /// encoding. `None` when the word count does not match the layout.
    pub fn from_words(times: usize, words: &[u64]) -> Option<Self> {
        let expect = 1 + times * (HIST_BINS + 2 + 4) + HIST_BINS + 2;
        if words.len() != expect {
            return None;
        }
        let mut it = words.iter().copied();
        let mut acc = ChunkAccum::new(times);
        acc.samples = it.next()?;
        for t in acc.per_time.iter_mut() {
            t.frac.pull_words(&mut it)?;
            t.moments.count = it.next()?;
            t.moments.sum = f64::from_bits(it.next()?);
            t.moments.sum_sq = f64::from_bits(it.next()?);
            t.ok = it.next()?;
        }
        acc.lifetime_log10.pull_words(&mut it)?;
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new(0.0, 1.0);
        let mut x = 0.013_f64;
        for _ in 0..10_000 {
            x = (x * 997.0 + 0.119).fract();
            h.record(x);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at p={}", i as f64 / 100.0);
            assert!((0.0..=1.0).contains(&q));
            prev = q;
        }
        // Roughly uniform data: the median sits near 0.5.
        assert!((h.quantile(0.5) - 0.5).abs() < 0.05);
    }

    #[test]
    fn histogram_routes_out_of_range_mass() {
        let mut h = Histogram::new(0.0, 1.0);
        h.record(-1.0);
        h.record(2.0);
        h.record(f64::NAN);
        h.record(0.25);
        assert_eq!(h.below, 1);
        assert_eq!(h.above, 2);
        assert_eq!(h.count(), 4);
        assert!(h.merge(&Histogram::new(0.0, 2.0)).is_err());
    }

    #[test]
    fn moments_match_direct_computation() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let mut m = Moments::default();
        for v in vals {
            m.record(v);
        }
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert!((m.std_dev() - (1.25_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn chunk_accum_words_round_trip_exactly() {
        let mut acc = ChunkAccum::new(3);
        let mut rng = crate::SplitMix64::new(9);
        for _ in 0..500 {
            acc.samples += 1;
            for t in acc.per_time.iter_mut() {
                let v = rng.next_f64() * 0.2;
                t.frac.record(v);
                t.moments.record(v);
                if v < 0.1 {
                    t.ok += 1;
                }
            }
            acc.lifetime_log10.record(rng.next_f64() * 14.0);
        }
        let words = acc.to_words();
        let back = ChunkAccum::from_words(3, &words).expect("layout matches");
        assert_eq!(acc, back);
        assert!(ChunkAccum::from_words(2, &words).is_none());
        assert!(ChunkAccum::from_words(3, &words[1..]).is_none());
    }

    #[test]
    fn merge_is_order_sensitive_only_in_float_sums() {
        // Counts merge associatively; merging A into B equals B into A for
        // every integer series (the engine still fixes the order so float
        // sums are reproducible too).
        let mut a = ChunkAccum::new(1);
        let mut b = ChunkAccum::new(1);
        a.samples = 3;
        b.samples = 4;
        a.per_time[0].frac.record(0.1);
        b.per_time[0].frac.record(0.2);
        let mut ab = a.clone();
        ab.merge(&b).expect("layouts match");
        let mut ba = b.clone();
        ba.merge(&a).expect("layouts match");
        assert_eq!(ab.samples, ba.samples);
        assert_eq!(ab.per_time[0].frac, ba.per_time[0].frac);
    }
}
