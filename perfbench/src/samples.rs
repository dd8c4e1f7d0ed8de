//! Bounded duration samples with exact nearest-rank percentiles.

/// Nanosecond durations, kept exactly up to a fixed capacity and by seeded
/// reservoir sampling beyond it. The buffer is allocated and written once
/// up front, so a run's memory high-water mark does not depend on how many
/// requests it completes.
pub struct Samples {
    buf: Vec<u32>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Samples {
    /// A store holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            // Filled (not zero-initialized) so every page is resident now.
            buf: vec![u32::MAX; capacity.max(1)],
            len: 0,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Records one duration (saturating at `u32::MAX` ns, about 4.3 s).
    pub fn push(&mut self, nanos: u64) {
        let value = u32::try_from(nanos).unwrap_or(u32::MAX);
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = value;
            self.len += 1;
            return;
        }
        // Algorithm R: keep the new sample with probability capacity/seen.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if let Ok(slot) = usize::try_from(slot) {
            if slot < self.buf.len() {
                self.buf[slot] = value;
            }
        }
    }

    /// Forgets every sample, keeping the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
        self.seen = 0;
    }

    /// Durations recorded (including those the reservoir dropped).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank percentile in nanoseconds (`q` in `(0, 1]`); 0 when
    /// nothing was recorded.
    pub fn percentile_ns(&mut self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let kept = &mut self.buf[..self.len];
        let rank = ((q * kept.len() as f64).ceil() as usize).clamp(1, kept.len()) - 1;
        let (_, value, _) = kept.select_nth_unstable(rank);
        f64::from(*value)
    }

    /// Median in nanoseconds.
    pub fn median_ns(&mut self) -> f64 {
        self.percentile_ns(0.5)
    }
}

/// Median of a non-empty list of values (mean of the middle pair for an even
/// count); 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut samples = Samples::new(16);
        for nanos in 1..=10 {
            samples.push(nanos);
        }
        assert_eq!(samples.median_ns(), 5.0);
        assert_eq!(samples.percentile_ns(0.99), 10.0);
        assert_eq!(samples.count(), 10);
    }

    #[test]
    fn the_reservoir_stays_bounded() {
        let mut samples = Samples::new(8);
        for nanos in 0..1000 {
            samples.push(nanos);
        }
        assert_eq!(samples.count(), 1000);
        assert!(samples.median_ns() < 1000.0);
    }

    #[test]
    fn median_of_even_lists_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
