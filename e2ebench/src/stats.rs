//! The benchmark's own arithmetic: percentiles under the ten-beyond
//! rule, span self time, and failure accounting.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles are given in basis points (9900 is p99), so ranks are
/// exact integers.
pub const BP: usize = 10_000;

/// The nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q_bp: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q_bp.min(BP) * sorted.len()).div_ceil(BP).max(1);
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q_bp`
/// percentile of `n` samples.
pub fn beyond(n: usize, q_bp: usize) -> usize {
    n - (q_bp.min(BP) * n).div_ceil(BP).max(1).min(n)
}

/// The highest percentile (in basis points) that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small for
/// any tail percentile.
pub fn highest_supported(n: usize) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    Some((n - MIN_BEYOND) * BP / n)
}

/// Median and one tail percentile of a sample, with its count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    /// The requested tail percentile in basis points, lowered to the
    /// highest one the sample supports.
    pub tail_bp: usize,
    pub tail: f64,
}

impl Dist {
    /// Summarises `samples`, reporting the `want_bp` tail or, when the
    /// sample is too small for it, the highest supported one.
    pub fn of(mut samples: Vec<f64>, want_bp: usize) -> Dist {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail_bp = highest_supported(n).map_or(5000, |max| want_bp.min(max));
        Dist {
            n,
            p50: percentile(&samples, 5000),
            tail_bp,
            tail: percentile(&samples, tail_bp),
        }
    }

    /// Whether the requested tail was reportable as asked.
    pub fn tail_is(&self, want_bp: usize) -> bool {
        self.tail_bp == want_bp
    }
}

/// A tail percentile robust to short stalls of the host: the sample (in
/// arrival order) is cut into as many consecutive windows as hold
/// `min_window` samples each, and the median of the windows' tails is
/// returned with the windows' own tails. With `min_window` of 1000 every
/// window's p99 has ten samples beyond it.
pub fn windowed_tail(samples: &[f64], want_bp: usize, min_window: usize) -> (f64, Vec<f64>) {
    let windows = (samples.len() / min_window.max(1)).max(1);
    let size = samples.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * size
            };
            Dist::of(samples[w * size..end].to_vec(), want_bp).tail
        })
        .collect();
    (median(&tails), tails)
}

/// The median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 5000)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A span's self time: its duration minus the part of its interval that
/// child spans cover. Children may overlap each other and may stick out
/// of the parent; only the union of their parts inside it is subtracted.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start;
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Failure accounting over every operation attempted: requests sent and
/// ingests started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Error frames other than overload refusals.
    pub errors: u64,
    /// `Overloaded` refusals.
    pub overloads: u64,
    /// Requests without a reply when their phase's drain deadline passed.
    pub timeouts: u64,
    /// Replies that differ from the reference answer.
    pub wrong: u64,
    /// Ingests that returned an error.
    pub failed_ingests: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.overloads + self.timeouts + self.wrong + self.failed_ingests
    }

    /// Failed operations over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_supported(1000), Some(9900));
        assert_eq!(beyond(1000, 9900), 10);
        assert!(highest_supported(999).unwrap() < 9900);
        assert!(beyond(999, 9900) < MIN_BEYOND);
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(11), Some(909));
        assert_eq!(beyond(11, 909), 10);
        for n in [11, 57, 999, 1000, 1234, 20_000] {
            let q = highest_supported(n).unwrap();
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n}");
            assert!(beyond(n, q + 1) < MIN_BEYOND || q + 1 > BP, "n={n} q={q}");
        }
    }

    #[test]
    fn dist_lowers_the_tail_to_what_the_sample_supports() {
        let big = Dist::of((1..=2000).map(f64::from).collect(), 9900);
        assert!(big.tail_is(9900));
        assert_eq!(big.p50, 1000.0);
        assert_eq!(big.tail, 1980.0);
        let small = Dist::of((1..=500).map(f64::from).collect(), 9900);
        assert!(!small.tail_is(9900));
        assert_eq!(small.tail_bp, 9800);
        assert_eq!(small.tail, 490.0);
        assert_eq!(beyond(500, small.tail_bp), 10);
    }

    #[test]
    fn windowed_tail_shrugs_off_a_stall_in_one_window() {
        // Five windows of 1000 samples; one window holds a stall.
        let mut samples: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut samples[2000..2100] {
            *x = 1e6;
        }
        let (tail, windows) = windowed_tail(&samples, 9900, 1000);
        assert_eq!(windows.len(), 5);
        assert_eq!(windows[2], 1e6);
        assert_eq!(tail, 989.0);
        // Too few samples for two windows: one window, the plain tail.
        let (one, w) = windowed_tail(&samples[..1500], 9900, 1000);
        assert_eq!(w.len(), 1);
        assert_eq!(one, Dist::of(samples[..1500].to_vec(), 9900).tail);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..50 overlap (union 10..50),
        // 45..60 overlaps the second, 90..130 sticks out of the parent.
        let children = [(10, 40), (30, 50), (45, 60), (90, 130)];
        assert_eq!(self_time((0, 100), &children), 100 - 50 - 10);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
        assert_eq!(self_time((50, 60), &[(0, 10), (70, 80)]), 10);
    }

    #[test]
    fn fail_frac_counts_every_kind_of_failure_once() {
        let t = Tally {
            attempted: 200,
            errors: 1,
            overloads: 2,
            timeouts: 3,
            wrong: 4,
            failed_ingests: 10,
        };
        assert_eq!(t.failed(), 20);
        assert!((t.fail_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let clean = Tally {
            attempted: 7,
            ..Tally::default()
        };
        assert_eq!(clean.fail_frac(), 0.0);
    }
}
