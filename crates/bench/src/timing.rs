//! Minimal wall-clock measurement helpers shared by the `experiments`
//! and `bench_report` binaries.

use std::time::{Duration, Instant};

/// Median per-iteration wall-clock time of `routine` over `samples`
/// timed samples, after calibrating the per-sample iteration count to
/// `budget`.
pub fn median_time<R>(
    samples: usize,
    budget: Duration,
    mut routine: impl FnMut() -> R,
) -> Duration {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        if start.elapsed() >= budget / 4 || iters >= 1 << 20 {
            break;
        }
        iters = (iters * 4).min(1 << 20);
    }
    let mut times: Vec<Duration> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX)
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_ordered() {
        let fast = median_time(3, Duration::from_millis(5), || 21u64 * 2);
        // black_box per element: a plain `(0..n).sum()` const-folds to its
        // closed form in release builds and measures as zero.
        let slow = median_time(3, Duration::from_millis(5), || {
            (0..20_000u64).fold(0, |a, x| a ^ std::hint::black_box(x))
        });
        assert!(fast <= slow, "{fast:?} vs {slow:?}");
        assert!(slow > Duration::ZERO);
    }
}
