//! Preference intensity: the scalar that unifies the two preference models.
//!
//! Definition 13 of the dissertation: intensity is a value in `[-1, 1]` —
//! negative for dislike, `0` for indifference (quantitative) or equal
//! preference (qualitative), positive for liking. Qualitative edges carry
//! an intensity in `[0, 1]` (a signed value is normalised by swapping the
//! edge's direction, Proposition 7).
//!
//! This module implements:
//!
//! * the validated [`Intensity`] and [`QualIntensity`] newtypes,
//! * the propagation functions of Eq. 4.1/4.2 (`Intensity_Left`,
//!   `Intensity_Right`) wrapped in Algorithm 8 ([`IntensityModel::propagate`]),
//! * a linear alternative propagation model — §4.4 notes the exponential
//!   pair is "one example of such functions"; the ablation bench compares
//!   the two, and
//! * the `DEFAULT_VALUE` selection strategies of Table 12
//!   ([`DefaultValueStrategy`]).

use crate::error::{HypreError, Result};

/// A quantitative preference intensity in `[-1, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Intensity(f64);

impl Intensity {
    /// The strongest positive intensity.
    pub const MAX: Intensity = Intensity(1.0);
    /// The strongest negative intensity (complete dislike).
    pub const MIN: Intensity = Intensity(-1.0);
    /// Indifference.
    pub const ZERO: Intensity = Intensity(0.0);

    /// Validates and wraps a value.
    ///
    /// # Errors
    /// [`HypreError::IntensityOutOfRange`] if `v` is NaN or outside
    /// `[-1, 1]`.
    pub fn new(v: f64) -> Result<Self> {
        if v.is_nan() || !(-1.0..=1.0).contains(&v) {
            return Err(HypreError::IntensityOutOfRange(v));
        }
        Ok(Intensity(v))
    }

    /// Wraps a value, clamping it into `[-1, 1]` (NaN becomes `0`).
    pub fn saturating(v: f64) -> Self {
        if v.is_nan() {
            Intensity(0.0)
        } else {
            Intensity(v.clamp(-1.0, 1.0))
        }
    }

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for Intensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// A qualitative preference strength in `[0, 1]` — the label on a
/// `PREFERS` edge. `0` means the two sides are equally preferred.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct QualIntensity(f64);

impl QualIntensity {
    /// Equal preference.
    pub const ZERO: QualIntensity = QualIntensity(0.0);

    /// Validates and wraps a value.
    ///
    /// # Errors
    /// [`HypreError::QualIntensityOutOfRange`] if `v` is NaN or outside
    /// `[0, 1]`.
    pub fn new(v: f64) -> Result<Self> {
        if v.is_nan() || !(0.0..=1.0).contains(&v) {
            return Err(HypreError::QualIntensityOutOfRange(v));
        }
        Ok(QualIntensity(v))
    }

    /// The raw value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for QualIntensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// Which endpoint of a qualitative edge Algorithm 8 is computing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// The preferred (source) node — its intensity must end up ≥ the right's.
    Left,
    /// The less-preferred (target) node.
    Right,
}

/// A propagation model turning a known quantitative intensity plus a
/// qualitative edge strength into the unknown endpoint's intensity.
///
/// The dissertation requires (§4.4) any such pair of functions to satisfy:
///
/// 1. `left(ql, qt) ≥ qt` and 2. `right(ql, qt) ≤ qt`;
/// 3. `ql = 0` ⇒ the computed value equals the seed `qt`, and the gap grows
///    with `ql`;
/// 4. results stay inside `[-1, 1]`.
///
/// [`IntensityModel::Exponential`] is the dissertation's Eq. 4.1/4.2;
/// [`IntensityModel::Linear`] is an alternative satisfying the same axioms,
/// used by the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntensityModel {
    /// Eq. 4.1: `left = min(1, qt · 2^(sign(qt)·ql))`;
    /// Eq. 4.2: `right = max(-1, qt · 2^(−sign(qt)·ql))`.
    #[default]
    Exponential,
    /// `left = min(1, qt + ql·(1−qt))`, `right = max(−1, qt − ql·(qt+1))`:
    /// moves a `ql`-fraction of the way towards the cap.
    Linear,
}

impl IntensityModel {
    /// Algorithm 8: computes the intensity for the node at `position`,
    /// given the edge strength `ql` and the known opposite intensity `qt`.
    pub fn propagate(self, position: Position, ql: QualIntensity, qt: Intensity) -> Intensity {
        let (ql, qt) = (ql.0, qt.0);
        let v = match (self, position) {
            (IntensityModel::Exponential, Position::Left) => {
                (qt * 2f64.powf(sign(qt) * ql)).min(1.0)
            }
            (IntensityModel::Exponential, Position::Right) => {
                (qt * 2f64.powf(-sign(qt) * ql)).max(-1.0)
            }
            (IntensityModel::Linear, Position::Left) => (qt + ql * (1.0 - qt)).min(1.0),
            (IntensityModel::Linear, Position::Right) => (qt - ql * (qt + 1.0)).max(-1.0),
        };
        Intensity::saturating(v)
    }
}

/// The dissertation defines `sign` with `sign(0) = 1` implicitly (a zero
/// seed must stay zero either way, so the choice is unobservable for the
/// exponential model; we pin it for determinism).
fn sign(v: f64) -> f64 {
    if v < 0.0 {
        -1.0
    } else {
        1.0
    }
}

/// How the system seeds an intensity when a qualitative preference connects
/// two nodes neither of which has a quantitative value yet (Scenario 3 of
/// §6.3, Table 12).
///
/// The per-user aggregate strategies fall back to the tabulated constants
/// when no stored intensity satisfies their side condition, or (for `Avg`)
/// when the aggregate degenerates to `1` — "if this value is one, all
/// values computed with this seed will be equal to one".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefaultValueStrategy {
    /// A fixed seed, `0.5` in the dissertation's `default` row.
    Fixed(f64),
    /// Minimum over all of the user's stored intensities.
    Min,
    /// Minimum over the non-negative stored intensities (fallback `0`).
    MinPositive,
    /// Maximum over all stored intensities.
    Max,
    /// Maximum over stored intensities in `[0, 1)` (fallback `0`).
    MaxPositive,
    /// Average over all stored intensities (fallback `0.98` when empty or
    /// when the average is `1`).
    Avg,
    /// Average over the non-negative stored intensities (fallback `0`).
    AvgPositive,
}

impl Default for DefaultValueStrategy {
    fn default() -> Self {
        DefaultValueStrategy::Fixed(0.5)
    }
}

impl DefaultValueStrategy {
    /// Computes the seed from the user's existing intensity values.
    pub fn seed(self, existing: &[f64]) -> Intensity {
        let v = match self {
            DefaultValueStrategy::Fixed(v) => v,
            DefaultValueStrategy::Min => fold(existing.iter().copied(), f64::min).unwrap_or(0.0),
            DefaultValueStrategy::MinPositive => {
                fold(existing.iter().copied().filter(|&v| v >= 0.0), f64::min).unwrap_or(0.0)
            }
            DefaultValueStrategy::Max => fold(existing.iter().copied(), f64::max).unwrap_or(0.0),
            DefaultValueStrategy::MaxPositive => fold(
                existing
                    .iter()
                    .copied()
                    .filter(|&v| (0.0..1.0).contains(&v)),
                f64::max,
            )
            .unwrap_or(0.0),
            DefaultValueStrategy::Avg => {
                let avg = mean(existing.iter().copied());
                match avg {
                    Some(a) if a < 1.0 => a,
                    _ => 0.98,
                }
            }
            DefaultValueStrategy::AvgPositive => {
                mean(existing.iter().copied().filter(|&v| v >= 0.0)).unwrap_or(0.0)
            }
        };
        Intensity::saturating(v)
    }

    /// The seven strategies of Table 12, in table order.
    pub fn table12() -> [DefaultValueStrategy; 7] {
        [
            DefaultValueStrategy::Fixed(0.5),
            DefaultValueStrategy::Min,
            DefaultValueStrategy::MinPositive,
            DefaultValueStrategy::Max,
            DefaultValueStrategy::MaxPositive,
            DefaultValueStrategy::Avg,
            DefaultValueStrategy::AvgPositive,
        ]
    }

    /// The Table 12 row label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DefaultValueStrategy::Fixed(_) => "default",
            DefaultValueStrategy::Min => "min",
            DefaultValueStrategy::MinPositive => "min_pos",
            DefaultValueStrategy::Max => "max",
            DefaultValueStrategy::MaxPositive => "max_pos",
            DefaultValueStrategy::Avg => "avg",
            DefaultValueStrategy::AvgPositive => "avg_pos",
        }
    }
}

fn fold(iter: impl Iterator<Item = f64>, f: fn(f64, f64) -> f64) -> Option<f64> {
    iter.reduce(f)
}

fn mean(iter: impl Iterator<Item = f64>) -> Option<f64> {
    let mut n = 0usize;
    let mut sum = 0.0;
    for v in iter {
        n += 1;
        sum += v;
    }
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qt(v: f64) -> Intensity {
        Intensity::new(v).unwrap()
    }

    fn ql(v: f64) -> QualIntensity {
        QualIntensity::new(v).unwrap()
    }

    #[test]
    fn newtype_validation() {
        assert!(Intensity::new(0.5).is_ok());
        assert!(Intensity::new(-1.0).is_ok());
        assert!(Intensity::new(1.0).is_ok());
        assert!(Intensity::new(1.01).is_err());
        assert!(Intensity::new(f64::NAN).is_err());
        assert!(QualIntensity::new(0.0).is_ok());
        assert!(QualIntensity::new(-0.1).is_err());
        assert!(QualIntensity::new(1.1).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Intensity::saturating(2.0).value(), 1.0);
        assert_eq!(Intensity::saturating(-2.0).value(), -1.0);
        assert_eq!(Intensity::saturating(f64::NAN).value(), 0.0);
    }

    #[test]
    fn exponential_left_grows_and_caps() {
        let m = IntensityModel::Exponential;
        // 0.4 * 2^0.5 ≈ 0.5657
        let v = m.propagate(Position::Left, ql(0.5), qt(0.4)).value();
        assert!((v - 0.4 * 2f64.powf(0.5)).abs() < 1e-12);
        // caps at 1
        assert_eq!(m.propagate(Position::Left, ql(1.0), qt(0.9)).value(), 1.0);
    }

    #[test]
    fn exponential_right_shrinks_and_floors() {
        let m = IntensityModel::Exponential;
        let v = m.propagate(Position::Right, ql(0.5), qt(0.4)).value();
        assert!((v - 0.4 * 2f64.powf(-0.5)).abs() < 1e-12);
        assert!(v < 0.4);
        // a negative seed moves further negative, flooring at -1
        let v = m.propagate(Position::Right, ql(1.0), qt(-0.9)).value();
        assert_eq!(v, -1.0);
    }

    #[test]
    fn zero_edge_strength_preserves_seed() {
        for m in [IntensityModel::Exponential, IntensityModel::Linear] {
            for seed in [-0.7, 0.0, 0.3, 1.0] {
                assert_eq!(
                    m.propagate(Position::Left, ql(0.0), qt(seed)).value(),
                    seed,
                    "{m:?} left seed {seed}"
                );
                assert_eq!(
                    m.propagate(Position::Right, ql(0.0), qt(seed)).value(),
                    seed,
                    "{m:?} right seed {seed}"
                );
            }
        }
    }

    #[test]
    fn left_dominates_right_for_both_models() {
        for m in [IntensityModel::Exponential, IntensityModel::Linear] {
            for seed in [-0.9, -0.2, 0.0, 0.2, 0.9] {
                for strength in [0.1, 0.5, 1.0] {
                    let l = m.propagate(Position::Left, ql(strength), qt(seed)).value();
                    let r = m.propagate(Position::Right, ql(strength), qt(seed)).value();
                    assert!(l >= seed, "{m:?} left {l} >= seed {seed}");
                    assert!(r <= seed, "{m:?} right {r} <= seed {seed}");
                    assert!((-1.0..=1.0).contains(&l));
                    assert!((-1.0..=1.0).contains(&r));
                }
            }
        }
    }

    #[test]
    fn negative_seed_left_moves_towards_zero_exponential() {
        // sign(qt) = -1: left = qt * 2^(-ql) which is *less negative*.
        let m = IntensityModel::Exponential;
        let v = m.propagate(Position::Left, ql(0.5), qt(-0.4)).value();
        assert!(v > -0.4 && v < 0.0, "{v}");
    }

    #[test]
    fn default_strategy_table12_rows() {
        let vals = [0.3, -0.2, 0.9, 0.0];
        assert_eq!(DefaultValueStrategy::Fixed(0.5).seed(&vals).value(), 0.5);
        assert_eq!(DefaultValueStrategy::Min.seed(&vals).value(), -0.2);
        assert_eq!(DefaultValueStrategy::MinPositive.seed(&vals).value(), 0.0);
        assert_eq!(DefaultValueStrategy::Max.seed(&vals).value(), 0.9);
        assert_eq!(DefaultValueStrategy::MaxPositive.seed(&vals).value(), 0.9);
        let avg = DefaultValueStrategy::Avg.seed(&vals).value();
        assert!((avg - 0.25).abs() < 1e-12);
        let avg_pos = DefaultValueStrategy::AvgPositive.seed(&vals).value();
        assert!((avg_pos - 0.4).abs() < 1e-12);
    }

    #[test]
    fn default_strategy_fallbacks() {
        // no values at all
        assert_eq!(DefaultValueStrategy::Min.seed(&[]).value(), 0.0);
        assert_eq!(DefaultValueStrategy::Avg.seed(&[]).value(), 0.98);
        // avg degenerating to 1 falls back to 0.98
        assert_eq!(DefaultValueStrategy::Avg.seed(&[1.0, 1.0]).value(), 0.98);
        // max_pos excludes exact 1.0 values
        assert_eq!(DefaultValueStrategy::MaxPositive.seed(&[1.0]).value(), 0.0);
        // min_pos with only negatives
        assert_eq!(DefaultValueStrategy::MinPositive.seed(&[-0.5]).value(), 0.0);
    }

    #[test]
    fn table12_labels() {
        let labels: Vec<_> = DefaultValueStrategy::table12()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(
            labels,
            vec!["default", "min", "min_pos", "max", "max_pos", "avg", "avg_pos"]
        );
    }
}
