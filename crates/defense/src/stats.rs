//! Robust statistics shared by the defenses: median, MAD, and the
//! MAD-based anomaly index used by Neural Cleanse and Beatrix.
//!
//! Every statistic sorts inside a caller-provided scratch vector, so it
//! performs no heap allocation once the scratch has grown to the
//! population size (`sort_unstable_by` sorts in place, and `total_cmp` is
//! a total order, so the sorted sequence — and every statistic — is
//! deterministic).

/// Sorts `scratch` in place and returns its median.
fn sorted_median(scratch: &mut [f32]) -> f32 {
    scratch.sort_unstable_by(f32::total_cmp);
    let n = scratch.len();
    if n % 2 == 1 {
        scratch[n / 2]
    } else {
        0.5 * (scratch[n / 2 - 1] + scratch[n / 2])
    }
}

/// Median of a slice (mean of the two central elements for even lengths),
/// sorted inside `scratch`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn median(values: &[f32], scratch: &mut Vec<f32>) -> f32 {
    assert!(!values.is_empty(), "median of an empty slice");
    scratch.clear();
    scratch.extend_from_slice(values);
    sorted_median(scratch)
}

/// Median absolute deviation (not yet scaled for normal consistency),
/// computing both medians inside `scratch`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn mad(values: &[f32], scratch: &mut Vec<f32>) -> f32 {
    let med = median(values, scratch);
    scratch.clear();
    scratch.extend(values.iter().map(|v| (v - med).abs()));
    sorted_median(scratch)
}

/// Normal-consistency constant for the MAD (`σ ≈ 1.4826 · MAD`).
pub(crate) const MAD_CONSISTENCY: f32 = 1.4826;

/// MAD-based anomaly index of `value` within the population `values`:
/// `|value − median| / (1.4826 · MAD)`, computing its medians inside
/// `scratch`.
///
/// Returns 0 when the population has zero spread and `value` equals the
/// median, and a large finite index when the spread is zero but the value
/// deviates (degenerate populations still flag true outliers).
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn anomaly_index(value: f32, values: &[f32], scratch: &mut Vec<f32>) -> f32 {
    let med = median(values, scratch);
    let spread = MAD_CONSISTENCY * mad(values, scratch);
    let dev = (value - med).abs();
    if spread > 1e-12 {
        dev / spread
    } else if dev > 1e-12 {
        1e6
    } else {
        0.0
    }
}

/// `q`-quantile (linear interpolation) of a slice, `q ∈ [0, 1]`, sorted
/// inside `scratch`.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
pub(crate) fn quantile(values: &[f32], q: f32, scratch: &mut Vec<f32>) -> f32 {
    assert!(!values.is_empty(), "quantile of an empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile level must be in [0, 1], got {q}"
    );
    scratch.clear();
    scratch.extend_from_slice(values);
    scratch.sort_unstable_by(f32::total_cmp);
    let pos = q * (scratch.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let t = pos - lo as f32;
    scratch[lo] * (1.0 - t) + scratch[hi] * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        let s = &mut Vec::new();
        assert_eq!(median(&[3.0, 1.0, 2.0], s), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0], s), 2.5);
        assert_eq!(median(&[5.0], s), 5.0);
    }

    #[test]
    fn mad_of_symmetric_data() {
        let s = &mut Vec::new();
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0], s), 1.0);
        assert_eq!(mad(&[7.0, 7.0, 7.0], s), 0.0);
    }

    #[test]
    fn anomaly_index_flags_outliers() {
        let s = &mut Vec::new();
        let pop = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02];
        assert!(anomaly_index(1.0, &pop, s) < 1.0);
        assert!(
            anomaly_index(3.0, &pop, s) > 2.0,
            "clear outlier must exceed threshold"
        );
    }

    #[test]
    fn anomaly_index_degenerate_population() {
        let s = &mut Vec::new();
        let pop = [2.0, 2.0, 2.0];
        assert_eq!(anomaly_index(2.0, &pop, s), 0.0);
        assert!(anomaly_index(5.0, &pop, s) > 100.0);
    }

    #[test]
    fn quantile_endpoints_and_interpolation() {
        let s = &mut Vec::new();
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0, s), 10.0);
        assert_eq!(quantile(&v, 1.0, s), 40.0);
        assert_eq!(quantile(&v, 0.5, s), 25.0);
        assert!((quantile(&v, 0.01, s) - 10.3).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        median(&[], &mut Vec::new());
    }
}
