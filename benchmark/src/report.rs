//! Output checks, the result digest, summary statistics and the result
//! line.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Counts attempted and failed operations, and folds every checked result
/// into an FNV-1a digest, so two runs at one seed can be compared bit for
/// bit.
#[derive(Debug, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    digest: u64,
}

impl Default for Checks {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Checks {
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Counts `n` operations as attempted.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records one failed operation or check.
    pub fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        eprintln!("[check] FAILED: {what}");
    }

    fn hash(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hash_u64(&mut self, v: u64) {
        self.hash(&v.to_le_bytes());
    }

    /// A BA or ASR: finite and within [0, 100].
    pub fn percent(&mut self, what: &str, v: f32) {
        self.hash(&v.to_bits().to_le_bytes());
        if !v.is_finite() || !(0.0..=100.0).contains(&v) {
            self.fail(format!("{what} = {v} is not a percentage"));
        }
    }

    /// A verdict score, threshold or other statistic: finite.
    pub fn finite(&mut self, what: &str, v: f32) {
        self.hash(&v.to_bits().to_le_bytes());
        if !v.is_finite() {
            self.fail(format!("{what} = {v} is not finite"));
        }
    }

    /// A table or grid with a known row count.
    pub fn rows(&mut self, what: &str, got: usize, want: usize) {
        self.hash_u64(got as u64);
        if got != want {
            self.fail(format!("{what} has {got} rows, expected {want}"));
        }
    }

    /// An operation that returned an error.
    pub fn result<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds another record's counts (the digest is kept).
    pub fn absorb_counts(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at percentile `100 (n − 10) / n`. With ten or fewer
/// samples no such percentile exists and the median (p50) stands in.
/// Returns `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= 10 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Metric values by name, with units.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.values.insert(name.into(), (unit, value));
    }

    /// The result line: exactly the metrics named in `names`, in that
    /// order. A missing or non-finite metric is a failed check.
    pub fn result_line(&self, names: &[(String, &'static str)], checks: &mut Checks) -> String {
        let mut body = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.values.get(name) {
                Some(&(u, v)) if u == *unit && v.is_finite() => v,
                Some(&(u, v)) => {
                    checks.fail(format!(
                        "metric {name} = {v} {u} (expected a finite value in {unit})"
                    ));
                    0.0
                }
                None => {
                    checks.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed,
            body.join(",")
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(&'static str, f64))> {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 75.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
    }

    #[test]
    fn digest_depends_on_every_value() {
        let mut a = Checks::default();
        let mut b = Checks::default();
        a.percent("x", 50.0);
        b.percent("x", 50.000_004);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.failed + b.failed, 0);
        a.percent("y", f32::NAN);
        assert_eq!(a.failed, 1);
    }
}
