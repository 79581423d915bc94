//! Shot counts, probability distributions and statistical distances.

use std::collections::BTreeMap;
use std::fmt;

/// Formats a classical-register readout as a bitstring with the highest
/// classical bit leftmost (`c[n-1] ... c[0]`), following the convention of
/// IBM's tooling so results can be compared side by side with the paper's.
#[must_use]
pub fn bitstring(bits: &[bool]) -> String {
    bits.iter()
        .rev()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// Aggregated shot outcomes keyed by bitstring.
///
/// # Examples
///
/// ```
/// use qsim::Counts;
/// let mut counts = Counts::new();
/// counts.record("01");
/// counts.record("01");
/// counts.record("10");
/// assert_eq!(counts.total(), 3);
/// assert_eq!(counts.get("01"), 2);
/// assert_eq!(counts.most_frequent().unwrap(), "01");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    map: BTreeMap<String, u64>,
}

impl Counts {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation of `key`.
    pub fn record(&mut self, key: impl Into<String>) {
        *self.map.entry(key.into()).or_insert(0) += 1;
    }

    /// Adds `n` observations of `key`.
    pub fn record_n(&mut self, key: impl Into<String>, n: u64) {
        *self.map.entry(key.into()).or_insert(0) += n;
    }

    /// Absorbs all observations of `other`, as if the outcome sequences had
    /// been recorded back to back.
    ///
    /// Merging is associative and commutative (counts are a multiset), which
    /// is what lets parallel shot workers tally locally and combine their
    /// partial results in shot order without changing the aggregate.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsim::Counts;
    /// let mut a = Counts::new();
    /// a.record("0");
    /// let mut b = Counts::new();
    /// b.record("0");
    /// b.record("1");
    /// a.merge(b);
    /// assert_eq!(a.get("0"), 2);
    /// assert_eq!(a.total(), 3);
    /// ```
    pub fn merge(&mut self, other: Counts) {
        if self.map.is_empty() {
            self.map = other.map;
            return;
        }
        for (k, v) in other.map {
            *self.map.entry(k).or_insert(0) += v;
        }
    }

    /// The number of shots recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// Count of a particular outcome (0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Empirical probability of `key`.
    #[must_use]
    pub fn probability(&self, key: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(key) as f64 / total as f64
        }
    }

    /// The most frequent outcome, ties broken lexicographically smallest.
    #[must_use]
    pub fn most_frequent(&self) -> Option<&str> {
        self.map
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(k, _)| k.as_str())
    }

    /// Iterates over `(bitstring, count)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of distinct outcomes observed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no shots were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Converts to an empirical [`Distribution`].
    #[must_use]
    pub fn to_distribution(&self) -> Distribution {
        let total = self.total() as f64;
        let mut d = Distribution::new();
        if total > 0.0 {
            for (k, &v) in &self.map {
                d.set(k.clone(), v as f64 / total);
            }
        }
        d
    }
}

impl FromIterator<(String, u64)> for Counts {
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        let mut c = Counts::new();
        for (k, v) in iter {
            c.record_n(k, v);
        }
        c
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// A probability distribution over bitstring outcomes.
///
/// Produced exactly by branch enumeration ([`crate::branch`]) or empirically
/// from [`Counts`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Distribution {
    map: BTreeMap<String, f64>,
}

impl Distribution {
    /// An empty distribution.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the probability of `key` (overwriting).
    pub fn set(&mut self, key: impl Into<String>, p: f64) {
        self.map.insert(key.into(), p);
    }

    /// Adds `p` to the probability of `key`.
    pub fn add(&mut self, key: impl Into<String>, p: f64) {
        *self.map.entry(key.into()).or_insert(0.0) += p;
    }

    /// Probability of `key` (0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> f64 {
        self.map.get(key).copied().unwrap_or(0.0)
    }

    /// Iterates over `(bitstring, probability)` in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.map.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of outcomes with recorded probability.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no outcome has recorded probability.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of all probabilities (should be 1 within rounding).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.map.values().sum()
    }

    /// The most probable outcome, ties broken lexicographically smallest.
    #[must_use]
    pub fn argmax(&self) -> Option<&str> {
        self.map
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(a.0))
            })
            .map(|(k, _)| k.as_str())
    }

    /// Removes outcomes below `threshold` (numerical dust from branching),
    /// then rescales the survivors so the distribution sums to 1 again.
    ///
    /// `branch::exact_distribution` reads a branch tree that never expands
    /// a branch at or below `prefix::BRANCH_EPS`, so its leaves sum to less
    /// than 1 by the weight of every pruned branch; this rescale restores
    /// the total. NaN weights never pass the `>=` test, so they are dropped
    /// too. When nothing survives (or the surviving total is not positive
    /// and finite) the map is left as-is: there is no meaningful mass to
    /// rescale.
    pub fn prune(&mut self, threshold: f64) {
        self.map.retain(|_, p| *p >= threshold);
        let total = self.total();
        if total.is_finite() && total > 0.0 {
            for p in self.map.values_mut() {
                *p /= total;
            }
        }
    }

    /// Marginal distribution over a subset of bit positions.
    ///
    /// `positions` lists the bits to keep, **indexed from the right** of
    /// the key (position 0 is the last character, i.e. classical bit 0);
    /// the returned keys contain the kept bits, rightmost = first listed.
    ///
    /// # Panics
    ///
    /// Panics if a position exceeds a key's length.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsim::Distribution;
    /// let mut d = Distribution::new();
    /// d.set("10", 0.5); // bit1=1, bit0=0
    /// d.set("11", 0.5);
    /// let m = d.marginal(&[1]);
    /// assert!((m.get("1") - 1.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn marginal(&self, positions: &[usize]) -> Distribution {
        let mut out = Distribution::new();
        for (key, p) in self.iter() {
            let chars: Vec<char> = key.chars().collect();
            let n = chars.len();
            let kept: String = positions
                .iter()
                .rev()
                .map(|&pos| {
                    assert!(pos < n, "bit position {pos} out of range for key '{key}'");
                    chars[n - 1 - pos]
                })
                .collect();
            out.add(kept, p);
        }
        out
    }

    /// Post-selects on bit `position` (indexed from the right) having
    /// `value`, renormalizing; returns the selected distribution and the
    /// probability of the selection (an empty distribution when that
    /// probability is 0).
    ///
    /// # Panics
    ///
    /// Panics if `position` exceeds a key's length.
    #[must_use]
    pub fn postselect(&self, position: usize, value: bool) -> (Distribution, f64) {
        let want = if value { '1' } else { '0' };
        let mut out = Distribution::new();
        let mut total = 0.0;
        for (key, p) in self.iter() {
            let chars: Vec<char> = key.chars().collect();
            let n = chars.len();
            assert!(position < n, "bit position {position} out of range");
            if chars[n - 1 - position] == want {
                out.add(key.to_string(), p);
                total += p;
            }
        }
        if total > 0.0 {
            let keys: Vec<String> = out.map.keys().cloned().collect();
            for k in keys {
                let v = out.map[&k] / total;
                out.map.insert(k, v);
            }
        }
        (out, total)
    }

    /// Total variation distance `1/2 sum |p - q|`.
    #[must_use]
    pub fn tvd(&self, other: &Self) -> f64 {
        let keys: std::collections::BTreeSet<&String> =
            self.map.keys().chain(other.map.keys()).collect();
        0.5 * keys
            .into_iter()
            .map(|k| (self.get(k) - other.get(k)).abs())
            .sum::<f64>()
    }

    /// Hellinger distance `sqrt(1 - sum sqrt(p*q))` (clamped at 0).
    #[must_use]
    pub fn hellinger(&self, other: &Self) -> f64 {
        let keys: std::collections::BTreeSet<&String> =
            self.map.keys().chain(other.map.keys()).collect();
        let bc: f64 = keys
            .into_iter()
            .map(|k| (self.get(k) * other.get(k)).sqrt())
            .sum();
        (1.0 - bc).max(0.0).sqrt()
    }

    /// `true` when every outcome's probability matches within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.tvd(other) <= tol
    }
}

impl FromIterator<(String, f64)> for Distribution {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut d = Distribution::new();
        for (k, p) in iter {
            d.add(k, p);
        }
        d
    }
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v:.4}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitstring_is_msb_first() {
        assert_eq!(bitstring(&[true, false]), "01");
        assert_eq!(bitstring(&[false, true, true]), "110");
        assert_eq!(bitstring(&[]), "");
    }

    #[test]
    fn counts_accumulate() {
        let mut c = Counts::new();
        c.record("00");
        c.record_n("11", 5);
        assert_eq!(c.total(), 6);
        assert_eq!(c.get("11"), 5);
        assert_eq!(c.get("01"), 0);
        assert!((c.probability("11") - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn counts_most_frequent_breaks_ties_lexicographically() {
        let mut c = Counts::new();
        c.record_n("10", 3);
        c.record_n("01", 3);
        assert_eq!(c.most_frequent().unwrap(), "01");
    }

    #[test]
    fn empty_counts_behave() {
        let c = Counts::new();
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
        assert_eq!(c.probability("0"), 0.0);
        assert!(c.most_frequent().is_none());
    }

    #[test]
    fn merge_matches_concatenated_recording() {
        let left = ["00", "01", "00"];
        let right = ["01", "11"];
        let mut a = Counts::new();
        for k in left {
            a.record(k);
        }
        let mut b = Counts::new();
        for k in right {
            b.record(k);
        }
        a.merge(b);
        let mut concat = Counts::new();
        for k in left.iter().chain(right.iter()) {
            concat.record(*k);
        }
        assert_eq!(a, concat);
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut a = Counts::new();
        let mut b = Counts::new();
        b.record_n("1", 4);
        a.merge(b.clone());
        assert_eq!(a, b);
        a.merge(Counts::new());
        assert_eq!(a, b);
    }

    #[test]
    fn counts_from_iterator() {
        let c: Counts = vec![("0".to_string(), 2u64), ("1".to_string(), 1)]
            .into_iter()
            .collect();
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn counts_to_distribution_normalizes() {
        let mut c = Counts::new();
        c.record_n("0", 1);
        c.record_n("1", 3);
        let d = c.to_distribution();
        assert!((d.get("1") - 0.75).abs() < 1e-12);
        assert!((d.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_of_identical_is_zero() {
        let mut d = Distribution::new();
        d.set("00", 0.5);
        d.set("11", 0.5);
        assert_eq!(d.tvd(&d.clone()), 0.0);
    }

    #[test]
    fn tvd_of_disjoint_is_one() {
        let mut a = Distribution::new();
        a.set("0", 1.0);
        let mut b = Distribution::new();
        b.set("1", 1.0);
        assert!((a.tvd(&b) - 1.0).abs() < 1e-12);
        assert!((a.hellinger(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tvd_is_symmetric() {
        let mut a = Distribution::new();
        a.set("0", 0.7);
        a.set("1", 0.3);
        let mut b = Distribution::new();
        b.set("0", 0.4);
        b.set("1", 0.6);
        assert!((a.tvd(&b) - b.tvd(&a)).abs() < 1e-15);
        assert!((a.tvd(&b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn hellinger_of_identical_is_zero() {
        let mut d = Distribution::new();
        d.set("01", 0.25);
        d.set("10", 0.75);
        assert!(d.hellinger(&d.clone()) < 1e-12);
    }

    #[test]
    fn argmax_prefers_highest_probability() {
        let mut d = Distribution::new();
        d.set("00", 0.2);
        d.set("01", 0.5);
        d.set("10", 0.3);
        assert_eq!(d.argmax().unwrap(), "01");
    }

    #[test]
    fn argmax_ties_break_lexicographically() {
        let mut d = Distribution::new();
        d.set("11", 0.5);
        d.set("00", 0.5);
        assert_eq!(d.argmax().unwrap(), "00");
    }

    #[test]
    fn marginal_collapses_traced_out_bits() {
        let mut d = Distribution::new();
        d.set("00", 0.25);
        d.set("01", 0.25);
        d.set("10", 0.25);
        d.set("11", 0.25);
        let m = d.marginal(&[0]);
        assert_eq!(m.len(), 2);
        assert!((m.get("0") - 0.5).abs() < 1e-12);
        assert!((m.get("1") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_reorders_kept_bits() {
        let mut d = Distribution::new();
        d.set("10", 1.0); // bit1=1, bit0=0
        let m = d.marginal(&[0, 1]); // keep bit0 then bit1
                                     // Rightmost char = first listed position (bit0=0), left = bit1=1.
        assert!((m.get("10") - 1.0).abs() < 1e-12);
        let swapped = d.marginal(&[1, 0]);
        assert!((swapped.get("01") - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn marginal_checks_positions() {
        let mut d = Distribution::new();
        d.set("0", 1.0);
        let _ = d.marginal(&[3]);
    }

    #[test]
    fn postselect_renormalizes() {
        let mut d = Distribution::new();
        d.set("00", 0.5);
        d.set("11", 0.25);
        d.set("01", 0.25);
        let (sel, p) = d.postselect(0, true); // bit0 == 1
        assert!((p - 0.5).abs() < 1e-12);
        assert!((sel.get("11") - 0.5).abs() < 1e-12);
        assert!((sel.get("01") - 0.5).abs() < 1e-12);
        assert_eq!(sel.get("00"), 0.0);
    }

    #[test]
    fn postselect_on_impossible_value_is_empty() {
        let mut d = Distribution::new();
        d.set("1", 1.0);
        let (sel, p) = d.postselect(0, false);
        assert_eq!(p, 0.0);
        assert!(sel.is_empty());
    }

    #[test]
    fn prune_drops_dust() {
        let mut d = Distribution::new();
        d.set("0", 1.0 - 1e-15);
        d.set("1", 1e-15);
        d.prune(1e-12);
        assert_eq!(d.len(), 1);
        // Regression: the dust's weight must be redistributed, not lost —
        // the pruned distribution sums to exactly 1 again.
        assert_eq!(d.total(), 1.0);
    }

    #[test]
    fn prune_renormalizes_survivors_proportionally() {
        let mut d = Distribution::new();
        d.set("00", 0.6);
        d.set("01", 0.3);
        d.set("10", 0.1 - 1e-13);
        d.set("11", 1e-13);
        d.prune(1e-9);
        assert_eq!(d.len(), 3);
        assert!((d.total() - 1.0).abs() < 1e-15, "total = {}", d.total());
        // Relative weights of the survivors are preserved.
        assert!((d.get("00") / d.get("01") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prune_everything_leaves_an_empty_distribution() {
        let mut d = Distribution::new();
        d.set("0", 1e-15);
        d.prune(1e-12);
        assert!(d.is_empty());
        assert_eq!(d.total(), 0.0);
    }

    #[test]
    fn display_renders_maps() {
        let mut c = Counts::new();
        c.record("0");
        assert_eq!(c.to_string(), "{0: 1}");
        let mut d = Distribution::new();
        d.set("1", 0.5);
        assert_eq!(d.to_string(), "{1: 0.5000}");
    }
}
