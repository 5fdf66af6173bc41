//! Log-linear latency histograms.
//!
//! A [`Histogram`] summarises a stream of `u64` samples (the workspace
//! records **nanoseconds**) in log-linear buckets: values below
//! [`Histogram::SUB_BUCKETS`] are counted exactly, and every power-of-two
//! octave above that is split into [`Histogram::SUB_BUCKETS`] linear
//! sub-buckets. Bucket width therefore grows with magnitude while the
//! *relative* width stays bounded, so [`Histogram::quantile`] is exact
//! for tiny values and within [`Histogram::RELATIVE_ERROR`] (≈3.1%,
//! always rounding **up**) for large ones — the right trade for latency
//! tails, where p99 of 100 ms ± 3 ms matters and ±3 ns does not.
//!
//! The bucket array is dense but tiny (at most
//! [`Histogram::MAX_BUCKETS`] `u64` slots, allocated lazily up to the
//! largest recorded value), merge is element-wise addition (associative
//! and commutative, pinned by property tests), and the canonical
//! single-line JSON form ([`Histogram::to_json`]) is a pure function of
//! the recorded multiset — byte-identical across runs that record the
//! same values in any order, which is what the loadgen determinism test
//! pins.

use crate::json::Json;

/// A log-linear bucketed histogram of `u64` samples.
///
/// ```
/// use commcsl_telemetry::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 4, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.5), 3); // exact below SUB_BUCKETS
/// assert_eq!(h.max(), 100);
/// assert!(h.quantile(1.0) == 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Dense bucket counts, indexed by [`Histogram::bucket_index`];
    /// grown lazily, never holds trailing zeros.
    buckets: Vec<u64>,
}

/// log2 of the sub-bucket count (5 → 32 sub-buckets per octave).
const SUB_BITS: u32 = 5;

impl Histogram {
    /// Linear sub-buckets per power-of-two octave. Values below this are
    /// counted exactly.
    pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

    /// Upper bound on the relative error of [`Histogram::quantile`]:
    /// bucket width over bucket lower bound, `1 / SUB_BUCKETS`.
    /// Quantiles always round **up** (they report the bucket's upper
    /// bound), so `true_q <= quantile(q) <= true_q * (1 + RELATIVE_ERROR)`.
    pub const RELATIVE_ERROR: f64 = 1.0 / Self::SUB_BUCKETS as f64;

    /// The largest possible bucket index + 1 (`u64::MAX` still lands in
    /// a bucket; nothing is ever clamped or dropped).
    pub const MAX_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * (1 << SUB_BITS as usize);

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index for `value`: identity below [`Self::SUB_BUCKETS`],
    /// log-linear above.
    pub fn bucket_index(value: u64) -> usize {
        if value < Self::SUB_BUCKETS {
            value as usize
        } else {
            let h = 63 - u64::from(value.leading_zeros()); // floor(log2), >= SUB_BITS
            let shift = (h - u64::from(SUB_BITS)) as u32;
            let sub = (value >> shift) - Self::SUB_BUCKETS; // in [0, SUB_BUCKETS)
            ((h - u64::from(SUB_BITS) + 1) * Self::SUB_BUCKETS + sub) as usize
        }
    }

    /// The inclusive `[low, high]` value range of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        let i = index as u64;
        if i < 2 * Self::SUB_BUCKETS {
            (i, i) // exact buckets (width 1)
        } else {
            let octave = i / Self::SUB_BUCKETS; // >= 2
            let sub = i % Self::SUB_BUCKETS;
            let shift = (octave - 1) as u32;
            let low = (Self::SUB_BUCKETS + sub) << shift;
            (low, low + ((1u64 << shift) - 1))
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples (the merge/deserialisation path).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let index = Self::bucket_index(value);
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Merges another histogram into this one (element-wise bucket
    /// addition; associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (slot, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as sorted `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the upper bound
    /// of the bucket containing the sample of rank `ceil(q * count)`,
    /// clamped to the exact recorded maximum. Monotone in `q`; 0 when
    /// empty. Within [`Self::RELATIVE_ERROR`] above the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, high) = Self::bucket_bounds(index);
                return high.min(self.max);
            }
        }
        self.max
    }

    /// Rebuilds a histogram from its serialised parts (`sum`, exact
    /// `min`/`max`, and sorted non-empty `(index, count)` buckets), the
    /// inverse of [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Rejects out-of-range indexes, zero counts, unsorted/duplicate
    /// indexes, and `min`/`max` outside their buckets' value ranges.
    pub fn from_parts(
        sum: u64,
        min: u64,
        max: u64,
        buckets: &[(usize, u64)],
    ) -> Result<Histogram, String> {
        if buckets.is_empty() {
            return Ok(Histogram::new());
        }
        let mut out = Histogram::new();
        let mut last: Option<usize> = None;
        let mut count: u64 = 0;
        for &(index, c) in buckets {
            if index >= Self::MAX_BUCKETS {
                return Err(format!("histogram bucket index {index} out of range"));
            }
            if c == 0 {
                return Err(format!("histogram bucket {index} has zero count"));
            }
            if last.is_some_and(|l| l >= index) {
                return Err("histogram buckets must be sorted by index".to_owned());
            }
            last = Some(index);
            count += c;
        }
        let first = buckets[0].0;
        let last = buckets[buckets.len() - 1].0;
        if Self::bucket_index(min) != first {
            return Err(format!("histogram min {min} outside its first bucket"));
        }
        if Self::bucket_index(max) != last {
            return Err(format!("histogram max {max} outside its last bucket"));
        }
        out.buckets = vec![0; last + 1];
        for &(index, c) in buckets {
            out.buckets[index] = c;
        }
        out.count = count;
        out.sum = sum;
        out.min = min;
        out.max = max;
        Ok(out)
    }

    /// Canonical single-line JSON: keys sorted, only non-empty buckets,
    /// pre-computed p50/p90/p99 for consumers that do not rebuild the
    /// histogram. A pure function of the recorded multiset — two
    /// histograms over the same values (in any order, via any
    /// record/merge tree) render byte-identically.
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }

    /// Parses the canonical shape back; the derived `p50`/`p90`/`p99`
    /// fields are recomputed from the buckets, not trusted.
    ///
    /// # Errors
    ///
    /// Everything [`Self::from_parts`] rejects, plus missing or
    /// non-integer fields and a `count` that disagrees with the buckets.
    pub fn from_json(doc: &Json) -> Result<Histogram, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram needs numeric `{key}`"))
        };
        let buckets = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram needs a `buckets` array")?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([index, count]) => Ok((
                    index
                        .as_u64()
                        .and_then(|i| usize::try_from(i).ok())
                        .ok_or("bucket index must be a non-negative integer")?,
                    count
                        .as_u64()
                        .ok_or("bucket count must be a non-negative integer")?,
                )),
                _ => Err("histogram buckets must be [index, count] pairs".to_owned()),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let hist = Histogram::from_parts(num("sum")?, num("min")?, num("max")?, &buckets)?;
        if hist.count() != num("count")? {
            return Err("histogram `count` does not match its buckets".into());
        }
        Ok(hist)
    }
}

impl From<&Histogram> for Json {
    /// The canonical shape of [`Histogram::to_json`]. Samples are
    /// nanoseconds; all values fit JSON numbers exactly below 2⁵³ ns
    /// (~104 days).
    fn from(hist: &Histogram) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::obj([
            (
                "buckets",
                Json::Arr(
                    hist.nonzero_buckets()
                        .map(|(index, count)| Json::Arr(vec![num(index as u64), num(count)]))
                        .collect(),
                ),
            ),
            ("count", num(hist.count)),
            ("max", num(hist.max())),
            ("min", num(hist.min())),
            ("p50", num(hist.quantile(0.50))),
            ("p90", num(hist.quantile(0.90))),
            ("p99", num(hist.quantile(0.99))),
            ("sum", num(hist.sum)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..Histogram::SUB_BUCKETS {
            h.record(v);
        }
        for v in 0..Histogram::SUB_BUCKETS {
            let (low, high) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert_eq!((low, high), (v, v));
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), Histogram::SUB_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_line() {
        // Successive buckets tile the line with no gaps or overlaps.
        let mut expected_low = 0u64;
        for index in 0..Histogram::MAX_BUCKETS {
            let (low, high) = Histogram::bucket_bounds(index);
            assert_eq!(low, expected_low, "bucket {index} starts where the last ended");
            assert!(high >= low);
            if high == u64::MAX {
                assert_eq!(index, Histogram::MAX_BUCKETS - 1);
                return;
            }
            expected_low = high + 1;
        }
        panic!("the last bucket must end at u64::MAX");
    }

    #[test]
    fn every_value_lands_in_its_bucket() {
        for value in [
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1_000,
            1_000_000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let index = Histogram::bucket_index(value);
            let (low, high) = Histogram::bucket_bounds(index);
            assert!(
                low <= value && value <= high,
                "{value} not in bucket {index} = [{low}, {high}]"
            );
            // Relative width bound (exact buckets below 2*SUB_BUCKETS).
            if low >= 2 * Histogram::SUB_BUCKETS {
                assert!(
                    (high - low) as f64 <= low as f64 * Histogram::RELATIVE_ERROR,
                    "bucket {index} too wide: [{low}, {high}]"
                );
            }
        }
    }

    #[test]
    fn quantiles_round_up_within_the_error_bound() {
        let mut h = Histogram::new();
        let mut values: Vec<u64> = (0..500).map(|i| i * i * 37 + 11).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let approx = h.quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert!(
                approx as f64 <= exact as f64 * (1.0 + Histogram::RELATIVE_ERROR) + 1.0,
                "q={q}: {approx} above error bound of exact {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), *values.last().unwrap());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (a_vals, b_vals): (Vec<u64>, Vec<u64>) =
            ((0..100).map(|i| i * 7 + 1).collect(), (0..50).map(|i| i * 1000).collect());
        let mut merged = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &a_vals {
            a.record(v);
            merged.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            merged.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, merged);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, merged);
        assert_eq!(ab.to_json(), merged.to_json());
    }

    #[test]
    fn json_parses_back_through_from_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 5, 40, 41, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        let back = Histogram::from_parts(h.sum(), h.min(), h.max(), &buckets).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.to_json(), h.to_json());

        // Empty round-trips too.
        let empty = Histogram::from_parts(0, 0, 0, &[]).unwrap();
        assert_eq!(empty, Histogram::new());
        assert_eq!(
            empty.to_json(),
            "{\"buckets\":[],\"count\":0,\"max\":0,\"min\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"sum\":0}"
        );
    }

    #[test]
    fn json_roundtrips_and_rejects_inconsistent_documents() {
        let mut h = Histogram::new();
        for v in [3u64, 40, 41, 1_000_000] {
            h.record(v);
        }
        let text = h.to_json();
        assert_eq!(
            text,
            "{\"buckets\":[[3,1],[40,1],[41,1],[509,1]],\"count\":4,\"max\":1000000,\
             \"min\":3,\"p50\":40,\"p90\":1000000,\"p99\":1000000,\"sum\":1000084}"
        );
        assert_eq!(Histogram::from_json(&Json::parse(&text).unwrap()), Ok(h));
        for bad in [
            "{\"buckets\":[]}",
            "{\"buckets\":[[5,1,0]],\"count\":1,\"max\":5,\"min\":5,\"sum\":5}",
            "{\"buckets\":[[5,1]],\"count\":2,\"max\":5,\"min\":5,\"sum\":5}",
        ] {
            assert!(
                Histogram::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        assert!(Histogram::from_parts(0, 0, 0, &[(0, 0)]).is_err(), "zero count");
        assert!(
            Histogram::from_parts(0, 0, 0, &[(Histogram::MAX_BUCKETS, 1)]).is_err(),
            "index out of range"
        );
        assert!(
            Histogram::from_parts(10, 5, 5, &[(7, 1), (5, 1)]).is_err(),
            "unsorted buckets"
        );
        assert!(
            Histogram::from_parts(10, 9, 5, &[(5, 2)]).is_err(),
            "min outside its bucket"
        );
        assert!(
            Histogram::from_parts(10, 5, 9, &[(5, 2)]).is_err(),
            "max outside its bucket"
        );
    }
}
