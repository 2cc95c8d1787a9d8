//! Order statistics and the FNV-1a digest the correctness wall uses.

/// The quartiles `(q1, median, q3)` of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does, so spreads printed here match the ones an
/// external script computes from the same numbers.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let ld = data.len();
    let m = ld + 1;
    let n = 4;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// 64-bit FNV-1a over a sequence of fields.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A string field, length-prefixed so adjacent fields cannot run
    /// into each other.
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn fnv_is_the_published_function() {
        // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv::new().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_ne!(
            Fnv::new().str("ab").str("c").hex(),
            Fnv::new().str("a").str("bc").hex()
        );
    }
}
