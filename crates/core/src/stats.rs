//! Per-order access/miss accounting.
//!
//! §5 of the paper measures "the distribution of accesses and misses to
//! each individual Markov component" and finds that ≥98% of both land in
//! the highest-order component — a direct consequence of the
//! highest-valid-order selection rule plus update exclusion. [`OrderStats`]
//! reproduces that measurement.


/// Access and miss counts per Markov order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderStats {
    max_order: u32,
    /// accesses[j-1] = predictions provided by order j.
    accesses: Vec<u64>,
    /// misses[j-1] = mispredictions charged to order j.
    misses: Vec<u64>,
    /// Lookups where no order had a valid entry (cold misses).
    unprovided: u64,
}

impl OrderStats {
    /// Creates zeroed statistics for orders `1..=max_order`.
    ///
    /// # Panics
    ///
    /// Panics if `max_order` is zero.
    pub fn new(max_order: u32) -> Self {
        assert!(max_order > 0, "max order must be non-zero");
        Self {
            max_order,
            accesses: vec![0; max_order as usize],
            misses: vec![0; max_order as usize],
            unprovided: 0,
        }
    }

    /// The highest order tracked.
    pub fn max_order(&self) -> u32 {
        self.max_order
    }

    /// Records one prediction: which order provided it (None = no valid
    /// entry anywhere) and whether it was correct.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    // ibp-lint: allow(L007, "documented panic contract; lookup providers are always in 1..=m")
    pub fn record(&mut self, provider: Option<u32>, correct: bool) {
        match provider {
            Some(order) => {
                assert!(order >= 1 && order <= self.max_order, "order out of range");
                self.accesses[(order - 1) as usize] += 1;
                if !correct {
                    self.misses[(order - 1) as usize] += 1;
                }
            }
            None => self.unprovided += 1,
        }
    }

    /// Predictions provided by order `j`.
    pub fn accesses(&self, order: u32) -> u64 {
        self.accesses[(order - 1) as usize]
    }

    /// Mispredictions charged to order `j`.
    pub fn misses(&self, order: u32) -> u64 {
        self.misses[(order - 1) as usize]
    }

    /// Lookups with no valid entry at any order.
    pub fn unprovided(&self) -> u64 {
        self.unprovided
    }

    /// Total provided predictions.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total mispredictions among provided predictions.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Fraction of provided predictions answered by the highest order —
    /// the paper reports ≥ 0.98 for every benchmark.
    pub fn highest_order_access_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.accesses(self.max_order) as f64 / total as f64
    }

    /// Fraction of misses charged to the highest order.
    pub fn highest_order_miss_fraction(&self) -> f64 {
        let total = self.total_misses();
        if total == 0 {
            return 0.0;
        }
        self.misses(self.max_order) as f64 / total as f64
    }

    /// Per-order access distribution, normalized (index 0 = order 1).
    pub fn access_distribution(&self) -> Vec<f64> {
        let total = self.total_accesses().max(1) as f64;
        self.accesses.iter().map(|&a| a as f64 / total).collect()
    }

    /// Merges another statistics object into this one.
    ///
    /// # Panics
    ///
    /// Panics if the orders differ.
    pub fn merge(&mut self, other: &OrderStats) {
        assert_eq!(self.max_order, other.max_order, "order mismatch");
        for i in 0..self.max_order as usize {
            self.accesses[i] += other.accesses[i];
            self.misses[i] += other.misses[i];
        }
        self.unprovided += other.unprovided;
    }

    /// Streams the per-order attribution as named values — the §5
    /// access/miss distribution under stable, order-sorted names.
    pub fn report_metrics(&self, sink: &mut dyn FnMut(&str, u64)) {
        sink("lookups_unprovided", self.unprovided);
        for j in 1..=self.max_order {
            sink(&format!("order{j:02}_provided"), self.accesses(j));
            sink(&format!("order{j:02}_mispredicted"), self.misses(j));
        }
    }
}

impl ibp_hw::Persist for OrderStats {
    // ibp-lint: allow(L007, "per-order arrays are sized max_order by construction")
    fn save_state(&self, out: &mut ibp_hw::StateSink<'_>) {
        out.u32(self.max_order);
        for i in 0..self.max_order as usize {
            out.u64(self.accesses[i]);
            out.u64(self.misses[i]);
        }
        out.u64(self.unprovided);
    }

    // ibp-lint: allow(L007, "per-order arrays are sized max_order by construction")
    fn load_state(
        &mut self,
        src: &mut ibp_hw::StateSource<'_>,
    ) -> Result<(), ibp_hw::PersistError> {
        src.expect_u64(u64::from(self.max_order), "order stats max order")?;
        for i in 0..self.max_order as usize {
            self.accesses[i] = src.u64()?;
            self.misses[i] = src.u64()?;
        }
        self.unprovided = src.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trip() {
        use ibp_hw::{Persist, StateSink, StateSource};
        let mut s = OrderStats::new(4);
        s.record(Some(4), false);
        s.record(Some(2), true);
        s.record(None, false);
        let mut blob = Vec::new();
        s.save_state(&mut StateSink::new(&mut blob));
        let mut r = OrderStats::new(4);
        r.load_state(&mut StateSource::new(&blob)).unwrap();
        assert_eq!(r, s);
        let mut wrong = OrderStats::new(3);
        assert!(wrong.load_state(&mut StateSource::new(&blob)).is_err());
    }

    #[test]
    fn records_per_order() {
        let mut s = OrderStats::new(10);
        s.record(Some(10), true);
        s.record(Some(10), false);
        s.record(Some(3), true);
        s.record(None, false);
        assert_eq!(s.accesses(10), 2);
        assert_eq!(s.misses(10), 1);
        assert_eq!(s.accesses(3), 1);
        assert_eq!(s.misses(3), 0);
        assert_eq!(s.unprovided(), 1);
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.total_misses(), 1);
    }

    #[test]
    fn highest_order_fractions() {
        let mut s = OrderStats::new(10);
        for _ in 0..98 {
            s.record(Some(10), false);
        }
        s.record(Some(5), false);
        s.record(Some(1), false);
        assert!((s.highest_order_access_fraction() - 0.98).abs() < 1e-12);
        assert!((s.highest_order_miss_fraction() - 0.98).abs() < 1e-12);
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut s = OrderStats::new(4);
        s.record(Some(1), true);
        s.record(Some(2), true);
        s.record(Some(4), true);
        s.record(Some(4), true);
        let d = s.access_distribution();
        assert_eq!(d.len(), 4);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OrderStats::new(3);
        assert_eq!(s.highest_order_access_fraction(), 0.0);
        assert_eq!(s.highest_order_miss_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OrderStats::new(3);
        let mut b = OrderStats::new(3);
        a.record(Some(3), false);
        b.record(Some(3), true);
        b.record(None, false);
        a.merge(&b);
        assert_eq!(a.accesses(3), 2);
        assert_eq!(a.misses(3), 1);
        assert_eq!(a.unprovided(), 1);
    }

    #[test]
    #[should_panic(expected = "order out of range")]
    fn out_of_range_order_panics() {
        let mut s = OrderStats::new(2);
        s.record(Some(3), true);
    }
}
