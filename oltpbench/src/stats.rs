//! Order statistics and the paired-comparison verdict.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Higher => a > b,
            Better::Lower => a < b,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method Python's
/// `statistics.quantiles(values, n=4)` uses by default ("exclusive"), so
/// the spreads printed here are the ones a reader recomputes from the
/// same samples. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Median with its quartiles, extremes and sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let v = sorted(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: v.first().copied().unwrap_or(f64::NAN),
            max: v.last().copied().unwrap_or(f64::NAN),
            n: values.len(),
        }
    }

    /// The best value: the largest of a higher-is-better metric, the
    /// smallest of a lower-is-better one.
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Higher => self.max,
            Better::Lower => self.min,
        }
    }

    /// The quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The outcome of comparing a parent (`a`) with a change (`b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` wins at least nine tenths of the pairs and its median is
    /// better by more than `a`'s quartile distance.
    Gain,
    /// The mirror image: `a` wins that clearly.
    Regression,
    /// `b`'s median is worse than `a`'s by more than the bound.
    WorseThanBound,
    /// The run-to-run spread exceeds the bound, so "no change" cannot
    /// be told apart from a change the bound would catch.
    Unresolved,
    NoChange,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::WorseThanBound => "worse than bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// Pairs won by `b` over `a` (ties count for neither side).
pub fn wins(a: &[f64], b: &[f64], better: Better) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| better.beats(**y, **x))
        .count()
}

/// The paired verdict of choosing-metrics §8: `a[i]` and `b[i]` are
/// the two sides of pair `i`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = a.len().min(b.len());
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let iqr_a = sa.q3 - sa.q1;
    let clear = |won: usize, winner: f64, loser: f64| {
        pairs > 0
            && won * 10 >= pairs * 9
            && better.beats(winner, loser)
            && (winner - loser).abs() > iqr_a
    };
    if clear(wins(a, b, better), sb.median, sa.median) {
        return Verdict::Gain;
    }
    if clear(wins(b, a, better), sa.median, sb.median) {
        return Verdict::Regression;
    }
    if sa.spread() > bound || sb.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Higher => (sa.median - sb.median) / sa.median,
        Better::Lower => (sb.median - sa.median) / sa.median,
    };
    if worse_by > bound {
        Verdict::WorseThanBound
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.n), (3.0, 5));
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    fn best_follows_the_metric_direction() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.best(Better::Higher), 3.0);
        assert_eq!(s.best(Better::Lower), 1.0);
        assert!(Summary::of(&[]).best(Better::Lower).is_nan());
    }

    #[test]
    fn ties_count_for_neither_side() {
        let a = [10.0; 10];
        assert_eq!(wins(&a, &a, Better::Higher), 0);
        assert_eq!(verdict(&a, &a, Better::Higher, 0.1), Verdict::NoChange);
    }

    #[test]
    fn nine_of_ten_wins_with_a_clear_gap_is_a_gain() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 112.0,
        ];
        let mut b = [110.0; 10];
        // b wins nine pairs and loses the last (112 > 110).
        assert_eq!(wins(&a, &b, Better::Higher), 9);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::Gain);
        // Eight wins is below the 9/10 boundary.
        b[0] = 100.0;
        assert_eq!(wins(&a, &b, Better::Higher), 8);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::NoChange);
        // For a lower-is-better metric the same numbers are a regression.
        b[0] = 110.0;
        assert_eq!(verdict(&a, &b, Better::Lower, 0.1), Verdict::Regression);
    }

    #[test]
    fn all_wins_inside_the_parent_spread_is_no_gain() {
        let a = [
            90.0, 110.0, 90.0, 110.0, 90.0, 110.0, 90.0, 110.0, 90.0, 110.0,
        ];
        let b: Vec<f64> = a.iter().map(|x| x + 1.0).collect();
        assert_eq!(wins(&a, &b, Better::Higher), 10);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.5), Verdict::NoChange);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [80.0, 120.0, 80.0, 120.0, 80.0, 120.0];
        let b = [120.0, 80.0, 120.0, 80.0, 120.0, 80.0];
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_drop_past_the_bound_without_clear_losses_is_flagged() {
        let a = [100.0; 10];
        let mut b = [70.0; 10];
        b[8] = 100.5;
        b[9] = 100.5;
        // a wins only 8 of 10 pairs, so this is no clear regression, but
        // the median fell 30% against a 20% bound.
        assert_eq!(wins(&b, &a, Better::Higher), 8);
        assert_eq!(
            verdict(&a, &b, Better::Higher, 0.2),
            Verdict::WorseThanBound
        );
        // Losing every pair by a clear margin is a regression.
        assert_eq!(
            verdict(&a, &[70.0; 10], Better::Higher, 0.2),
            Verdict::Regression
        );
    }
}
