//! Sample statistics and the seeded input generators.

/// Per-operation latency samples, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.values.push(us);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1); 0 when there are no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A measured loop cut into consecutive windows. A run's figures are
/// medians over its windows of each window's p50, tail quantile and
/// rate, so a transient slowdown of the host (a burst of CPU steal on a
/// shared VM) moves at most the windows it overlaps.
#[derive(Debug)]
pub struct Windows {
    length: Option<f64>,
    tail: f64,
    done: Vec<Window>,
    current: Window,
}

#[derive(Debug, Default)]
struct Window {
    samples: Samples,
    ops: usize,
    seconds: f64,
}

/// A run's figures over its windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p50_us: f64,
    /// The median over windows of the window's `tail` quantile.
    pub tail_us: f64,
    /// p99 over every sample (printed with the host stamp, not gated).
    pub p99_us: f64,
    pub per_s: f64,
    pub samples: usize,
    pub windows: usize,
}

impl Windows {
    /// Windows closed every `seconds` of accounted time, or only by
    /// [`close`](Self::close) when `None`; `tail` is the quantile
    /// reported as [`Summary::tail_us`].
    pub fn new(seconds: Option<f64>, tail: f64) -> Self {
        Windows { length: seconds, tail, done: Vec::new(), current: Window::default() }
    }

    /// Accounts `ops` operations taking `seconds`, with an optional
    /// per-operation latency sample.
    pub fn record(&mut self, sample_us: Option<f64>, ops: usize, seconds: f64) {
        if let Some(us) = sample_us {
            self.current.samples.push(us);
        }
        self.current.ops += ops;
        self.current.seconds += seconds;
        if self.length.is_some_and(|len| self.current.seconds >= len) {
            self.close();
        }
    }

    /// Ends the current window (if it holds anything).
    pub fn close(&mut self) {
        if self.current.ops > 0 {
            self.done.push(std::mem::take(&mut self.current));
        }
    }

    /// Every sample of every closed window.
    pub fn all_samples(&self) -> Samples {
        let mut all = Samples::default();
        for w in &self.done {
            all.values.extend_from_slice(&w.samples.values);
        }
        all
    }

    /// The run's figures over the closed windows (a trailing partial
    /// window is ignored unless it is the only one).
    pub fn summary(&mut self) -> Summary {
        if self.done.is_empty() {
            self.close();
        }
        let each =
            |f: &dyn Fn(&Window) -> f64| median(&self.done.iter().map(f).collect::<Vec<_>>());
        Summary {
            p50_us: each(&|w| w.samples.p50()),
            tail_us: each(&|w| w.samples.quantile(self.tail)),
            p99_us: self.all_samples().p99(),
            per_s: each(&|w| if w.seconds > 0.0 { w.ops as f64 / w.seconds } else { 0.0 }),
            samples: self.done.iter().map(|w| w.samples.len()).sum(),
            windows: self.done.len(),
        }
    }
}

/// Linear interpolation between the closest ranks of an ascending slice
/// (the "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of a handful of values (setup repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-skewed choice over `n` items: rank r (1-based) has weight
/// `1 / r^s`, and a seeded permutation decides which item holds which
/// rank, so the seed moves the hot set.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let mut cdf: Vec<f64> = (1..=n)
            .scan(0.0, |total, rank| {
                *total += 1.0 / (rank as f64).powf(s);
                Some(*total)
            })
            .collect();
        let total = cdf.last().copied().unwrap_or(1.0);
        for c in &mut cdf {
            *c /= total;
        }
        let mut items: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut items);
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.items.len() - 1);
        self.items[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn quantiles_of_known_samples() {
        let s = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.p50() - 50.5).abs() < 1e-9);
        assert!((s.p99() - 99.01).abs() < 1e-9);
        // Unsorted input gives the same answer.
        let s = samples(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s.p50(), 5.0);
        assert!((s.quantile(0.25) - 3.0).abs() < 1e-9);
        assert!((s.quantile(0.9) - 8.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_degenerate_samples() {
        assert_eq!(samples(&[]).p50(), 0.0);
        assert_eq!(samples(&[4.0]).p99(), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn window_medians_ignore_slow_windows() {
        let mut w = Windows::new(None, 0.9);
        // One window is slowed tenfold by interference.
        for slow in [1.0, 10.0, 1.0, 1.0, 1.0] {
            for i in 0..128 {
                w.record(Some(slow * f64::from(i)), 1, slow / 128.0);
            }
            w.close();
        }
        w.record(Some(1e9), 1, 1.0 / 128.0); // trailing partial window: ignored
        let s = w.summary();
        assert_eq!((s.windows, s.samples), (5, 640));
        assert!((s.p50_us - 63.5).abs() < 1e-9);
        assert!((s.tail_us - 114.3).abs() < 1e-6);
        assert!((s.per_s - 128.0).abs() < 1e-6);
        // The tail quantile is the one the caller asked for.
        let mut p95 = Windows::new(None, 0.95);
        for i in 0..=100 {
            p95.record(Some(f64::from(i)), 1, 0.01);
        }
        assert!((p95.summary().tail_us - 95.0).abs() < 1e-9);
        // Windows that fill by accounted time close on their own.
        let mut timed = Windows::new(Some(0.5), 0.9);
        for _ in 0..8 {
            timed.record(Some(1.0), 1, 0.25);
        }
        assert_eq!(timed.summary().windows, 4);
    }

    #[test]
    fn zipf_is_skewed_and_seeded() {
        let mut rng = Rng::new(7);
        let zipf = Zipf::new(50, 1.0, &mut rng);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 10 * min.max(1), "hottest {max} vs coldest {min}");
        let again = Zipf::new(50, 1.0, &mut Rng::new(7));
        assert_eq!(again.items, Zipf::new(50, 1.0, &mut Rng::new(7)).items);
    }
}
