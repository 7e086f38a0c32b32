//! Shared helpers: seeded randomness, order statistics, memory
//! readings, pattern digests, and the per-run work directory.

use exec::MinePlan;
use fpm::{CountSink, Item, ItemsetCount, Kernel, PatternSink, TransactionDb};
use quest::QuestParams;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64 finaliser: a well-mixed 64-bit word from any input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64 stream).
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so different uses of one seed draw
    /// independent values.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(mix(seed ^ mix(salt)))
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `n` transactions QUEST generates under `shape` (whose own seed
/// fixes them), in an order shuffled by the seed. Every seed mines the
/// same multiset of transactions: different seeds give different
/// inputs (file bytes, transaction ids) at the same mining cost, so a
/// run's figures do not hinge on which patterns a seed happened to
/// draw.
pub fn shuffled_shape(shape: &QuestParams, n: usize, seed: u64, salt: u64) -> TransactionDb {
    let db = quest::quest_generate(&QuestParams {
        n_transactions: n,
        ..*shape
    });
    shuffled(db.transactions().to_vec(), seed, salt)
}

/// `rows` in an order shuffled by the seed (Fisher-Yates).
pub fn shuffled(mut rows: Vec<Vec<Item>>, seed: u64, salt: u64) -> TransactionDb {
    let mut rng = Rng::new(seed, salt);
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i + 1));
    }
    TransactionDb::from_transactions(rows)
}

/// The smallest minimum support at which LCM finds at most `target`
/// patterns (budgeted probes, so a low support never runs long).
pub fn calibrate(db: &TransactionDb, target: u64) -> u64 {
    let count = |minsup: u64| {
        let mut sink = CountSink::default();
        MinePlan::kernel(Kernel::Lcm, minsup)
            .max_patterns(target + 1)
            .execute(db, &mut sink);
        sink.count
    };
    let (mut lo, mut hi) = (1u64, db.len().max(1) as u64);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count(mid) <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for no samples.
pub fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of `values`; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    pct(values, 50.0)
}

/// Most windows [`windowed_pct`] splits a run into.
const MAX_WINDOWS: usize = 10;

/// Percentile `p` of `values` (given in time order) taken in each of up
/// to ten consecutive equal windows, then the median of those: a host
/// contention episode that covers a few windows moves the result
/// little. Every window keeps at least ten samples beyond the
/// percentile, so with few samples this is [`pct`] over them all.
pub fn windowed_pct(values: &[f64], p: f64) -> f64 {
    let beyond = values.len() as f64 * (100.0 - p) / 100.0;
    let windows = ((beyond / 10.0 + 1e-9).floor() as usize).clamp(1, MAX_WINDOWS);
    let n = values.len();
    let per: Vec<f64> = (0..windows)
        .map(|w| pct(&values[w * n / windows..(w + 1) * n / windows], p))
        .collect();
    median(&per)
}

/// Largest value; 0 for no samples.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds elapsed since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Resets the process's peak-RSS mark (VmHWM) to the current RSS, so a
/// later [`peak_rss_mb`] reads the peak of the phase that follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of one pattern with its items sorted — the summand of a
/// sorted-set digest. `sorted` is a reusable buffer.
fn pattern_hash(items: &[Item], support: u64, sorted: &mut Vec<Item>) -> u64 {
    sorted.clear();
    sorted.extend_from_slice(items);
    sorted.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &i in sorted.iter() {
        h = (h ^ (i as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h ^ support.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Order-independent digest of a pattern set: equal for two lists that
/// hold the same (itemset, support) pairs in any order, with the items
/// of each itemset in any order.
pub fn set_digest(patterns: &[ItemsetCount]) -> u64 {
    let mut sorted = Vec::new();
    patterns.iter().fold(0u64, |acc, p| {
        acc.wrapping_add(pattern_hash(&p.items, p.support, &mut sorted))
    })
}

/// A streaming sink that keeps only what the checks need: the count,
/// an emission-order hash (byte identity between thread counts), the
/// sorted-set digest (agreement between kernels), and when the first
/// pattern arrived.
pub struct DigestSink {
    /// Patterns delivered.
    pub count: u64,
    /// FNV over (items, support) in emission order.
    pub ordered: u64,
    /// [`set_digest`] of everything delivered.
    pub set: u64,
    /// When the first pattern arrived.
    pub first: Option<Instant>,
    sorted: Vec<Item>,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink {
            count: 0,
            ordered: 0xcbf2_9ce4_8422_2325,
            set: 0,
            first: None,
            sorted: Vec::new(),
        }
    }
}

impl PatternSink for DigestSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.count += 1;
        let mut h = self.ordered;
        for &i in itemset {
            h = (h ^ (i as u64 + 1)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ u64::MAX).wrapping_mul(0x0000_0100_0000_01b3);
        self.ordered = (h ^ support).wrapping_mul(0x0000_0100_0000_01b3);
        self.set = self
            .set
            .wrapping_add(pattern_hash(itemset, support, &mut self.sorted));
    }
}

/// A sorted directory for one run under `.bench_work/` of the current
/// directory, removed again by [`WorkDir::drop`].
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` afresh.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory, relative to the current directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 50.0), 50.0);
        assert_eq!(pct(&v, 90.0), 90.0);
        assert_eq!(pct(&v, 99.0), 99.0);
        assert_eq!(pct(&v, 100.0), 100.0);
        assert_eq!(pct(&[], 50.0), 0.0);
    }

    #[test]
    fn seeds_shuffle_one_multiset_of_transactions() {
        let shape = QuestParams {
            n_transactions: 0,
            avg_transaction_len: 8.0,
            avg_pattern_len: 3.0,
            n_items: 200,
            n_patterns: 50,
            seed: 7,
            ..QuestParams::default()
        };
        let a = shuffled_shape(&shape, 300, 1, 0);
        assert_eq!(
            a.transactions(),
            shuffled_shape(&shape, 300, 1, 0).transactions()
        );
        let b = shuffled_shape(&shape, 300, 2, 0);
        assert_ne!(a.transactions(), b.transactions());
        let sorted = |db: &TransactionDb| {
            let mut rows = db.transactions().to_vec();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&a), sorted(&b));
    }

    #[test]
    fn windowed_percentiles_shrug_off_one_slow_window() {
        // 10 windows of 100; one window is 10x slower throughout.
        let v: Vec<f64> = (0..1000)
            .map(|i| {
                if i / 100 == 3 {
                    10.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                }
            })
            .collect();
        assert_eq!(windowed_pct(&v, 50.0), 1.0 + 49.0 / 100.0);
        assert_eq!(windowed_pct(&v, 90.0), 1.0 + 89.0 / 100.0);
        // p99 of 1000 keeps 10 beyond in one window: the plain percentile.
        assert_eq!(windowed_pct(&v, 99.0), pct(&v, 99.0));
        assert_eq!(windowed_pct(&[], 50.0), 0.0);
        assert_eq!(windowed_pct(&[2.0], 99.0), 2.0);
    }

    #[test]
    fn set_digest_ignores_order() {
        let a = vec![
            ItemsetCount {
                items: vec![3, 1],
                support: 4,
            },
            ItemsetCount {
                items: vec![2],
                support: 5,
            },
        ];
        let b = vec![
            ItemsetCount {
                items: vec![2],
                support: 5,
            },
            ItemsetCount {
                items: vec![1, 3],
                support: 4,
            },
        ];
        assert_eq!(set_digest(&a), set_digest(&b));
        let mut sink = DigestSink::default();
        for p in &b {
            sink.emit(&p.items, p.support);
        }
        assert_eq!(sink.set, set_digest(&a));
        assert_eq!(sink.count, 2);
    }
}
