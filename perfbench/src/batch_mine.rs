//! `batch-mine`: one in-process caller mines a fixed list with no
//! service, cache or wire — the paper's Figure 8 traffic, where the
//! work-stealing runtime and the kernels' inner loops dominate.
//!
//! A round runs the three kernels × two QUEST shapes (seed-shuffled)
//! through `MinePlan::kernel(k, minsup).threads(2).execute`, identity
//! query, streaming into the benchmark's own sink. One shape is dense;
//! the other is sparse with a planted block of items that co-occur in
//! a quarter of the transactions, so the patterns under the block's
//! first item dominate the serial run and cap the 2-thread speedup.

use crate::trace::{write_outputs, Tracer};
use crate::util::{
    calibrate, median, ms_since, pct, peak_rss_mb, reset_peak_rss, shuffled, shuffled_shape,
    DigestSink, WorkDir,
};
use crate::{Outcome, RunConfig};
use exec::MinePlan;
use fpm::{Kernel, TransactionDb};
use quest::QuestParams;
use std::time::{Duration, Instant};

/// Loads timed per run, spaced by [`SETUP_GAP`]; `setup_s` is their
/// median. Load times on a shared host shift for tens of milliseconds
/// at a time, so back-to-back samples would all see one phase.
const SETUP_REPS: usize = 61;
/// Pause before each timed load.
const SETUP_GAP: Duration = Duration::from_millis(20);
/// The dense shape's minimum support is calibrated so its All set
/// holds about this many patterns.
const DENSE_PATTERNS: u64 = 8000;
/// The skewed shape mines at 1% support: below the block's own support,
/// where a count target would sit on the cliff the block creates.
const SKEWED_MINSUP: u64 = 40;
/// Items in the planted block of the skewed shape.
const BLOCK: u32 = 12;
/// Every this-many-th transaction of the skewed shape (a quarter of
/// them) carries the block, before the seed shuffles them.
const BLOCK_EVERY: usize = 4;

/// The dense shape and the skewed shape, from the seed.
fn shapes(seed: u64) -> [TransactionDb; 2] {
    let dense = QuestParams {
        avg_transaction_len: 40.0,
        avg_pattern_len: 10.0,
        n_items: 500,
        n_patterns: 1000,
        seed: 0x6261_7431,
        ..QuestParams::default()
    };
    let sparse = QuestParams {
        avg_transaction_len: 10.0,
        avg_pattern_len: 4.0,
        n_items: 2000,
        n_patterns: 2000,
        seed: 0x6261_7432,
        ..QuestParams::default()
    };
    let dense = shuffled_shape(&dense, 1500, seed, 21);
    let sparse = quest::quest_generate(&QuestParams {
        n_transactions: 4000,
        ..sparse
    });
    let base = 2000u32;
    let skewed = sparse
        .transactions()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut t = t.clone();
            if i % BLOCK_EVERY == 0 {
                t.extend(base..base + BLOCK);
            }
            t
        })
        .collect();
    [dense, shuffled(skewed, seed, 22)]
}

/// One entry of the fixed list.
struct Job {
    shape: usize,
    kernel: Kernel,
    minsup: u64,
    /// Serial reference: emission-order hash, set digest, count.
    reference: (u64, u64, u64),
}

fn mine(db: &TransactionDb, kernel: Kernel, minsup: u64, threads: usize) -> (DigestSink, Duration) {
    let mut sink = DigestSink::default();
    let t = Instant::now();
    MinePlan::kernel(kernel, minsup)
        .threads(threads)
        .execute(db, &mut sink);
    (sink, t.elapsed())
}

/// What one measured phase saw.
struct Phase {
    /// Wall time of each complete round, ms.
    rounds_ms: Vec<f64>,
    /// Wall time of each run, ms, by job index.
    runs_ms: Vec<Vec<f64>>,
    runs: u64,
    failed: u64,
    problems: Vec<String>,
    wall_s: f64,
    peak_rss_mb: f64,
}

fn phase(dbs: &[TransactionDb], jobs: &[Job], seconds: f64, tr: &mut Tracer) -> Phase {
    let rss_reset = reset_peak_rss();
    let mut p = Phase {
        rounds_ms: Vec::new(),
        runs_ms: vec![Vec::new(); jobs.len()],
        runs: 0,
        failed: 0,
        problems: Vec::new(),
        wall_s: 0.0,
        peak_rss_mb: 0.0,
    };
    if let Err(e) = rss_reset {
        p.problems
            .push(format!("cannot reset the peak-RSS mark: {e}"));
    }
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        tr.begin("round", round);
        for (i, job) in jobs.iter().enumerate() {
            let name = match job.kernel {
                Kernel::Lcm => "exec.run.lcm",
                Kernel::Eclat => "exec.run.eclat",
                Kernel::FpGrowth => "exec.run.fpgrowth",
            };
            tr.begin(name, round);
            let (sink, wall) = mine(&dbs[job.shape], job.kernel, job.minsup, 2);
            tr.end();
            p.runs += 1;
            p.runs_ms[i].push(wall.as_secs_f64() * 1e3);
            let (ordered, set, count) = job.reference;
            let wrong = if sink.set != set || sink.count != count {
                Some("answer differs from the serial reference")
            } else if round == 0 && sink.ordered != ordered {
                Some("2-thread output order differs from the serial order")
            } else {
                None
            };
            if let Some(what) = wrong {
                p.failed += 1;
                p.problems.push(format!(
                    "{} on shape {} round {round}: {what}",
                    job.kernel.label(),
                    job.shape
                ));
            }
        }
        tr.end();
        p.rounds_ms.push(ms_since(t));
        round += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.peak_rss_mb = peak_rss_mb();
    p
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let work = WorkDir::create("batch-mine").map_err(|e| e.to_string())?;
    let mut out = Outcome::default();

    // Untimed pre-pass: shapes, FIMI files, supports, serial references.
    let mut paths = Vec::new();
    let mut jobs = Vec::new();
    for (s, db) in shapes(cfg.seed).iter().enumerate() {
        let path = work.path().join(format!("shape{s}.dat"));
        fpm::io::write_dat_file(&path, db).map_err(|e| e.to_string())?;
        paths.push(path);
        let minsup = if s == 0 {
            calibrate(db, DENSE_PATTERNS)
        } else {
            SKEWED_MINSUP
        };
        let mut agreed: Option<(u64, u64)> = None;
        for kernel in Kernel::ALL {
            let (sink, _) = mine(db, kernel, minsup, 1);
            let got = (sink.set, sink.count);
            if agreed.is_some_and(|a| a != got) {
                out.problem(format!(
                    "kernels disagree on shape {s}: {} differs",
                    kernel.label()
                ));
            }
            agreed.get_or_insert(got);
            jobs.push(Job {
                shape: s,
                kernel,
                minsup,
                reference: (sink.ordered, sink.set, sink.count),
            });
        }
        eprintln!(
            "batch-mine: shape {s}: {} transactions, min_support {minsup}, {} patterns",
            db.len(),
            agreed.map_or(0, |a| a.1)
        );
    }

    // Set-up: loading the FIMI inputs.
    let mut loads = Vec::with_capacity(SETUP_REPS);
    let mut dbs = Vec::new();
    for _ in 0..SETUP_REPS {
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        dbs = paths
            .iter()
            .map(fpm::io::read_dat_file)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64());
    }

    let mut quiet = Tracer::new(false, Instant::now());
    let plain = phase(&dbs, &jobs, cfg.seconds, &mut quiet);
    eprintln!(
        "batch-mine: {} rounds, {} runs in {:.2} s",
        plain.rounds_ms.len(),
        plain.runs,
        plain.wall_s
    );
    out.attempted = plain.runs;
    out.failed = plain.failed;
    out.problems.extend(plain.problems.iter().cloned());
    if !cfg.trace {
        out.set("setup_s", median(&loads));
        out.set("latency_p50_ms", pct(&plain.rounds_ms, 50.0));
        out.set("latency_p90_ms", pct(&plain.rounds_ms, 90.0));
        out.set("latency_p99_ms", pct(&plain.rounds_ms, 99.0));
        out.set("throughput_rps", plain.runs as f64 / plain.wall_s.max(1e-9));
        out.set(
            "ok_share",
            1.0 - plain.failed as f64 / plain.runs.max(1) as f64,
        );
        out.set("peak_rss_mb", plain.peak_rss_mb);
        return Ok(out);
    }

    // Traced run: the same rounds with spans on, then per kernel a
    // serial run with a timestamping sink, for the first-pattern time
    // and the serial side of the speedup.
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let traced = phase(&dbs, &jobs, cfg.seconds, &mut tr);
    out.problems.extend(traced.problems.iter().cloned());
    for kernel in Kernel::ALL {
        let (mut first_ms, mut serial_ms, mut par_ms, mut patterns) = (0.0, 0.0, 0.0, 0u64);
        for (i, job) in jobs.iter().enumerate().filter(|(_, j)| j.kernel == kernel) {
            let mut serial = Vec::new();
            for rep in 0..3u64 {
                tr.begin("exec.serial", rep);
                let t = Instant::now();
                let (sink, wall) = mine(&dbs[job.shape], kernel, job.minsup, 1);
                tr.end();
                if sink.ordered != job.reference.0 {
                    out.problem(format!(
                        "{} serial rerun differs on shape {}",
                        kernel.label(),
                        job.shape
                    ));
                }
                if rep == 0 {
                    first_ms += sink.first.map_or(0.0, |f| (f - t).as_secs_f64() * 1e3);
                }
                serial.push(wall.as_secs_f64() * 1e3);
            }
            serial_ms += median(&serial);
            par_ms += median(&traced.runs_ms[i]);
            patterns += job.reference.2;
        }
        let k = kernel.label();
        out.set(&format!("exec.first_pattern_ms.{k}"), first_ms);
        out.set(&format!("exec.mine_ms.{k}"), par_ms);
        out.set(
            &format!("exec.patterns_per_s.{k}"),
            patterns as f64 / (par_ms / 1e3).max(1e-9),
        );
        out.set(&format!("par.speedup_2t.{k}"), serial_ms / par_ms.max(1e-9));
    }
    let (u50, t50) = (pct(&plain.rounds_ms, 50.0), pct(&traced.rounds_ms, 50.0));
    out.set("trace.overhead_pct", (t50 - u50) / u50.max(1e-9) * 100.0);
    out.set(
        "fail_share",
        traced.failed as f64 / traced.runs.max(1) as f64,
    );
    let header = format!(
        "batch-mine seed {} ({} rounds traced): round p50 untraced {u50:.3} ms, traced {t50:.3} ms",
        cfg.seed,
        traced.rounds_ms.len()
    );
    out.artifacts =
        write_outputs("batch-mine", cfg.seed, &tr, &header).map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short mode: kernels agree, 2 threads reproduce the serial bytes,
    /// and every run is counted.
    #[test]
    fn short_run_agrees_across_kernels_and_threads() {
        let out = run(&RunConfig {
            seed: 4,
            seconds: 0.5,
            trace: false,
        })
        .expect("run");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(out.attempted >= 6);
        assert_eq!(out.failed, 0);
    }
}
