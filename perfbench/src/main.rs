//! `perfbench` — the repository's benchmark: one command runs a named
//! workload against the mining service or the kernels, checks every
//! answer, and prints each metric by name and unit. See README.md in
//! this directory for the workloads, metrics and the layer map.
//!
//! ```text
//! perfbench --workload hot-hits|query-mix|batch-mine --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the workload runs again with spans on and the metrics are the
//! per-layer set. A wrong answer prints the result with
//! `"correct":false` and exits 1; a run that could not be made exits 2
//! without a result line.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod batch_mine;
mod client;
mod hot_hits;
mod query_mix;
mod serving;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse_us_p50", "us"),
    ("wire.render_us_p50", "us"),
    ("wire.response_bytes_p50", "bytes"),
    ("service.queue_ms_p90", "ms"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("service.mined_runs", "count"),
    ("resolve.read_dat_ms_p50", "ms"),
    ("cache.fingerprint_us_p50", "us"),
    ("cache.probe_us_p50", "us"),
    ("cache.probe_us_max", "us"),
    ("cache.insert_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.first_mines", "count"),
    ("cache.remines", "count"),
    ("cache.evictions", "count"),
    ("store.warm_start_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("admit.bound_us_p50", "us"),
    ("exec.first_pattern_ms.lcm", "ms"),
    ("exec.first_pattern_ms.eclat", "ms"),
    ("exec.first_pattern_ms.fpgrowth", "ms"),
    ("exec.mine_ms.lcm", "ms"),
    ("exec.mine_ms.eclat", "ms"),
    ("exec.mine_ms.fpgrowth", "ms"),
    ("exec.patterns_per_s.lcm", "1/s"),
    ("exec.patterns_per_s.eclat", "1/s"),
    ("exec.patterns_per_s.fpgrowth", "1/s"),
    ("par.speedup_2t.lcm", "x"),
    ("par.speedup_2t.eclat", "x"),
    ("par.speedup_2t.fpgrowth", "x"),
    ("query.collect_ms_p50", "ms"),
    ("query.apply_ms_p50.closed", "ms"),
    ("query.apply_ms_p50.maximal", "ms"),
    ("query.apply_ms_p50.top32", "ms"),
    ("query.answer_ratio.closed", "ratio"),
    ("query.answer_ratio.maximal", "ratio"),
    ("query.answer_ratio.top32", "ratio"),
    ("trace.overhead_pct", "%"),
    ("fail_share", "ratio"),
];

/// How one invocation was asked to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input and schedule derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: repeat with spans on and report per-layer metrics.
    pub trace: bool,
}

/// What a workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or mining runs) attempted in the measured phase.
    pub attempted: u64,
    /// Of those: rejected, failed, cancelled, past deadline, wrong, or
    /// lost to an I/O error.
    pub failed: u64,
    /// Every wrong answer or broken invariant, in words.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Files the traced run wrote.
    pub artifacts: Vec<PathBuf>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a wrong answer or broken invariant.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload hot-hits|query-mix|batch-mine --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, RunConfig) {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            _ => usage(),
        }
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        usage();
    }
    (workload.unwrap_or_else(|| usage()), cfg)
}

/// Renders the result line: the chosen metric set, in catalog order.
fn result_line(out: &Outcome, set: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in set.iter().enumerate() {
        let value = out.metrics.get(*name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed
    )
}

fn main() {
    let (workload, cfg) = parse_args();
    let run = match workload.as_str() {
        "hot-hits" => hot_hits::run(&cfg),
        "query-mix" => query_mix::run(&cfg),
        "batch-mine" => batch_mine::run(&cfg),
        _ => usage(),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: run failed: {e}");
            std::process::exit(2);
        }
    };
    let set = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let value = out.metrics.get(*name).copied().unwrap_or(0.0);
        eprintln!("{name:<32} {value:>16.4} {unit}");
    }
    for path in &out.artifacts {
        eprintln!("wrote {}", path.display());
    }
    for p in &out.problems {
        eprintln!("WRONG: {p}");
    }
    println!("{}", result_line(&out, set));
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = serve::json::parse(&text).expect("valid JSON");
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = set
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_of_the_set() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.5);
        let line = result_line(&out, END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
    }
}
