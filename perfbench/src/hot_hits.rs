//! `hot-hits`: a closed loop of cache hits — the read path of the cache
//! and store layers, with the kernels idle.
//!
//! Two loopback connections to `serve_poll` each send their next
//! request as soon as the reply to the last one is in, drawing Zipf(1.0)
//! over 16 keys (the four catalog datasets at smoke scale × a stepped
//! minimum support; identity query; no pattern lists on the wire).
//! An open loop at 100 requests/s left the host idle between requests;
//! on a virtual machine whose host was busy, every hand-off between
//! threads then waited for a sleeping virtual CPU to run again, and the
//! median latency grew 2–4× with the host's load.
//!
//! The service warm-starts from a store directory an untimed pre-pass
//! filled, so every request is a cache hit and the run mines nothing.
//! Each answer's count must equal a fresh `MinePlan` count taken in the
//! pre-pass, which proves the store round trip.

use crate::client::{closed_loop, Timing};
use crate::serving::{counters, delta, named_line, read_reply, Replay, Reply, Server};
use crate::trace::{write_outputs, Tracer};
use crate::util::{
    dir_bytes, max, median, pct, peak_rss_mb, reset_peak_rss, windowed_pct, Rng, WorkDir,
};
use crate::{Outcome, RunConfig};
use exec::MinePlan;
use fpm::{CollectSink, Kernel};
use quest::{Dataset, Scale};
use serve::{parse_request, MineService, ServeConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct request keys.
const KEYS: usize = 16;
/// Client connections (one generator thread each).
const CONNS: usize = 2;
/// Boots timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Untimed closed loop before the measured one, so the first measured
/// requests do not pay for cold caches and first-touch page faults.
const WARMUP_S: f64 = 2.0;
/// Requests of the traced stream the serial replay walks: enough for
/// stable per-layer medians, few enough to keep a traced run short.
const REPLAY_MAX: usize = 3000;

/// One request key: a catalog dataset at a stepped minimum support.
struct Key {
    dataset: Dataset,
    minsup: u64,
    line: String,
}

/// Key `k` rotates over the four datasets (so shard routing spreads
/// them) and steps the support every full rotation, from twice each
/// dataset's Table 6 smoke support — the loadgen catalog.
fn keys() -> Vec<Key> {
    (0..KEYS)
        .map(|k| {
            let dataset = Dataset::ALL[k % Dataset::ALL.len()];
            let minsup = dataset.support(Scale::Smoke) * 2 + (k / Dataset::ALL.len()) as u64 * 7;
            let label = dataset.label().to_ascii_lowercase();
            Key {
                dataset,
                minsup,
                line: named_line(&label, "lcm", minsup, false),
            }
        })
        .collect()
}

/// The service under test: 2 shards × 1 worker, serial mining, warm
/// start from `store`.
fn service_config(store: Option<std::path::PathBuf>) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: 1,
        queue_depth: 4096,
        cache_capacity: 32,
        mine_threads: 1,
        store_dir: store,
        ..ServeConfig::default()
    }
}

/// Connection `conn`'s stream of keys, drawn Zipf(1.0) from the seed
/// alone.
pub fn key_stream(seed: u64, conn: usize) -> impl FnMut() -> usize {
    let cdf: Vec<f64> = (0..KEYS)
        .scan(0.0, |acc, i| {
            *acc += 1.0 / (i + 1) as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[KEYS - 1];
    let mut draws = Rng::new(seed, 2 + conn as u64);
    move || {
        let v = draws.unit() * total;
        cdf.partition_point(|&c| c <= v).min(KEYS - 1)
    }
}

/// What one measured closed-loop phase saw.
struct Phase {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Latency of each verified reply, in send order.
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    throughput: f64,
    peak_rss_mb: f64,
    counters: BTreeMap<&'static str, u64>,
    /// `(id, key)` in send order — the stream the replay walks.
    stream: Vec<(u64, usize)>,
}

fn phase(
    server: &Server,
    keys: &[Key],
    expected: &[u64],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Phase {
    let before = counters(&server.svc);
    let rss_reset = reset_peak_rss();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let results: Vec<std::io::Result<Vec<_>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut next_key = key_stream(seed, c);
                    closed_loop(
                        server.addr,
                        until,
                        Duration::from_secs(30),
                        || {
                            let key = next_key();
                            (key as u64, keys[key].line.clone())
                        },
                        |key, t, line| (key as usize, t, read_reply(line)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("client panicked")))
            })
            .collect()
    });
    let peak = peak_rss_mb();
    let after = counters(&server.svc);

    let mut p = Phase {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        latency_ms: Vec::new(),
        queue_ms: Vec::new(),
        throughput: 0.0,
        peak_rss_mb: peak,
        counters: BTreeMap::new(),
        stream: Vec::new(),
    };
    if let Err(e) = rss_reset {
        p.problems
            .push(format!("cannot reset the peak-RSS mark: {e}"));
    }
    let mut seen: Vec<(usize, Timing, Result<Reply, String>)> = Vec::new();
    for result in results {
        match result {
            Ok(replies) => seen.extend(replies),
            Err(e) => {
                p.failed += 1;
                p.problems.push(format!("client I/O error: {e}"));
            }
        }
    }
    p.attempted = seen.len() as u64 + p.failed;
    seen.sort_by_key(|(_, t, _)| t.sent);
    let mut last = start;
    for (id, (key, t, reply)) in seen.into_iter().enumerate() {
        let id = id as u64;
        p.stream.push((id, key));
        tr.begin_at("request", id, t.sent);
        tr.record("wire.roundtrip", id, t.sent, t.received);
        tr.end_at(t.received);
        match reply {
            Ok(r) if r.outcome == "complete" && r.count == expected[key] => {
                p.latency_ms.push(t.latency_ms());
                p.queue_ms.push(r.queue_ms);
                last = last.max(t.received);
            }
            Ok(r) => {
                p.failed += 1;
                if r.outcome == "complete" {
                    p.problems.push(format!(
                        "request {id}: count {} != {} mined in the pre-pass",
                        r.count, expected[key]
                    ));
                }
            }
            Err(e) => {
                p.failed += 1;
                p.problems
                    .push(format!("request {id}: unreadable reply: {e}"));
            }
        }
    }
    let secs = last.saturating_duration_since(start).as_secs_f64();
    p.throughput = p.latency_ms.len() as f64 / secs.max(1e-9);
    for name in [
        "mined_runs",
        "cache_hits",
        "cache_probes",
        "cache_evictions",
        "requests_coalesced",
        "requests_rejected",
    ] {
        p.counters.insert(name, delta(&before, &after, name));
    }
    if p.counters["mined_runs"] != 0 {
        p.problems.push(format!(
            "{} mined runs during a hits-only phase (want 0)",
            p.counters["mined_runs"]
        ));
    }
    p
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let work = WorkDir::create(&format!("hot-hits-{}", cfg.seed)).map_err(|e| e.to_string())?;
    let store = work.path().join("store");
    let keys = keys();

    // Untimed pre-pass: the reference counts, then the store.
    let mut named: BTreeMap<String, Arc<fpm::TransactionDb>> = BTreeMap::new();
    for d in Dataset::ALL {
        named.insert(
            d.label().to_ascii_lowercase(),
            Arc::new(d.generate(Scale::Smoke)),
        );
    }
    let mut expected = Vec::with_capacity(KEYS);
    let mut reference = Vec::with_capacity(KEYS);
    for k in &keys {
        let db = &named[&k.dataset.label().to_ascii_lowercase()];
        let mut sink = CollectSink::default();
        MinePlan::kernel(Kernel::Lcm, k.minsup).execute(db, &mut sink);
        expected.push(sink.patterns.len() as u64);
        reference.push(sink.patterns);
    }
    let mut out = Outcome::default();
    {
        let filler = MineService::start(service_config(Some(store.clone())));
        for (k, want) in keys.iter().zip(&expected) {
            let resp = filler.mine(parse_request(&k.line)?);
            if resp.count != *want {
                out.problem(format!(
                    "pre-pass: service counted {} for {}, MinePlan {want}",
                    resp.count, k.line
                ));
            }
        }
        filler.shutdown();
    }
    let store_bytes = dir_bytes(&store);

    // Set-up: service start with warm start, plus listener ready.
    // One warm-up phase, then one measured phase (two when traced).
    let phases = if cfg.trace { 3 } else { 2 };
    let (server, boots) = Server::boot_timed(
        &service_config(Some(store.clone())),
        CONNS * phases,
        SETUP_REPS,
    )
    .map_err(|e| e.to_string())?;
    let warm = counters(&server.svc)
        .get("store_warm_entries")
        .copied()
        .unwrap_or(0);
    if warm != KEYS as u64 {
        out.problem(format!("warm start restored {warm} entries, want {KEYS}"));
    }

    let mut quiet = Tracer::new(false, Instant::now());
    let warmed = phase(&server, &keys, &expected, !cfg.seed, WARMUP_S, &mut quiet);
    out.problems.extend(warmed.problems);
    let plain = phase(&server, &keys, &expected, cfg.seed, cfg.seconds, &mut quiet);

    out.set("setup_s", median(&boots));
    out.set("latency_p50_ms", windowed_pct(&plain.latency_ms, 50.0));
    out.set("latency_p90_ms", windowed_pct(&plain.latency_ms, 90.0));
    out.set("latency_p99_ms", windowed_pct(&plain.latency_ms, 99.0));
    out.set("throughput_rps", plain.throughput);
    out.set(
        "ok_share",
        1.0 - plain.failed as f64 / plain.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", plain.peak_rss_mb);
    eprintln!(
        "hot-hits: {} requests over {CONNS} connections, {} ok",
        plain.attempted,
        plain.latency_ms.len()
    );
    out.problems.extend(plain.problems.iter().cloned());
    out.attempted = plain.attempted;
    out.failed = plain.failed;

    if !cfg.trace {
        server.stop(CONNS * phases).map_err(|e| e.to_string())?;
        return Ok(out);
    }

    // Traced run: the same stream again with spans on, then a serial
    // replay of it through the layer functions.
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let traced = phase(&server, &keys, &expected, cfg.seed, cfg.seconds, &mut tr);
    server.stop(CONNS * phases).map_err(|e| e.to_string())?;
    out.problems.extend(traced.problems.iter().cloned());

    let mut replay = Replay::new(named, 32);
    for (k, patterns) in keys.iter().zip(reference) {
        replay.prefill(&k.line, patterns)?;
    }
    for &(id, key) in traced.stream.iter().take(REPLAY_MAX) {
        let got = replay.run(&mut tr, id, &keys[key].line)?;
        if got.patterns.len() as u64 != expected[key] {
            out.problem(format!(
                "replay of request {id}: count {} != {}",
                got.patterns.len(),
                expected[key]
            ));
        }
    }

    let cold =
        Server::boot_timed(&service_config(None), 0, SETUP_REPS).map_err(|e| e.to_string())?;
    cold.0.stop(0).map_err(|e| e.to_string())?;

    let l = &replay.layers;
    let c = &traced.counters;
    let untraced_p50 = pct(&plain.latency_ms, 50.0);
    let traced_p50 = pct(&traced.latency_ms, 50.0);
    out.set("wire.parse_us_p50", median(l.get("wire.parse_us")));
    out.set("wire.render_us_p50", median(l.get("wire.render_us")));
    out.set(
        "wire.response_bytes_p50",
        median(l.get("wire.response_bytes")),
    );
    out.set("service.queue_ms_p90", pct(&traced.queue_ms, 90.0));
    out.set("service.coalesced", c["requests_coalesced"] as f64);
    out.set("service.rejected", c["requests_rejected"] as f64);
    out.set("service.mined_runs", c["mined_runs"] as f64);
    out.set(
        "cache.fingerprint_us_p50",
        median(l.get("cache.fingerprint_us")),
    );
    out.set("cache.probe_us_p50", median(l.get("cache.probe_us")));
    out.set("cache.probe_us_max", max(l.get("cache.probe_us")));
    out.set(
        "cache.hit_ratio",
        c["cache_hits"] as f64 / c["cache_probes"].max(1) as f64,
    );
    out.set("cache.evictions", c["cache_evictions"] as f64);
    out.set(
        "store.warm_start_ms",
        ((median(&boots) - median(&cold.1)) * 1e3).max(0.0),
    );
    out.set("store.artifact_bytes", store_bytes as f64);
    out.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50.max(1e-9) * 100.0,
    );
    out.set(
        "fail_share",
        traced.failed as f64 / traced.attempted.max(1) as f64,
    );
    let header = format!(
        "hot-hits seed {} ({} requests, {CONNS} connections): latency p50 untraced {untraced_p50:.3} ms, traced {traced_p50:.3} ms",
        cfg.seed, traced.attempted
    );
    out.artifacts = write_outputs("hot-hits", cfg.seed, &tr, &header).map_err(|e| e.to_string())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_streams_are_pure_functions_of_the_seed() {
        let draw = |seed, conn| {
            let mut next = key_stream(seed, conn);
            (0..500).map(|_| next()).collect::<Vec<_>>()
        };
        let a = draw(7, 0);
        assert_eq!(a, draw(7, 0));
        assert_ne!(a, draw(8, 0));
        assert_ne!(a, draw(7, 1));
        // Zipf(1.0): key 0 is the most requested.
        let hot = a.iter().filter(|&&k| k == 0).count();
        assert!(a.iter().all(|&k| k < KEYS));
        assert!(hot * 5 > a.len(), "{hot} of {}", a.len());
    }

    /// Short mode, traced: every request of a 1-second run is a
    /// verified cache hit, and the service mines nothing.
    #[test]
    fn short_run_is_all_hits_and_mines_nothing() {
        let out = run(&RunConfig {
            seed: 3,
            seconds: 1.0,
            trace: true,
        })
        .expect("run");
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= 50);
        assert_eq!(out.metrics["service.mined_runs"], 0.0);
        assert_eq!(out.metrics["cache.hit_ratio"], 1.0);
    }
}
