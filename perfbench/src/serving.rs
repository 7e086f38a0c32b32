//! The served system as the benchmark sees it: boot a [`MineService`]
//! behind `serve_poll` on loopback, read its counters, decode its
//! response lines, and replay a request stream serially through the
//! layer functions a worker crosses.

use crate::trace::Tracer;
use crate::util::{fnv, ms_since, us_since};
use exec::MinePlan;
use fpm::{CollectSink, ItemsetCount, Kernel, MineKind, PatternQuery, TransactionDb};
use serve::cache::CacheConfig;
use serve::json::{self, Json};
use serve::{
    fingerprint, parse_request, render_response, serve_poll, DatasetSpec, FrontendConfig, Lookup,
    MineResponse, MineService, MineStats, Outcome, ResultCache, ServeConfig,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running service with its poll frontend on a loopback port.
pub struct Server {
    /// The in-process service (for counters).
    pub svc: MineService,
    /// Where the frontend listens.
    pub addr: SocketAddr,
    conns: usize,
    poll: JoinHandle<io::Result<serve::FrontendStats>>,
}

impl Server {
    /// Starts the service and its frontend; the frontend serves exactly
    /// `conns` connections and then returns.
    pub fn boot(cfg: ServeConfig, conns: usize) -> io::Result<Server> {
        let svc = MineService::start(cfg);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let front = FrontendConfig {
            max_inflight_per_conn: 1024,
            max_line_bytes: 1 << 20,
            ..FrontendConfig::default()
        };
        let poll_svc = svc.clone();
        let poll = std::thread::spawn(move || serve_poll(&poll_svc, listener, front, Some(conns)));
        Ok(Server {
            svc,
            addr,
            conns,
            poll,
        })
    }

    /// Boots `reps` times, 20 ms apart, keeping the last server; returns
    /// it with the wall seconds of every boot (start + listener ready).
    /// The pauses spread the samples over the host's slower and faster
    /// phases.
    pub fn boot_timed(
        cfg: &ServeConfig,
        conns: usize,
        reps: usize,
    ) -> io::Result<(Server, Vec<f64>)> {
        let mut secs = Vec::with_capacity(reps);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let t = Instant::now();
            let server = Server::boot(cfg.clone(), conns)?;
            secs.push(t.elapsed().as_secs_f64());
            if secs.len() >= reps.max(1) {
                return Ok((server, secs));
            }
            server.stop(0)?;
        }
    }

    /// Closes the frontend (after `used` client connections have come
    /// and gone), joins it, and shuts the service down.
    pub fn stop(self, used: usize) -> io::Result<()> {
        for _ in used..self.conns {
            drop(TcpStream::connect(self.addr)?);
        }
        let joined = self
            .poll
            .join()
            .map_err(|_| io::Error::other("poll frontend panicked"))?;
        self.svc.shutdown();
        joined.map(|_| ())
    }
}

/// The service's global counters by name.
pub fn counters(svc: &MineService) -> BTreeMap<&'static str, u64> {
    svc.metrics().snapshot().into_iter().collect()
}

/// `after[name] - before[name]` (0 for a counter either side lacks).
pub fn delta(before: &BTreeMap<&str, u64>, after: &BTreeMap<&str, u64>, name: &str) -> u64 {
    let a = after.get(name).copied().unwrap_or(0);
    let b = before.get(name).copied().unwrap_or(0);
    a.saturating_sub(b)
}

/// The request line for a named smoke dataset.
pub fn named_line(dataset: &str, kernel: &str, minsup: u64, include: bool) -> String {
    format!(
        r#"{{"dataset":{{"name":"{dataset}","scale":"smoke"}},"kernel":"{kernel}","min_support":{minsup},"include_patterns":{include}}}"#
    )
}

/// The request line for a FIMI file, with the query fields of `query`.
pub fn path_line(path: &str, kernel: &str, minsup: u64, query: &PatternQuery) -> String {
    let mut line = format!(
        r#"{{"dataset":{{"path":"{path}"}},"kernel":"{kernel}","min_support":{minsup},"include_patterns":true"#
    );
    if query.class != MineKind::All {
        line.push_str(&format!(r#","class":"{}""#, query.class.name()));
    }
    if let Some(k) = query.top_k {
        line.push_str(&format!(r#","top_k":{k}"#));
    }
    line.push('}');
    line
}

/// What the benchmark reads off one response line without decoding the
/// pattern list.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Wire outcome label.
    pub outcome: String,
    /// Patterns in the answer.
    pub count: u64,
    /// Served from the cache.
    pub cache_hit: bool,
    /// Attached to another request's run.
    pub coalesced: bool,
    /// Queue wait the service reports.
    pub queue_ms: f64,
    /// Hash of every byte before the per-request `stats` member — equal
    /// for two answers with identical outcome, count and patterns.
    pub body_hash: u64,
}

/// Splits a response line into the answer (everything before the
/// trailing `"stats"` member) and the stats object.
fn split_stats(line: &[u8]) -> Option<(&[u8], &[u8])> {
    const KEY: &[u8] = b",\"stats\":";
    let pos = line.windows(KEY.len()).rposition(|w| w == KEY)?;
    let stats = line.get(pos + KEY.len()..line.len().checked_sub(1)?)?;
    Some((&line[..pos], stats))
}

/// The value text following `"key":` in `head`.
fn field<'a>(head: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &head[head.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Decodes the fields of a response line the checks use.
pub fn read_reply(line: &[u8]) -> Result<Reply, String> {
    let (body, stats) = split_stats(line).ok_or("response without stats")?;
    let head = std::str::from_utf8(&body[..body.len().min(200)])
        .or_else(|e| std::str::from_utf8(&body[..e.valid_up_to()]))
        .map_err(|e| e.to_string())?;
    let outcome = field(head, "outcome").ok_or("response without outcome")?;
    let count = field(head, "count")
        .and_then(|c| c.parse::<u64>().ok())
        .ok_or("response without count")?;
    let stats = json::parse(std::str::from_utf8(stats).map_err(|e| e.to_string())?)?;
    let flag = |k: &str| stats.get(k).and_then(Json::as_bool).unwrap_or(false);
    Ok(Reply {
        outcome: outcome.to_string(),
        count,
        cache_hit: flag("cache_hit"),
        coalesced: flag("coalesced"),
        queue_ms: stats.get("queue_ms").and_then(Json::as_f64).unwrap_or(0.0),
        body_hash: fnv(body),
    })
}

/// Decodes the pattern list of a response line.
pub fn reply_patterns(line: &[u8]) -> Result<Vec<ItemsetCount>, String> {
    let v = json::parse(std::str::from_utf8(line).map_err(|e| e.to_string())?)?;
    let arr = v
        .get("patterns")
        .and_then(Json::as_arr)
        .ok_or("response without patterns")?;
    arr.iter()
        .map(|p| {
            let items = p
                .get("items")
                .and_then(Json::as_arr)
                .ok_or("pattern without items")?
                .iter()
                .map(|i| i.as_u64().map(|i| i as u32).ok_or("bad item"))
                .collect::<Result<Vec<u32>, _>>()?;
            let support = p
                .get("support")
                .and_then(Json::as_u64)
                .ok_or("pattern without support")?;
            Ok(ItemsetCount { items, support })
        })
        .collect()
}

/// The short label of a query of the benchmark's palette.
pub fn query_label(q: &PatternQuery) -> &'static str {
    match (q.class, q.top_k) {
        (_, Some(_)) => "top32",
        (MineKind::All, None) => "all",
        (MineKind::Closed, None) => "closed",
        (MineKind::Maximal, None) => "maximal",
    }
}

/// Per-layer samples gathered by a [`Replay`].
#[derive(Default)]
pub struct LayerSamples {
    /// Sample lists by metric name (µs, ms or bytes as the name says).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// The samples of `name` (empty when the layer was not crossed).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// What one replayed request answered.
pub struct Replayed {
    /// The answer.
    pub patterns: Arc<Vec<ItemsetCount>>,
}

/// A serial re-run of a request stream through the layer functions, in
/// the order a service worker uses them: parse → resolve → fingerprint
/// → probe → bound → mine → apply → insert → render. It keeps its own
/// cache, sized like the service's.
pub struct Replay {
    cache: ResultCache,
    named: BTreeMap<String, Arc<TransactionDb>>,
    /// Samples per layer metric.
    pub layers: LayerSamples,
}

impl Replay {
    /// A replay whose named datasets resolve from `named` (label →
    /// database, as the service's registry would) and whose cache holds
    /// `capacity` entries.
    pub fn new(named: BTreeMap<String, Arc<TransactionDb>>, capacity: usize) -> Replay {
        Replay {
            cache: ResultCache::with_config(CacheConfig::entries(capacity)),
            named,
            layers: LayerSamples::default(),
        }
    }

    /// Seeds the replay cache the way a warm start seeds the service's.
    pub fn prefill(&mut self, line: &str, patterns: Vec<ItemsetCount>) -> Result<(), String> {
        let req = parse_request(line)?;
        let db = self.resolve(&req.dataset)?;
        let key = (
            fingerprint(&db),
            req.kernel.code(),
            req.min_support,
            req.query.key(),
        );
        self.cache.insert(key, Arc::new(patterns));
        Ok(())
    }

    fn resolve(&self, spec: &DatasetSpec) -> Result<Arc<TransactionDb>, String> {
        match spec {
            DatasetSpec::Named { dataset, .. } => self
                .named
                .get(&dataset.label().to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| format!("dataset {} not loaded", dataset.label())),
            other => other.resolve().map(Arc::new),
        }
    }

    /// Replays one request line.
    pub fn run(&mut self, tr: &mut Tracer, id: u64, line: &str) -> Result<Replayed, String> {
        tr.begin("replay.request", id);
        let out = self.run_inner(tr, id, line);
        tr.end();
        out
    }

    fn run_inner(&mut self, tr: &mut Tracer, id: u64, line: &str) -> Result<Replayed, String> {
        let t = Instant::now();
        let req = tr.span("wire.parse", id, || parse_request(line))?;
        self.layers.push("wire.parse_us", us_since(t));

        let t = Instant::now();
        let db = match &req.dataset {
            DatasetSpec::Path(_) => {
                let db = tr.span("resolve.read_dat", id, || self.resolve(&req.dataset))?;
                self.layers.push("resolve.read_dat_ms", ms_since(t));
                db
            }
            spec => tr.span("resolve.lookup", id, || self.resolve(spec))?,
        };

        let t = Instant::now();
        let fp = tr.span("cache.fingerprint", id, || fingerprint(&db));
        self.layers.push("cache.fingerprint_us", us_since(t));
        let key = (fp, req.kernel.code(), req.min_support, req.query.key());

        let t = Instant::now();
        let looked = tr.span("cache.probe", id, || self.cache.probe(&key));
        self.layers.push("cache.probe_us", us_since(t));

        let answer = match looked {
            Lookup::Hit(patterns) => patterns,
            Lookup::Corrupt | Lookup::Expired | Lookup::Miss => {
                let t = Instant::now();
                let bound = tr.span("admit.bound", id, || {
                    fpm::bound::candidate_bound(&db, req.min_support)
                });
                std::hint::black_box(bound);
                self.layers.push("admit.bound_us", us_since(t));

                let plan = MinePlan::kernel(req.kernel, req.min_support);
                let t = Instant::now();
                let mut sink = CollectSink::default();
                let name = match (req.query.is_all(), req.kernel) {
                    (true, Kernel::Lcm) => "exec.mine.lcm",
                    (true, Kernel::Eclat) => "exec.mine.eclat",
                    (true, Kernel::FpGrowth) => "exec.mine.fpgrowth",
                    (false, Kernel::Lcm) => "query.collect.lcm",
                    (false, Kernel::Eclat) => "query.collect.eclat",
                    (false, Kernel::FpGrowth) => "query.collect.fpgrowth",
                };
                tr.span(name, id, || plan.execute(&db, &mut sink));
                let all = sink.patterns;
                let answer = if req.query.is_all() {
                    all
                } else {
                    self.layers.push("query.collect_ms", ms_since(t));
                    let collected = all.len().max(1) as f64;
                    let label = query_label(&req.query);
                    let (span, apply_ms, ratio) = match label {
                        "closed" => (
                            "query.apply.closed",
                            "query.apply_ms.closed",
                            "query.answer_ratio.closed",
                        ),
                        "maximal" => (
                            "query.apply.maximal",
                            "query.apply_ms.maximal",
                            "query.answer_ratio.maximal",
                        ),
                        _ => (
                            "query.apply.top32",
                            "query.apply_ms.top32",
                            "query.answer_ratio.top32",
                        ),
                    };
                    let t = Instant::now();
                    let n = db.len() as u64;
                    let answer = tr.span(span, id, || req.query.apply(all, n));
                    self.layers.push(apply_ms, ms_since(t));
                    self.layers.push(ratio, answer.len() as f64 / collected);
                    answer
                };
                let answer = Arc::new(answer);
                let t = Instant::now();
                tr.span("cache.insert", id, || {
                    self.cache.insert(key, Arc::clone(&answer))
                });
                self.layers.push("cache.insert_us", us_since(t));
                answer
            }
        };

        let resp = MineResponse {
            outcome: Outcome::Complete,
            count: answer.len() as u64,
            patterns: req.include_patterns.then(|| Arc::clone(&answer)),
            reason: None,
            stats: MineStats::default(),
        };
        let t = Instant::now();
        let rendered = tr.span("wire.render", id, || render_response(&resp));
        self.layers.push("wire.render_us", us_since(t));
        self.layers
            .push("wire.response_bytes", rendered.len() as f64 + 1.0);
        Ok(Replayed { patterns: answer })
    }
}
