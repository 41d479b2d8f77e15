//! One benchmark run: set up several times, measure one workload, check
//! every result, and compute the end-to-end or the per-layer metrics.

use crate::gen::{self, EdgeGen, Rng, Stream};
use crate::host;
use crate::stats::{latency, median, MIN_P99_SAMPLES};
use crate::trace::Tracer;
use crate::workload::{self, Answers, Client, Engine, Kind, Mode, GEOMETRY};
use rowstore::{BlockReader, BlockWriter, Value};
use sparklet::partition_of;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `ingest` appends per `--seconds` of a run. `ingest` runs a fixed number
/// of appends rather than a fixed time: append latency grows with the
/// number of versions, so a timed loop would measure a deeper state
/// whenever appends got faster.
const INGEST_APPENDS_PER_S: u64 = 200;
/// Seconds between host reference probes in the timed phase.
const PROBE_EVERY_S: f64 = 0.05;
/// Operators whose per-operation time and output rows the traced run
/// reports (`op.<name>.*`).
const OPERATORS: [&str; 10] = [
    "scan",
    "filter",
    "project",
    "agg",
    "limit",
    "indexed_lookup",
    "join.indexed",
    "join.broadcast",
    "join.adaptive",
    "join.shuffled",
];
/// Registry counters the traced run reads, by name.
const COUNTERS: [&str; 15] = [
    "stage.launched",
    "task.attempt_failures",
    "shuffle.bytes",
    "shuffle.rows",
    "shuffle.blocks",
    "broadcast.unique_bytes",
    "memory.evictions",
    "memory.retired_versions",
    "index.cache.hits",
    "index.cache.misses",
    "index.build_ns",
    "view.delta_rows",
    "view.fallbacks",
    "operator.vectorized",
    "operator.fallback",
];
/// Registry histograms the traced run reads (count and sum only).
const HISTOGRAMS: [&str; 3] = ["task.run_ns", "task.queue_wait_ns", "index.chain_len"];

pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
}

/// Counter values and histogram (count, sum) pairs at one instant.
#[derive(Default)]
struct Counters {
    values: BTreeMap<String, u64>,
    hists: BTreeMap<String, (u64, u64)>,
    ctrie_snapshots: u64,
}

impl Counters {
    fn read(engine: &Engine) -> Counters {
        let reg = engine.ctx.cluster().registry();
        let mut c = Counters {
            ctrie_snapshots: ctrie::snapshot_generations(),
            ..Counters::default()
        };
        let op_counters = OPERATORS.iter().map(|o| format!("op.{o}.rows_out"));
        for name in COUNTERS.iter().map(|s| s.to_string()).chain(op_counters) {
            c.values.insert(name.clone(), reg.counter_value(&name));
        }
        let op_hists = OPERATORS.iter().map(|o| format!("op.{o}.ns"));
        for name in HISTOGRAMS.iter().map(|s| s.to_string()).chain(op_hists) {
            let h = reg.histogram_snapshot(&name).unwrap_or_default();
            c.hists.insert(name, (h.count, h.sum));
        }
        c
    }

    fn delta(&self, before: &Counters, name: &str) -> f64 {
        (self.values[name] - before.values[name]) as f64
    }

    fn hist_delta(&self, before: &Counters, name: &str) -> (f64, f64) {
        let (c1, s1) = self.hists[name];
        let (c0, s0) = before.hists[name];
        ((c1 - c0) as f64, (s1 - s0) as f64)
    }
}

/// Everything the timed phase observed.
#[derive(Default)]
struct Timed {
    ops: u64,
    failed: u64,
    wall_s: f64,
    /// Seconds outside the system: making inputs, checking results, and
    /// probing the host.
    client_s: f64,
    /// Latency of every untraced operation, µs, by query of the rotation.
    plain_us: Vec<Vec<f64>>,
    /// Host reference probes, µs, one every [`PROBE_EVERY_S`].
    probes: Vec<f64>,
    /// Untraced reads after appends (`ingest`), µs.
    fresh_plain_us: Vec<f64>,
    view_refresh_us: Vec<f64>,
}

impl Timed {
    /// The host's speed over the timed phase. A mean, not a median: the
    /// host's slow spells lengthen the operations they overlap, and
    /// `ops_per_s` counts every one.
    fn mean_probe_us(&self) -> f64 {
        self.probes.iter().sum::<f64>() / self.probes.len() as f64
    }

    fn all_plain_us(&self) -> Vec<f64> {
        self.plain_us.concat()
    }

    /// Geometric mean over the rotation's queries of each one's median
    /// latency, µs. The queries of one workload differ in cost, so the
    /// median of all samples falls in a gap between them, where a small
    /// change in one query's spread moves it far.
    fn query_p50_us(&self) -> f64 {
        let logs: Vec<f64> = self.plain_us.iter().map(|q| median(q).ln()).collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Median of `samples`, or 0 on a workload that never reached the layer.
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One set-up: make the inputs and their answer key (untimed), then load
/// them and warm up (timed, minus the client's checking time).
struct SetUp {
    client: Client,
    sample: SetUpSample,
    note: String,
}

/// The timing and checks of one set-up.
struct SetUpSample {
    seconds: f64,
    warm_ok: bool,
    digest: u64,
}

fn set_up(cfg: &Config) -> Result<SetUp, String> {
    let kind = cfg.kind;
    let inputs = workload::generate(kind, cfg.smoke, cfg.seed);
    let note = format!(
        "inputs persons={} edges={} probe_tables={} input_digest={:016x} logical_mb={:.1}",
        kind.persons(cfg.smoke),
        inputs.edges.len(),
        inputs.probes.len(),
        inputs.digest,
        inputs.logical_bytes as f64 / 1e6
    );
    let digest = inputs.digest;
    let logical_bytes = inputs.logical_bytes;
    let answers = Answers::build(kind, cfg.smoke, &inputs);
    let start = Instant::now();
    let engine = Engine::load(kind, inputs)?;
    let mut client = Client::new(engine, answers, logical_bytes, cfg.smoke, cfg.seed);
    let mut rng = Rng::new(cfg.seed, Stream::Warmup);
    let mut tracer = Tracer::new();
    let mut client_s = 0.0;
    let mut warm_ok = true;
    for i in 0..kind.warmup_ops() as u64 {
        let out = client.op(i, &mut rng, Mode::Plain, &mut tracer);
        warm_ok &= out.ok;
        client_s += out.client_s;
    }
    Ok(SetUp {
        client,
        sample: SetUpSample {
            seconds: start.elapsed().as_secs_f64() - client_s,
            warm_ok,
            digest,
        },
        note,
    })
}

/// The line a `--setup-only` process prints last.
fn setup_line(s: &SetUpSample) -> String {
    format!(
        "setup seconds={} digest={:016x} warm_ok={}",
        s.seconds, s.digest, s.warm_ok as u8
    )
}

fn parse_setup_line(line: &str) -> Option<SetUpSample> {
    let mut f = line.strip_prefix("setup ")?.split(' ');
    let mut field = |name: &str| f.next()?.strip_prefix(name)?.strip_prefix('=');
    Some(SetUpSample {
        seconds: field("seconds")?.parse().ok()?,
        digest: u64::from_str_radix(field("digest")?, 16).ok()?,
        warm_ok: field("warm_ok")? == "1",
    })
}

/// The body of a `--setup-only` process: one set-up, timed like the
/// measured one, reported as [`setup_line`].
pub fn set_up_only(cfg: &Config) -> Result<String, String> {
    Ok(setup_line(&set_up(cfg)?.sample))
}

/// One more set-up, in a fresh process running this executable with
/// `--setup-only`, so that every sample starts from a clean process.
fn set_up_in_child(cfg: &Config) -> Result<SetUpSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--setup-only",
            cfg.kind.name(),
            &cfg.seed.to_string(),
            if cfg.smoke { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().and_then(parse_setup_line) {
        Some(s) if out.status.success() => Ok(s),
        _ => Err(format!("set-up process failed ({})", out.status)),
    }
}

fn timed_phase(cfg: &Config, client: &mut Client, tracer: &mut Tracer) -> Timed {
    let kind = cfg.kind;
    let appends = (kind == Kind::Ingest).then(|| {
        if cfg.smoke {
            MIN_P99_SAMPLES as u64
        } else {
            (INGEST_APPENDS_PER_S * cfg.seconds).max(MIN_P99_SAMPLES as u64)
        }
    });
    let mut rng = Rng::new(cfg.seed, Stream::Ops);
    let mut t = Timed {
        plain_us: vec![Vec::new(); kind.rotation()],
        ..Timed::default()
    };
    let mut next_probe = 0.0;
    let ctx = std::sync::Arc::clone(&client.engine.ctx);
    let trace = ctx.cluster().trace();
    let start = Instant::now();
    loop {
        let mut elapsed = start.elapsed().as_secs_f64();
        if elapsed >= next_probe {
            t.probes.push(host::reference_probe());
            next_probe = elapsed + PROBE_EVERY_S;
            let after = start.elapsed().as_secs_f64();
            t.client_s += after - elapsed;
            elapsed = after;
        }
        let done = match appends {
            // A run that slows down fourfold stops early rather than run
            // past the caller's time limit.
            Some(n) => t.ops >= n || elapsed > 4.0 * cfg.seconds.max(1) as f64,
            None => elapsed >= cfg.seconds as f64 && t.ops >= MIN_P99_SAMPLES as u64,
        };
        if done {
            break;
        }
        let mode = if cfg.traced {
            [Mode::Plain, Mode::Submit, Mode::Decomposed][(t.ops as usize / kind.rotation()) % 3]
        } else {
            Mode::Plain
        };
        if cfg.traced && kind == Kind::Ingest {
            trace.reset();
        }
        let out = client.op(t.ops, &mut rng, mode, tracer);
        if cfg.traced && kind == Kind::Ingest {
            t.view_refresh_us.extend(
                trace
                    .spans()
                    .iter()
                    .filter(|s| s.name.starts_with("view.refresh["))
                    .map(|s| s.dur_us as f64),
            );
        }
        if mode == Mode::Plain {
            t.plain_us[t.ops as usize % kind.rotation()].push(out.latency_us);
            t.fresh_plain_us.extend(out.fresh_reads_us);
        }
        t.ops += 1;
        t.failed += !out.ok as u64;
        t.client_s += out.client_s;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let kind = cfg.kind;
    let mut notes = vec![format!(
        "geometry workers={} executors_per_worker={} cores_per_executor={} \
         max_task_attempts={} skew_ratio={} default_partitions={} memory_budget=0 (ungoverned)",
        GEOMETRY.workers,
        GEOMETRY.executors_per_worker,
        GEOMETRY.cores_per_executor,
        GEOMETRY.max_task_attempts,
        GEOMETRY.skew_ratio,
        GEOMETRY.default_partitions(),
    )];
    let first = set_up(cfg)?;
    notes.push(first.note);
    let mut client = first.client;
    let mut tracer = Tracer::new();
    let before = cfg.traced.then(|| Counters::read(&client.engine));
    let timed = timed_phase(cfg, &mut client, &mut tracer);
    let after = cfg.traced.then(|| Counters::read(&client.engine));
    let final_ok = client.final_check();
    let reference_us = timed.mean_probe_us();
    // Above 1 when the host ran slower than its usual speed.
    let host_factor = reference_us / host::REF_NOMINAL_US;
    notes.push(format!(
        "ops timed={} failed={} wall_s={:.3} client_s={:.3} seconds={}",
        timed.ops, timed.failed, timed.wall_s, timed.client_s, cfg.seconds
    ));
    notes.push(format!(
        "host reference probes={} reference_us={reference_us:.1} nominal_us={} host_factor={host_factor:.4}",
        timed.probes.len(),
        host::REF_NOMINAL_US
    ));

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    if let (Some(before), Some(after)) = (before, after) {
        per_layer(cfg, &client, &tracer, &timed, &before, &after, &mut put)?;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", kind.name(), cfg.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    } else {
        let all = timed.all_plain_us();
        let lat = latency(&all)?;
        let ops_per_s = timed.ops as f64 / (timed.wall_s - timed.client_s);
        let p50_us = timed.query_p50_us();
        // Gated at the calibration host's speed; the raw values are notes.
        put("ops_per_s", ops_per_s * host_factor, "1/s");
        put("p50_us", p50_us / host_factor, "us");
        notes.push(format!(
            "as measured ops_per_s={ops_per_s:.1} p50_us={p50_us:.2} (per-query medians, \
             geometric mean); all samples n={} p50_us={:.1} p90_us={:.1} p99_us={:.1}",
            all.len(),
            lat.p50,
            lat.p90,
            lat.p99
        ));
        put("peak_rss_mb", host::peak_rss_mb()?, "MB");
        put(
            "stored_bytes_per_user_byte",
            client.engine.stored_bytes() as f64 / client.logical_bytes as f64,
            "ratio",
        );
        put(
            "ok_frac",
            (timed.ops - timed.failed) as f64 / timed.ops as f64,
            "ratio",
        );
        if kind == Kind::Ingest {
            let r = latency(&timed.fresh_plain_us)?;
            notes.push(format!(
                "fresh reads n={} p50_us={:.1} p99_us={:.1}",
                timed.fresh_plain_us.len(),
                r.p50,
                r.p99
            ));
        }
    }
    // More set-ups for `setup_s`, each in a fresh process like the measured
    // one, after the run so they cannot disturb it or its peak memory.
    let mut warm_ok = first.sample.warm_ok;
    if !cfg.traced {
        drop(client);
        let mut samples = vec![first.sample.seconds];
        // Smoke mode needs one set-up process to check that path, not a median.
        let setups = if cfg.smoke { 2 } else { kind.setups() };
        for _ in 1..setups {
            let s = set_up_in_child(cfg)?;
            if s.digest != first.sample.digest {
                return Err("input_digest differs between set-ups of one seed".into());
            }
            warm_ok &= s.warm_ok;
            samples.push(s.seconds);
        }
        notes.push(format!(
            "setup_s samples={samples:?} warmup_ops={}, input_digest identical in every set-up",
            kind.warmup_ops()
        ));
        metrics.insert(
            0,
            Metric {
                name: "setup_s".into(),
                value: median(&samples),
                unit: "s",
            },
        );
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    Ok(Report {
        correct: warm_ok && final_ok && timed.failed == 0,
        attempted: timed.ops,
        failed: timed.failed,
        metrics,
        notes,
    })
}

/// Median over five passes of the mean ns per item of `f` over `items`.
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            items.iter().for_each(&mut f);
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// Per-layer metrics of a traced run.
fn per_layer(
    cfg: &Config,
    client: &Client,
    tr: &Tracer,
    timed: &Timed,
    before: &Counters,
    after: &Counters,
    put: &mut impl FnMut(&str, f64, &'static str),
) -> Result<(), String> {
    let kind = cfg.kind;
    let ops = timed.ops as f64;
    let appends = if kind == Kind::Ingest { ops } else { 0.0 };
    let med = |name: &str| median_or_zero(&tr.durations_us(name));
    let d = |name: &str| after.delta(before, name);

    // dataframe::session and the front end, from the benchmark's spans.
    let submit = med("op.submit");
    put("session.overhead_us", submit - med("op.decomposed"), "us");
    put("sql.parse_us", med("sql.parse"), "us");
    put("optimizer.optimize_us", med("optimizer.optimize"), "us");
    put("planner.plan_us", med("planner.plan"), "us");
    put("exec.execute_us", med("exec.execute"), "us");
    put("exec.gather_us", med("exec.gather"), "us");
    let (own, total) = tr.self_and_total_ns("op.decomposed");
    put(
        "attrib.unattributed_frac",
        ratio(own as f64, total as f64),
        "ratio",
    );
    let plain = if kind == Kind::Ingest {
        timed.fresh_plain_us.clone()
    } else {
        timed.all_plain_us()
    };
    put(
        "trace.overhead_frac",
        submit / median(&plain) - 1.0,
        "ratio",
    );

    // dataframe::physical, from the registry.
    for o in OPERATORS {
        let (_, ns) = after.hist_delta(before, &format!("op.{o}.ns"));
        put(&format!("op.{o}.us_per_op"), ns / 1e3 / ops, "us");
        put(
            &format!("op.{o}.rows_out_per_op"),
            d(&format!("op.{o}.rows_out")) / ops,
            "count",
        );
    }
    let vec = d("operator.vectorized");
    put(
        "operator.vectorized_frac",
        ratio(vec, vec + d("operator.fallback")),
        "ratio",
    );

    // sparklet cluster, shuffle, broadcast and memory.
    let (tasks, run_ns) = after.hist_delta(before, "task.run_ns");
    let (_, wait_ns) = after.hist_delta(before, "task.queue_wait_ns");
    put("cluster.stages_per_op", d("stage.launched") / ops, "count");
    put("cluster.tasks_per_op", tasks / ops, "count");
    put("cluster.task_run_us_per_op", run_ns / 1e3 / ops, "us");
    put("cluster.queue_wait_us_per_op", wait_ns / 1e3 / ops, "us");
    put(
        "cluster.attempt_failures",
        d("task.attempt_failures"),
        "count",
    );
    let cluster = client.engine.ctx.cluster();
    let noop: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            cluster
                .run_stage_partitions(1, |_| ())
                .map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    put("cluster.noop_stage_us", median(&noop), "us");
    put("shuffle.bytes_per_op", d("shuffle.bytes") / ops, "bytes");
    put("shuffle.rows_per_op", d("shuffle.rows") / ops, "count");
    put("shuffle.blocks_per_op", d("shuffle.blocks") / ops, "count");
    put(
        "broadcast.unique_bytes_per_op",
        d("broadcast.unique_bytes") / ops,
        "bytes",
    );
    let resident = cluster.registry().gauge_value("memory.resident_bytes");
    put("memory.resident_mb", resident as f64 / 1e6, "MB");
    put("memory.evictions", d("memory.evictions"), "count");
    put(
        "memory.retired_versions_per_append",
        ratio(d("memory.retired_versions"), appends),
        "count",
    );

    // indexed-df, ctrie and rowstore: counters plus timed calls into each
    // layer's public functions on the workload's own keys and rows.
    let hits = d("index.cache.hits");
    put(
        "idx.cache_hit_frac",
        ratio(hits, hits + d("index.cache.misses")),
        "ratio",
    );
    let frames = client.engine.frames();
    let edges = frames.last().ok_or("no indexed edges table")?;
    let mut rng = Rng::new(cfg.seed, Stream::Warmup);
    let persons = kind.persons(cfg.smoke);
    let keys: Vec<Value> = (0..2000)
        .map(|_| Value::Int64(rng.below(persons) as i64))
        .collect();
    let get_rows: Vec<f64> = keys
        .iter()
        .take(500)
        .map(|k| {
            let t = Instant::now();
            edges.get_rows(k).map(|rows| {
                black_box(rows);
                t.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    put("idx.get_rows_us", median(&get_rows), "us");
    let parts: Vec<_> = (0..edges.num_partitions())
        .map(|p| edges.partition(p))
        .collect();
    let owner = |k: &Value| &parts[partition_of(k.key_hash(), parts.len())];
    let lookup_ns = ns_per_item(&keys, |k| {
        black_box(owner(k).lookup(k));
    });
    let probe_ns = ns_per_item(&keys, |k| {
        black_box(owner(k).probe(k, |bytes| {
            black_box(bytes);
        }));
    });
    put("idx.partition_lookup_ns", lookup_ns, "ns");
    put("idx.partition_probe_ns", probe_ns, "ns");
    put("idx.decode_ns", lookup_ns - probe_ns, "ns");
    let (lookups, chain) = after.hist_delta(before, "index.chain_len");
    put("idx.rows_per_lookup", ratio(chain, lookups), "count");
    put(
        "idx.build_krows_per_s",
        client.engine.edge_rows as f64 / client.engine.edge_build_s / 1e3,
        "krows/s",
    );
    put(
        "idx.append_build_us",
        ratio(d("index.build_ns") / 1e3, appends),
        "us",
    );
    let index_bytes: usize = frames.iter().map(|f| f.index_bytes()).sum();
    let data_bytes: usize = frames.iter().map(|f| f.data_bytes()).sum();
    put("idx.index_mb", index_bytes as f64 / 1e6, "MB");
    put("idx.data_mb", data_bytes as f64 / 1e6, "MB");
    put(
        "ctrie.get_ns",
        ns_per_item(&keys, |k| {
            black_box(owner(k).contains_key(k));
        }),
        "ns",
    );
    put(
        "ctrie.snapshots_per_append",
        ratio(
            (after.ctrie_snapshots - before.ctrie_snapshots) as f64,
            appends,
        ),
        "count",
    );
    let (encode, decode) = rowstore_rates(persons, cfg.seed)?;
    put("rowstore.encode_mb_per_s", encode, "MB/s");
    put("rowstore.decode_mb_per_s", decode, "MB/s");

    // indexed-df views and the reads after each append.
    put(
        "view.refresh_us",
        median_or_zero(&timed.view_refresh_us),
        "us",
    );
    put(
        "view.delta_rows_per_append",
        ratio(d("view.delta_rows"), appends),
        "count",
    );
    put("view.fallbacks", d("view.fallbacks"), "count");
    let (r50, r99) = if kind == Kind::Ingest {
        let r = latency(&timed.fresh_plain_us)?;
        (r.p50, r.p99)
    } else {
        (0.0, 0.0)
    };
    put("ingest.fresh_read_p50_us", r50, "us");
    put("ingest.fresh_read_p99_us", r99, "us");

    put("host.reference_us", timed.mean_probe_us(), "us");
    Ok(())
}

/// `BlockWriter` / `BlockReader` throughput over the workload's first
/// 20,000 edges, MB/s of encoded bytes: (encode, decode).
fn rowstore_rates(persons: u64, seed: u64) -> Result<(f64, f64), String> {
    let rows = EdgeGen::new(persons, seed, Stream::Edges).edges(20_000);
    let schema = gen::edge_schema();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut w = BlockWriter::new();
        for r in &rows {
            w.push(&schema, r).map_err(|e| e.to_string())?;
        }
        let block = w.finish();
        encode.push(block.len() as f64 / t.elapsed().as_secs_f64() / 1e6);
        let t = Instant::now();
        let mut n = 0;
        for r in BlockReader::new(&schema, &block).map_err(|e| e.to_string())? {
            black_box(r.map_err(|e| e.to_string())?);
            n += 1;
        }
        decode.push(block.len() as f64 / t.elapsed().as_secs_f64() / 1e6);
        if n != rows.len() {
            return Err(format!("decoded {n} of {} rows", rows.len()));
        }
    }
    Ok((median(&encode), median(&decode)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_line_round_trips() {
        let s = SetUpSample {
            seconds: 0.8127,
            warm_ok: true,
            digest: 0x00ab_cdef_0123_4567,
        };
        let line = setup_line(&s);
        let back = parse_setup_line(&line).expect("parses");
        assert_eq!(
            (back.seconds, back.warm_ok, back.digest),
            (s.seconds, s.warm_ok, s.digest)
        );
        assert!(parse_setup_line("setup seconds=1 digest=zz warm_ok=1").is_none());
        assert!(parse_setup_line("# inputs persons=1").is_none());
    }

    #[test]
    fn query_p50_is_the_geometric_mean_of_per_query_medians() {
        let t = Timed {
            plain_us: vec![vec![3.0, 1.0, 2.0], vec![100.0, 4.0, 16.0]],
            probes: vec![100.0, 120.0, 110.0, 150.0],
            ..Timed::default()
        };
        assert!((t.query_p50_us() - (2.0f64 * 16.0).sqrt()).abs() < 1e-12);
        assert_eq!(t.mean_probe_us(), 120.0);
    }
}
