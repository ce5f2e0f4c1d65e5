//! `perfbench` — the repository's benchmark: `pw-serve` measured from the outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-decide|hard-decide|delta-stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root.  An untraced run drives an in-process
//! `pw_serve::Server` over loopback HTTP in a closed loop for `--seconds`, then
//! replays every op through a library mirror and compares the replies bit for bit.
//! A traced run drives the wire for half the time, then replays the same ops
//! in-process with a span around every layer call.  The last line of standard output
//! is the result; the line before it records provenance.  README.md defines every
//! metric.

mod inputs;
mod load;
mod mirror;
mod oracle;
mod stats;
mod trace;

use inputs::{Inputs, Workload};
use load::{Live, Record, Window};
use oracle::Checked;
use pw_serve::{Json, ServerConfig};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run: `setup_s` is their median; the first one is measured.
const SETUPS: usize = 7;

/// How much delta-stream's rows, memo and SatCache may grow through the window (as a
/// share of their size at its start) before the run counts as measuring growth rather
/// than steady state.
const GROWTH_BOUND: f64 = 0.25;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?} (point-decide, hard-decide or delta-stream)"
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s >= 1)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records.iter().map(Record::ms).collect()
}

fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn end_to_end(window: &Window, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let ms = latencies(&window.records);
    let ops = ms.len() as f64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", frac(ops, window.seconds), "1/s"),
        metric("p50_ms", stats::median(&ms), "ms"),
        metric("cpu_ms_per_op", frac(window.cpu_seconds * 1e3, ops), "ms"),
        metric("rss_mb", rss_mb, "MiB"),
    ]
}

/// Milliseconds from sending each flipping delta to the reader receiving the flip.
fn flip_lags_ms(window: &Window) -> Vec<f64> {
    let received: HashMap<u64, Instant> = window.events.iter().map(|e| (e.seq, e.at)).collect();
    window
        .records
        .iter()
        .flat_map(|r| {
            r.flips.iter().filter_map(|seq| {
                received
                    .get(seq)
                    .map(|&at| at.saturating_duration_since(r.start).as_secs_f64() * 1e3)
            })
        })
        .collect()
}

fn per_layer(window: &Window, checked: &Checked, tracer: &Tracer) -> Vec<Metric> {
    let median_span = |name| stats::median(&tracer.span_us(name));
    let median_sample = |name| stats::median(tracer.samples(name));
    let mean_sample = |name| stats::mean(tracer.samples(name));
    let sum_sample = |name| tracer.samples(name).iter().sum::<f64>();
    let (before, after) = checked.traced_totals.unwrap_or_default();
    let delta = |f: fn(&mirror::Totals) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let hits = delta(|t| t.memo_hits);
    let sat_hits = delta(|t| t.sat_hits);
    let skipped = sum_sample("decide.batch.skipped");
    let layers = tracer.layer_self_ns();
    let op_ns: u64 = tracer
        .span_us(trace::OP)
        .iter()
        .map(|us| (us * 1e3) as u64)
        .sum();
    let ms = latencies(&window.records);
    let attempted = window.records.len() as f64;
    vec![
        metric("p99_ms", stats::quantile(&ms, 0.99), "ms"),
        metric(
            "serve.http.overhead_ms",
            stats::median(&ms) - tracer.op_p50_us() / 1e3,
            "ms",
        ),
        metric(
            "serve.http.shed",
            window.records.iter().filter(|r| r.shed()).count() as f64,
            "count",
        ),
        metric(
            "failed_frac",
            frac(checked.failed as f64, attempted),
            "ratio",
        ),
        metric(
            "flip_lag_p50_ms",
            stats::median(&flip_lags_ms(window)),
            "ms",
        ),
        metric("serve.json.parse_us", median_span("serve.json.parse"), "us"),
        metric("serve.json.emit_us", median_span("serve.json.emit"), "us"),
        metric(
            "serve.json.bytes_in",
            mean_sample("serve.json.bytes_in"),
            "bytes",
        ),
        metric(
            "serve.json.bytes_out",
            mean_sample("serve.json.bytes_out"),
            "bytes",
        ),
        metric(
            "serve.wire.decode_us",
            median_span("serve.wire.decode"),
            "us",
        ),
        metric(
            "serve.wire.encode_us",
            median_span("serve.wire.encode"),
            "us",
        ),
        metric(
            "core.delta.apply_us",
            median_sample("core.delta.apply_us"),
            "us",
        ),
        metric(
            "core.delta.dirty_groups",
            mean_sample("core.delta.dirty_groups"),
            "count",
        ),
        metric(
            "core.database.shard_groups_us",
            median_sample("core.database.shard_groups_us"),
            "us",
        ),
        metric(
            "core.database.groups",
            mean_sample("core.database.groups"),
            "count",
        ),
        metric(
            "decide.batch.decide_all_us",
            median_span("decide.batch.decide_all"),
            "us",
        ),
        metric(
            "decide.batch.redecide_all_us",
            median_span("decide.batch.redecide_all"),
            "us",
        ),
        metric(
            "decide.batch.push_delta_us",
            median_span("decide.batch.push_delta"),
            "us",
        ),
        metric(
            "decide.batch.skip_frac",
            frac(skipped, skipped + sum_sample("decide.batch.redecided")),
            "ratio",
        ),
        metric(
            "decide.engine.memo_hit_frac",
            frac(hits, hits + delta(|t| t.memo_misses)),
            "ratio",
        ),
        metric(
            "decide.engine.memo_entries",
            after.memo_entries as f64,
            "count",
        ),
        metric(
            "decide.engine.busy_total_ms",
            delta(|t| t.busy_total_ns) / 1e6,
            "ms",
        ),
        metric(
            "decide.engine.busy_max_ms",
            after.busy_max_ns as f64 / 1e6,
            "ms",
        ),
        metric("decide.engine.steals", delta(|t| t.steals), "count"),
        metric(
            "decide.certify.us",
            median_sample("decide.certify.us"),
            "us",
        ),
        metric(
            "decide.membership.us",
            median_sample("decide.membership.us"),
            "us",
        ),
        metric(
            "decide.uniqueness.us",
            median_sample("decide.uniqueness.us"),
            "us",
        ),
        metric(
            "decide.containment.us",
            median_sample("decide.containment.us"),
            "us",
        ),
        metric(
            "decide.possibility.us",
            median_sample("decide.possibility.us"),
            "us",
        ),
        metric(
            "decide.certainty.us",
            median_sample("decide.certainty.us"),
            "us",
        ),
        metric(
            "condition.cache.sat_hit_frac",
            frac(sat_hits, sat_hits + delta(|t| t.sat_misses)),
            "ratio",
        ),
        metric(
            "condition.cache.sat_entries",
            after.sat_entries as f64,
            "count",
        ),
        metric(
            "trace.coverage",
            1.0 - frac(
                layers.get(trace::OP).copied().unwrap_or(0) as f64,
                op_ns as f64,
            ),
            "ratio",
        ),
        metric("trace.op_p50_ms", tracer.op_p50_us() / 1e3, "ms"),
    ]
}

fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    std::fs::read_to_string(format!(".git/{name}"))
        .ok()
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find(|line| line.ends_with(name))?
                .split_whitespace()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

fn config_json(c: &ServerConfig) -> Json {
    let ms = |d: Duration| Json::Int(d.as_millis() as i64);
    Json::Object(vec![
        ("addr".into(), Json::str(&c.addr)),
        ("workers".into(), Json::Int(c.workers as i64)),
        ("queue_depth".into(), Json::Int(c.queue_depth as i64)),
        ("max_body_bytes".into(), Json::Int(c.max_body_bytes as i64)),
        ("read_timeout_ms".into(), ms(c.read_timeout)),
        ("write_timeout_ms".into(), ms(c.write_timeout)),
        ("budget".into(), Json::Int(c.budget as i64)),
        (
            "session_threads".into(),
            Json::Int(c.session_threads as i64),
        ),
        ("lame_duck_ms".into(), ms(c.lame_duck)),
    ])
}

fn run(args: &Args) -> Result<String, String> {
    let config = ServerConfig::default();
    let mut setup_s = Vec::new();
    // One set-up: generate the inputs, start a server, register, subscribe, warm up.
    let mut set_up = || -> Result<(Inputs, Live), String> {
        let start = Instant::now();
        let inputs = inputs::generate(args.workload, args.seed, args.seconds);
        let live = Live::start(&inputs, &config)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok((inputs, live))
    };

    let (inputs, live) = set_up()?;
    let length = if args.trace {
        Duration::from_secs_f64(args.seconds as f64 / 2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let window = load::run_window(&live, &inputs, length)?;
    // `rss_mb` is the server's memory: the allocator returns the pages it holds free
    // (the generators' garbage among them), and the benchmark's own data, the inputs
    // and the clients' records of the window, is subtracted.
    stats::trim_heap();
    let own_mib = (inputs.bytes() + window.client_bytes()) as f64 / MIB;
    let rss_mb = stats::rss_mib() - own_mib;
    let log = live.stop();
    if window.records.is_empty() {
        return Err("no op completed in the window".into());
    }
    // More set-ups, timed and discarded, for a steadier `setup_s`.  They run after
    // the window so they cannot touch its `rss_mb`.
    for _ in 1..SETUPS {
        let (_, live) = set_up()?;
        live.stop();
    }

    let mut tracer = Tracer::new(args.trace);
    let checked = oracle::check(&inputs, &config, &log, &window, &mut tracer)?;

    // Stationarity of the delta stream: the database the ops work on, and the memo
    // and SatCache the warm-up filled, must not grow through the window by more than
    // `GROWTH_BOUND`, or a long run would measure growth rather than steady state.
    // The check counts work instead of timing it: on a shared host the same ops'
    // p50 moves by tens of percent between seconds, so the halves' p50s below are
    // reported, not held to a bound.
    let ms = latencies(&window.records);
    let (first, second) = ms.split_at(ms.len() / 2);
    let halves = (stats::median(first), stats::median(second));
    let sizes: Vec<f64> = checked.rows.iter().map(|&r| r as f64).collect();
    let (early, late) = sizes.split_at(sizes.len() / 2);
    let (warm, end) = (&checked.warm_totals, &checked.end_totals);
    let growth = [
        frac(stats::mean(late), stats::mean(early)) - 1.0,
        frac(end.memo_entries as f64, warm.memo_entries as f64) - 1.0,
        frac(end.sat_entries as f64, warm.sat_entries as f64) - 1.0,
    ];
    let stationary =
        args.workload != Workload::DeltaStream || growth.iter().all(|g| *g <= GROWTH_BOUND);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut faults = checked.faults.clone();
    if window.exhausted {
        faults.push("the op sequence ran out before the window ended".into());
    }
    if !stationary {
        faults.push(format!(
            "rows, memo and SatCache grew by {growth:.3?} through the window (bound {GROWTH_BOUND})"
        ));
    }
    let correct = checked.failed == 0 && faults.is_empty();
    let metrics = if args.trace {
        per_layer(&window, &checked, &tracer)
    } else {
        end_to_end(&window, stats::median(&setup_s), rss_mb)
    };

    let p99 = stats::quantile(&ms, 0.99);
    let server_stats = window
        .stats
        .iter()
        .map(|body| Json::parse(body).unwrap_or(Json::Null))
        .collect();
    let op_ns: f64 = tracer.span_us(trace::OP).iter().sum::<f64>() * 1e3;
    let shares = tracer
        .layer_self_ns()
        .into_iter()
        .map(|(layer, ns)| (layer.to_string(), Json::Float(frac(ns as f64, op_ns))))
        .collect();
    let totals = |t: &mirror::Totals| {
        Json::Object(vec![
            ("memo_entries".into(), Json::Int(t.memo_entries as i64)),
            ("sat_entries".into(), Json::Int(t.sat_entries as i64)),
        ])
    };
    let provenance = Json::Object(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Int(args.seconds as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Int(nproc as i64)),
        ("git_rev".into(), Json::str(git_rev())),
        ("rustc".into(), Json::str(rustc_version())),
        ("server_config".into(), config_json(&config)),
        ("clients".into(), Json::Int(args.workload.clients() as i64)),
        (
            "input_hash".into(),
            Json::str(format!("{:016x}", inputs.hash)),
        ),
        (
            "distinct_bodies".into(),
            inputs
                .distinct_bodies()
                .map_or(Json::Null, |n| Json::Int(n as i64)),
        ),
        (
            "setup_runs_s".into(),
            Json::Array(setup_s.iter().map(|&s| Json::Float(s)).collect()),
        ),
        ("warmup_ops".into(), Json::Int(log.warm.len() as i64)),
        ("timed_ops".into(), Json::Int(window.records.len() as i64)),
        ("window_s".into(), Json::Float(window.seconds)),
        ("p99_ms".into(), Json::Float(p99)),
        (
            "p99_tail_samples".into(),
            Json::Int(ms.iter().filter(|&&m| m > p99).count() as i64),
        ),
        ("rss_excluded_mb".into(), Json::Float(own_mib)),
        (
            "peak_runnable_threads".into(),
            Json::Int(window.peak_runnable as i64),
        ),
        (
            "timeshared".into(),
            Json::Bool(window.peak_runnable > nproc),
        ),
        (
            "halves_p50_ms".into(),
            Json::Array(vec![Json::Float(halves.0), Json::Float(halves.1)]),
        ),
        ("stationary".into(), Json::Bool(stationary)),
        ("flip_events".into(), Json::Int(window.events.len() as i64)),
        (
            "certificates_verified".into(),
            Json::Int(checked.certificates as i64),
        ),
        ("counters_match".into(), Json::Bool(checked.counters_match)),
        ("server_stats".into(), Json::Array(server_stats)),
        ("after_warmup".into(), totals(&checked.warm_totals)),
        ("after_run".into(), totals(&checked.end_totals)),
        ("layer_self_share".into(), Json::Object(shares)),
        (
            "faults".into(),
            Json::Array(faults.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", Json::Object(vec![("provenance".into(), provenance)]));

    if args.trace {
        let dir = std::path::Path::new("perfbench/traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    Ok(Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(window.records.len() as i64)),
        ("failed".into(), Json::Int(checked.failed as i64)),
        (
            "metrics".into(),
            Json::Object(
                metrics
                    .into_iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::Object(vec![
                                ("value".into(), Json::Float(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
