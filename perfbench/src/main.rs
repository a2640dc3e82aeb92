//! The SWW serving-stack benchmark.
//!
//! ```text
//! perfbench --workload pageload|hotfetch|coldcrawl --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload through the real stack, checks every output, and
//! prints a human-readable report followed, as the last line, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) runs the workload untraced and then traced, each for
//! half of `--seconds`, and reports the per-layer metrics, the tracing
//! overhead and the span reconciliation. See README.md for the workloads and metrics.

mod coldcrawl;
mod common;
mod hotfetch;
mod layers;
mod obsdelta;
mod pageload;
mod spans;
mod stats;
mod sys;
mod tap;

use common::{Args, Phase, HELD_OUT_SEED, SETUPS, SPANS_DIR, WINDOWS};
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `--workload all` would run them.
const WORKLOADS: [&str; 3] = ["pageload", "hotfetch", "coldcrawl"];

/// Mismatch lines printed before the rest are counted.
const MAX_MISMATCH_LINES: usize = 20;

/// Largest relative gap allowed between a unit's span self times and its
/// measured latency.
const RECONCILE_TOLERANCE: f64 = 0.01;

/// Every per-layer metric a traced run prints, with its unit. Layers a
/// workload does not exercise read 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("http2.requests", "count"),
    ("http2.handshake_ms_p50", "ms"),
    ("http2.to_server_ms_p50", "ms"),
    ("http2.to_client_ms_p50", "ms"),
    ("http2.bytes_per_req", "B"),
    ("http2.hpack_encode_us", "us"),
    ("http2.hpack_decode_us", "us"),
    ("http3.requests", "count"),
    ("http3.handshake_ms_p50", "ms"),
    ("http3.to_server_ms_p50", "ms"),
    ("http3.to_client_ms_p50", "ms"),
    ("http3.bytes_per_req", "B"),
    ("http3.qpack_encode_us", "us"),
    ("http3.qpack_decode_us", "us"),
    ("server.busy_ms_p50", "ms"),
    ("server.busy_ms_p99", "ms"),
    ("server.inproc_us_p50", "us"),
    ("server.transport_tax_x", "x"),
    ("engine.hit_ratio", "ratio"),
    ("engine.generations", "count"),
    ("engine.joined", "count"),
    ("edge.requests", "count"),
    ("edge.local_frac", "ratio"),
    ("edge.routed_frac", "ratio"),
    ("edge.fill_hit_frac", "ratio"),
    ("edge.peer_fills", "count"),
    ("edge.gens_per_recipe", "ratio"),
    ("batch.jobs", "count"),
    ("batch.passes", "count"),
    ("batch.mean_size", "jobs"),
    ("batch.wait_ms_p99", "ms"),
    ("pool.rejected", "count"),
    ("genai.buffer_allocs", "count"),
    ("genai.images", "count"),
    ("genai.generate_ms_p50", "ms"),
    ("genai.codec_encode_us_p50", "us"),
    ("genai.codec_decode_us_p50", "us"),
    ("html.parse_us_p50", "us"),
    ("html.extract_us_p50", "us"),
    ("html.serialize_us_p50", "us"),
    ("hash.sha256_us_p50", "us"),
    ("obs.increments_per_req", "count"),
    ("obs.series", "count"),
    ("obs.render_ms", "ms"),
    ("client.items_generated", "count"),
    ("client.items_cached", "count"),
    ("client.items_fetched", "count"),
    ("client.compression_x", "x"),
    ("workload.build_s", "s"),
    ("driver.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cpu_overhead_frac", "ratio"),
    ("trace.reconcile_max_frac", "ratio"),
    ("trace.spans", "count"),
    ("share.unit", "ratio"),
    ("share.client.request", "ratio"),
    ("share.driver.lag", "ratio"),
    ("share.client.fetch_page", "ratio"),
    ("share.client.pages", "ratio"),
    ("share.client.assets", "ratio"),
    ("share.http2.handshake", "ratio"),
    ("share.http2.to_server", "ratio"),
    ("share.http2.to_client", "ratio"),
    ("share.http3.to_server", "ratio"),
    ("share.http3.to_client", "ratio"),
    ("share.server.busy", "ratio"),
];

/// A printed metric: name, value, unit and its sample note.
struct Metric {
    name: String,
    value: f64,
    unit: String,
    note: String,
}

fn metric(name: &str, value: f64, unit: &str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        note: note.into(),
    }
}

fn run_workload(args: &Args, traced: bool, process_start: Instant) -> Phase {
    match args.workload.as_str() {
        "pageload" => pageload::run(args, traced, process_start),
        "hotfetch" => hotfetch::run(args, traced, process_start),
        "coldcrawl" => coldcrawl::run(args, traced, process_start),
        _ => unreachable!("workload validated in main"),
    }
}

fn latencies(phase: &Phase) -> Summary {
    let lat: Vec<f64> = phase.units.iter().map(|u| u.latency_ms).collect();
    Summary::of(&lat)
}

fn ok_units(phase: &Phase) -> u64 {
    phase.units.iter().filter(|u| u.ok).count() as u64
}

/// Per window of the timed phase: the latency summary of the units due
/// or sent in it, and the successful units completed in it with its CPU
/// seconds.
struct Window {
    latency: Summary,
    completed: usize,
    cpu_s: f64,
}

fn windows(phase: &Phase) -> Vec<Window> {
    let width = phase.seconds / WINDOWS as f64;
    let index = |t: f64| ((t / width).max(0.0) as usize).min(WINDOWS - 1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    let mut completed = [0usize; WINDOWS];
    for u in &phase.units {
        lat[index(u.at_s)].push(u.latency_ms);
        if u.ok {
            completed[index(u.at_s + u.latency_ms / 1e3)] += 1;
        }
    }
    (0..WINDOWS)
        .map(|i| Window {
            latency: Summary::of(&lat[i]),
            completed: completed[i],
            cpu_s: phase.cpu_s.get(i).copied().unwrap_or(0.0),
        })
        .collect()
}

/// The eight end-to-end metrics of an untraced phase. Latency
/// percentiles and CPU per unit are medians over the phase's windows.
fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let attempted = phase.units.len() as u64;
    let ok = ok_units(phase);
    let all: Vec<f64> = phase.units.iter().map(|u| u.latency_ms).collect();
    let [q1, _, q3] = stats::quartiles(&stats::sorted(&all));
    let win = windows(phase);
    let per = |f: &dyn Fn(&Window) -> f64| median(&win.iter().map(f).collect::<Vec<_>>());
    let counts = |f: fn(&Window) -> usize| {
        win.iter()
            .map(|w| f(w).to_string())
            .collect::<Vec<_>>()
            .join("/")
    };
    let cpu_total: f64 = phase.cpu_s.iter().sum();
    let (rss, rss_note) = phase
        .peak_rss_mb
        .clone()
        .unwrap_or_else(|| (sys::peak_rss_mb(), "getrusage ru_maxrss".into()));
    vec![
        metric(
            "setup_s",
            median(&phase.setup_s),
            "s",
            format!(
                "median of {} set-ups {:?}",
                phase.setup_s.len(),
                phase.setup_s
            ),
        ),
        metric(
            "throughput_rps",
            ok as f64 / phase.elapsed_s.max(1e-9),
            "1/s",
            format!("{ok} units in {:.3} s", phase.elapsed_s),
        ),
        metric(
            "latency_p50_ms",
            per(&|w| w.latency.p50),
            "ms",
            format!(
                "median of {WINDOWS} windows of n={}; all {} units: quartiles {q1:.4}/{q3:.4} ms",
                counts(|w| w.latency.n),
                all.len()
            ),
        ),
        metric(
            "latency_p99_ms",
            per(&|w| w.latency.p99),
            "ms",
            format!(
                "median of {WINDOWS} windows of n={}: {} ms, samples beyond p99 {}",
                counts(|w| w.latency.n),
                win.iter()
                    .map(|w| format!("{:.3}", w.latency.p99))
                    .collect::<Vec<_>>()
                    .join("/"),
                counts(|w| w.latency.beyond_p99)
            ),
        ),
        metric(
            "success_frac",
            ok as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{ok} of {attempted} units; 1 - fail_frac"),
        ),
        metric(
            "cpu_ms_per_req",
            per(&|w| w.cpu_s * 1e3 / w.completed.max(1) as f64),
            "ms",
            format!("median of {WINDOWS} windows; {cpu_total:.4} s user+sys / {ok} units overall"),
        ),
        metric(
            "wire_bytes_per_req",
            phase.wire_bytes as f64 / attempted.max(1) as f64,
            "B",
            format!("{} bytes / {attempted} units", phase.wire_bytes),
        ),
        metric("peak_rss_mb", rss, "MB", rss_note),
    ]
}

/// Per-layer metrics of a traced phase, with the tracing overhead against
/// the untraced `base` and the span reconciliation.
fn per_layer(args: &Args, base: &Phase, traced: &mut Phase) -> Result<Vec<Metric>, String> {
    let (log, latency_ns) = traced.spans.take().expect("a traced phase carries spans");
    let spans = log.spans();
    let mut durations: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration() as f64 / 1e6);
    }
    for (name, p50, p99) in [
        ("http2.to_server", "http2.to_server_ms_p50", None),
        ("http2.to_client", "http2.to_client_ms_p50", None),
        ("http3.to_server", "http3.to_server_ms_p50", None),
        ("http3.to_client", "http3.to_client_ms_p50", None),
        (
            "server.busy",
            "server.busy_ms_p50",
            Some("server.busy_ms_p99"),
        ),
    ] {
        if let Some(d) = durations.get(name) {
            layers::timing(traced, p50, p99, d);
        }
    }
    let total: u64 = latency_ns.values().sum();
    for (name, t) in spans::self_time_by_name(spans) {
        let key = LAYER_METRICS
            .iter()
            .find(|(m, _)| m.strip_prefix("share.") == Some(name))
            .map(|(m, _)| *m)
            .ok_or_else(|| format!("span {name} has no share metric"))?;
        traced.layer(
            key,
            t as f64 / total.max(1) as f64,
            format!(
                "self time {:.3} ms of {:.3} ms unit latency",
                t as f64 / 1e6,
                total as f64 / 1e6
            ),
        );
    }
    let (worst, checked) = spans::reconcile(spans, &latency_ns);
    traced.layer(
        "trace.reconcile_max_frac",
        worst,
        format!("max |sum(self) - latency| / latency over {checked} units; tolerance {RECONCILE_TOLERANCE}"),
    );
    if worst > RECONCILE_TOLERANCE {
        traced.mismatches.push(format!(
            "trace: span self times miss a unit's latency by {worst:.4} (> {RECONCILE_TOLERANCE})"
        ));
    }
    let (b, t) = (latencies(base).p50, latencies(traced).p50);
    if let Some(&(inproc_us, _)) = traced.layers.get("server.inproc_us_p50") {
        // The untraced half's latency, so tracing costs do not inflate it.
        traced.layer(
            "server.transport_tax_x",
            b / (inproc_us / 1e3),
            format!(
                "untraced latency_p50 {b:.4} ms (n={}) / in-process p50 {inproc_us:.4} us",
                base.units.len()
            ),
        );
    }
    traced.layer(
        "trace.overhead_frac",
        t / b - 1.0,
        format!("latency_p50 traced {t:.4} ms vs untraced {b:.4} ms"),
    );
    let cpu = |p: &Phase| p.cpu_s.iter().sum::<f64>() * 1e3 / ok_units(p).max(1) as f64;
    traced.layer(
        "trace.cpu_overhead_frac",
        cpu(traced) / cpu(base) - 1.0,
        format!(
            "cpu_ms_per_req traced {:.4} vs untraced {:.4}",
            cpu(traced),
            cpu(base)
        ),
    );
    traced.layer("trace.spans", spans.len() as f64, "spans written");
    traced.layer(
        "workload.build_s",
        median(&traced.build_s),
        format!("median of {} builds", traced.build_s.len()),
    );
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = format!(
        "{SPANS_DIR}/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    );
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    log.write_jsonl(&mut file)
        .map_err(|e| format!("{path}: {e}"))?;
    std::io::Write::flush(&mut file).map_err(|e| format!("{path}: {e}"))?;
    traced.meta.push(("spans_file", path));
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| match traced.layers.get(name) {
            Some((v, note)) => metric(name, *v, unit, note.clone()),
            None => metric(name, 0.0, unit, "not exercised by this workload"),
        })
        .collect())
}

/// A JSON number; non-finite values (an infinitely late failed unit)
/// print as 1e12 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

fn json_str(s: &str) -> String {
    sww_json::to_string(&sww_json::Value::String(s.into()))
}

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {:?}; expected one of {WORKLOADS:?}",
                a.workload
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (phase, metrics) = if args.trace {
        // Half the time untraced, half traced: a traced run costs what an
        // untraced one does, and the halves give the tracing overhead.
        let half = Args {
            seconds: args.seconds / 2.0,
            ..args.clone()
        };
        let base = run_workload(&half, false, process_start);
        let mut traced = run_workload(&half, true, Instant::now());
        traced.mismatches.extend(base.mismatches.iter().cloned());
        match per_layer(&args, &base, &mut traced) {
            Ok(m) => (traced, m),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let phase = run_workload(&args, false, process_start);
        let m = end_to_end(&phase);
        (phase, m)
    };

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let lat = latencies(&phase);
    let mut meta: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_nproc", nproc.to_string()),
        ("host_rustc", env("PERFBENCH_RUSTC")),
        ("git_commit", env("PERFBENCH_COMMIT")),
        ("setups", SETUPS.to_string()),
        ("latency_samples", lat.n.to_string()),
        ("latency_p99_beyond", lat.beyond_p99.to_string()),
    ];
    meta.extend(phase.meta.iter().cloned());
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("meta {{{}}}", meta_json.join(","));
    for m in &metrics {
        println!(
            "metric {} = {} {} ({})",
            m.name,
            json_num(m.value),
            m.unit,
            m.note
        );
    }
    for mm in phase.mismatches.iter().take(MAX_MISMATCH_LINES) {
        println!("mismatch {mm}");
    }
    if phase.mismatches.len() > MAX_MISMATCH_LINES {
        println!(
            "mismatch ... and {} more",
            phase.mismatches.len() - MAX_MISMATCH_LINES
        );
    }
    let attempted = phase.units.len() as u64;
    let failed = attempted - ok_units(&phase);
    let correct = phase.mismatches.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in LAYER_METRICS {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
        }
        assert!(LAYER_METRICS.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = sww_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let layers: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let phase = Phase {
            setup_s: vec![1.0],
            build_s: vec![1.0],
            units: Vec::new(),
            elapsed_s: 1.0,
            seconds: 1.0,
            cpu_s: vec![1.0],
            wire_bytes: 0,
            peak_rss_mb: None,
            mismatches: Vec::new(),
            meta: Vec::new(),
            layers: BTreeMap::new(),
            spans: None,
        };
        let printed: Vec<(String, String)> = end_to_end(&phase)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(listed("end_to_end"), printed);
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn json_numbers_stay_valid() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::INFINITY), "1e12");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
