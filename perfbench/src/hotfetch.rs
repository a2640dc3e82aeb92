//! `hotfetch`: capable clients fetching prompt-form pages, closed loop.
//!
//! One persistent h2 connection (lane 0) and one persistent h3 connection
//! (lane 1) to one `GenerativeServer`, each sending its next request as
//! soon as the previous answer arrives, along the capable views of the
//! E20 trace (split by user parity), after one untimed pass over every
//! page. No generation happens, so framing, the executor, dispatch, ETag
//! hashing and metrics dominate.

use crate::common::{self, ms, Args, Gate, Phase, Timed, Unit};
use crate::layers;
use crate::obsdelta::Snapshot;
use crate::spans::SpanLog;
use crate::stats::Summary;
use crate::tap::{self, SharedMeter};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use sww_core::{GenerativeServer, ServerConfig};
use sww_energy::DeviceKind;
use sww_hash::{sha256, to_hex};
use sww_http2::hpack::HeaderField;
use sww_http2::{ClientConnection, GenAbility, Request, Response};
use sww_http3::H3ClientConnection;
use sww_workload::Trace;

const LANES: usize = 2;
/// Trace events generated; the closed loop cycles through them.
const TRACE_EVENTS: usize = 4_000;
/// Header lists kept per lane for the HPACK/QPACK timings.
const KEEP_LISTS: usize = 512;
/// Requests replayed through `Session::handle` for the in-process time.
const INPROC_SAMPLES: usize = 2_000;

struct Stack {
    server: GenerativeServer,
    /// Per lane, the request paths in trace order.
    lanes: Vec<Vec<String>>,
    /// Path → (stored prompt-form page, its ETag).
    expect: BTreeMap<String, (Vec<u8>, String)>,
}

fn build(args: &Args) -> (Stack, f64) {
    let t = Instant::now();
    let cfg = common::e20(args.seed, TRACE_EVENTS);
    let graph = cfg.site_graph();
    let trace = Trace::generate_on(&cfg, &graph);
    let site = graph.site_content();
    let build_s = t.elapsed().as_secs_f64();
    let mut lanes = vec![Vec::new(); LANES];
    for s in common::sessions(&trace) {
        for e in s.iter().filter(|e| e.device != DeviceKind::Mobile) {
            lanes[e.user as usize % LANES].push(graph.node_path(e.node));
        }
    }
    let expect = lanes
        .iter()
        .flatten()
        .map(|p| {
            let html = site
                .page(p)
                .expect("trace pages exist")
                .html
                .clone()
                .into_bytes();
            let etag = format!("\"{}\"", &to_hex(&sha256(&html))[..16]);
            (p.clone(), (html, etag))
        })
        .collect();
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        ..ServerConfig::default()
    });
    (
        Stack {
            server,
            lanes,
            expect,
        },
        build_s,
    )
}

/// One persistent connection of either protocol.
enum Conn {
    H2(ClientConnection<tap::Tap>),
    H3(H3ClientConnection<tap::Tap>),
}

impl Conn {
    async fn open(server: &GenerativeServer, h3: bool, traced: bool) -> (Conn, SharedMeter) {
        let (c, s, meter) = tap::pair(traced);
        let srv = server.clone();
        let conn = if h3 {
            tokio::spawn(async move {
                let _ = srv.serve_h3_stream(s).await;
            });
            Conn::H3(
                H3ClientConnection::handshake(c, GenAbility::full())
                    .await
                    .expect("h3 handshake"),
            )
        } else {
            tokio::spawn(async move {
                let _ = srv.serve_stream(s).await;
            });
            Conn::H2(
                ClientConnection::handshake(c, GenAbility::full())
                    .await
                    .expect("h2 handshake"),
            )
        };
        (conn, meter)
    }

    async fn send(&mut self, req: &Request) -> Option<Response> {
        match self {
            Conn::H2(c) => c.send_request(req).await.ok(),
            Conn::H3(c) => c.send_request(req).await.ok(),
        }
    }
}

#[derive(Default)]
struct LaneOut {
    handshake_ms: f64,
    units: Vec<Unit>,
    mismatches: Vec<String>,
    wire: u64,
    exchanges: usize,
    lists: Vec<Vec<HeaderField>>,
    bodies: Vec<Vec<u8>>,
    spans: Option<SpanLog>,
    latency_ns: BTreeMap<u64, u64>,
    end: Option<Instant>,
}

/// Check a 200 answer against the stored page and its ETag.
fn check(stack: &Stack, path: &str, resp: &Response, mismatches: &mut Vec<String>) {
    let (html, etag) = &stack.expect[path];
    if resp.body.as_ref() != html.as_slice() {
        mismatches.push(format!(
            "hotfetch: {path} body differs from the stored prompt-form page"
        ));
    } else if resp.headers.get("etag") != Some(etag.as_str()) {
        mismatches.push(format!("hotfetch: {path} carries a wrong ETag"));
    }
}

fn lane(l: usize, stack: &Stack, gate: &Gate, seconds: f64, traced: bool) -> LaneOut {
    let paths = &stack.lanes[l];
    let h3 = l == 1;
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("lane runtime");
    rt.block_on(async {
        let mut out = LaneOut::default();
        let t = Instant::now();
        let (mut conn, meter) = Conn::open(&stack.server, h3, traced).await;
        out.handshake_ms = ms(t, Instant::now());
        // The untimed warm pass: every page of the lane once.
        let mut seen = BTreeSet::new();
        for p in paths.iter().filter(|p| seen.insert(*p)) {
            let req = Request::get(p.clone());
            match conn.send(&req).await {
                Some(resp) if resp.status == 200 => check(stack, p, &resp, &mut out.mismatches),
                _ => out
                    .mismatches
                    .push(format!("hotfetch: warm fetch of {p} failed")),
            }
        }
        let Some(t0) = gate.lane_ready() else {
            return out;
        };
        meter.borrow_mut().take_events();
        let wire0 = meter.borrow().bytes();
        out.spans = traced.then(|| SpanLog::new(t0));
        let deadline = t0 + Duration::from_secs_f64(seconds);
        let mut k = 0u64;
        while Instant::now() < deadline {
            let path = &paths[k as usize % paths.len()];
            let req = Request::get(path.clone());
            let start = Instant::now();
            let resp = conn.send(&req).await.filter(|r| r.status == 200);
            let end = Instant::now();
            let id = ((l as u64) << 32) | k;
            out.units.push(Unit {
                latency_ms: match resp {
                    Some(_) => ms(start, end),
                    None => f64::INFINITY,
                },
                ok: resp.is_some(),
                at_s: ms(t0, start) / 1e3,
            });
            out.end = Some(end);
            if let Some(log) = out.spans.as_mut() {
                let events = meter.borrow_mut().take_events();
                // The call is the client's own time, minus its exchanges.
                let root = log.record("unit", start, end, None, id);
                let c = log.record("client.request", start, end, Some(root), id);
                out.exchanges += tap::record_exchanges(log, &events, c, id, h3);
                out.latency_ns
                    .insert(id, end.duration_since(start).as_nanos() as u64);
            }
            if let Some(resp) = resp {
                check(stack, path, &resp, &mut out.mismatches);
                if out.lists.len() < KEEP_LISTS {
                    out.lists.push(req.to_fields());
                    out.lists.push(resp.to_fields());
                    out.bodies.push(resp.body.to_vec());
                }
            }
            k += 1;
        }
        out.wire = meter.borrow().bytes() - wire0;
        out
    })
}

/// Run the workload: `SETUPS` set-ups (the last one is timed), then the
/// per-layer measurements when traced.
pub fn run(args: &Args, traced: bool, process_start: Instant) -> Phase {
    let m = common::measure(
        args,
        process_start,
        LANES,
        build,
        |l, stack, gate| lane(l, stack, gate, args.seconds, traced),
        |stack| (Snapshot::take(), layers::engine_counts(&stack.server)),
    );
    let mut phase = Phase::new(
        &m,
        args.seconds,
        vec![
            ("loop", "closed".into()),
            ("connections", "1 h2 + 1 h3, one lane each".into()),
        ],
    );
    finish(&mut phase, traced, m);
    phase
}

fn finish(phase: &mut Phase, traced: bool, m: Timed<Stack, LaneOut, (Snapshot, [u64; 3])>) {
    let Timed {
        stack,
        mut outs,
        earlier,
        t0,
        before: (before, engine0),
        ..
    } = m;
    // One handshake per set-up and lane.
    let handshakes: Vec<Vec<f64>> = (0..LANES)
        .map(|l| {
            earlier
                .iter()
                .chain([&outs])
                .map(|o| o[l].handshake_ms)
                .collect()
        })
        .collect();
    let after = Snapshot::take();
    let mut log = SpanLog::new(t0);
    let mut latency_ns = BTreeMap::new();
    let mut end = t0;
    for out in &mut outs {
        phase.units.extend(&out.units);
        phase.mismatches.append(&mut out.mismatches);
        phase.wire_bytes += out.wire;
        end = end.max(out.end.unwrap_or(t0));
        if let Some(spans) = out.spans.take() {
            log.absorb(spans);
        }
        latency_ns.append(&mut out.latency_ns);
    }
    phase.elapsed_s = end.duration_since(t0).as_secs_f64();
    for (key, out) in ["h2_units", "h3_units"].into_iter().zip(&outs) {
        phase.meta.push((key, out.units.len().to_string()));
    }
    if !traced {
        return;
    }
    let units = phase.units.len() as u64;
    let names = [
        (
            "http2.requests",
            "http2.handshake_ms_p50",
            "http2.bytes_per_req",
        ),
        (
            "http3.requests",
            "http3.handshake_ms_p50",
            "http3.bytes_per_req",
        ),
    ];
    for (l, (out, (requests, hs, bytes))) in outs.iter().zip(names).enumerate() {
        let (wire, sent, exchanges) = (out.wire, out.units.len(), out.exchanges);
        phase.layer(
            requests,
            sent as f64,
            format!("requests sent; {exchanges} exchanges seen at the stream taps"),
        );
        layers::timing(phase, hs, None, &handshakes[l]);
        phase.layer(
            bytes,
            wire as f64 / sent.max(1) as f64,
            format!("{wire} bytes / {sent} requests"),
        );
        if l == 0 {
            layers::hpack(phase, &out.lists);
        } else {
            layers::qpack(phase, &out.lists);
        }
    }
    // In-process: the same requests through `Session::handle`.
    let session = stack.server.accept(GenAbility::full());
    let inproc_us: Vec<f64> = stack
        .lanes
        .iter()
        .flat_map(|l| l.iter().take(INPROC_SAMPLES / LANES))
        .map(|p| {
            let req = Request::get(p.clone());
            let t = Instant::now();
            std::hint::black_box(session.handle(&req));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let inproc = Summary::of(&inproc_us);
    phase.layer(
        "server.inproc_us_p50",
        inproc.p50,
        format!("Session::handle, n={}", inproc.n),
    );
    let engine1 = layers::engine_counts(&stack.server);
    layers::engine(
        phase,
        [0, 1, 2].map(|i| engine1[i] - engine0[i]),
        &before,
        &after,
    );
    layers::genai(phase, 0, &[]);
    let bodies: Vec<Vec<u8>> = outs.iter().flat_map(|o| o.bodies.iter().cloned()).collect();
    let pages: Vec<String> = bodies
        .iter()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .collect();
    layers::html(phase, &pages);
    layers::sha256(phase, &bodies);
    layers::registry(phase, &before, &after, units);
    phase.spans = Some((log, latency_ns));
}
