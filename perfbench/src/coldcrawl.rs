//! `coldcrawl`: a naive crawler over the long tail of a large site,
//! closed loop.
//!
//! One naive-ability h3 connection sends waves of 8 concurrent requests
//! for distinct, never-visited pages, then the waves' `/generated/*`
//! assets, against a server with `batch_max 8` and `kernel_tiles 2`.
//! Every page is a cache miss, so server generation, batching, the h3
//! per-request concurrency, codec encode and asset-store writes dominate.

use crate::common::{self, fnv, ms, Args, Gate, Phase, Timed, Unit};
use crate::layers;
use crate::obsdelta::Snapshot;
use crate::spans::SpanLog;
use crate::{sys, tap};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use sww_core::{GenerativeServer, ServerConfig};
use sww_genai::rng::Rng;
use sww_html::gencontent;
use sww_http2::hpack::HeaderField;
use sww_http2::{GenAbility, Request, Response};
use sww_http3::H3ClientConnection;
use sww_workload::graph::{RecipeSpec, ANCHOR_COUNT};
use sww_workload::{SiteGraph, SmallWorldConfig};

/// Concurrent requests per wave.
pub const WAVE: usize = 8;
const BATCH_MAX: usize = 8;
const KERNEL_TILES: usize = 2;
/// The server's generation-cache budget: about 2000 of the crawl's 64×64
/// images. No crawled page is ever requested twice, so the cache only
/// holds memory.
const CACHE_PIXELS: u64 = 8_000_000;
/// Timed-phase pages after which `peak_rss_mb` is read. The server keeps
/// every materialized asset (about 10 KB a page), so RSS read at the end
/// would grow with the crawl rate and a faster crawl would read as a
/// memory regression; at a fixed page count it does not. A 2-core host
/// crawls about 300 pages a second, so a run reaches it in about 7 s.
const RSS_AT_PAGES: usize = 2_048;
/// Waves crawled untimed during set-up.
const WARM_WAVES: usize = 4;
/// Pages per second of timed phase the site is sized for: several times
/// the crawl rate seen on a 2-core host, so no page is ever revisited.
const PAGES_PER_SECOND: f64 = 1_500.0;
/// One page in this many is kept for the scalar-server comparison.
const SAMPLE_ONE_IN: u64 = 16;
/// Header lists kept for the QPACK timing.
const KEEP_LISTS: usize = 512;

struct Stack {
    graph: SiteGraph,
    server: GenerativeServer,
    /// Crawl order: a seeded permutation of the generated pages.
    order: Vec<usize>,
}

fn build(args: &Args) -> (Stack, f64) {
    let t = Instant::now();
    let pages = WARM_WAVES * WAVE + (PAGES_PER_SECOND * args.seconds) as usize;
    let graph = SiteGraph::generate(SmallWorldConfig {
        nodes: ANCHOR_COUNT + pages,
        k: 8,
        beta: 0.02,
        seed: args.seed,
    });
    let site = graph.site_content();
    let mut order: Vec<usize> = (ANCHOR_COUNT..graph.len()).collect();
    let mut rng = Rng::new(args.seed ^ 0xc01d_c4a7);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let build_s = t.elapsed().as_secs_f64();
    let server = GenerativeServer::from_config(ServerConfig {
        site,
        batch_max: BATCH_MAX,
        kernel_tiles: KERNEL_TILES,
        cache_pixels: CACHE_PIXELS,
        ..ServerConfig::default()
    });
    (
        Stack {
            graph,
            server,
            order,
        },
        build_s,
    )
}

fn asset_path(graph: &SiteGraph, node: usize) -> String {
    let spec = graph.page_spec(node);
    match spec.recipes.first() {
        Some(RecipeSpec::Image { name, .. }) => format!("/generated/{name}"),
        _ => unreachable!("generated graph pages carry one image recipe"),
    }
}

fn sampled(seed: u64, node: usize) -> bool {
    fnv(seed, &(node as u64).to_le_bytes()).is_multiple_of(SAMPLE_ONE_IN)
}

#[derive(Default)]
struct LaneOut {
    handshake_ms: f64,
    units: Vec<Unit>,
    mismatches: Vec<String>,
    wire: u64,
    requests: usize,
    exchanges: usize,
    /// Peak RSS when the crawl first reached `RSS_AT_PAGES` pages, and
    /// the pages crawled by then.
    rss_mb: Option<(f64, usize)>,
    crawled: Vec<usize>,
    samples: Vec<(usize, Vec<u8>, Vec<u8>)>,
    lists: Vec<Vec<HeaderField>>,
    spans: Option<SpanLog>,
    latency_ns: BTreeMap<u64, u64>,
    end: Option<Instant>,
}

type Conn = H3ClientConnection<tap::Tap>;

/// One wave's requests and answers (`None` when the call failed).
struct Wave {
    pages: Vec<Request>,
    page_resps: Option<Vec<Response>>,
    /// When the page answers were in and the asset requests went out.
    mid: Instant,
    assets: Vec<Request>,
    asset_resps: Option<Vec<Response>>,
}

impl Wave {
    /// Request the pages of `nodes` concurrently, then their assets.
    async fn run(conn: &mut Conn, graph: &SiteGraph, nodes: &[usize]) -> Wave {
        let pages: Vec<Request> = nodes
            .iter()
            .map(|&n| Request::get(graph.node_path(n)))
            .collect();
        let page_resps = conn.send_requests(&pages).await.ok();
        let mid = Instant::now();
        let assets: Vec<Request> = nodes
            .iter()
            .map(|&n| Request::get(asset_path(graph, n)))
            .collect();
        let asset_resps = conn.send_requests(&assets).await.ok();
        Wave {
            pages,
            page_resps,
            mid,
            assets,
            asset_resps,
        }
    }

    /// Page `i`'s answer and its asset's, when both calls succeeded.
    fn answers(&self, i: usize) -> Option<(&Response, &Response)> {
        Some((
            &self.page_resps.as_ref()?[i],
            &self.asset_resps.as_ref()?[i],
        ))
    }
}

fn lane(stack: &Stack, gate: &Gate, args: &Args, traced: bool) -> LaneOut {
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("lane runtime");
    rt.block_on(async {
        let mut out = LaneOut::default();
        let (c, s, meter) = tap::pair(traced);
        let srv = stack.server.clone();
        tokio::spawn(async move {
            let _ = srv.serve_h3_stream(s).await;
        });
        let t = Instant::now();
        let mut conn = H3ClientConnection::handshake(c, GenAbility::none())
            .await
            .expect("h3 handshake");
        out.handshake_ms = ms(t, Instant::now());
        let mut waves = stack.order.chunks(WAVE);
        for nodes in waves.by_ref().take(WARM_WAVES) {
            let w = Wave::run(&mut conn, &stack.graph, nodes).await;
            if w.answers(0).is_none() {
                out.mismatches
                    .push("coldcrawl: a warm-up wave failed".into());
            }
        }
        let Some(t0) = gate.lane_ready() else {
            return out;
        };
        meter.borrow_mut().take_events();
        let wire0 = meter.borrow().bytes();
        out.spans = traced.then(|| SpanLog::new(t0));
        let deadline = t0 + Duration::from_secs_f64(args.seconds);
        for (w, nodes) in waves.enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let start = Instant::now();
            let wave = Wave::run(&mut conn, &stack.graph, nodes).await;
            let end = Instant::now();
            out.end = Some(end);
            out.requests += wave.pages.len() + wave.assets.len();
            let id = w as u64;
            if let Some(log) = out.spans.as_mut() {
                // The events of both calls, split at the boundary. The
                // two client spans tile the unit, each from building its
                // requests to the last answer.
                let events = meter.borrow_mut().take_events();
                let mid = wave.mid;
                let (first, second): (Vec<_>, Vec<_>) =
                    events.into_iter().partition(|(t, _)| *t <= mid);
                let root = log.record("unit", start, end, None, id);
                let p = log.record("client.pages", start, mid, Some(root), id);
                out.exchanges += tap::record_exchanges(log, &first, p, id, true);
                let a = log.record("client.assets", mid, end, Some(root), id);
                out.exchanges += tap::record_exchanges(log, &second, a, id, true);
                out.latency_ns
                    .insert(id, end.duration_since(start).as_nanos() as u64);
            }
            for (i, &node) in nodes.iter().enumerate() {
                out.crawled.push(node);
                let answers = wave
                    .answers(i)
                    .filter(|(p, a)| p.status == 200 && a.status == 200);
                out.units.push(Unit {
                    latency_ms: match answers {
                        Some(_) => ms(start, end),
                        None => f64::INFINITY,
                    },
                    ok: answers.is_some(),
                    at_s: ms(t0, start) / 1e3,
                });
                let Some((p, a)) = answers else {
                    continue;
                };
                let (page_req, asset_req) = (&wave.pages[i], &wave.assets[i]);
                let body = String::from_utf8_lossy(&p.body);
                if a.body.is_empty() || !body.contains(asset_req.path.as_str()) {
                    out.mismatches.push(format!(
                        "coldcrawl: {} does not reference a materialized asset",
                        page_req.path
                    ));
                }
                if sampled(args.seed, node) {
                    out.samples.push((node, p.body.to_vec(), a.body.to_vec()));
                }
                if out.lists.len() < KEEP_LISTS {
                    out.lists.push(page_req.to_fields());
                    out.lists.push(p.to_fields());
                    out.lists.push(asset_req.to_fields());
                    out.lists.push(a.to_fields());
                }
            }
            if out.rss_mb.is_none() && out.crawled.len() >= RSS_AT_PAGES {
                out.rss_mb = Some((sys::peak_rss_mb(), out.crawled.len()));
            }
        }
        out.wire = meter.borrow().bytes() - wire0;
        out
    })
}

/// Compare the sampled pages and assets with an unbatched scalar server.
fn scalar_check(
    stack: &Stack,
    samples: &[(usize, Vec<u8>, Vec<u8>)],
    mismatches: &mut Vec<String>,
) {
    let scalar = GenerativeServer::from_config(ServerConfig {
        site: stack.graph.site_content(),
        batch_max: 1,
        kernel_tiles: 1,
        ..ServerConfig::default()
    });
    let session = scalar.accept(GenAbility::none());
    for (node, page, asset) in samples {
        let path = stack.graph.node_path(*node);
        let p = session.handle(&Request::get(path.clone()));
        let a = session.handle(&Request::get(asset_path(&stack.graph, *node)));
        if p.body.as_ref() != page.as_slice() {
            mismatches.push(format!("coldcrawl: {path} differs from the scalar server"));
        }
        if a.body.as_ref() != asset.as_slice() {
            mismatches.push(format!(
                "coldcrawl: the asset of {path} differs from the scalar server"
            ));
        }
    }
}

/// Run the workload: `SETUPS` set-ups (the last one is timed), the
/// scalar comparison, then the per-layer measurements when traced.
pub fn run(args: &Args, traced: bool, process_start: Instant) -> Phase {
    let m = common::measure(
        args,
        process_start,
        1,
        build,
        |_, stack, gate| lane(stack, gate, args, traced),
        |stack| {
            (
                Snapshot::take(),
                stack.server.batch_stats().unwrap_or_default(),
                layers::engine_counts(&stack.server),
            )
        },
    );
    let mut phase = Phase::new(
        &m,
        args.seconds,
        vec![
            ("loop", "closed".into()),
            ("wave_size", WAVE.to_string()),
            ("connections", "1 naive h3".into()),
            ("batch_max", BATCH_MAX.to_string()),
            ("kernel_tiles", KERNEL_TILES.to_string()),
            ("cache_pixels", CACHE_PIXELS.to_string()),
            ("rss_at_pages", RSS_AT_PAGES.to_string()),
            ("site_pages", m.stack.order.len().to_string()),
        ],
    );
    let handshakes: Vec<f64> = m
        .earlier
        .iter()
        .chain([&m.outs])
        .map(|o| o[0].handshake_ms)
        .collect();
    let Timed {
        stack,
        outs,
        t0,
        before: (before, batch0, engine0),
        ..
    } = m;
    let out = outs.into_iter().next().expect("one crawl lane");
    let after = Snapshot::take();
    phase.units = out.units;
    phase.elapsed_s = out.end.unwrap_or(t0).duration_since(t0).as_secs_f64();
    phase.wire_bytes = out.wire;
    phase.mismatches = out.mismatches;
    let (rss, at) = out
        .rss_mb
        .unwrap_or_else(|| (sys::peak_rss_mb(), out.crawled.len()));
    phase.peak_rss_mb = Some((
        rss,
        format!("getrusage ru_maxrss after {at} timed pages (read at {RSS_AT_PAGES})"),
    ));
    if out.crawled.len() + WARM_WAVES * WAVE >= stack.order.len() {
        phase
            .mismatches
            .push("coldcrawl: the site ran out of unvisited pages".into());
    }
    scalar_check(&stack, &out.samples, &mut phase.mismatches);
    phase
        .meta
        .push(("scalar_samples", out.samples.len().to_string()));
    if traced {
        let units = phase.units.len() as u64;
        let (sent, ex) = (out.requests, out.exchanges);
        phase.layer(
            "http3.requests",
            sent as f64,
            format!("pages and assets requested; {ex} exchanges seen at the stream taps"),
        );
        layers::timing(&mut phase, "http3.handshake_ms_p50", None, &handshakes);
        phase.layer(
            "http3.bytes_per_req",
            out.wire as f64 / sent.max(1) as f64,
            format!("{} bytes / {sent} requests", out.wire),
        );
        layers::qpack(&mut phase, &out.lists);
        let engine1 = layers::engine_counts(&stack.server);
        let delta = [0, 1, 2].map(|i| engine1[i] - engine0[i]);
        layers::engine(&mut phase, delta, &before, &after);
        let batch = stack.server.batch_stats().unwrap_or_default();
        let (jobs, passes) = (batch.jobs - batch0.jobs, batch.batches - batch0.batches);
        phase.layer("batch.jobs", jobs as f64, "timed phase");
        phase.layer("batch.passes", passes as f64, "timed phase");
        phase.layer(
            "batch.mean_size",
            jobs as f64 / passes.max(1) as f64,
            format!("{jobs} jobs / {passes} passes"),
        );
        phase.layer(
            "batch.wait_ms_p99",
            batch.p99_wait_s * 1e3,
            "scheduler lifetime, warm-up included",
        );
        let recipes: Vec<_> = out
            .samples
            .iter()
            .flat_map(|(n, ..)| {
                gencontent::extract(&sww_html::parse(&stack.graph.page_spec(*n).html()))
            })
            .collect();
        layers::genai(&mut phase, delta[2], &recipes);
        let pages: Vec<String> = out
            .samples
            .iter()
            .map(|(_, p, _)| String::from_utf8_lossy(p).into_owned())
            .collect();
        layers::html(&mut phase, &pages);
        let bodies: Vec<Vec<u8>> = out
            .samples
            .iter()
            .flat_map(|(_, p, a)| [p.clone(), a.clone()])
            .collect();
        layers::sha256(&mut phase, &bodies);
        layers::registry(&mut phase, &before, &after, units);
        phase.spans = Some((out.spans.expect("traced lane logs spans"), out.latency_ns));
    }
    phase
}
