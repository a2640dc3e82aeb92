//! `pageload`: the paper's user-visible page load, open loop.
//!
//! The E20 trace's sessions replay one at a time on each of two lanes.
//! Every session is a fresh `GenerativeClient` over h2 into a 4-node
//! `EdgeRouter::serve_stream` front, entering at node `user % 4`; capable
//! devices generate on the client, mobile devices fetch what the edge
//! materializes. Units (page loads) are due at a fixed offered rate and
//! are timed from when they were due.

use crate::common::{self, fnv, ms, sleep_until, Args, Gate, Phase, Timed, Unit, FNV0};
use crate::layers;
use crate::obsdelta::Snapshot;
use crate::spans::SpanLog;
use crate::tap;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::{Duration, Instant};
use sww_core::{
    EdgeConfig, EdgeRouter, GenerativeClient, GenerativeServer, PageStats, RenderedPage,
    RetryPolicy, ServerConfig, SiteContent,
};
use sww_energy::device::{profile, DeviceKind};
use sww_html::gencontent;
use sww_http2::Request;
use sww_workload::session::ability_for;
use sww_workload::trace::TraceEvent;
use sww_workload::{SiteGraph, Trace};

/// Offered page loads per second, over both lanes.
pub const RATE: f64 = 200.0;
const LANES: usize = 2;
const EDGE_NODES: usize = 4;
/// Page views each lane replays untimed during set-up.
const WARM_VIEWS: usize = 48;

fn device_code(d: DeviceKind) -> u8 {
    match d {
        DeviceKind::Laptop => 0,
        DeviceKind::Workstation => 1,
        DeviceKind::Mobile => 2,
    }
}

fn device_of(code: u8) -> DeviceKind {
    match code {
        0 => DeviceKind::Laptop,
        1 => DeviceKind::Workstation,
        _ => DeviceKind::Mobile,
    }
}

/// Digest of a rendering: final HTML plus every resource's path, size
/// and pixels.
fn digest(page: &RenderedPage) -> u64 {
    let mut h = fnv(FNV0, page.html.as_bytes());
    for r in &page.resources {
        h = fnv(h, r.path.as_bytes());
        h = fnv(h, &r.image.width().to_le_bytes());
        h = fnv(h, &r.image.height().to_le_bytes());
        h = fnv(h, r.image.data());
        h = fnv(h, &[u8::from(r.generated)]);
    }
    h
}

fn image_recipes(graph: &SiteGraph, node: usize) -> usize {
    graph
        .page_spec(node)
        .recipes
        .iter()
        .filter(|r| r.is_image())
        .count()
}

/// Draw whole sessions, in trace order within each device class, until
/// exactly `views` views are scheduled with the E14 mix's share of naive
/// (mobile) views; the last session of a class is cut at its quota. The
/// classes interleave so every stretch of the run carries the same mix.
/// Fixing the mix per run keeps seeds from differing in how many mobile
/// users a short trace happened to draw. `queues` is `[capable, naive]`.
fn quota(queues: &mut [VecDeque<Session>; 2], views: usize, naive_share: f64) -> Vec<Session> {
    let naive = (views as f64 * naive_share).round() as usize;
    let target = [views - naive, naive];
    let mut taken = [0usize; 2];
    let mut out = Vec::new();
    while taken != target {
        // The class furthest behind its share goes next.
        let class = (0..2)
            .filter(|&c| taken[c] < target[c])
            .min_by(|&a, &b| {
                let behind = |c: usize| taken[c] as f64 / target[c] as f64;
                behind(a).total_cmp(&behind(b))
            })
            .expect("some class is below its quota");
        let mut s = queues[class]
            .pop_front()
            .expect("the trace holds enough sessions of each device class");
        s.truncate(target[class] - taken[class]);
        taken[class] += s.len();
        out.push(s);
    }
    out
}

/// One user's page views, in trace order.
type Session = Vec<TraceEvent>;

/// Everything one set-up builds.
struct Stack {
    graph: SiteGraph,
    site: SiteContent,
    router: EdgeRouter,
    /// Per lane: the warm-up sessions (`WARM_VIEWS` views) and the
    /// sessions the timed phase replays (the lane's share of the offered
    /// rate times `--seconds` views).
    lanes: Vec<(Vec<Session>, Vec<Session>)>,
}

fn build(args: &Args) -> (Stack, f64) {
    let t = Instant::now();
    let per_lane = (RATE / LANES as f64 * args.seconds).ceil() as usize;
    // Twice the views the run replays, so either device class can fill
    // its quota whatever share the seed drew.
    let cfg = common::e20(args.seed, 2 * LANES * (per_lane + WARM_VIEWS) + 2_000);
    let graph = cfg.site_graph();
    let trace = Trace::generate_on(&cfg, &graph);
    let site = graph.site_content();
    let build_s = t.elapsed().as_secs_f64();
    let mix = cfg.mix;
    let naive_share = mix.mobile / (mix.laptop + mix.workstation + mix.mobile);
    let mut queues: Vec<[VecDeque<Session>; 2]> = vec![Default::default(); LANES];
    let mut next_lane = [0usize; 2];
    for s in common::sessions(&trace) {
        let class = usize::from(s[0].device == DeviceKind::Mobile);
        queues[next_lane[class]][class].push_back(s);
        next_lane[class] = (next_lane[class] + 1) % LANES;
    }
    let lanes = queues
        .iter_mut()
        .map(|q| {
            let warm = quota(q, WARM_VIEWS, naive_share);
            (warm, quota(q, per_lane, naive_share))
        })
        .collect();
    let router = EdgeRouter::new(
        EdgeConfig {
            nodes: EDGE_NODES,
            ..EdgeConfig::default()
        },
        site.clone(),
        |site| {
            GenerativeServer::from_config(ServerConfig {
                site,
                ..ServerConfig::default()
            })
        },
    );
    let stack = Stack {
        graph,
        site,
        router,
        lanes,
    };
    (stack, build_s)
}

/// What one lane measured.
#[derive(Default)]
struct LaneOut {
    units: Vec<(u64, Unit, f64)>,
    digests: BTreeMap<(usize, u8), u64>,
    mismatches: Vec<String>,
    mobile_nodes: BTreeSet<usize>,
    stats: PageStats,
    wire: u64,
    handshakes_ms: Vec<f64>,
    exchanges: usize,
    visited: Vec<(usize, u8)>,
    spans: Option<SpanLog>,
    latency_ns: BTreeMap<u64, u64>,
    t0: Option<Instant>,
    end: Option<Instant>,
}

impl LaneOut {
    /// Check one rendering against the page's recipes and against every
    /// earlier rendering of the same (path, device class).
    fn check(&mut self, graph: &SiteGraph, e: &TraceEvent, page: &RenderedPage, st: &PageStats) {
        let code = device_code(e.device);
        let d = digest(page);
        if let Some(&prev) = self.digests.get(&(e.node, code)) {
            if prev != d {
                self.mismatches.push(format!(
                    "pageload: {} on {:?} rendered differently across views",
                    graph.node_path(e.node),
                    e.device
                ));
            }
        }
        self.digests.insert((e.node, code), d);
        let spec = graph.page_spec(e.node);
        if e.device == DeviceKind::Mobile {
            self.mobile_nodes.insert(e.node);
            if st.items_fetched as usize != image_recipes(graph, e.node) {
                self.mismatches.push(format!(
                    "pageload: {} fetched {} images for {} image recipes",
                    spec.path,
                    st.items_fetched,
                    image_recipes(graph, e.node)
                ));
            }
        } else if st.items_generated as usize != spec.recipes.len() {
            self.mismatches.push(format!(
                "pageload: {} generated {} items for {} recipes",
                spec.path,
                st.items_generated,
                spec.recipes.len()
            ));
        }
    }
}

/// One lane: warm-up sessions during set-up, then the timed sessions at
/// the lane's share of the offered rate.
fn lane(l: usize, stack: &Stack, gate: &Gate, traced: bool) -> LaneOut {
    let (warm, timed) = &stack.lanes[l];
    let interval = Duration::from_secs_f64(LANES as f64 / RATE);
    let offset = interval.mul_f64(l as f64 / LANES as f64);
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("lane runtime");
    rt.block_on(async {
        let mut out = LaneOut::default();
        for s in warm {
            run_session(stack, s, None, &mut out).await;
        }
        let Some(t0) = gate.lane_ready() else {
            return out;
        };
        let mut out = LaneOut {
            mobile_nodes: std::mem::take(&mut out.mobile_nodes),
            digests: std::mem::take(&mut out.digests),
            mismatches: std::mem::take(&mut out.mismatches),
            spans: traced.then(|| SpanLog::new(t0)),
            t0: Some(t0),
            ..LaneOut::default()
        };
        let mut next = 0usize;
        for s in timed {
            let due: Vec<(u64, Instant)> = (next..next + s.len())
                .map(|k| {
                    let id = ((l as u64) << 32) | k as u64;
                    (id, t0 + offset + interval.mul_f64(k as f64))
                })
                .collect();
            run_session(stack, s, Some(&due), &mut out).await;
            next += s.len();
        }
        out
    })
}

/// Replay one session on a fresh client. `due` carries each view's unit
/// id and due time; `None` is an untimed warm-up session.
async fn run_session(
    stack: &Stack,
    views: &[TraceEvent],
    due: Option<&[(u64, Instant)]>,
    out: &mut LaneOut,
) {
    let traced = out.spans.is_some();
    let (client_io, server_io, meter) = tap::pair(traced);
    let router = stack.router.clone();
    let entry = (views[0].user % EDGE_NODES as u64) as usize;
    tokio::spawn(async move {
        let _ = router.serve_stream(entry, server_io).await;
    });
    let device = views[0].device;
    let mut client_io = Some(client_io);
    let mut client = None;
    for (i, e) in views.iter().enumerate() {
        let (id, due_at) = match due {
            Some(d) => (d[i].0, Some(d[i].1)),
            None => (0, None),
        };
        if let Some(t) = due_at {
            sleep_until(t);
        }
        let start = Instant::now();
        let mut handshake = None;
        let mut fetch_start = start;
        // The first view of a session pays for the connection; a failed
        // handshake fails the session's views (the benchmark never retries).
        if let Some(io) = client_io.take() {
            if let Ok(mut c) =
                GenerativeClient::connect(io, ability_for(device), profile(device)).await
            {
                c.set_retry_policy(RetryPolicy::no_retries());
                c.set_fallback(false);
                client = Some(c);
            }
            handshake = Some(Instant::now());
            meter.borrow_mut().take_events();
            fetch_start = Instant::now();
        }
        let result = match client.as_mut() {
            Some(c) => c.fetch_page(&stack.graph.node_path(e.node)).await.ok(),
            None => None,
        };
        let end = Instant::now();
        let events = meter.borrow_mut().take_events();
        let Some(due_at) = due_at else {
            if let Some((page, st)) = result {
                out.check(&stack.graph, e, &page, &st);
            }
            continue;
        };
        let ok = result.is_some();
        let latency = ms(due_at, end);
        out.units.push((
            id,
            Unit {
                latency_ms: if ok { latency } else { f64::INFINITY },
                ok,
                at_s: ms(out.t0.expect("timed views know the phase start"), due_at) / 1e3,
            },
            ms(due_at, start),
        ));
        out.end = Some(end);
        if let Some(h) = handshake {
            out.handshakes_ms.push(ms(start, h));
        }
        if let Some(log) = out.spans.as_mut() {
            // The children tile the unit: lateness, the connection
            // (handshake and client set-up) on a session's first view,
            // then the fetch.
            let root = log.record("unit", due_at, end, None, id);
            log.record("driver.lag", due_at, start, Some(root), id);
            if handshake.is_some() {
                log.record("http2.handshake", start, fetch_start, Some(root), id);
            }
            let fetch = log.record("client.fetch_page", fetch_start, end, Some(root), id);
            out.exchanges += tap::record_exchanges(log, &events, fetch, id, false);
            out.latency_ns
                .insert(id, end.saturating_duration_since(due_at).as_nanos() as u64);
        }
        if let Some((page, st)) = result {
            out.check(&stack.graph, e, &page, &st);
            out.stats.merge(&st);
            out.visited.push((e.node, device_code(device)));
        }
    }
    if let Some(c) = client.as_mut() {
        let _ = c.close().await;
    }
    if due.is_some() {
        out.wire += meter.borrow().bytes();
    }
}

/// Run the workload: `SETUPS` set-ups (the last one is timed), then the
/// output checks, then (traced) the per-layer measurements.
pub fn run(args: &Args, traced: bool, process_start: Instant) -> Phase {
    let m = common::measure(
        args,
        process_start,
        LANES,
        build,
        |l, stack, gate| lane(l, stack, gate, traced),
        |stack| (Snapshot::take(), EdgeCounts::take(&stack.router)),
    );
    finish(args, traced, m)
}

/// Edge and engine counters summed over the tier's nodes.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeCounts {
    requests: u64,
    prompt_local: u64,
    local_media: u64,
    peer_serves: u64,
    fills: u64,
    fill_hits: u64,
    generations: u64,
    hits: u64,
    misses: u64,
}

impl EdgeCounts {
    fn take(router: &EdgeRouter) -> EdgeCounts {
        router.nodes().iter().fold(EdgeCounts::default(), |c, n| {
            let s = n.stats();
            let engine = n.server().engine();
            let (hits, misses) = engine.cache().hit_miss();
            EdgeCounts {
                requests: c.requests + s.requests,
                prompt_local: c.prompt_local + s.prompt_local,
                local_media: c.local_media + s.local_media,
                peer_serves: c.peer_serves + s.peer_serves,
                fills: c.fills + s.fills,
                fill_hits: c.fill_hits + s.fill_hits,
                generations: c.generations + engine.generations(),
                hits: c.hits + hits,
                misses: c.misses + misses,
            }
        })
    }

    fn since(self, b: EdgeCounts) -> EdgeCounts {
        EdgeCounts {
            requests: self.requests - b.requests,
            prompt_local: self.prompt_local - b.prompt_local,
            local_media: self.local_media - b.local_media,
            peer_serves: self.peer_serves - b.peer_serves,
            fills: self.fills - b.fills,
            fill_hits: self.fill_hits - b.fill_hits,
            generations: self.generations - b.generations,
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
        }
    }
}

fn finish(args: &Args, traced: bool, m: Timed<Stack, LaneOut, (Snapshot, EdgeCounts)>) -> Phase {
    let (stack, t0, (before, edge_before)) = (&m.stack, m.t0, &m.before);
    let after = Snapshot::take();
    let edge_after = EdgeCounts::take(&stack.router);
    let mut phase = Phase::new(
        &m,
        args.seconds,
        vec![
            ("loop", "open".into()),
            ("offered_rate_rps", format!("{RATE}")),
            ("lanes", format!("{LANES} (one session at a time each)")),
            ("edge_nodes", format!("{EDGE_NODES}")),
            ("warm_views_per_lane", format!("{WARM_VIEWS}")),
        ],
    );
    let mut digests: BTreeMap<(usize, u8), u64> = BTreeMap::new();
    let mut mobile_nodes = BTreeSet::new();
    let mut stats = PageStats::default();
    let (mut lags, mut handshakes, mut visited) = (Vec::new(), Vec::new(), Vec::new());
    let mut exchanges = 0;
    let mut log = SpanLog::new(t0);
    let mut latency_ns = BTreeMap::new();
    let mut end = t0;
    for out in m.outs {
        for (key, d) in out.digests {
            if digests.insert(key, d).is_some_and(|prev| prev != d) {
                phase.mismatches.push(format!(
                    "pageload: {} on {:?} rendered differently across lanes",
                    stack.graph.node_path(key.0),
                    device_of(key.1)
                ));
            }
        }
        phase.mismatches.extend(out.mismatches);
        mobile_nodes.extend(out.mobile_nodes);
        stats.merge(&out.stats);
        phase.wire_bytes += out.wire;
        for (_, u, lag) in &out.units {
            phase.units.push(*u);
            lags.push(*lag);
        }
        handshakes.extend(out.handshakes_ms);
        visited.extend(out.visited);
        exchanges += out.exchanges;
        if let Some(spans) = out.spans {
            log.absorb(spans);
        }
        latency_ns.extend(out.latency_ns);
        end = end.max(out.end.unwrap_or(t0));
    }
    phase.elapsed_s = end.duration_since(t0).as_secs_f64();
    phase.meta.push((
        "driver_lag_p99_ms",
        format!("{}", crate::stats::Summary::of(&lags).p99),
    ));

    // Exactly-once generation across the edge tier: every distinct image
    // recipe a mobile view touched (warm-up included) generated once.
    let recipes: usize = mobile_nodes
        .iter()
        .map(|&n| image_recipes(&stack.graph, n))
        .sum();
    let generations = edge_after.generations;
    if generations != recipes as u64 {
        phase.mismatches.push(format!(
            "pageload: the edge generated {generations} images for {recipes} distinct recipes"
        ));
    }
    reference_check(stack, &digests, &mut phase.mismatches);

    if traced {
        let units = phase.units.len() as u64;
        let d = edge_after.since(*edge_before);
        let naive = (d.requests - d.prompt_local).max(1) as f64;
        phase.layer(
            "http2.requests",
            d.requests as f64,
            format!(
                "requests entering the edge tier; {exchanges} exchanges seen at the stream taps"
            ),
        );
        layers::timing(&mut phase, "http2.handshake_ms_p50", None, &handshakes);
        phase.layer(
            "http2.bytes_per_req",
            phase.wire_bytes as f64 / d.requests.max(1) as f64,
            format!("{} bytes / {} requests", phase.wire_bytes, d.requests),
        );
        layers::engine(
            &mut phase,
            [d.hits, d.misses, d.generations],
            before,
            &after,
        );
        phase.layer("edge.requests", d.requests as f64, "all entry nodes");
        phase.layer(
            "edge.local_frac",
            d.local_media as f64 / naive,
            format!("of {naive} media requests"),
        );
        phase.layer(
            "edge.routed_frac",
            d.peer_serves as f64 / naive,
            format!("of {naive} media requests"),
        );
        phase.layer(
            "edge.fill_hit_frac",
            d.fill_hits as f64 / naive,
            format!("of {naive} media requests"),
        );
        phase.layer("edge.peer_fills", d.fills as f64, "timed phase");
        phase.layer(
            "edge.gens_per_recipe",
            generations as f64 / recipes.max(1) as f64,
            format!("{generations} generations / {recipes} distinct recipes"),
        );
        let client_generated = u64::from(stats.items_generated - stats.items_cached);
        layers::genai(
            &mut phase,
            client_generated + d.generations,
            &visited_recipes(stack, &visited),
        );
        phase.layer(
            "client.items_generated",
            f64::from(stats.items_generated),
            "PageStats sum",
        );
        phase.layer(
            "client.items_cached",
            f64::from(stats.items_cached),
            "PageStats sum",
        );
        phase.layer(
            "client.items_fetched",
            f64::from(stats.items_fetched),
            "PageStats sum",
        );
        phase.layer(
            "client.compression_x",
            stats.traditional_bytes as f64 / stats.wire_bytes.max(1) as f64,
            format!(
                "{} traditional / {} wire bytes",
                stats.traditional_bytes, stats.wire_bytes
            ),
        );
        let pages: Vec<String> = visited
            .iter()
            .map(|&(n, _)| {
                stack
                    .site
                    .page(&stack.graph.node_path(n))
                    .expect("visited page")
                    .html
                    .clone()
            })
            .collect();
        layers::html(&mut phase, &pages);
        let bodies: Vec<Vec<u8>> = pages.iter().map(|p| p.clone().into_bytes()).collect();
        layers::sha256(&mut phase, &bodies);
        let lists: Vec<_> = visited
            .iter()
            .map(|&(n, _)| Request::get(stack.graph.node_path(n)).to_fields())
            .collect();
        layers::hpack(&mut phase, &lists);
        phase.layer(
            "driver.lag_p99_ms",
            crate::stats::Summary::of(&lags).p99,
            format!("n={}", lags.len()),
        );
        layers::registry(&mut phase, before, &after, units);
        phase.spans = Some((log, latency_ns));
    }
    phase
}

fn visited_recipes(stack: &Stack, visited: &[(usize, u8)]) -> Vec<gencontent::GeneratedContent> {
    let mut seen = BTreeSet::new();
    visited
        .iter()
        .filter(|(n, _)| seen.insert(*n))
        .flat_map(|&(n, _)| {
            let doc = sww_html::parse(&stack.graph.page_spec(n).html());
            gencontent::extract(&doc)
        })
        .collect()
}

/// Render every (path, device class) the run saw through a fresh
/// single-node server, outside the timed phase, and compare digests.
fn reference_check(
    stack: &Stack,
    digests: &BTreeMap<(usize, u8), u64>,
    mismatches: &mut Vec<String>,
) {
    let server = GenerativeServer::from_config(ServerConfig {
        site: stack.site.clone(),
        ..ServerConfig::default()
    });
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("reference runtime");
    rt.block_on(async {
        for code in 0..3u8 {
            let device = device_of(code);
            let nodes: Vec<(usize, u64)> = digests
                .iter()
                .filter(|((_, c), _)| *c == code)
                .map(|(&(n, _), &d)| (n, d))
                .collect();
            if nodes.is_empty() {
                continue;
            }
            let (a, b) = tokio::io::duplex(1 << 20);
            let srv = server.clone();
            tokio::spawn(async move {
                let _ = srv.serve_stream(b).await;
            });
            let mut client = GenerativeClient::connect(a, ability_for(device), profile(device))
                .await
                .expect("reference handshake");
            client.set_retry_policy(RetryPolicy::no_retries());
            for (node, d) in nodes {
                let path = stack.graph.node_path(node);
                match client.fetch_page(&path).await {
                    Ok((page, _)) if digest(&page) == d => {}
                    Ok(_) => mismatches.push(format!(
                        "pageload: {path} on {device:?} differs from the single-node reference"
                    )),
                    Err(e) => {
                        mismatches.push(format!("pageload: reference fetch of {path} failed: {e}"))
                    }
                }
            }
            let _ = client.close().await;
        }
    });
}
