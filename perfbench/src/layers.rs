//! Per-layer timings the traced run takes after its timed phase, by
//! calling each layer's public functions on the inputs the run moved:
//! the header lists it sent, the pages and bodies it carried and the
//! recipes it generated. Each call is timed on its own.

use crate::common::Phase;
use crate::obsdelta::Snapshot;
use crate::stats::{median, Summary};
use std::time::Instant;
use sww_core::mediagen::DEFAULT_CODEC_QUALITY;
use sww_core::{GenerativeServer, MediaGenerator};
use sww_energy::device::{profile, DeviceKind};
use sww_genai::codec;
use sww_html::gencontent::{self, GeneratedContent};
use sww_http2::hpack::{Decoder, Encoder, HeaderField};

/// Most inputs any one layer timing uses.
const MAX_SAMPLES: usize = 256;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Mean µs per header list for HPACK encode and decode, one encoder and
/// one decoder over the lists in order (so the dynamic table behaves as
/// on a connection).
pub fn hpack(phase: &mut Phase, lists: &[Vec<HeaderField>]) {
    let lists = &lists[..lists.len().min(4 * MAX_SAMPLES)];
    if lists.is_empty() {
        return;
    }
    let mut enc = Encoder::new();
    let t = Instant::now();
    let blocks: Vec<Vec<u8>> = lists.iter().map(|l| enc.encode(l)).collect();
    let enc_us = us_since(t) / lists.len() as f64;
    let mut dec = Decoder::new();
    let t = Instant::now();
    for b in &blocks {
        std::hint::black_box(dec.decode(b).expect("own HPACK output decodes"));
    }
    let dec_us = us_since(t) / lists.len() as f64;
    let note = format!("mean over n={} header lists", lists.len());
    phase.layer("http2.hpack_encode_us", enc_us, note.clone());
    phase.layer("http2.hpack_decode_us", dec_us, note);
}

/// Mean µs per header list for QPACK encode and decode.
pub fn qpack(phase: &mut Phase, lists: &[Vec<HeaderField>]) {
    let lists = &lists[..lists.len().min(4 * MAX_SAMPLES)];
    if lists.is_empty() {
        return;
    }
    let t = Instant::now();
    let blocks: Vec<Vec<u8>> = lists.iter().map(|l| sww_http3::qpack::encode(l)).collect();
    let enc_us = us_since(t) / lists.len() as f64;
    let t = Instant::now();
    for b in &blocks {
        std::hint::black_box(sww_http3::qpack::decode(b).expect("own QPACK output decodes"));
    }
    let dec_us = us_since(t) / lists.len() as f64;
    let note = format!("mean over n={} header lists", lists.len());
    phase.layer("http3.qpack_encode_us", enc_us, note.clone());
    phase.layer("http3.qpack_decode_us", dec_us, note);
}

/// Median µs of `sww_html::parse`, `gencontent::extract` and `serialize`
/// per page.
pub fn html(phase: &mut Phase, pages: &[String]) {
    let pages = &pages[..pages.len().min(MAX_SAMPLES)];
    if pages.is_empty() {
        return;
    }
    let (mut parse, mut extract, mut ser) = (Vec::new(), Vec::new(), Vec::new());
    for page in pages {
        let t = Instant::now();
        let doc = sww_html::parse(page);
        parse.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(gencontent::extract(&doc));
        extract.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(sww_html::serialize(&doc));
        ser.push(us_since(t));
    }
    let note = format!("p50 over n={} pages", pages.len());
    phase.layer("html.parse_us_p50", median(&parse), note.clone());
    phase.layer("html.extract_us_p50", median(&extract), note.clone());
    phase.layer("html.serialize_us_p50", median(&ser), note);
}

/// Median µs of `sww_hash::sha256` per response body (the ETag hash).
pub fn sha256(phase: &mut Phase, bodies: &[Vec<u8>]) {
    let bodies = &bodies[..bodies.len().min(MAX_SAMPLES)];
    if bodies.is_empty() {
        return;
    }
    let times: Vec<f64> = bodies
        .iter()
        .map(|b| {
            let t = Instant::now();
            std::hint::black_box(sww_hash::sha256(b));
            us_since(t)
        })
        .collect();
    phase.layer(
        "hash.sha256_us_p50",
        median(&times),
        format!("p50 over n={} bodies", times.len()),
    );
}

/// Median ms of `MediaGenerator::try_generate` on the run's image
/// recipes, and median µs of the codec's encode and decode of the
/// results. `images` is how many images the timed phase generated.
pub fn genai(phase: &mut Phase, images: u64, recipes: &[GeneratedContent]) {
    phase.layer(
        "genai.images",
        images as f64,
        "images generated in the timed phase",
    );
    let recipes = &recipes[..recipes.len().min(MAX_SAMPLES / 8)];
    if images == 0 || recipes.is_empty() {
        return;
    }
    let mut generator = MediaGenerator::new(profile(DeviceKind::Workstation));
    let (mut gen, mut enc, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for item in recipes {
        let t = Instant::now();
        let (media, _) = generator
            .try_generate(item)
            .expect("the workstation generates every recipe the run served");
        gen.push(us_since(t) / 1e3);
        if let sww_core::mediagen::GeneratedMedia::Image { image, .. } = media {
            let t = Instant::now();
            let bytes = codec::encode(&image, DEFAULT_CODEC_QUALITY);
            enc.push(us_since(t));
            let t = Instant::now();
            std::hint::black_box(codec::decode(&bytes).expect("own codec output decodes"));
            dec.push(us_since(t));
        }
    }
    let note = format!("p50 over n={} recipes", gen.len());
    phase.layer("genai.generate_ms_p50", median(&gen), note.clone());
    phase.layer("genai.codec_encode_us_p50", median(&enc), note.clone());
    phase.layer("genai.codec_decode_us_p50", median(&dec), note);
}

/// Cache hits, misses and generations of one server's engine so far.
pub fn engine_counts(server: &GenerativeServer) -> [u64; 3] {
    let (hits, misses) = server.engine().cache().hit_miss();
    [hits, misses, server.engine().generations()]
}

/// The `engine` layer over the timed phase: `[hits, misses, generations]`
/// deltas, and the requests that joined another's in-flight generation.
pub fn engine(phase: &mut Phase, delta: [u64; 3], before: &Snapshot, after: &Snapshot) {
    let [hits, misses, generations] = delta;
    phase.layer(
        "engine.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        format!("{hits} hits / {} lookups", hits + misses),
    );
    phase.layer("engine.generations", generations as f64, "timed phase");
    phase.layer(
        "engine.joined",
        after.delta(
            before,
            "sww_engine_requests_total",
            &[("outcome", "joined")],
        ),
        "sww_engine_requests_total{outcome=joined}",
    );
}

/// The layers read off the `sww_obs` registry between the `before` and
/// `after` snapshots of the timed phase: pool rejections and fresh buffer
/// allocations, counter increments per unit, the series count, and one
/// timed render.
pub fn registry(phase: &mut Phase, before: &Snapshot, after: &Snapshot, units: u64) {
    phase.layer(
        "pool.rejected",
        after.delta(before, "sww_pool_jobs_total", &[("result", "rejected")]),
        "sww_pool_jobs_total{result=rejected}",
    );
    phase.layer(
        "genai.buffer_allocs",
        after.delta(before, "sww_pool_acquired_total", &[("outcome", "alloc")]),
        "sww_pool_acquired_total{outcome=alloc}",
    );
    let increments = after.increments_since(before);
    let t = Instant::now();
    let text = sww_obs::render();
    let render_ms = us_since(t) / 1e3;
    let series = Snapshot::parse(&text).series();
    phase.layer(
        "obs.increments_per_req",
        increments / units.max(1) as f64,
        format!("{increments} increments / {units} units"),
    );
    phase.layer("obs.series", series as f64, "sample lines in one render");
    phase.layer("obs.render_ms", render_ms, "one render");
}

/// Record `<prefix>_p50` (and `_p99` when asked) of `samples` in ms.
pub fn timing(phase: &mut Phase, p50: &'static str, p99: Option<&'static str>, samples: &[f64]) {
    if samples.is_empty() {
        return;
    }
    let s = Summary::of(samples);
    phase.layer(p50, s.p50, format!("n={}", s.n));
    if let Some(name) = p99 {
        phase.layer(name, s.p99, format!("n={} ({} beyond)", s.n, s.beyond_p99));
    }
}
