//! The server loads its generation pipeline once per process (paper
//! §4.1), however many threads end up generating. HTTP/3 serves each
//! request on a fresh thread, so this is where a per-thread load would
//! show: every naive page request would train the text model again.
//!
//! This binary holds a single test, so no other test's model loads land
//! in the process-wide counter while it measures.

use sww::core::{GenAbility, GenerativeServer, SiteContent};
use sww::html::gencontent;
use sww::http2::Request;
use sww::http3::H3ClientConnection;

const PAGES: usize = 32;

fn model_loads() -> u64 {
    sww::obs::counter("sww_genai_model_loads_total", &[("model", "DeepSeekR1_8B")]).get()
}

#[tokio::test(flavor = "multi_thread")]
async fn naive_h3_pages_load_the_model_at_most_once() {
    let mut site = SiteContent::new();
    for p in 0..PAGES {
        site.add_page(
            format!("/page/{p}"),
            format!(
                "<html><body>{}{}</body></html>",
                gencontent::image_div(&format!("a harbour at dusk, view {p}"), "h.jpg", 32, 32),
                gencontent::text_div(&[format!("harbour boats dusk {p}")], 40),
            ),
        );
    }
    let server = GenerativeServer::builder()
        .site(site)
        .ability(GenAbility::full())
        .build();
    let (a, b) = tokio::io::duplex(1 << 20);
    tokio::spawn(async move {
        let _ = server.serve_h3_stream(b).await;
    });
    let mut client = H3ClientConnection::handshake(a, GenAbility::none())
        .await
        .expect("h3 handshake");

    let before = model_loads();
    for p in 0..PAGES {
        let resp = client
            .send_request(&Request::get(format!("/page/{p}")))
            .await
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.headers.get("x-sww-mode"), Some("server-generated"));
    }
    let loads = model_loads() - before;
    assert!(
        loads <= 1,
        "{PAGES} naive h3 pages loaded the model {loads} times"
    );
}
