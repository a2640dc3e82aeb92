//! Pixel golden for the procedural image generator.
//!
//! Speed work on the generator (noise tables, tiling, pooling) must never
//! change a pixel. This test renders a fixed grid of images — every model
//! profile, all three texture classes, a square, a non-square and a large
//! size — and compares the SHA-256 of each raw RGB buffer against
//! `tests/golden/genai_pixels.txt`. The snapshot was produced by the
//! generator before any of those optimisations, so a match proves
//! bit-identity with the original arithmetic.
//!
//! To intentionally re-bless after a deliberate change to the generator:
//!
//! ```text
//! SWW_BLESS=1 cargo test --test genai_pixels
//! ```

use std::fmt::Write as _;
use std::path::Path;
use sww_genai::prompt::TextureClass;
use sww_genai::{DiffusionModel, ImageModelKind, PromptFeatures};

const MODELS: [ImageModelKind; 5] = [
    ImageModelKind::Sd21Base,
    ImageModelKind::Sd3Medium,
    ImageModelKind::Sd35Medium,
    ImageModelKind::Dalle3,
    ImageModelKind::FluxFast,
];

/// One prompt per texture class.
const PROMPTS: [(&str, TextureClass); 3] = [
    ("wide mountain landscape", TextureClass::Banded),
    ("a fluffy cat", TextureClass::Organic),
    ("modern city street", TextureClass::Geometric),
];

/// (width, height, steps).
const SIZES: [(u32, u32, u32); 3] = [(64, 64, 15), (96, 40, 10), (224, 224, 15)];

fn render_digests() -> String {
    let mut out = String::new();
    for (prompt, texture) in PROMPTS {
        assert_eq!(PromptFeatures::analyze(prompt).texture, texture, "{prompt}");
        for kind in MODELS {
            let model = DiffusionModel::new(kind);
            for (w, h, steps) in SIZES {
                let img = model.generate(prompt, w, h, steps);
                let digest = sww_hash::to_hex(&sww_hash::sha256(img.data()));
                writeln!(out, "{kind:?} {texture:?} {w}x{h} {steps} {digest}").unwrap();
            }
        }
    }
    out
}

#[test]
fn generated_pixels_match_golden() {
    let rendered = render_digests();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/genai_pixels.txt");
    if std::env::var("SWW_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pixel golden {} ({e})", path.display()));
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "generated pixels drifted from the golden");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "golden covers a different image grid"
    );
}
