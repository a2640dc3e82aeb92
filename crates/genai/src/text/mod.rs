//! Text expansion: bullet points → prose of a requested length (the
//! paper's text-to-text task, §6.3.2).
//!
//! The model interleaves Markov-generated filler with the source bullet
//! keywords. Two profile parameters shape the measurable outcomes exactly
//! as the paper reports them: `keyword_fidelity` drives the SBERT
//! similarity between bullets and output, and `length_sigma` drives the
//! word-count overshoot distribution (clamped at ±20%, the paper's
//! observed ceiling).

pub mod bullets;
pub mod corpus;
pub mod markov;
pub mod models;

pub use models::{TextModelKind, TextModelProfile};

use crate::fnv1a;
use crate::rng::Rng;
use markov::MarkovChain;
use std::sync::Arc;

/// A loaded text model: profile + trained chain. Construction trains the
/// chain, which stands in for model loading — the pipeline preloads it.
///
/// Load once, clone per thread: the trained chain sits behind an [`Arc`],
/// so a clone shares it instead of training again. A server loads one
/// pipeline per process and hands each worker thread a clone.
#[derive(Debug, Clone)]
pub struct TextModel {
    profile: TextModelProfile,
    chain: Arc<MarkovChain>,
}

impl TextModel {
    /// Load a named model: train its chain. Counted in
    /// `sww_genai_model_loads_total{model}`.
    pub fn new(kind: TextModelKind) -> TextModel {
        sww_obs::counter(
            "sww_genai_model_loads_total",
            &[("model", &format!("{kind:?}"))],
        )
        .inc();
        TextModel {
            profile: models::profile(kind),
            chain: Arc::new(MarkovChain::train(corpus::CORPUS)),
        }
    }

    /// Whether `self` and `other` share one trained chain (one load).
    #[cfg(test)]
    pub(crate) fn shares_chain(&self, other: &TextModel) -> bool {
        Arc::ptr_eq(&self.chain, &other.chain)
    }

    /// The model's profile.
    pub fn profile(&self) -> &TextModelProfile {
        &self.profile
    }

    /// Expand bullet points into ~`target_words` words of prose.
    /// Deterministic in `(bullets, target_words, model)`.
    pub fn expand(&self, bullet_list: &[String], target_words: usize) -> String {
        let target_words = target_words.max(10);
        let seed = fnv1a(bullet_list.join("|").as_bytes()) ^ (self.profile.kind as u64) << 32;
        let mut rng = Rng::new(seed);

        // Length discipline: the model aims at a deviated target, clamped
        // to the paper's observed ±20% envelope.
        let deviation = (rng.gaussian() * self.profile.length_sigma).clamp(-0.20, 0.20);
        let actual_target = ((target_words as f64) * (1.0 + deviation))
            .round()
            .max(10.0) as usize;

        // Keywords from the bullets, in order, cycled across sentences.
        let keywords: Vec<&str> = bullet_list
            .iter()
            .flat_map(|b| b.split_whitespace())
            .filter(|w| !bullets::is_stopword(w))
            .collect();

        let mut words = self.chain.generate(actual_target, &mut rng);
        words.truncate(actual_target.max(2));
        // Ensure the final word closes a sentence.
        if let Some(last) = words.last_mut() {
            if !last.ends_with('.') {
                last.push('.');
            }
        }

        // Weave keywords in: the model devotes a fidelity-scaled fraction
        // of its output budget to faithfully carrying source terms, cycling
        // through the keywords at spread positions. Higher fidelity → more
        // of the source material survives → higher measured SBERT.
        if !keywords.is_empty() && !words.is_empty() {
            let insertions =
                ((words.len() as f64) * 0.24 * self.profile.keyword_fidelity).round() as usize;
            let stride = (words.len() / insertions.max(1)).max(1);
            for i in 0..insertions {
                let kw = keywords[i % keywords.len()];
                let pos = (i * stride + rng.below(stride)) % words.len();
                let had_period = words[pos].ends_with('.');
                words[pos] = if had_period {
                    format!("{kw}.")
                } else {
                    kw.to_owned()
                };
            }
        }

        render_sentences(&words)
    }
}

/// Join generated words into prose with sentence capitalization.
fn render_sentences(words: &[String]) -> String {
    let mut out = String::new();
    let mut start_of_sentence = true;
    for w in words {
        if !out.is_empty() {
            out.push(' ');
        }
        if start_of_sentence {
            let mut chars = w.chars();
            if let Some(first) = chars.next() {
                out.extend(first.to_uppercase());
                out.push_str(chars.as_str());
            }
        } else {
            out.push_str(w);
        }
        start_of_sentence = w.ends_with('.');
    }
    out
}

/// Relative word-count deviation of `text` from `target`: the paper's
/// "Word Length Overshoot" metric (§6.3.2).
pub fn word_length_overshoot(text: &str, target: usize) -> f64 {
    let actual = text.split_whitespace().count() as f64;
    (actual - target as f64) / target as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bullets() -> Vec<String> {
        vec![
            "council approved transit plan tuesday".into(),
            "light rail extension construction spring".into(),
            "project reduce commute times twenty percent".into(),
        ]
    }

    #[test]
    fn expansion_is_deterministic() {
        let m = TextModel::new(TextModelKind::DeepSeekR1_8B);
        let a = m.expand(&sample_bullets(), 150);
        let b = m.expand(&sample_bullets(), 150);
        assert_eq!(a, b);
    }

    #[test]
    fn different_models_differ() {
        let bullets = sample_bullets();
        let a = TextModel::new(TextModelKind::Llama32).expand(&bullets, 150);
        let b = TextModel::new(TextModelKind::DeepSeekR1_8B).expand(&bullets, 150);
        assert_ne!(a, b);
    }

    #[test]
    fn overshoot_within_paper_envelope() {
        // Paper: overshoot reaches 20% but no more.
        for kind in TextModelKind::all() {
            let m = TextModel::new(kind);
            for target in [50usize, 100, 150, 250] {
                let text = m.expand(&sample_bullets(), target);
                let overshoot = word_length_overshoot(&text, target);
                assert!(
                    overshoot.abs() <= 0.25,
                    "{kind:?} target {target}: overshoot {overshoot:.2}"
                );
            }
        }
    }

    #[test]
    fn model_of_choice_has_tighter_lengths() {
        let bullets = sample_bullets();
        let spread = |kind: TextModelKind| -> f64 {
            // Vary bullets slightly to sample the deviation distribution.
            (0..24)
                .map(|i| {
                    let mut b = bullets.clone();
                    b.push(format!("extra detail {i}"));
                    let m = TextModel::new(kind);
                    word_length_overshoot(&m.expand(&b, 120), 120).abs()
                })
                .sum::<f64>()
                / 24.0
        };
        let tight = spread(TextModelKind::DeepSeekR1_8B);
        let loose = spread(TextModelKind::DeepSeekR1_1_5B);
        assert!(
            tight < loose,
            "8B mean |overshoot| {tight:.3} should beat 1.5B {loose:.3}"
        );
    }

    #[test]
    fn keywords_appear_in_expansion() {
        let m = TextModel::new(TextModelKind::DeepSeekR1_14B);
        let text = m.expand(&sample_bullets(), 200).to_lowercase();
        let hits = ["council", "transit", "rail", "commute", "spring"]
            .iter()
            .filter(|k| text.contains(**k))
            .count();
        assert!(hits >= 3, "expected most keywords woven in, got {hits}");
    }

    #[test]
    fn output_is_sentence_cased() {
        let m = TextModel::new(TextModelKind::Llama32);
        let text = m.expand(&sample_bullets(), 80);
        assert!(text.chars().next().unwrap().is_uppercase());
        assert!(text.ends_with('.'));
    }

    #[test]
    fn overshoot_metric() {
        assert_eq!(word_length_overshoot("one two three four", 4), 0.0);
        assert!((word_length_overshoot("one two three four five", 4) - 0.25).abs() < 1e-9);
        assert!((word_length_overshoot("one two three", 4) + 0.25).abs() < 1e-9);
    }
}
