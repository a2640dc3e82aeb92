//! The one FNV-style mixer behind the workload's replay witnesses: the
//! site-graph, trace and replay-response digests all fold through
//! [`Fnv`].

/// An FNV-1a-shaped accumulator that folds whole 64-bit words: each word
/// is XORed in, then the state is multiplied by `0x1000_0000_01b3`. That
/// multiplier is not the standard FNV-64 prime (`0x100_0000_01b3`), nor
/// the one `sww_genai::fnv1a` uses; it is kept because every digest the
/// determinism suites record was produced with it (pinned by
/// `tests/digest_pins.rs`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The FNV-64 offset basis.
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one word.
    pub(crate) fn word(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    /// The digest of a byte string, each byte folded as one word.
    pub(crate) fn of_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        for &b in bytes {
            h.word(u64::from(b));
        }
        h.finish()
    }

    /// The digest so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}
