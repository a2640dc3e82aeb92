//! Deterministic fault injection for the serving stack.
//!
//! The paper's deployment story assumes generation can fail or stall on
//! either end — ability negotiation exists precisely so a peer can fall
//! back to traditional media (§3, §7) — yet a failure path that cannot
//! be exercised on demand is a failure path that rots. This module is a
//! seeded failpoint registry: six well-known **sites** in the stack can
//! be made to inject errors, added latency, or payload truncation with
//! per-site probabilities, and every decision is drawn from a seeded
//! PRNG so a chaos run is reproducible.
//!
//! | Site key          | Where it fires                                   |
//! |-------------------|--------------------------------------------------|
//! | `engine.generate` | `GenerationEngine::try_fetch_image` (leader path) and the client's per-item generation |
//! | `pool.enqueue`    | `WorkerPool::try_execute` (admission)            |
//! | `cache.get`       | `GenerationCache::get` (lookup becomes a miss)   |
//! | `h2.read`         | `GenerativeClient` transport reads               |
//! | `server.respond`  | `server::dispatch`, wrapping the whole response  |
//! | `gossip.send`     | `Gossip::tick` message delivery (drops only)     |
//!
//! # Determinism
//!
//! Each site keeps a monotone evaluation counter; the decision for the
//! *n*-th evaluation at a site is a pure function of `(seed, site, n)`.
//! Single-threaded runs are therefore bit-for-bit reproducible; under
//! concurrency the multiset of decisions per site is fixed by the seed
//! even though which request draws which decision depends on thread
//! interleaving.
//!
//! # Scoped streams
//!
//! The registry is installed process-wide, but draws can be **scoped**:
//! a [`FaultScope`] derives an independent decision stream from
//! `(spec seed ⊕ scope label)` with its own counters, rebuilt fresh
//! whenever a new spec is installed. Every [`GenerativeServer`] owns a
//! scope (label `server`, relabelled to the node id when it joins an
//! edge cluster) and enters it for the duration of each dispatch, so:
//!
//! * multi-node chaos runs inject *independent per-node* streams — one
//!   node's draw volume no longer shifts another node's decisions;
//! * two runs on fresh stacks replay identically even when an earlier
//!   run already consumed the global stream (scope counters start at
//!   zero per instance), which is what lets `bench-workload` keep its
//!   response-digest determinism gate armed under `--chaos`.
//!
//! Draws outside any scope (client-side sites, gossip delivery) fall
//! through to the global stream. Pool-worker threads execute jobs
//! outside the dispatching thread's scope and also use the global
//! stream.
//!
//! # Zero cost when off
//!
//! [`at`] is a single relaxed atomic load when no spec is installed —
//! the hot path pays nothing until chaos is explicitly enabled via
//! [`install`] (e.g. `sww serve --chaos <spec>`).
//!
//! Observability: every injected fault — scoped or global — increments
//! `sww_faults_injected_total{site,kind}` and one process-wide tally
//! (readable via [`injected_total`] / [`injected_counts`]) so chaos
//! suites can reconcile the exposition against ground truth.
//!
//! [`GenerativeServer`]: crate::GenerativeServer

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The failpoint sites threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A generation about to run (engine leader, or client-side item).
    EngineGenerate,
    /// A job being admitted to the worker pool.
    PoolEnqueue,
    /// A generation-cache lookup.
    CacheGet,
    /// A transport read on the client connection.
    H2Read,
    /// The server producing a response.
    ServerRespond,
    /// A gossip message about to be delivered (`error` drops it; other
    /// kinds are no-ops under the virtual clock).
    GossipSend,
}

/// The number of sites.
const SITES: usize = 6;

/// All sites, in spec/display order.
pub const ALL_SITES: [FaultSite; SITES] = [
    FaultSite::EngineGenerate,
    FaultSite::PoolEnqueue,
    FaultSite::CacheGet,
    FaultSite::H2Read,
    FaultSite::ServerRespond,
    FaultSite::GossipSend,
];

impl FaultSite {
    /// The spec key for this site (`engine.generate`, ...).
    pub fn key(self) -> &'static str {
        match self {
            FaultSite::EngineGenerate => "engine.generate",
            FaultSite::PoolEnqueue => "pool.enqueue",
            FaultSite::CacheGet => "cache.get",
            FaultSite::H2Read => "h2.read",
            FaultSite::ServerRespond => "server.respond",
            FaultSite::GossipSend => "gossip.send",
        }
    }

    fn from_key(key: &str) -> Option<FaultSite> {
        ALL_SITES.iter().copied().find(|s| s.key() == key)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::EngineGenerate => 0,
            FaultSite::PoolEnqueue => 1,
            FaultSite::CacheGet => 2,
            FaultSite::H2Read => 3,
            FaultSite::ServerRespond => 4,
            FaultSite::GossipSend => 5,
        }
    }
}

/// What kind of fault a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright.
    Error,
    /// The operation is delayed before proceeding normally.
    Latency,
    /// The payload is truncated (byte-stream sites only; sites without a
    /// payload treat a truncate draw as a no-op).
    Truncate,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Latency => "latency",
            FaultKind::Truncate => "truncate",
        }
    }
}

/// The action an armed failpoint tells its call site to take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation (the site maps this to its natural error).
    Error,
    /// Sleep this long, then proceed normally.
    Latency(Duration),
    /// Keep only this percentage of the payload (1..=99).
    TruncateKeepPct(u8),
}

impl FaultAction {
    fn kind(self) -> FaultKind {
        match self {
            FaultAction::Error => FaultKind::Error,
            FaultAction::Latency(_) => FaultKind::Latency,
            FaultAction::TruncateKeepPct(_) => FaultKind::Truncate,
        }
    }
}

/// One parsed rule: inject `kind` at `site` with `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// What to inject.
    pub kind: FaultKind,
    /// Per-evaluation probability in `[0, 1]`.
    pub probability: f64,
    /// Kind-specific parameter: latency milliseconds (default 10) or
    /// truncation keep-percent (default 50).
    pub param: u64,
}

/// A parsed `--chaos` spec: a seed plus fault rules.
///
/// Grammar (comma-separated entries):
///
/// ```text
/// seed=<u64>
/// <site>=<kind>:<probability>[:<param>]
/// ```
///
/// e.g. `seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05,
/// h2.read=latency:0.2:15,server.respond=truncate:0.05:50`. Repeated
/// entries for a site accumulate; their probabilities must sum to ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// PRNG seed; identical seeds yield identical decision sequences.
    pub seed: u64,
    /// The fault rules, in spec order.
    pub rules: Vec<FaultRule>,
}

impl ChaosSpec {
    /// Parse a spec string. Returns a human-readable error for malformed
    /// entries, unknown sites/kinds, or per-site probabilities over 1.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos entry `{entry}` is not key=value"))?;
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("chaos seed `{value}` is not a u64"))?;
                continue;
            }
            let site =
                FaultSite::from_key(key).ok_or_else(|| format!("unknown fault site `{key}`"))?;
            let mut parts = value.split(':');
            let kind = match parts.next() {
                Some("error") => FaultKind::Error,
                Some("latency") => FaultKind::Latency,
                Some("truncate") => FaultKind::Truncate,
                other => return Err(format!("unknown fault kind `{}`", other.unwrap_or(""))),
            };
            let prob_text = parts
                .next()
                .ok_or_else(|| format!("rule `{entry}` is missing a probability"))?;
            let probability: f64 = prob_text
                .parse()
                .map_err(|_| format!("probability `{prob_text}` is not a number"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!("probability {probability} outside [0, 1]"));
            }
            let param = match parts.next() {
                Some(p) => p
                    .parse()
                    .map_err(|_| format!("parameter `{p}` is not a u64"))?,
                None => match kind {
                    FaultKind::Latency => 10,
                    FaultKind::Truncate => 50,
                    FaultKind::Error => 0,
                },
            };
            if kind == FaultKind::Truncate && !(1..=99).contains(&param) {
                return Err(format!("truncate keep-percent {param} outside 1..=99"));
            }
            rules.push(FaultRule {
                site,
                kind,
                probability,
                param,
            });
        }
        for site in ALL_SITES {
            let total: f64 = rules
                .iter()
                .filter(|r| r.site == site)
                .map(|r| r.probability)
                .sum();
            if total > 1.0 + 1e-9 {
                return Err(format!(
                    "probabilities for site `{}` sum to {total} (> 1)",
                    site.key()
                ));
            }
        }
        Ok(ChaosSpec { seed, rules })
    }
}

/// The number of distinct (site, kind) cells tracked by the tally.
const KINDS: usize = 3;

/// One compiled decision stream: per-site rules, sequence counters, and
/// a local injection tally. The global stream and every scope hold one.
#[derive(Debug)]
struct ChaosState {
    seed: u64,
    /// Rules grouped per site (probability thresholds evaluated in order).
    per_site: [Vec<(FaultKind, f64, u64)>; SITES],
    /// Evaluation sequence number per site.
    seq: [AtomicU64; SITES],
    /// Injection tally per (site, kind) for this stream alone.
    injected: [[AtomicU64; KINDS]; SITES],
}

impl ChaosState {
    fn new(spec: &ChaosSpec) -> ChaosState {
        ChaosState::with_seed(spec, spec.seed)
    }

    /// Compile `spec`'s rules but draw from `seed` — how scopes derive
    /// independent streams from one installed spec.
    fn with_seed(spec: &ChaosSpec, seed: u64) -> ChaosState {
        let mut per_site: [Vec<(FaultKind, f64, u64)>; SITES] = Default::default();
        for rule in &spec.rules {
            per_site[rule.site.index()].push((rule.kind, rule.probability, rule.param));
        }
        ChaosState {
            seed,
            per_site,
            seq: Default::default(),
            injected: Default::default(),
        }
    }

    /// Decide the fate of the next evaluation at `site`: a pure function
    /// of `(seed, site, n)` where `n` is the per-site sequence number.
    fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        let idx = site.index();
        let rules = &self.per_site[idx];
        if rules.is_empty() {
            return None;
        }
        let n = self.seq[idx].fetch_add(1, Ordering::Relaxed);
        let r = unit_from(self.seed, idx as u64, n);
        let mut threshold = 0.0;
        for &(kind, probability, param) in rules {
            threshold += probability;
            if r < threshold {
                self.injected[idx][kind_index(kind)].fetch_add(1, Ordering::Relaxed);
                return Some(match kind {
                    FaultKind::Error => FaultAction::Error,
                    FaultKind::Latency => FaultAction::Latency(Duration::from_millis(param)),
                    FaultKind::Truncate => FaultAction::TruncateKeepPct(param.clamp(1, 99) as u8),
                });
            }
        }
        None
    }

    /// This stream's own tally (unit-test surface; the process-wide
    /// tally the chaos suites reconcile against is [`injected_total`]).
    #[cfg(test)]
    fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .flatten()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

fn kind_index(kind: FaultKind) -> usize {
    match kind {
        FaultKind::Error => 0,
        FaultKind::Latency => 1,
        FaultKind::Truncate => 2,
    }
}

/// SplitMix64: the crate's one stateless mixer — the fault decision
/// PRNG, the gossip probe schedule and digest, and the retry jitter all
/// draw from it. Statistically adequate for coin flips and, crucially, a
/// pure function of its input — no hidden state.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, site, n)`.
fn unit_from(seed: u64, site: u64, n: u64) -> f64 {
    let mixed = splitmix64(splitmix64(seed ^ site.wrapping_mul(0xa076_1d64_78bd_642f)) ^ n);
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// Fast-path switch: callers pay one relaxed load when chaos is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped on every install/clear so scopes know to rebuild their
/// derived streams (fresh counters) against the new spec.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// The installed spec plus its compiled global stream.
struct Installed {
    spec: ChaosSpec,
    state: Arc<ChaosState>,
}

fn state_slot() -> &'static Mutex<Option<Installed>> {
    static SLOT: std::sync::OnceLock<Mutex<Option<Installed>>> = std::sync::OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Process-wide injection tally per (site, kind), fed by every stream —
/// global and scoped — so `/metrics` reconciliation sees one truth.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; KINDS] = [ZERO; KINDS];
static INJECTED: [[AtomicU64; KINDS]; SITES] = [ZERO_ROW; SITES];

fn reset_tallies() {
    for site in &INJECTED {
        for cell in site {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// Record one injection in the process-wide tally and the exposition.
fn record(site: FaultSite, kind: FaultKind) {
    INJECTED[site.index()][kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    sww_obs::counter(
        "sww_faults_injected_total",
        &[("site", site.key()), ("kind", kind.label())],
    )
    .inc();
}

/// Install a chaos spec process-wide, arming every failpoint it names.
/// Replaces any previously installed spec (tallies restart at zero, and
/// every [`FaultScope`] rebuilds its derived stream on next use).
pub fn install(spec: &ChaosSpec) {
    *state_slot().lock() = Some(Installed {
        spec: spec.clone(),
        state: Arc::new(ChaosState::new(spec)),
    });
    reset_tallies();
    GENERATION.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm all failpoints and drop the installed state.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *state_slot().lock() = None;
    reset_tallies();
    GENERATION.fetch_add(1, Ordering::SeqCst);
}

/// Whether a chaos spec is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A derived per-scope decision stream (one per server/edge node).
///
/// A scope compiles the installed spec against `seed ⊕ hash(label)`
/// with its own sequence counters, lazily and once per installed spec:
/// two fresh instances with the same label replay the same stream, and
/// two different labels draw independent streams. See the module-level
/// *Scoped streams* section.
#[derive(Debug)]
pub struct FaultScope {
    inner: Mutex<ScopeInner>,
}

#[derive(Debug)]
struct ScopeInner {
    label_seed: u64,
    built_generation: u64,
    state: Option<Arc<ChaosState>>,
}

impl FaultScope {
    /// A scope deriving its stream from `label`.
    pub fn new(label: &str) -> FaultScope {
        FaultScope {
            inner: Mutex::new(ScopeInner {
                label_seed: label_seed(label),
                built_generation: 0,
                state: None,
            }),
        }
    }

    /// Re-derive the scope from a new label (the edge router relabels a
    /// node's server scope to the node id on join). Drops any compiled
    /// stream so counters restart under the new label.
    pub fn relabel(&self, label: &str) {
        let mut inner = self.inner.lock();
        inner.label_seed = label_seed(label);
        inner.state = None;
    }

    fn decide(&self, site: FaultSite) -> Option<FaultAction> {
        let state = {
            let mut inner = self.inner.lock();
            let generation = GENERATION.load(Ordering::SeqCst);
            if inner.state.is_none() || inner.built_generation != generation {
                inner.state = state_slot().lock().as_ref().map(|installed| {
                    Arc::new(ChaosState::with_seed(
                        &installed.spec,
                        installed.spec.seed ^ inner.label_seed,
                    ))
                });
                inner.built_generation = generation;
            }
            inner.state.clone()
        }?;
        state.decide(site)
    }
}

/// Stable label hash for scope-seed derivation.
fn label_seed(label: &str) -> u64 {
    let mut acc = 0x73_63_6f_70_65_u64; // "scope"
    for &b in label.as_bytes() {
        acc = splitmix64(acc ^ u64::from(b));
    }
    acc
}

thread_local! {
    /// The stack of scopes the current thread has entered; draws use
    /// the innermost.
    static ACTIVE_SCOPES: RefCell<Vec<Arc<FaultScope>>> = const { RefCell::new(Vec::new()) };
}

/// RAII token from [`enter`]; leaving the scope is dropping it.
#[must_use = "dropping the guard leaves the scope immediately"]
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE_SCOPES.with(|scopes| {
            scopes.borrow_mut().pop();
        });
    }
}

/// Route this thread's fault draws through `scope` until the returned
/// guard drops. Scopes nest; the innermost wins.
pub fn enter(scope: &Arc<FaultScope>) -> ScopeGuard {
    ACTIVE_SCOPES.with(|scopes| scopes.borrow_mut().push(Arc::clone(scope)));
    ScopeGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// Evaluate the failpoint at `site`: `None` (the overwhelmingly common
/// answer, and a single atomic load when chaos is off) means proceed
/// normally; `Some(action)` tells the call site what to inject. Draws
/// come from the innermost entered [`FaultScope`] on this thread, or
/// the global stream outside any scope.
pub fn at(site: FaultSite) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let scoped = ACTIVE_SCOPES.with(|scopes| scopes.borrow().last().cloned());
    let action = match scoped {
        Some(scope) => scope.decide(site)?,
        None => {
            let state = state_slot().lock().as_ref().map(|i| Arc::clone(&i.state))?;
            state.decide(site)?
        }
    };
    record(site, action.kind());
    Some(action)
}

/// Total faults injected since the current spec was installed, summed
/// across the global stream and every scope.
pub fn injected_total() -> u64 {
    INJECTED
        .iter()
        .flatten()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
}

/// Injection tally per `(site key, kind label)`, zero entries omitted.
/// Like [`injected_total`], covers scoped and global draws alike.
pub fn injected_counts() -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::new();
    for site in ALL_SITES {
        for kind in [FaultKind::Error, FaultKind::Latency, FaultKind::Truncate] {
            let n = INJECTED[site.index()][kind_index(kind)].load(Ordering::Relaxed);
            if n > 0 {
                out.push((site.key(), kind.label(), n));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_output() {
        // First output of the reference SplitMix64 generator seeded at 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    // These tests exercise `ChaosState` directly rather than the global
    // install/clear switch: unit tests across the crate run in parallel
    // threads of one process, and arming the process-wide registry here
    // would inject faults into unrelated tests. Global behaviour —
    // including scoped draws through `at` — is covered by
    // `tests/chaos_resilience.rs`, which owns its binary.

    #[test]
    fn parses_full_spec() {
        let spec = ChaosSpec::parse(
            "seed=42,engine.generate=error:0.1,pool.enqueue=error:0.05,\
             h2.read=latency:0.2:15,server.respond=truncate:0.05:75",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.rules.len(), 4);
        assert_eq!(spec.rules[0].site, FaultSite::EngineGenerate);
        assert_eq!(spec.rules[2].kind, FaultKind::Latency);
        assert_eq!(spec.rules[2].param, 15);
        assert_eq!(spec.rules[3].param, 75);
    }

    #[test]
    fn parses_gossip_site() {
        let spec = ChaosSpec::parse("seed=3,gossip.send=error:0.25").unwrap();
        assert_eq!(spec.rules[0].site, FaultSite::GossipSend);
        assert_eq!(spec.rules[0].kind, FaultKind::Error);
    }

    #[test]
    fn default_params_apply() {
        let spec = ChaosSpec::parse("h2.read=latency:0.5,server.respond=truncate:0.5").unwrap();
        assert_eq!(spec.rules[0].param, 10, "latency defaults to 10 ms");
        assert_eq!(spec.rules[1].param, 50, "truncate defaults to keep 50%");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "engine.generate",                                       // no '='
            "nowhere.at.all=error:0.1",                              // unknown site
            "engine.generate=explode:0.1",                           // unknown kind
            "engine.generate=error",                                 // missing probability
            "engine.generate=error:1.5",                             // probability out of range
            "seed=notanumber",                                       // bad seed
            "server.respond=truncate:0.1:100",                       // keep-percent out of range
            "engine.generate=error:0.6,engine.generate=latency:0.6", // sums > 1
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn empty_spec_is_quiet() {
        let spec = ChaosSpec::parse("seed=7").unwrap();
        let state = ChaosState::new(&spec);
        for _ in 0..100 {
            assert_eq!(state.decide(FaultSite::EngineGenerate), None);
        }
        assert_eq!(state.injected_total(), 0);
    }

    #[test]
    fn identical_seeds_yield_identical_decision_sequences() {
        let spec =
            ChaosSpec::parse("seed=1234,engine.generate=error:0.3,h2.read=latency:0.25:5").unwrap();
        let a = ChaosState::new(&spec);
        let b = ChaosState::new(&spec);
        for _ in 0..500 {
            assert_eq!(
                a.decide(FaultSite::EngineGenerate),
                b.decide(FaultSite::EngineGenerate)
            );
            assert_eq!(a.decide(FaultSite::H2Read), b.decide(FaultSite::H2Read));
        }
        assert_eq!(a.injected_total(), b.injected_total());
        assert!(a.injected_total() > 0, "a 30% coin must land in 500 draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed: u64| {
            let spec = ChaosSpec {
                seed,
                rules: vec![FaultRule {
                    site: FaultSite::EngineGenerate,
                    kind: FaultKind::Error,
                    probability: 0.5,
                    param: 0,
                }],
            };
            let state = ChaosState::new(&spec);
            (0..64)
                .map(|_| state.decide(FaultSite::EngineGenerate).is_some())
                .collect::<Vec<bool>>()
        };
        assert_ne!(mk(1), mk(2), "64 fair coins agreeing is ~2^-64");
    }

    #[test]
    fn scope_seed_derivation_is_stable_and_label_dependent() {
        // The scoped stream is `with_seed(spec, seed ^ hash(label))`:
        // same label → identical replay, different label → independent.
        let spec = ChaosSpec::parse("seed=11,engine.generate=error:0.5").unwrap();
        let draws = |label: &str| {
            let state = ChaosState::with_seed(&spec, spec.seed ^ label_seed(label));
            (0..64)
                .map(|_| state.decide(FaultSite::EngineGenerate).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(draws("n0"), draws("n0"), "same label must replay");
        assert_ne!(draws("n0"), draws("n1"), "labels must draw independently");
        assert_ne!(
            draws("n0"),
            {
                let state = ChaosState::new(&spec);
                (0..64)
                    .map(|_| state.decide(FaultSite::EngineGenerate).is_some())
                    .collect::<Vec<bool>>()
            },
            "a scope must not mirror the global stream"
        );
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let spec = ChaosSpec::parse("seed=9,pool.enqueue=error:0.1").unwrap();
        let state = ChaosState::new(&spec);
        let n = 10_000;
        let injected = (0..n)
            .filter(|_| state.decide(FaultSite::PoolEnqueue).is_some())
            .count();
        let rate = injected as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate} far from 0.1");
        assert_eq!(state.injected_total(), injected as u64);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let spec =
            ChaosSpec::parse("seed=5,engine.generate=error:0.5,pool.enqueue=error:0.5").unwrap();
        let state = ChaosState::new(&spec);
        let a: Vec<bool> = (0..64)
            .map(|_| state.decide(FaultSite::EngineGenerate).is_some())
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|_| state.decide(FaultSite::PoolEnqueue).is_some())
            .collect();
        assert_ne!(a, b, "same stream at two sites");
    }

    #[test]
    fn actions_carry_their_parameters() {
        let spec = ChaosSpec::parse("seed=3,h2.read=latency:1.0:25,server.respond=truncate:1.0:40")
            .unwrap();
        let state = ChaosState::new(&spec);
        assert_eq!(
            state.decide(FaultSite::H2Read),
            Some(FaultAction::Latency(Duration::from_millis(25)))
        );
        assert_eq!(
            state.decide(FaultSite::ServerRespond),
            Some(FaultAction::TruncateKeepPct(40))
        );
    }

    #[test]
    fn disabled_global_registry_is_quiet() {
        // The global switch defaults to off; `at` must answer None without
        // touching any state. (Do not install here — see module note.)
        if !enabled() {
            assert_eq!(at(FaultSite::EngineGenerate), None);
        }
    }
}
