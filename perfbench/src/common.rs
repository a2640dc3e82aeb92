//! What the three workloads share: the command line, the E20 trace
//! configuration, the set-up/go gate for load lanes, and the raw
//! measurements a timed phase hands back.

use crate::spans::SpanLog;
use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use sww_workload::arrival::DiurnalModel;
use sww_workload::graph::ANCHOR_COUNT;
use sww_workload::session::WalkConfig;
use sww_workload::trace::TraceEvent;
use sww_workload::{SmallWorldConfig, Trace, WorkloadConfig};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Equal windows the timed phase is cut into: latency percentiles and
/// throughput are the median over windows, so one burst of noise from
/// the rest of the machine moves a run's figure less.
pub const WINDOWS: usize = 5;

/// The seed the benchmark is tuned on, and the held-out seed every later
/// claim must also hold on.
pub const HELD_OUT_SEED: u64 = 1013;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Directory, relative to the working directory, that traced runs write
/// their spans into.
pub const SPANS_DIR: &str = ".bench_out";

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload: get("workload")?.clone(),
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
        })
    }
}

/// The E20 live-replay workload (β = 0.02, Zipf 1.1, the E14 device mix,
/// 192 pages of degree 8) at `requests` events; the graph and the trace
/// both derive from `seed`.
pub fn e20(seed: u64, requests: usize) -> WorkloadConfig {
    WorkloadConfig {
        graph: SmallWorldConfig {
            nodes: 192,
            k: 8,
            beta: 0.02,
            seed,
        },
        zipf_exponent: 1.1,
        walk: WalkConfig {
            restart: 0.10,
            mean_len: 16.0,
        },
        diurnal: DiurnalModel {
            base_rate: 3.0,
            ..DiurnalModel::default()
        },
        requests,
        seed,
        ..WorkloadConfig::default()
    }
}

/// The trace's sessions in order of their first request, each the
/// user's page views in trace order. Views of the three paper anchor
/// pages are left out (see README: one Wikimedia view costs ~300 graph
/// page loads, so a handful per run would decide every tail and mean).
pub fn sessions(trace: &Trace) -> Vec<Vec<TraceEvent>> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_user: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in trace.events().iter().filter(|e| e.node >= ANCHOR_COUNT) {
        by_user
            .entry(e.user)
            .or_insert_with(|| {
                order.push(e.user);
                Vec::new()
            })
            .push(*e);
    }
    order
        .into_iter()
        .map(|u| by_user.remove(&u).expect("every ordered user has views"))
        .collect()
}

/// Block the (otherwise idle) lane thread until `due`. The open loop
/// paces with a real sleep because the vendored executor's idle backoff
/// would add up to a millisecond of lateness per unit.
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The rendezvous between the main thread and its load lanes: lanes
/// finish their set-up, report ready, then either start the timed phase
/// at a common instant or drop a discarded set-up.
pub struct Gate {
    ready: Barrier,
    go: Barrier,
    start: Mutex<Option<Instant>>,
}

impl Gate {
    /// A gate for `lanes` lanes.
    pub fn new(lanes: usize) -> Gate {
        Gate {
            ready: Barrier::new(lanes + 1),
            go: Barrier::new(lanes + 1),
            start: Mutex::new(None),
        }
    }

    /// Lane side: report set-up done and wait for the decision. `Some`
    /// carries the timed phase's start, and returns at that instant;
    /// `None` discards this set-up.
    pub fn lane_ready(&self) -> Option<Instant> {
        self.ready.wait();
        self.go.wait();
        let start = *self.start.lock().expect("gate lock");
        if let Some(t0) = start {
            sleep_until(t0);
        }
        start
    }

    /// Main side: wait until every lane is set up.
    pub fn all_ready(&self) -> Instant {
        self.ready.wait();
        Instant::now()
    }

    /// Main side: start the timed phase (`run`) or release a discarded
    /// set-up. Returns the start instant when running.
    pub fn go(&self, run: bool) -> Option<Instant> {
        let t0 = run.then(|| Instant::now() + Duration::from_millis(2));
        *self.start.lock().expect("gate lock") = t0;
        self.go.wait();
        t0
    }
}

/// What [`measure`] hands back: the timed set-up's stack and lane
/// results, the phase's start and per-window CPU seconds, the counters
/// `mark` took just before the phase, and every set-up's timings.
pub struct Timed<S, L, B> {
    /// The stack of the timed (last) set-up.
    pub stack: S,
    /// Each lane's result for the timed phase.
    pub outs: Vec<L>,
    /// Lane results of the discarded set-ups, oldest first.
    pub earlier: Vec<Vec<L>>,
    /// When the timed phase started.
    pub t0: Instant,
    /// Process CPU seconds per window of the timed phase.
    pub cpu_s: Vec<f64>,
    /// What `mark` returned right before the timed phase.
    pub before: B,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per graph + trace + site build.
    pub build_s: Vec<f64>,
}

/// Set the workload up `SETUPS` times and time the last set-up's phase.
/// Each set-up calls `build` (the stack and its graph/trace/site build
/// seconds) and starts `lanes` threads running `lane`, which set up their
/// connections, call [`Gate::lane_ready`] and run the timed phase when it
/// returns a start. A set-up lasts from its start (the process start for
/// the first) until every lane is ready; `mark` snapshots, right before
/// the phase, whatever counters the workload reads deltas of afterwards.
pub fn measure<S: Sync, L: Send, B>(
    args: &Args,
    process_start: Instant,
    lanes: usize,
    build: impl Fn(&Args) -> (S, f64),
    lane: impl Fn(usize, &S, &Gate) -> L + Sync,
    mark: impl Fn(&S) -> B,
) -> Timed<S, L, B> {
    let (mut setup_s, mut build_s, mut earlier) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..SETUPS {
        let t_setup = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (stack, b) = build(args);
        build_s.push(b);
        let gate = Gate::new(lanes);
        let (t0, outs, cpu_s, before) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|l| {
                    let (stack, gate, lane) = (&stack, &gate, &lane);
                    scope.spawn(move || lane(l, stack, gate))
                })
                .collect();
            setup_s.push(gate.all_ready().duration_since(t_setup).as_secs_f64());
            let before = mark(&stack);
            let (t0, outs, cpu_s) = timed(&gate, rep + 1 == SETUPS, args.seconds, || {
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load lane"))
                    .collect::<Vec<L>>()
            });
            (t0, outs, cpu_s, before)
        });
        match t0 {
            Some(t0) => {
                return Timed {
                    stack,
                    outs,
                    earlier,
                    t0,
                    cpu_s,
                    before,
                    setup_s,
                    build_s,
                }
            }
            None => earlier.push(outs),
        }
    }
    unreachable!("the last set-up runs the timed phase")
}

/// Start the timed phase through `gate` (or release a discarded set-up
/// when `!run`), sample the process CPU time at each window boundary
/// while the lanes run, and close the last window once `join` has
/// collected the lanes. Returns the phase start, `join`'s result and the
/// CPU seconds of each window.
fn timed<T>(
    gate: &Gate,
    run: bool,
    seconds: f64,
    join: impl FnOnce() -> T,
) -> (Option<Instant>, T, Vec<f64>) {
    let mut marks = vec![crate::sys::cpu_seconds()];
    let t0 = gate.go(run);
    if let Some(t0) = t0 {
        let width = Duration::from_secs_f64(seconds / WINDOWS as f64);
        for i in 1..WINDOWS as u32 {
            sleep_until(t0 + width * i);
            marks.push(crate::sys::cpu_seconds());
        }
    }
    let out = join();
    marks.push(crate::sys::cpu_seconds());
    (t0, out, marks.windows(2).map(|m| m[1] - m[0]).collect())
}

/// One unit's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Latency in ms: from due (open loop) or send (closed loop) to done.
    /// Failed units count as infinitely late.
    pub latency_ms: f64,
    /// Whether the unit succeeded.
    pub ok: bool,
    /// Seconds from the timed phase's start to when the unit was due
    /// (open loop) or sent (closed loop).
    pub at_s: f64,
}

/// The raw measurements of one workload run, before they become metrics.
#[derive(Debug)]
pub struct Phase {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per graph + trace + site build (inside each set-up).
    pub build_s: Vec<f64>,
    /// Every attempted unit of the timed phase.
    pub units: Vec<Unit>,
    /// Wall seconds from the timed phase's start to its last completion.
    pub elapsed_s: f64,
    /// Length of the timed phase as scheduled, in seconds.
    pub seconds: f64,
    /// Process CPU seconds in each window of the timed phase.
    pub cpu_s: Vec<f64>,
    /// Octets that crossed the client↔server streams in the timed phase.
    pub wire_bytes: u64,
    /// Peak RSS in MiB and how it was read, when the workload reads it
    /// at a fixed amount of work rather than at the end of the run.
    pub peak_rss_mb: Option<(f64, String)>,
    /// Output mismatches found by the run's checks.
    pub mismatches: Vec<String>,
    /// Run description: loop type, rate or wave size, lanes.
    pub meta: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced runs only): name → (value, note).
    pub layers: BTreeMap<&'static str, (f64, String)>,
    /// Spans of the traced run and each unit's measured latency in ns,
    /// keyed like the spans' unit ids.
    pub spans: Option<(SpanLog, BTreeMap<u64, u64>)>,
}

impl Phase {
    /// A phase with the set-up timings and CPU windows of `m`, no units
    /// yet, and `meta` describing the run.
    pub fn new<S, L, B>(
        m: &Timed<S, L, B>,
        seconds: f64,
        meta: Vec<(&'static str, String)>,
    ) -> Phase {
        Phase {
            setup_s: m.setup_s.clone(),
            build_s: m.build_s.clone(),
            units: Vec::new(),
            elapsed_s: 0.0,
            seconds,
            cpu_s: m.cpu_s.clone(),
            wire_bytes: 0,
            peak_rss_mb: None,
            mismatches: Vec::new(),
            meta,
            layers: BTreeMap::new(),
            spans: None,
        }
    }

    /// Record a per-layer metric with a note (sample count or bases).
    pub fn layer(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.layers.insert(name, (value, note.into()));
    }
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// Milliseconds between two instants (0 if `b` precedes `a`).
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv("--workload hotfetch --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hotfetch", 7, 25.0, true)
        );
        for bad in [
            "--workload hotfetch --seed 7 --seconds 25",
            "--workload hotfetch --seed 7 --seconds 25 --trace 2",
            "--workload hotfetch --seed x --seconds 25 --trace 0",
            "--workload hotfetch --seed 7 --seconds 0 --trace 0",
            "--workload hotfetch --seed 7 --seconds 25 --trace 0 --out d",
            "hotfetch",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
