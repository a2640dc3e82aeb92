//! Machine-readable bench reports (`BENCH_*.json`) and the regression
//! gate that compares a fresh run against a checked-in baseline.
//!
//! The PR 6 report captures the E17 tiled-kernel sweeps, the E18
//! transport shoot-out, the E19 edge-cluster scaling sweep, the E20
//! small-world workload sweep, and the E21 edge-resilience scenarios in
//! the `sww-bench-pr6/5` schema (documented in PERFORMANCE.md). Two
//! kinds of numbers live side by side and are treated differently:
//!
//! * **Modelled** throughput (`modelled_qps`, `speedup`) comes from the
//!   deterministic cost model, so it is bit-reproducible across hosts —
//!   the regression gate compares these.
//! * **Wall-clock** numbers (`wall_qps`, `p50_ms`, `p99_ms`) are
//!   host-shaped and noisy — recorded for the perf trajectory, never
//!   gated.
//!
//! [`compare`] is the gate `ci.sh bench` runs: every baseline record must
//! still exist with its modelled throughput within tolerance, and the
//! fresh report must pass every within-run invariant in
//! [`gate::GATES`](crate::gate::GATES).

use crate::experiments::edge::{EdgeChaosOutcome, EdgeClusterConfig, EdgeSample};
use crate::experiments::kernel::{KernelConfig, KernelSample, ServingConfig, ServingSample};
use crate::experiments::resilience::{FailoverOutcome, PartitionOutcome};
use crate::experiments::transport::{TransportConfig, TransportSample};
use crate::experiments::workload::{DeterminismOutcome, E20Config, LiveSample, WorkloadRow};
use sww_json::Value;

/// Schema tag every PR 6 report carries. `/2` added the E18
/// `page_load_transport` records and the `transport_h3_speedup` headline;
/// `/3` added the E19 `edge_cluster` scaling records (keyed by `nodes`)
/// and the `edge_chaos` node-kill record; `/4` added the E20
/// `smallworld_modelled` records (keyed by `clustering`), the
/// `workload_replay` scorecards, and the `workload_determinism` witness;
/// `/5` added the E21 `edge_resilience` records (keyed by `replication`)
/// and the `gossip_partition` heal witness.
pub const PR6_SCHEMA: &str = "sww-bench-pr6/5";

/// Round to 3 decimals: keeps checked-in baselines readable while staying
/// far above the cost model's discrimination threshold.
fn r3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn kernel_record(cfg: KernelConfig, s: &KernelSample) -> Value {
    Value::object([
        ("experiment", Value::from("kernel_denoise")),
        ("kernel_tiles", Value::from(s.tiles)),
        ("batch", Value::from(cfg.batch)),
        ("workers", Value::from(s.tiles.saturating_sub(1))),
        ("wall_qps", Value::from(r3(s.wall_qps))),
        ("p50_ms", Value::from(r3(s.p50_ms))),
        ("p99_ms", Value::from(r3(s.p99_ms))),
        ("modelled_qps", Value::from(r3(s.modelled_rate))),
        ("speedup", Value::from(r3(s.speedup))),
        ("alloc_bytes_steady", Value::from(s.alloc_bytes as usize)),
    ])
}

fn serving_record(cfg: ServingConfig, s: &ServingSample) -> Value {
    Value::object([
        ("experiment", Value::from("serve_batched")),
        ("kernel_tiles", Value::from(s.kernel_tiles)),
        ("batch", Value::from(cfg.threads)),
        ("workers", Value::from(cfg.threads)),
        ("wall_qps", Value::from(r3(s.wall_qps))),
        ("p50_ms", Value::from(r3(s.p50_ms))),
        ("p99_ms", Value::from(r3(s.p99_ms))),
        ("modelled_qps", Value::from(r3(s.modelled_rate))),
        ("speedup", Value::from(r3(s.speedup))),
        ("mean_batch", Value::from(r3(s.mean_batch))),
        ("alloc_bytes_steady", Value::from(s.alloc_bytes as usize)),
    ])
}

/// One E18 row: page-load rate over one transport. `modelled_qps` comes
/// from the injected latency alone (`1000/(K·W)` for h2, `1000/W` for
/// h3) so the gate compares exact numbers; the wall-clock percentiles
/// ride along ungated. The pipes are pooled end to end, so the
/// steady-state allocation invariant holds here too.
fn transport_record(cfg: TransportConfig, s: &TransportSample) -> Value {
    Value::object([
        ("experiment", Value::from("page_load_transport")),
        ("transport", Value::from(s.transport.label())),
        ("kernel_tiles", Value::from(1usize)),
        ("recipes_per_page", Value::from(cfg.recipes)),
        ("gen_latency_ms", Value::from(cfg.gen_latency_ms as usize)),
        ("wall_qps", Value::from(r3(s.wall_qps))),
        ("p50_ms", Value::from(r3(s.p50_ms))),
        ("p99_ms", Value::from(r3(s.p99_ms))),
        ("modelled_qps", Value::from(r3(s.modelled_qps))),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// One E19 row: the edge cluster at one node count. `modelled_qps` is
/// ring ownership × the cost model — deterministic, gated; the hit rate
/// is also deterministic (request volume and prompt pool are both fixed
/// by the config) and gated for strict monotonicity across node counts.
fn edge_record(cfg: &EdgeClusterConfig, s: &EdgeSample) -> Value {
    Value::object([
        ("experiment", Value::from("edge_cluster")),
        ("nodes", Value::from(s.nodes)),
        ("kernel_tiles", Value::from(1usize)),
        ("prompts", Value::from(cfg.prompts)),
        ("requests", Value::from(s.requests as usize)),
        ("generations", Value::from(s.generations as usize)),
        ("hit_rate", Value::from(r3(s.hit_rate))),
        ("peer_fills", Value::from(s.peer_fills as usize)),
        ("max_owned", Value::from(s.max_owned)),
        ("wall_qps", Value::from(r3(s.wall_qps))),
        ("p50_ms", Value::from(r3(s.p50_ms))),
        ("p99_ms", Value::from(r3(s.p99_ms))),
        ("modelled_qps", Value::from(r3(s.modelled_qps))),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// The E19 chaos node-kill outcome. `modelled_qps` is pinned at zero —
/// the chaos run is gated on its own invariants (`lost == 0`,
/// `byte_identical`), not on throughput.
fn chaos_record(o: &EdgeChaosOutcome) -> Value {
    Value::object([
        ("experiment", Value::from("edge_chaos")),
        ("nodes", Value::from(o.nodes)),
        ("kernel_tiles", Value::from(1usize)),
        ("requests", Value::from(o.requests as usize)),
        ("completed", Value::from(o.completed as usize)),
        ("lost", Value::from(o.lost as usize)),
        ("failovers", Value::from(o.failovers as usize)),
        ("retries", Value::from(o.retries as usize)),
        ("byte_identical", Value::from(o.byte_identical)),
        ("modelled_qps", Value::from(0.0)),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// One E21 failover row: the owner-kill scenario at one replication
/// level. `modelled_qps` is pinned at zero — the scenario is gated on
/// its own invariants (`lost == 0`, `byte_identical`, `regenerations`
/// exactly zero with replicas and nonzero without), not on throughput.
fn resilience_record(o: &FailoverOutcome) -> Value {
    Value::object([
        ("experiment", Value::from("edge_resilience")),
        ("nodes", Value::from(o.nodes)),
        ("replication", Value::from(o.replication)),
        ("kernel_tiles", Value::from(1usize)),
        ("requests", Value::from(o.requests as usize)),
        ("completed", Value::from(o.completed as usize)),
        ("lost", Value::from(o.lost as usize)),
        ("byte_identical", Value::from(o.byte_identical)),
        ("regenerations", Value::from(o.regenerations as usize)),
        ("replica_pushes", Value::from(o.replica_pushes as usize)),
        ("replica_hits", Value::from(o.replica_hits as usize)),
        ("modelled_qps", Value::from(0.0)),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// The E21 gossip partition-heal witness: the partition must be
/// noticed, the heal must converge within the deterministic bound, and
/// two runs from the same seed must agree round for round.
fn partition_record(o: &PartitionOutcome) -> Value {
    Value::object([
        ("experiment", Value::from("gossip_partition")),
        ("nodes", Value::from(o.nodes)),
        ("kernel_tiles", Value::from(1usize)),
        ("diverged", Value::from(o.diverged)),
        ("rounds_to_heal", Value::from(o.rounds_to_heal as usize)),
        ("bound", Value::from(o.bound as usize)),
        ("converged", Value::from(o.converged)),
        ("deterministic", Value::from(o.deterministic)),
        ("modelled_qps", Value::from(0.0)),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// One E20 modelled row: the small-world workload at one clustering
/// coefficient. Every column is a pure function of the seed (graph,
/// popularity, walks, arrivals, and the discrete-event queue all derive
/// from it), so the hit rate and the modelled p99 are gated exactly.
fn workload_record(cfg: &E20Config, r: &WorkloadRow) -> Value {
    Value::object([
        ("experiment", Value::from("smallworld_modelled")),
        ("clustering", Value::from(r3(r.clustering))),
        ("beta", Value::from(r3(r.beta))),
        ("nodes", Value::from(cfg.cluster_nodes)),
        ("transport", Value::from("modelled")),
        ("kernel_tiles", Value::from(1usize)),
        ("requests", Value::from(r.slo.requests as usize)),
        ("unique_pages", Value::from(r.slo.unique_pages)),
        ("hit_rate", Value::from(r3(r.slo.hit_rate))),
        ("deadline_ms", Value::from(r3(cfg.deadline_ms))),
        ("p99_ms", Value::from(r3(r.slo.p99_ms))),
        ("mean_ms", Value::from(r3(r.slo.mean_ms))),
        ("modelled_qps", Value::from(r3(r.slo.offered_qps))),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// One E20 live replay scorecard. Wall-clock columns ride along ungated
/// (`modelled_qps` is pinned at zero so the throughput check is inert);
/// the deterministic columns (`generations`, `hit_rate`) are covered by
/// the determinism record's digest equality.
fn replay_record(clustering: f64, s: &LiveSample) -> Value {
    let card = &s.outcome.scorecard;
    Value::object([
        ("experiment", Value::from("workload_replay")),
        ("transport", Value::from(s.target.as_str())),
        ("clustering", Value::from(r3(clustering))),
        ("nodes", Value::from(s.nodes)),
        ("kernel_tiles", Value::from(1usize)),
        ("requests", Value::from(card.requests as usize)),
        ("ok", Value::from(card.ok as usize)),
        ("shed", Value::from(card.shed as usize)),
        ("deadline_hits", Value::from(card.deadline as usize)),
        ("errors", Value::from(card.errors as usize)),
        ("retries", Value::from(card.retries as usize)),
        ("generations", Value::from(s.outcome.generations as usize)),
        ("coalesced", Value::from(s.outcome.coalesced as usize)),
        ("hit_rate", Value::from(r3(s.outcome.hit_rate))),
        ("wall_qps", Value::from(r3(card.qps()))),
        ("p50_ms", Value::from(r3(card.p50_ms()))),
        ("p99_ms", Value::from(r3(card.p99_ms()))),
        ("modelled_qps", Value::from(0.0)),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// The E20 replay-determinism witness: two independent pipeline runs
/// (trace generation included) plus the single-vs-edge payload digest
/// comparison, each reduced to a gated boolean.
fn determinism_record(d: &DeterminismOutcome) -> Value {
    Value::object([
        ("experiment", Value::from("workload_determinism")),
        ("transport", Value::from("single")),
        ("nodes", Value::from(1usize)),
        ("kernel_tiles", Value::from(1usize)),
        ("trace_match", Value::from(d.trace_match)),
        ("response_match", Value::from(d.response_match)),
        (
            "cross_target_identical",
            Value::from(d.cross_target_identical),
        ),
        ("modelled_qps", Value::from(0.0)),
        ("alloc_bytes_steady", Value::from(0usize)),
    ])
}

/// The E19 inputs to a report: sweep config, per-width samples, and the
/// chaos node-kill outcome — grouped so `pr6_report` keeps a sane arity
/// as experiments accumulate.
pub struct EdgeSection<'a> {
    /// Sweep configuration (prompt pool, threads, replicas).
    pub cfg: &'a EdgeClusterConfig,
    /// One sample per node count, in sweep order.
    pub sweep: &'a [EdgeSample],
    /// The node-kill outcome.
    pub chaos: &'a EdgeChaosOutcome,
}

impl EdgeSection<'_> {
    /// One `edge_cluster` record per node count, then the `edge_chaos`
    /// record.
    pub fn records(&self) -> Vec<Value> {
        self.sweep
            .iter()
            .map(|s| edge_record(self.cfg, s))
            .chain(std::iter::once(chaos_record(self.chaos)))
            .collect()
    }
}

/// The E21 inputs to a report: one failover outcome per replication
/// level plus the gossip partition-heal witness.
pub struct ResilienceSection<'a> {
    /// One outcome per replication level, in sweep order.
    pub failover: &'a [FailoverOutcome],
    /// The partition-heal outcome.
    pub partition: &'a PartitionOutcome,
}

impl ResilienceSection<'_> {
    /// One `edge_resilience` record per replication level, then the
    /// `gossip_partition` record.
    pub fn records(&self) -> Vec<Value> {
        self.failover
            .iter()
            .map(resilience_record)
            .chain(std::iter::once(partition_record(self.partition)))
            .collect()
    }
}

/// The E20 inputs to a report: sweep config, modelled rows, live replay
/// scorecards (with the clustering coefficient of the live workload's
/// graph), and the determinism witness.
pub struct WorkloadSection<'a> {
    /// Sweep configuration (betas, graph shape, cache, deadline).
    pub cfg: &'a E20Config,
    /// One modelled row per `β`, in sweep order.
    pub modelled: &'a [WorkloadRow],
    /// Live replay scorecards (single / h3 / edge).
    pub live: &'a [LiveSample],
    /// Clustering coefficient of the graph the live replays browsed.
    pub live_clustering: f64,
    /// The replay-determinism witness.
    pub determinism: &'a DeterminismOutcome,
}

impl WorkloadSection<'_> {
    /// One `smallworld_modelled` record per `β`, one `workload_replay`
    /// record per live target, then the `workload_determinism` record.
    pub fn records(&self) -> Vec<Value> {
        self.modelled
            .iter()
            .map(|r| workload_record(self.cfg, r))
            .chain(
                self.live
                    .iter()
                    .map(|s| replay_record(self.live_clustering, s)),
            )
            .chain(std::iter::once(determinism_record(self.determinism)))
            .collect()
    }
}

/// Assemble the PR 6 report from both E17 sweeps, the E18 transport
/// comparison, the E19 edge-cluster sweep + chaos outcome, the E20
/// small-world workload sweep, and the E21 resilience scenarios.
#[allow(clippy::too_many_arguments)]
pub fn pr6_report(
    kcfg: KernelConfig,
    kernel: &[KernelSample],
    scfg: ServingConfig,
    serving: &[ServingSample],
    tcfg: TransportConfig,
    transports: &[TransportSample],
    edge: EdgeSection<'_>,
    workload: WorkloadSection<'_>,
    resilience: ResilienceSection<'_>,
) -> Value {
    let records: Vec<Value> = kernel
        .iter()
        .map(|s| kernel_record(kcfg, s))
        .chain(serving.iter().map(|s| serving_record(scfg, s)))
        .chain(transports.iter().map(|s| transport_record(tcfg, s)))
        .chain(edge.records())
        .chain(workload.records())
        .chain(resilience.records())
        .collect();
    let widest = |speedups: Vec<(usize, f64)>| {
        speedups
            .into_iter()
            .max_by_key(|&(tiles, _)| tiles)
            .map_or(1.0, |(_, s)| s)
    };
    let kernel_speedup = widest(kernel.iter().map(|s| (s.tiles, s.speedup)).collect());
    let serving_speedup = widest(
        serving
            .iter()
            .map(|s| (s.kernel_tiles, s.speedup))
            .collect(),
    );
    // Modelled h3-over-h2 page rate: exactly `recipes_per_page` when both
    // transports are present (h3 overlaps what h2 serializes).
    let qps_over = |t: sww_core::TransportKind| {
        transports
            .iter()
            .find(|s| s.transport == t)
            .map(|s| s.modelled_qps)
    };
    let transport_speedup = match (
        qps_over(sww_core::TransportKind::H2),
        qps_over(sww_core::TransportKind::H3),
    ) {
        (Some(h2), Some(h3)) if h2 > 0.0 => h3 / h2,
        _ => 1.0,
    };
    let steady: u64 = kernel.iter().map(|s| s.alloc_bytes).sum::<u64>()
        + serving.iter().map(|s| s.alloc_bytes).sum::<u64>();
    // Peak global hit rate: the widest cluster in the sweep.
    let edge_hit_rate = edge
        .sweep
        .iter()
        .max_by_key(|s| s.nodes)
        .map_or(0.0, |s| s.hit_rate);
    // E20 headline: the hit rate of the most clustered workload.
    let workload_hit_rate = workload
        .modelled
        .iter()
        .max_by(|a, b| a.clustering.total_cmp(&b.clustering))
        .map_or(0.0, |r| r.slo.hit_rate);
    Value::object([
        ("schema", Value::from(PR6_SCHEMA)),
        ("records", Value::Array(records)),
        (
            "summary",
            Value::object([
                ("kernel_speedup_batch8", Value::from(r3(kernel_speedup))),
                ("serving_speedup_batch8", Value::from(r3(serving_speedup))),
                ("transport_h3_speedup", Value::from(r3(transport_speedup))),
                ("edge_hit_rate_peak", Value::from(r3(edge_hit_rate))),
                ("edge_chaos_lost", Value::from(edge.chaos.lost as usize)),
                (
                    "workload_hit_rate_clustered",
                    Value::from(r3(workload_hit_rate)),
                ),
                (
                    "workload_replay_deterministic",
                    Value::from(workload.determinism.deterministic()),
                ),
                (
                    // Regenerations at the highest replication level —
                    // zero when replicas fully absorb the owner kill.
                    "resilience_replicated_regen",
                    Value::from(
                        resilience
                            .failover
                            .iter()
                            .max_by_key(|o| o.replication)
                            .map_or(0, |o| o.regenerations as usize),
                    ),
                ),
                (
                    "gossip_heal_rounds",
                    Value::from(resilience.partition.rounds_to_heal as usize),
                ),
                ("steady_state_alloc_bytes", Value::from(steady as usize)),
            ]),
        ),
    ])
}

/// Serialize a report for writing to disk (pretty, trailing newline —
/// diff-friendly for the checked-in baseline).
pub fn render(report: &Value) -> String {
    let mut out = sww_json::to_string_pretty(report);
    out.push('\n');
    out
}

/// A record's identity within a report, as a readable label:
/// `experiment[kernel_tiles=… transport=… nodes=… clustering=…
/// replication=…]`, listing only the components the record sets. The
/// transport is set on the E18 and E20 records, nodes on the E19–E21
/// ones, clustering on the E20 workload records (one per graph
/// topology), and replication on the E21 failover records (one per
/// level); the E17 kernel and serving records exist once per lane count.
pub(crate) fn record_key(record: &Value) -> String {
    let parts: Vec<String> = [
        "kernel_tiles",
        "transport",
        "nodes",
        "clustering",
        "replication",
    ]
    .into_iter()
    .filter_map(|column| {
        let value = &record[column];
        let shown = match column {
            "transport" => value.as_str().filter(|t| !t.is_empty())?.to_owned(),
            "clustering" => format!("{:.3}", value.as_f64()?),
            _ => value.as_u64().filter(|&n| n != 0)?.to_string(),
        };
        Some(format!("{column}={shown}"))
    })
    .collect();
    format!(
        "{}[{}]",
        record["experiment"].as_str().unwrap_or("?"),
        parts.join(" ")
    )
}

/// Gate a fresh report against the checked-in baseline.
///
/// Checks, in order:
///
/// 1. both reports carry the [`PR6_SCHEMA`] tag;
/// 2. every baseline record still exists in `current`, and its
///    **modelled** throughput is within `tolerance` (fractional, e.g.
///    `0.10`) of the baseline — wall-clock columns are never gated;
/// 3. the current report passes every within-run invariant in
///    [`gate::GATES`](crate::gate::GATES): headline speedups over the
///    floor, zero steady-state allocation on every record, the E19 and
///    E20 hit-rate monotonicity, zero-loss and byte-identity across
///    kills, the E20 deadline and determinism witnesses, the E21
///    replication contrast, and the gossip heal bound.
///
/// Returns the per-check log lines on success, the failure messages
/// otherwise.
pub fn compare(
    baseline: &Value,
    current: &Value,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for (which, report) in [("baseline", baseline), ("current", current)] {
        if report["schema"].as_str() != Some(PR6_SCHEMA) {
            bad.push(format!("{which}: missing schema tag {PR6_SCHEMA:?}"));
        }
    }
    if !bad.is_empty() {
        return Err(bad);
    }
    let base_records = baseline["records"].as_array().unwrap_or_default();
    let cur_records = current["records"].as_array().unwrap_or_default();
    for base in base_records {
        let key = record_key(base);
        let Some(cur) = cur_records.iter().find(|r| record_key(r) == key) else {
            bad.push(format!("{key}: record missing from current report"));
            continue;
        };
        let base_qps = base["modelled_qps"].as_f64().unwrap_or(0.0);
        let cur_qps = cur["modelled_qps"].as_f64().unwrap_or(0.0);
        if cur_qps < base_qps * (1.0 - tolerance) {
            bad.push(format!(
                "{key}: modelled throughput regressed {base_qps:.3} -> {cur_qps:.3} \
                 (> {:.0}% drop)",
                tolerance * 100.0
            ));
        } else {
            ok.push(format!(
                "{key}: modelled qps {cur_qps:.3} vs baseline {base_qps:.3}"
            ));
        }
    }
    let gates = crate::gate::evaluate(cur_records, Some(&current["summary"]));
    ok.extend(gates.passed);
    bad.extend(gates.failed);
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sww_workload::replay::{ModelledSlo, ReplayOutcome};
    use sww_workload::scorecard::Scorecard;

    fn fake_row(beta: f64, clustering: f64, hit: f64, p99: f64) -> WorkloadRow {
        WorkloadRow {
            beta,
            clustering,
            mean_path: 3.0,
            slo: ModelledSlo {
                requests: 20_000,
                unique_pages: 192,
                hit_rate: hit,
                offered_qps: 48.0,
                p99_ms: p99,
                mean_ms: 60.0,
            },
        }
    }

    fn fake_live(target: &str, nodes: usize) -> LiveSample {
        let mut card = Scorecard::new(target);
        for _ in 0..12 {
            card.record(200, 900);
        }
        card.finish(0.4);
        LiveSample {
            target: target.into(),
            nodes,
            outcome: ReplayOutcome {
                scorecard: card,
                trace_digest: 11,
                response_digest: 22,
                generations: 5,
                coalesced: 3,
                naive_requests: 6,
                hit_rate: 0.25,
            },
        }
    }

    /// Owned E20 fakes; `section` borrows them into a [`WorkloadSection`].
    struct WlFakes {
        cfg: E20Config,
        rows: Vec<WorkloadRow>,
        live: Vec<LiveSample>,
        det: DeterminismOutcome,
    }

    impl WlFakes {
        fn ok() -> WlFakes {
            WlFakes {
                cfg: E20Config::default(),
                rows: vec![
                    fake_row(0.02, 0.614, 0.780, 1300.0),
                    fake_row(0.20, 0.367, 0.744, 1800.0),
                    fake_row(1.00, 0.034, 0.730, 1990.0),
                ],
                live: vec![
                    fake_live("single", 1),
                    fake_live("h3", 1),
                    fake_live("edge4", 4),
                ],
                det: DeterminismOutcome {
                    trace_match: true,
                    response_match: true,
                    cross_target_identical: true,
                },
            }
        }

        fn section(&self) -> WorkloadSection<'_> {
            WorkloadSection {
                cfg: &self.cfg,
                modelled: &self.rows,
                live: &self.live,
                live_clustering: 0.614,
                determinism: &self.det,
            }
        }
    }

    fn fake_kernel(tiles: usize, rate: f64, speedup: f64) -> KernelSample {
        KernelSample {
            tiles,
            wall_qps: 100.0,
            p50_ms: 5.0,
            p99_ms: 9.0,
            modelled_rate: rate,
            speedup,
            alloc_bytes: 0,
        }
    }

    fn fake_serving(tiles: usize, rate: f64, speedup: f64) -> ServingSample {
        ServingSample {
            kernel_tiles: tiles,
            wall_qps: 50.0,
            p50_ms: 20.0,
            p99_ms: 40.0,
            modelled_rate: rate,
            speedup,
            mean_batch: 8.0,
            alloc_bytes: 0,
        }
    }

    fn fake_transport(t: sww_core::TransportKind, qps: f64) -> TransportSample {
        TransportSample {
            transport: t,
            p50_ms: 1000.0 / qps,
            p99_ms: 1200.0 / qps,
            wall_qps: qps,
            modelled_qps: qps,
            requests: 12,
            bodies: Default::default(),
        }
    }

    fn fake_transports() -> Vec<TransportSample> {
        vec![
            fake_transport(sww_core::TransportKind::H2, 10.0),
            fake_transport(sww_core::TransportKind::H3, 40.0),
        ]
    }

    fn fake_edge(nodes: usize, hit_rate: f64, qps: f64) -> EdgeSample {
        EdgeSample {
            nodes,
            requests: (nodes * 20) as u64,
            generations: 10,
            coalesced: 5,
            peer_fills: 4,
            fill_hits: 6,
            local: 8,
            routed: 6,
            failovers: 0,
            hit_rate,
            max_owned: 6,
            modelled_qps: qps,
            wall_qps: qps * 0.8,
            p50_ms: 3.0,
            p99_ms: 9.0,
        }
    }

    fn fake_edges() -> Vec<EdgeSample> {
        vec![
            fake_edge(1, 0.5, 2.0),
            fake_edge(2, 0.75, 4.0),
            fake_edge(4, 0.875, 8.0),
        ]
    }

    fn fake_chaos(lost: u64, byte_identical: bool) -> EdgeChaosOutcome {
        EdgeChaosOutcome {
            nodes: 3,
            requests: 30,
            completed: 30 - lost,
            lost,
            failovers: 12,
            retries: 14,
            generations: 13,
            byte_identical,
            killed: "n0".into(),
        }
    }

    fn fake_failover(replication: usize, regen: u64, hits: u64) -> FailoverOutcome {
        FailoverOutcome {
            replication,
            nodes: 3,
            requests: 30,
            completed: 30,
            lost: 0,
            byte_identical: true,
            warm_generations: 10,
            regenerations: regen,
            replica_pushes: if replication >= 2 { 10 } else { 0 },
            replica_hits: hits,
            killed: "n0".into(),
        }
    }

    fn fake_partition() -> PartitionOutcome {
        PartitionOutcome {
            nodes: 3,
            diverged: true,
            rounds_to_heal: 7,
            bound: 24,
            converged: true,
            deterministic: true,
            digest: 0xfeed,
        }
    }

    /// Owned E21 fakes; `section` borrows them into a [`ResilienceSection`].
    struct ResFakes {
        failover: Vec<FailoverOutcome>,
        partition: PartitionOutcome,
    }

    impl ResFakes {
        fn ok() -> ResFakes {
            ResFakes {
                failover: vec![fake_failover(1, 4, 0), fake_failover(2, 0, 12)],
                partition: fake_partition(),
            }
        }

        fn section(&self) -> ResilienceSection<'_> {
            ResilienceSection {
                failover: &self.failover,
                partition: &self.partition,
            }
        }
    }

    fn report_with_wl(edge: &[EdgeSample], chaos: &EdgeChaosOutcome, wl: &WlFakes) -> Value {
        pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0), fake_kernel(8, 12.4, 3.1)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: edge,
                chaos,
            },
            wl.section(),
            ResFakes::ok().section(),
        )
    }

    fn report_with(edge: &[EdgeSample], chaos: &EdgeChaosOutcome) -> Value {
        report_with_wl(edge, chaos, &WlFakes::ok())
    }

    fn report_with_res(res: &ResFakes) -> Value {
        pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0), fake_kernel(8, 12.4, 3.1)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            res.section(),
        )
    }

    fn report() -> Value {
        report_with(&fake_edges(), &fake_chaos(0, true))
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let r = report();
        let text = render(&r);
        let back = sww_json::parse(&text).expect("render must emit valid JSON");
        assert_eq!(back, r);
        assert_eq!(back["schema"].as_str(), Some(PR6_SCHEMA));
        // 2 kernel + 2 serving + 2 transport + 3 edge + 1 chaos
        // + 3 workload modelled + 3 workload replay + 1 determinism
        // + 2 edge_resilience + 1 gossip_partition.
        assert_eq!(back["records"].as_array().unwrap().len(), 20);
        assert_eq!(
            back["summary"]["workload_hit_rate_clustered"].as_f64(),
            Some(0.78)
        );
        assert_eq!(
            back["summary"]["workload_replay_deterministic"].as_bool(),
            Some(true)
        );
        assert_eq!(back["summary"]["kernel_speedup_batch8"].as_f64(), Some(3.1));
        assert_eq!(back["summary"]["transport_h3_speedup"].as_f64(), Some(4.0));
        assert_eq!(back["summary"]["edge_hit_rate_peak"].as_f64(), Some(0.875));
        assert_eq!(back["summary"]["edge_chaos_lost"].as_u64(), Some(0));
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        let checks = compare(&r, &r, 0.10).expect("self-compare must pass");
        assert!(checks.iter().any(|l| l.contains("kernel_speedup")));
    }

    #[test]
    fn modelled_regression_fails_the_gate() {
        let base = report();
        let cur = pr6_report(
            KernelConfig::default(),
            // 20% modelled regression on the 8-lane row.
            &[fake_kernel(1, 4.0, 1.0), fake_kernel(8, 9.9, 2.5)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            ResFakes::ok().section(),
        );
        let failures = compare(&base, &cur, 0.10).expect_err("regression must fail");
        assert!(
            failures.iter().any(|f| f.contains("regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn speedup_below_floor_fails_the_gate() {
        let base = report();
        let cur = pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0), fake_kernel(8, 5.0, 1.25)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            ResFakes::ok().section(),
        );
        let failures = compare(&base, &cur, 0.99).expect_err("floor must bind");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("kernel_speedup_batch8 1.25 below 1.5")),
            "{failures:?}"
        );
    }

    #[test]
    fn steady_state_allocation_fails_the_gate() {
        let base = report();
        let mut leaky = fake_kernel(8, 12.4, 3.1);
        leaky.alloc_bytes = 4096;
        let cur = pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0), leaky],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            ResFakes::ok().section(),
        );
        let failures = compare(&base, &cur, 0.10).expect_err("allocation must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("alloc_bytes_steady = 4096")),
            "{failures:?}"
        );
    }

    #[test]
    fn steady_state_allocation_fails_on_a_record_the_baseline_lacks() {
        let base = report();
        let mut cur = report();
        let Value::Object(fields) = &mut cur else {
            unreachable!("a report is an object")
        };
        let Some(Value::Array(records)) = fields.get_mut("records") else {
            unreachable!("a report has records")
        };
        records.push(Value::object([
            ("experiment", Value::from("new_experiment")),
            ("kernel_tiles", Value::from(1usize)),
            ("modelled_qps", Value::from(0.0)),
            ("alloc_bytes_steady", Value::from(4096usize)),
        ]));
        let failures = compare(&base, &cur, 0.10).expect_err("allocation must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("new_experiment") && f.contains("alloc_bytes_steady = 4096")),
            "{failures:?}"
        );
    }

    #[test]
    fn transport_rows_are_distinct_records_and_gate_the_h3_speedup() {
        let base = report();
        // Dropping the h3 row must fail record presence, and with only h2
        // left the headline collapses to 1.0 — below the floor.
        let cur = pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0), fake_kernel(8, 12.4, 3.1)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &[fake_transport(sww_core::TransportKind::H2, 10.0)],
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            ResFakes::ok().section(),
        );
        let failures = compare(&base, &cur, 0.10).expect_err("missing h3 row must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("transport=h3") && f.contains("missing")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("transport_h3_speedup") && f.contains("below")),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_record_fails_the_gate() {
        let base = report();
        let cur = pr6_report(
            KernelConfig::default(),
            &[fake_kernel(1, 4.0, 1.0)],
            ServingConfig::default(),
            &[fake_serving(1, 4.0, 1.0), fake_serving(8, 12.4, 3.1)],
            TransportConfig::default(),
            &fake_transports(),
            EdgeSection {
                cfg: &EdgeClusterConfig::default(),
                sweep: &fake_edges(),
                chaos: &fake_chaos(0, true),
            },
            WlFakes::ok().section(),
            ResFakes::ok().section(),
        );
        let failures = compare(&base, &cur, 0.10).expect_err("missing record must fail");
        assert!(
            failures.iter().any(|f| f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn edge_records_are_keyed_by_node_count() {
        let base = report();
        // Dropping the 4-node row must fail presence even though a
        // 2-node edge_cluster record with the same tiles/transport
        // remains — the nodes component disambiguates.
        let cur = report_with(
            &[fake_edge(1, 0.5, 2.0), fake_edge(2, 0.75, 4.0)],
            &fake_chaos(0, true),
        );
        let failures = compare(&base, &cur, 0.10).expect_err("missing 4-node row must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("edge_cluster") && f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn flat_edge_hit_rate_fails_the_gate() {
        let base = report();
        // 4 nodes no better than 2: the exactly-once property broke.
        let cur = report_with(
            &[
                fake_edge(1, 0.5, 2.0),
                fake_edge(2, 0.75, 4.0),
                fake_edge(4, 0.75, 8.0),
            ],
            &fake_chaos(0, true),
        );
        let failures = compare(&base, &cur, 0.99).expect_err("flat hit rate must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("strictly increase with nodes")),
            "{failures:?}"
        );
    }

    #[test]
    fn workload_rows_are_keyed_by_clustering() {
        let base = report();
        // Dropping the most clustered row must fail presence even though
        // two smallworld_modelled records with the same experiment,
        // tiles, transport, and nodes remain — clustering disambiguates.
        let mut wl = WlFakes::ok();
        wl.rows.remove(0);
        let cur = report_with_wl(&fake_edges(), &fake_chaos(0, true), &wl);
        let failures = compare(&base, &cur, 0.10).expect_err("missing clustered row must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("smallworld_modelled") && f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn flat_workload_hit_rate_fails_the_gate() {
        let base = report();
        // The clustered graph no better than the mid one: the bounded
        // cache stopped converting locality into hits.
        let mut wl = WlFakes::ok();
        wl.rows[0].slo.hit_rate = wl.rows[1].slo.hit_rate;
        let cur = report_with_wl(&fake_edges(), &fake_chaos(0, true), &wl);
        let failures = compare(&base, &cur, 0.99).expect_err("flat hit rate must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("strictly increase with clustering")),
            "{failures:?}"
        );
    }

    #[test]
    fn workload_p99_over_deadline_fails_the_gate() {
        let base = report();
        let mut wl = WlFakes::ok();
        wl.rows[2].slo.p99_ms = wl.cfg.deadline_ms + 0.5;
        let cur = report_with_wl(&fake_edges(), &fake_chaos(0, true), &wl);
        let failures = compare(&base, &cur, 0.99).expect_err("p99 over deadline must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("over the") && f.contains("deadline")),
            "{failures:?}"
        );
    }

    #[test]
    fn replay_nondeterminism_fails_the_gate() {
        let base = report();
        let mut wl = WlFakes::ok();
        wl.det.response_match = false;
        wl.det.cross_target_identical = false;
        let cur = report_with_wl(&fake_edges(), &fake_chaos(0, true), &wl);
        assert_eq!(
            cur["summary"]["workload_replay_deterministic"].as_bool(),
            Some(false)
        );
        let failures = compare(&base, &cur, 0.99).expect_err("nondeterminism must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("response digests diverged")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("payloads depend on topology")),
            "{failures:?}"
        );
    }

    #[test]
    fn resilience_records_are_keyed_by_replication() {
        let base = report();
        // Dropping the replicated row must fail presence even though an
        // edge_resilience record with the same experiment, tiles,
        // transport, and nodes remains — replication disambiguates.
        let mut res = ResFakes::ok();
        res.failover.retain(|o| o.replication < 2);
        let failures =
            compare(&base, &report_with_res(&res), 0.10).expect_err("missing level must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("edge_resilience") && f.contains("missing")),
            "{failures:?}"
        );
    }

    #[test]
    fn replicated_regeneration_fails_the_gate() {
        let base = report();
        // A replicated failover that still re-rendered: replicas failed.
        let mut res = ResFakes::ok();
        res.failover[1] = fake_failover(2, 3, 12);
        let failures = compare(&base, &report_with_res(&res), 0.99).expect_err("regen must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("regenerations = 3") && f.contains("replicas must absorb")),
            "{failures:?}"
        );
        // ... and one that never touched a replica at all.
        res.failover[1] = fake_failover(2, 0, 0);
        let failures = compare(&base, &report_with_res(&res), 0.99).expect_err("no hits must fail");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("replica_hits 0 below 1")),
            "{failures:?}"
        );
    }

    #[test]
    fn vacuous_unreplicated_control_fails_the_gate() {
        let base = report();
        // The replication-1 control not re-rendering means the scenario
        // never actually exercised the owner's keys.
        let mut res = ResFakes::ok();
        res.failover[0] = fake_failover(1, 0, 0);
        let failures =
            compare(&base, &report_with_res(&res), 0.99).expect_err("vacuous control must fail");
        assert!(
            failures.iter().any(|f| f.contains("contrast is vacuous")),
            "{failures:?}"
        );
    }

    #[test]
    fn unhealed_or_slow_partition_fails_the_gate() {
        let base = report();
        let mut res = ResFakes::ok();
        res.partition.converged = false;
        res.partition.deterministic = false;
        res.partition.rounds_to_heal = res.partition.bound + 1;
        let failures =
            compare(&base, &report_with_res(&res), 0.99).expect_err("bad partition must fail");
        assert!(
            failures.iter().any(|f| f.contains("never converged")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("did not replay deterministically")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("rounds_to_heal 25 over the bound 24")),
            "{failures:?}"
        );
    }

    #[test]
    fn chaos_losses_and_divergent_bytes_fail_the_gate() {
        let base = report();
        let cur = report_with(&fake_edges(), &fake_chaos(3, false));
        let failures = compare(&base, &cur, 0.99).expect_err("chaos losses must fail");
        assert!(
            failures.iter().any(|f| f.contains("lost = 3, must be 0")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("diverged")),
            "{failures:?}"
        );
    }
}
