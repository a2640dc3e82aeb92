//! The within-run invariants of the E17–E21 reports, written once.
//!
//! [`GATES`] is the one place a benchmark invariant lives: each row names
//! the records it reads (one experiment, every record, or the summary),
//! one column, and the [`Rule`] that column must obey. [`evaluate`] walks
//! the table over a report's records, and every gate in the repository
//! calls it: `report::compare` (`sww bench-compare`) after its
//! cross-report checks, `sww bench-cluster` over its E19/E21 records, and
//! `sww bench-workload` over its E20 records. The records themselves come
//! from the same builders `report::pr6_report` uses, so a new experiment
//! adds record builders and rows here — never a copy of a check.

use crate::report::record_key;
use sww_json::Value;
use Rule::{AtLeast, AtMostColumn, Equals, IsTrue, RisesWith};

/// Modelled-speedup floor from the PR 6 acceptance criterion: the tiled
/// kernel must buy ≥ 1.5× at batch 8 (the transport headline shares it).
pub const SPEEDUP_FLOOR: f64 = 1.5;

/// The records a gate reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// Records whose `experiment` column is this name.
    Experiment(&'static str),
    /// Every record in the report.
    EveryRecord,
    /// The report's `summary` object.
    Summary,
}

/// What a gate demands of its column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Strictly increasing across one experiment's records, read in the
    /// order of the named key column.
    RisesWith(&'static str),
    /// Equal to a constant.
    Equals(f64),
    /// At most the named column of the same record.
    AtMostColumn(&'static str),
    /// At least a constant.
    AtLeast(f64),
    /// Boolean `true`.
    IsTrue,
}

/// One invariant: a [`Rule`] on one column of the records in scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The records the gate reads.
    pub scope: Scope,
    /// The column the rule tests.
    pub column: &'static str,
    /// What the column must satisfy.
    pub rule: Rule,
    /// Only records whose named column satisfies this (single-record)
    /// rule are checked, e.g. `replication ≥ 2`.
    pub only_where: Option<(&'static str, Rule)>,
    /// What a violation means, quoted in its failure line.
    pub meaning: &'static str,
}

const fn gate(scope: Scope, column: &'static str, rule: Rule, meaning: &'static str) -> Gate {
    Gate {
        scope,
        column,
        rule,
        only_where: None,
        meaning,
    }
}

const fn on(
    experiment: &'static str,
    column: &'static str,
    rule: Rule,
    meaning: &'static str,
) -> Gate {
    gate(Scope::Experiment(experiment), column, rule, meaning)
}

impl Gate {
    const fn when(self, column: &'static str, rule: Rule) -> Gate {
        Gate {
            only_where: Some((column, rule)),
            ..self
        }
    }
}

const FLOOR: &str = "a headline speedup fell under its acceptance floor";

/// Every within-run invariant of the E17–E21 reports.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // E17–E21: pooled buffers keep every steady state allocation-free.
    gate(Scope::EveryRecord, "alloc_bytes_steady", Equals(0.0), "the hot path allocated"),
    // E19: a plateau means a node generated a recipe it does not own.
    on("edge_cluster", "hit_rate", RisesWith("nodes"), "cluster-wide single-flight broke"),
    on("edge_chaos", "lost", Equals(0.0), "a node kill may cost retries, never responses"),
    on("edge_chaos", "byte_identical", IsTrue, "payloads diverged from the 1-node baseline"),
    // E20: the paper's locality claim, the SLO, and seeded replay.
    on("smallworld_modelled", "hit_rate", RisesWith("clustering"), "the locality claim broke"),
    on("smallworld_modelled", "p99_ms", AtMostColumn("deadline_ms"), "the SLO broke"),
    on("workload_determinism", "trace_match", IsTrue, "trace digests diverged"),
    on("workload_determinism", "response_match", IsTrue, "response digests diverged"),
    on("workload_determinism", "cross_target_identical", IsTrue, "payloads depend on topology"),
    // E21 failover: with replicas no regeneration, and the unreplicated
    // control must pay one, or the contrast proves nothing.
    on("edge_resilience", "lost", Equals(0.0), "an owner kill lost responses"),
    on("edge_resilience", "byte_identical", IsTrue, "payloads diverged from the owner's bytes"),
    on("edge_resilience", "regenerations", Equals(0.0), "replicas must absorb the owner kill")
        .when("replication", AtLeast(2.0)),
    on("edge_resilience", "replica_hits", AtLeast(1.0), "the failover never touched a replica")
        .when("replication", AtLeast(2.0)),
    on("edge_resilience", "regenerations", AtLeast(1.0), "the contrast is vacuous")
        .when("replication", Equals(1.0)),
    // E21 partition: noticed, healed in bound, replayed bit for bit.
    on("gossip_partition", "diverged", IsTrue, "the partition was never noticed"),
    on("gossip_partition", "converged", IsTrue, "the heal never converged"),
    on("gossip_partition", "deterministic", IsTrue, "the heal did not replay deterministically"),
    on("gossip_partition", "rounds_to_heal", AtMostColumn("bound"), "the heal missed its bound"),
    // E17/E18 headline speedups.
    gate(Scope::Summary, "kernel_speedup_batch8", AtLeast(SPEEDUP_FLOOR), FLOOR),
    gate(Scope::Summary, "serving_speedup_batch8", AtLeast(SPEEDUP_FLOOR), FLOOR),
    gate(Scope::Summary, "transport_h3_speedup", AtLeast(SPEEDUP_FLOOR), FLOOR),
];

/// The outcome of a gate run: one line per check that held, one per
/// check that failed.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks that held.
    pub passed: Vec<String>,
    /// Checks that failed.
    pub failed: Vec<String>,
}

impl Verdict {
    fn record(&mut self, held: bool, line: String) {
        if held {
            self.passed.push(line);
        } else {
            self.failed.push(line);
        }
    }

    /// The passing lines if nothing failed, the failures otherwise.
    pub fn into_result(self) -> Result<Vec<String>, Vec<String>> {
        if self.failed.is_empty() {
            Ok(self.passed)
        } else {
            Err(self.failed)
        }
    }
}

/// Walk [`GATES`] over `records` and, when given, the report `summary`.
/// Summary gates are skipped without one; a column a gate needs but a
/// record lacks fails that gate.
pub fn evaluate(records: &[Value], summary: Option<&Value>) -> Verdict {
    let mut verdict = Verdict::default();
    for gate in GATES {
        let in_scope: Vec<(String, &Value)> = match gate.scope {
            Scope::Summary => summary
                .map(|s| ("summary".to_owned(), s))
                .into_iter()
                .collect(),
            Scope::EveryRecord => records.iter().map(|r| (record_key(r), r)).collect(),
            Scope::Experiment(name) => records
                .iter()
                .filter(|r| r["experiment"].as_str() == Some(name))
                .map(|r| (record_key(r), r))
                .collect(),
        };
        let selected = in_scope.into_iter().filter(|(_, r)| {
            gate.only_where
                .is_none_or(|(column, rule)| holds(rule, r, column))
        });
        if let (RisesWith(by), Scope::Experiment(experiment)) = (gate.rule, gate.scope) {
            rises_with(gate, experiment, by, selected.collect(), &mut verdict);
            continue;
        }
        for (label, record) in selected {
            let held = holds(gate.rule, record, gate.column);
            let detail = describe(gate.rule, record, gate.column, held);
            let line = if held {
                format!("{label}: {detail}")
            } else {
                format!("{label}: {detail} — {}", gate.meaning)
            };
            verdict.record(held, line);
        }
    }
    verdict
}

/// Whether a single-record rule holds for `record[column]`; a missing or
/// mistyped column never holds.
fn holds(rule: Rule, record: &Value, column: &str) -> bool {
    let value = &record[column];
    let number = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
    match rule {
        Equals(want) => number(value) == want,
        AtLeast(floor) => number(value) >= floor,
        AtMostColumn(bound) => number(value) <= number(&record[bound]),
        IsTrue => value.as_bool() == Some(true),
        RisesWith(_) => false,
    }
}

/// The values a single-record rule read, phrased for a log line.
fn describe(rule: Rule, record: &Value, column: &str, held: bool) -> String {
    let show = |c: &str| sww_json::to_string(&record[c]);
    let value = show(column);
    match rule {
        Equals(want) if held => format!("{column} = {want}"),
        Equals(want) => format!("{column} = {value}, must be {want}"),
        AtLeast(floor) => format!(
            "{column} {value} {} {floor}",
            if held { "≥" } else { "below" }
        ),
        AtMostColumn(bound) => {
            let relation = if held { "≤" } else { "over the" };
            format!("{column} {value} {relation} {bound} {}", show(bound))
        }
        _ if held => column.to_owned(),
        _ => format!("{column} is {value}"),
    }
}

/// [`Rule::RisesWith`]: order the selected records by the key column and
/// check each consecutive pair strictly increases.
fn rises_with(
    gate: &Gate,
    experiment: &str,
    by: &str,
    selected: Vec<(String, &Value)>,
    verdict: &mut Verdict,
) {
    let column = gate.column;
    let mut points = Vec::with_capacity(selected.len());
    for (label, record) in selected {
        match (record[by].as_f64(), record[column].as_f64()) {
            (Some(key), Some(value)) => points.push((key, value)),
            _ => verdict.record(false, format!("{label}: {by} or {column} missing")),
        }
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in points.windows(2) {
        let ((k0, v0), (k1, v1)) = (pair[0], pair[1]);
        let held = v1 > v0;
        let line = if held {
            format!("{experiment}: {column} {v0} @ {by} {k0} < {v1} @ {by} {k1}")
        } else {
            format!(
                "{experiment}: {column} must strictly increase with {by} \
                 ({by} {k0}: {v0} -> {by} {k1}: {v1}) — {}",
                gate.meaning
            )
        };
        verdict.record(held, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of `experiment` with the given columns and a clean
    /// steady state (so only the gate under test can fail).
    fn rec(experiment: &str, columns: &[(&str, Value)]) -> Value {
        Value::object(
            [
                ("experiment", Value::from(experiment)),
                ("alloc_bytes_steady", Value::from(0usize)),
            ]
            .into_iter()
            .chain(columns.iter().map(|(k, v)| (*k, v.clone()))),
        )
    }

    fn failures(records: &[Value]) -> Vec<String> {
        evaluate(records, None).failed
    }

    fn edge(nodes: usize, hit_rate: f64) -> Value {
        rec(
            "edge_cluster",
            &[("nodes", nodes.into()), ("hit_rate", hit_rate.into())],
        )
    }

    #[test]
    fn rises_with_reads_records_in_key_order_and_fails_a_plateau() {
        // Out of order in the report, strictly rising by node count.
        let rising = [edge(4, 0.875), edge(1, 0.5), edge(2, 0.75)];
        assert_eq!(failures(&rising), Vec::<String>::new());
        let flat = [edge(1, 0.5), edge(2, 0.75), edge(4, 0.75)];
        let bad = failures(&flat);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains(
                "hit_rate must strictly increase with nodes (nodes 2: 0.75 -> nodes 4: 0.75)"
            ),
            "{bad:?}"
        );
        let bad = failures(&[
            edge(1, 0.5),
            rec("edge_cluster", &[("nodes", 2usize.into())]),
        ]);
        assert!(bad[0].contains("nodes or hit_rate missing"), "{bad:?}");
    }

    fn failover(replication: usize, regenerations: usize, replica_hits: usize) -> Value {
        rec(
            "edge_resilience",
            &[
                ("replication", replication.into()),
                ("lost", 0usize.into()),
                ("byte_identical", true.into()),
                ("regenerations", regenerations.into()),
                ("replica_hits", replica_hits.into()),
            ],
        )
    }

    #[test]
    fn equals_applies_only_where_its_condition_holds() {
        // Regenerations are required at replication 1 and forbidden from
        // replication 2 up: the same column, gated by the condition.
        assert_eq!(
            failures(&[failover(1, 4, 0), failover(3, 0, 9)]),
            Vec::<String>::new()
        );
        let bad = failures(&[failover(2, 3, 9)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("replication=2"), "{bad:?}");
        assert!(
            bad[0].contains("regenerations = 3, must be 0 — replicas must absorb"),
            "{bad:?}"
        );
    }

    #[test]
    fn at_most_column_fails_over_the_bound() {
        let heal = |rounds: usize| {
            rec(
                "gossip_partition",
                &[
                    ("diverged", true.into()),
                    ("converged", true.into()),
                    ("deterministic", true.into()),
                    ("rounds_to_heal", rounds.into()),
                    ("bound", 24usize.into()),
                ],
            )
        };
        assert_eq!(failures(&[heal(24)]), Vec::<String>::new());
        let bad = failures(&[heal(25)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains("rounds_to_heal 25 over the bound 24"),
            "{bad:?}"
        );
    }

    #[test]
    fn at_least_fails_under_the_floor_and_summary_gates_need_a_summary() {
        let summary = |kernel: f64| {
            Value::object([
                ("kernel_speedup_batch8", Value::from(kernel)),
                ("serving_speedup_batch8", Value::from(3.1)),
                ("transport_h3_speedup", Value::from(4.0)),
            ])
        };
        assert!(evaluate(&[], Some(&summary(1.5))).failed.is_empty());
        let bad = evaluate(&[], Some(&summary(1.49))).failed;
        assert_eq!(
            bad,
            vec![
                "summary: kernel_speedup_batch8 1.49 below 1.5 — a headline speedup \
                 fell under its acceptance floor"
            ]
        );
        // Without a summary the headline gates do not run; an empty one
        // fails all three.
        assert!(evaluate(&[], None).failed.is_empty());
        assert_eq!(evaluate(&[], Some(&Value::Null)).failed.len(), 3);
        // The replication-1 control must re-render at least once.
        let bad = failures(&[failover(1, 0, 0)]);
        assert!(bad[0].contains("contrast is vacuous"), "{bad:?}");
    }

    #[test]
    fn is_true_fails_on_false_or_missing() {
        let det = |response_match: Value| {
            rec(
                "workload_determinism",
                &[
                    ("trace_match", true.into()),
                    ("response_match", response_match),
                    ("cross_target_identical", true.into()),
                ],
            )
        };
        assert_eq!(failures(&[det(true.into())]), Vec::<String>::new());
        let bad = failures(&[det(false.into())]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].contains("response_match is false — response digests diverged"),
            "{bad:?}"
        );
        let bad = failures(&[det(Value::Null)]);
        assert!(bad[0].contains("response_match is null"), "{bad:?}");
    }
}
