//! Pinned values of the workload's replay witnesses.
//!
//! The determinism suites only ever compare two digests with each other,
//! so a change to the hash itself would pass them all while silently
//! changing every witness. These tests pin the graph, trace and replay
//! response digests for one fixed seed to the values the word-wise FNV
//! mixer has always produced.

use sww_workload::replay::{ReplayConfig, ReplayEngine};
use sww_workload::{SmallWorldConfig, Trace, WorkloadConfig};

fn pinned() -> WorkloadConfig {
    WorkloadConfig {
        graph: SmallWorldConfig {
            nodes: 24,
            k: 4,
            beta: 0.2,
            seed: 5,
        },
        requests: 120,
        ..WorkloadConfig::default()
    }
}

#[test]
fn graph_and_trace_digests_are_pinned() {
    let cfg = pinned();
    let graph = cfg.site_graph();
    let trace = Trace::generate_on(&cfg, &graph);
    assert_eq!(graph.digest(), 0x8077_4a80_dc44_7122);
    assert_eq!(trace.digest(), 0xb0be_251b_af4b_c3e5);
}

#[test]
fn replay_response_digest_is_pinned() {
    let out = ReplayEngine::from_config(&pinned()).run(&ReplayConfig::default());
    assert_eq!(out.trace_digest, 0xb0be_251b_af4b_c3e5);
    assert_eq!(out.response_digest, 0x389f_25ed_f320_74ae);
}
