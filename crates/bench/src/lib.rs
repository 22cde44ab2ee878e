//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! - [`args`]: the one documented `key=value` argument surface
//!   (`runs`/`secs`/`seed`/`threads`/`format`) every binary parses through.
//! - [`harness`]: the parallel multi-run harness — N seeded simulation runs
//!   fanned out across worker threads, results collected in run order so
//!   output is identical for any `threads` setting.
//! - [`record`]: record/replay plumbing shared by the `record` and
//!   `replay` binaries — one world construction, one meta-frame schema.
//! - AVP helpers ([`avp_vertex_key`], [`structure_summary`]) shared by the
//!   table/figure binaries.
//!
//! Every binary accepts `key=value` arguments (e.g. `runs=10 secs=20`) to
//! scale the experiment down from the paper's full 50 × 80 s configuration;
//! defaults match the paper. See `docs/EXPERIMENTS.md` for the catalog.

pub mod args;
pub mod harness;
pub mod record;

pub use args::{ArgError, Defaults, ExperimentArgs, OutputFormat};
pub use harness::{Harness, RunPlan};
pub use record::{
    bench_world, bench_world_profiled, live_model, record_to_file, replay_path, RecordMeta,
    ReplayOutcome,
};

use rtms_core::{Dag, VertexKind};
use rtms_trace::CallbackKind;

/// Finds the merge key of a Table II callback in an AVP model: the fusion
/// node hosts two subscribers (cb3 ⊂ rear, cb4 ⊂ front); all other rows
/// are the unique non-junction vertex of their node.
pub fn avp_vertex_key(dag: &Dag, cb: &str) -> Option<String> {
    let (node, topic_hint): (&str, Option<&str>) = match cb {
        "cb1" => ("filter_transform_vlp16_rear", None),
        "cb2" => ("filter_transform_vlp16_front", None),
        "cb3" => ("point_cloud_fusion", Some("/lidar_rear/points_filtered")),
        "cb4" => ("point_cloud_fusion", Some("/lidar_front/points_filtered")),
        "cb5" => ("voxel_grid_cloud_node", None),
        "cb6" => ("p2d_ndt_localizer_node", None),
        _ => return None,
    };
    dag.vertices()
        .iter()
        .find(|v| {
            v.node == node
                && v.kind != VertexKind::AndJunction
                && topic_hint.is_none_or(|t| v.in_topic.as_deref() == Some(t))
        })
        .map(|v| v.merge_key())
}

/// Summarizes a model's structure for the figure binaries.
pub fn structure_summary(dag: &Dag) -> String {
    let callbacks = dag
        .vertices()
        .iter()
        .filter(|v| matches!(v.kind, VertexKind::Callback(_)))
        .count();
    let junctions = dag
        .vertices()
        .iter()
        .filter(|v| v.kind == VertexKind::AndJunction)
        .count();
    let ors = dag.vertices().iter().filter(|v| v.or_junction).count();
    let timers = dag
        .vertices()
        .iter()
        .filter(|v| v.kind == VertexKind::Callback(CallbackKind::Timer))
        .count();
    let services = dag
        .vertices()
        .iter()
        .filter(|v| v.kind == VertexKind::Callback(CallbackKind::Service))
        .count();
    format!(
        "{} vertices ({} callbacks [{} timers, {} service entries], {} AND junctions, {} OR-marked), {} edges",
        dag.vertices().len(),
        callbacks,
        timers,
        services,
        junctions,
        ors,
        dag.edges().len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_trace::Nanos;
    use rtms_workloads::{case_study_world, run_and_synthesize};

    #[test]
    fn avp_vertex_keys_resolve_for_all_six_rows() {
        let mut world = case_study_world(1, 1.0);
        let dag = run_and_synthesize(&mut world, Nanos::from_secs(2));
        for cb in ["cb1", "cb2", "cb3", "cb4", "cb5", "cb6"] {
            assert!(avp_vertex_key(&dag, cb).is_some(), "key for {cb}");
        }
        assert!(avp_vertex_key(&dag, "cb7").is_none());
        let s = structure_summary(&dag);
        assert!(s.contains("vertices"), "{s}");
    }
}
