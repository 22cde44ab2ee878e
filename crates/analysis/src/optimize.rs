//! Schedule-configuration proposals from the synthesized model.
//!
//! Sec. VII of the paper sketches using the framework "for debugging and
//! optimization", up to changing the schedule configuration of ROS2 nodes
//! (cf. Blaß et al., RTAS'21). This module closes that loop on the model
//! side: from a synthesized DAG and an observation window it proposes a
//! per-node schedule configuration —
//!
//! 1. **chain-aware priorities**: nodes on the chains of interest are
//!    promoted above best-effort, with priority *increasing* toward the
//!    sink so in-flight data drains through the pipeline instead of being
//!    preempted by fresh releases, and
//! 2. **load isolation**: nodes whose measured processor load exceeds a
//!    threshold get a dedicated core recommendation, heaviest first.
//!
//! The proposal is deliberately middleware-agnostic data (`i32` priority,
//! optional core index); applying it is the deployment's job — see the
//! `optimize_schedule` example, which feeds it back into the simulator and
//! measures the end-to-end latency improvement.

use crate::chains::{enumerate_chains, latency_bound};
use crate::load::node_loads;
use rtms_core::Dag;
use rtms_trace::Nanos;

/// Proposed scheduling parameters for one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAssignment {
    /// The node name.
    pub node: String,
    /// Proposed scheduling priority (higher = more urgent; 0 = best
    /// effort).
    pub priority: i32,
    /// Core to pin the node's executor to, if isolation is recommended.
    pub dedicated_core: Option<usize>,
    /// The measured load that motivated the proposal.
    pub load: f64,
}

/// A complete schedule proposal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleProposal {
    /// Per-node assignments, every node of the model present.
    pub assignments: Vec<NodeAssignment>,
    /// Human-readable description of the critical chain that drove the
    /// priority ordering.
    pub critical_chain: String,
}

impl ScheduleProposal {
    /// The assignment for `node`, if present.
    pub fn for_node(&self, node: &str) -> Option<&NodeAssignment> {
        self.assignments.iter().find(|a| a.node == node)
    }
}

/// Proposes a schedule configuration from a synthesized model.
///
/// `window` is the observation window the model's execution samples cover
/// (used to compute loads); `cpus` is the number of cores available for
/// dedication; `isolation_threshold` is the per-node load above which a
/// dedicated core is recommended (the paper's example policy: "keeping the
/// load below a certain threshold while determining core bindings").
pub fn propose_schedule(
    dag: &Dag,
    window: Nanos,
    cpus: usize,
    isolation_threshold: f64,
) -> ScheduleProposal {
    propose_schedule_for(dag, window, cpus, isolation_threshold, None)
}

/// Like [`propose_schedule`], but optimizing for the chains that end in
/// `target_sink_node` (e.g. the localizer of an AVP deployment) instead of
/// the globally longest chain — the usual case when one end-to-end latency
/// matters more than the rest of the system.
pub fn propose_schedule_for(
    dag: &Dag,
    window: Nanos,
    cpus: usize,
    isolation_threshold: f64,
    target_sink_node: Option<&str>,
) -> ScheduleProposal {
    let loads = node_loads(dag, window);

    // Chains of interest: every root-to-sink path reaching the target sink
    // (or all chains when no target is given). Promoting only the single
    // longest chain is a trap when the sink sits behind an AND junction:
    // starving a sibling input chain stalls the synchronizer and the sink
    // never fires — so *all* contributing chains are promoted.
    let chains = enumerate_chains(dag);
    let relevant: Vec<_> = chains
        .iter()
        .filter(|c| {
            target_sink_node.is_none_or(|t| {
                c.vertices.last().map(|&v| dag.vertex(v).node == t).unwrap_or(false)
            })
        })
        .collect();
    let critical_chain = relevant
        .iter()
        .max_by_key(|c| latency_bound(dag, c))
        .map(|c| c.describe(dag))
        .unwrap_or_default();

    // Priorities: within each relevant chain, *later* stages get higher
    // priority so in-flight data drains through the pipeline instead of
    // being preempted by fresh releases; a node on several chains keeps
    // its maximum.
    let mut prio: std::collections::HashMap<String, i32> = std::collections::HashMap::new();
    for c in &relevant {
        let mut nodes: Vec<String> =
            c.vertices.iter().map(|&v| dag.vertex(v).node.clone()).collect();
        nodes.dedup();
        for (pos, node) in nodes.iter().enumerate() {
            let p = pos as i32 + 1;
            prio.entry(node.clone())
                .and_modify(|cur| *cur = (*cur).max(p))
                .or_insert(p);
        }
    }
    let prio_of = |node: &str| -> i32 { prio.get(node).copied().unwrap_or(0) };

    // Isolation: heaviest nodes above the threshold, while spare cores
    // remain (leave at least one core for the shared pool).
    let spare = cpus.saturating_sub(1);
    let mut assignments: Vec<NodeAssignment> = Vec::new();
    let mut next_core = 0usize;
    for nl in &loads {
        let dedicated_core = if nl.load >= isolation_threshold && next_core < spare {
            let c = next_core;
            next_core += 1;
            Some(c)
        } else {
            None
        };
        assignments.push(NodeAssignment {
            node: nl.node.clone(),
            priority: prio_of(&nl.node),
            dedicated_core,
            load: nl.load,
        });
    }
    ScheduleProposal { assignments, critical_chain }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList, Dag, ExecStats};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    /// Chain n1 -> n2 -> n3 with loads 10%, 60%, 5% over 1 s.
    fn model() -> Dag {
        let mk = |pid: u32, id: u64, in_t: Option<&str>, out: &[&str], total_ms: u64| {
            let times: Vec<_> =
                (0..10).map(|_| rtms_trace::Nanos::from_millis(total_ms / 10)).collect();
            CallbackRecord {
                pid: Pid::new(pid),
                id: CallbackId::new(id),
                kind: if in_t.is_none() {
                    CallbackKind::Timer
                } else {
                    CallbackKind::Subscriber
                },
                in_topic: in_t.map(std::sync::Arc::from),
                out_topics: out.iter().map(|s| std::sync::Arc::from(*s)).collect(),
                is_sync_subscriber: false,
                stats: ExecStats::from_samples(times.iter().copied()),
                period: ExecStats::new(),
                starts: Some((rtms_trace::Nanos::ZERO, rtms_trace::Nanos::ZERO)),
            }
        };
        let lists = vec![
            (Pid::new(1), [mk(1, 1, None, &["/a"], 100)].into_iter().collect::<CbList>()),
            (Pid::new(2), [mk(2, 2, Some("/a"), &["/b"], 600)].into_iter().collect()),
            (Pid::new(3), [mk(3, 3, Some("/b"), &[], 50)].into_iter().collect()),
        ];
        let names: HashMap<Pid, String> =
            [(Pid::new(1), "n1".into()), (Pid::new(2), "n2".into()), (Pid::new(3), "n3".into())]
                .into();
        Dag::from_cblists(&lists, &names)
    }

    #[test]
    fn chain_priorities_increase_toward_the_sink() {
        let dag = model();
        let p = propose_schedule(&dag, rtms_trace::Nanos::from_secs(1), 4, 0.5);
        assert_eq!(p.for_node("n1").expect("n1").priority, 1);
        assert_eq!(p.for_node("n2").expect("n2").priority, 2);
        assert_eq!(p.for_node("n3").expect("n3").priority, 3);
        assert!(p.critical_chain.contains("n1"));
    }

    #[test]
    fn target_sink_restricts_promotion() {
        let dag = model();
        let p = propose_schedule_for(
            &dag,
            rtms_trace::Nanos::from_secs(1),
            4,
            0.5,
            Some("n3"),
        );
        assert!(p.for_node("n3").expect("n3").priority > 0);
        // A sink that matches no chain promotes nothing.
        let p_none = propose_schedule_for(
            &dag,
            rtms_trace::Nanos::from_secs(1),
            4,
            0.5,
            Some("nope"),
        );
        assert!(p_none.assignments.iter().all(|a| a.priority == 0));
        assert!(p_none.critical_chain.is_empty());
    }

    #[test]
    fn heavy_node_isolated() {
        let dag = model();
        let p = propose_schedule(&dag, rtms_trace::Nanos::from_secs(1), 4, 0.5);
        assert_eq!(p.for_node("n2").expect("n2").dedicated_core, Some(0), "60% load isolated");
        assert_eq!(p.for_node("n1").expect("n1").dedicated_core, None);
        assert!((p.for_node("n2").expect("n2").load - 0.6).abs() < 1e-9);
    }

    #[test]
    fn isolation_limited_by_cores() {
        let dag = model();
        // With 1 CPU there is no spare core to dedicate.
        let p = propose_schedule(&dag, rtms_trace::Nanos::from_secs(1), 1, 0.01);
        assert!(p.assignments.iter().all(|a| a.dedicated_core.is_none()));
        // With 2 CPUs exactly one (the heaviest) gets isolated.
        let p = propose_schedule(&dag, rtms_trace::Nanos::from_secs(1), 2, 0.01);
        let isolated: Vec<_> =
            p.assignments.iter().filter(|a| a.dedicated_core.is_some()).collect();
        assert_eq!(isolated.len(), 1);
        assert_eq!(isolated[0].node, "n2");
    }

    #[test]
    fn empty_model_empty_proposal() {
        let p = propose_schedule(&Dag::new(), rtms_trace::Nanos::from_secs(1), 4, 0.5);
        assert!(p.assignments.is_empty());
        assert!(p.critical_chain.is_empty());
        assert_eq!(p.for_node("x"), None);
    }
}
