//! Computation-chain enumeration and latency bounds.

use rtms_core::{Dag, VertexId};
use rtms_trace::Nanos;

/// A computation chain: a root-to-sink path through the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// The vertices along the chain, source first.
    pub vertices: Vec<VertexId>,
}

impl Chain {
    /// Human-readable rendering: `node/kind -> node/kind -> ...`.
    pub fn describe(&self, dag: &Dag) -> String {
        self.vertices
            .iter()
            .map(|&v| format!("{}({})", dag.vertex(v).node, dag.vertex(v).kind))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Enumerates every root-to-sink path of the model via depth-first search.
///
/// The number of chains is what downstream response-time analyses iterate
/// over; it is also the quantity the service-splitting ablation compares.
pub fn enumerate_chains(dag: &Dag) -> Vec<Chain> {
    let mut chains = Vec::new();
    let mut stack: Vec<VertexId> = Vec::new();
    // The on-path check makes enumeration terminate even on models
    // synthesized from corrupted traces, which may contain cycles; a
    // back-edge simply ends the chain at the repeated vertex.
    fn dfs(dag: &Dag, v: VertexId, stack: &mut Vec<VertexId>, out: &mut Vec<Chain>) {
        if stack.contains(&v) {
            out.push(Chain { vertices: stack.clone() });
            return;
        }
        stack.push(v);
        let succ = dag.successors(v);
        if succ.is_empty() {
            out.push(Chain { vertices: stack.clone() });
        } else {
            for s in succ {
                dfs(dag, s, stack, out);
            }
        }
        stack.pop();
    }
    for root in dag.roots() {
        dfs(dag, root, &mut stack, &mut chains);
    }
    chains
}

/// A simple end-to-end latency bound for a chain: the sum of measured
/// worst-case execution times plus, for every hop, one sampling delay of
/// the consumer (bounded by the producer's period estimate when available).
///
/// This mirrors the structure of classic chain-latency bounds (e.g.
/// Casini et al., ECRTS'19) on the measured model; it is a *bound
/// template*, not a replacement for a full response-time analysis.
pub fn latency_bound(dag: &Dag, chain: &Chain) -> Nanos {
    let mut bound = Nanos::ZERO;
    for &v in &chain.vertices {
        if let Some(w) = dag.vertex(v).stats.mwcet() {
            bound += w;
        }
        if let Some(p) = dag.vertex(v).period.mwcet() {
            // Worst-case sampling delay of a periodic vertex.
            bound += p;
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList, ExecStats};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    fn rec(
        pid: u32,
        id: u64,
        kind: CallbackKind,
        in_topic: Option<&str>,
        outs: &[&str],
        wcet_ms: u64,
    ) -> CallbackRecord {
        CallbackRecord {
            pid: Pid::new(pid),
            id: CallbackId::new(id),
            kind,
            in_topic: in_topic.map(std::sync::Arc::from),
            out_topics: outs.iter().map(|s| std::sync::Arc::from(*s)).collect(),
            is_sync_subscriber: false,
            stats: ExecStats::from_samples([Nanos::from_millis(wcet_ms)]),
            period: ExecStats::new(),
            starts: Some((Nanos::ZERO, Nanos::ZERO)),
        }
    }

    fn diamond() -> Dag {
        // T -> A -> C and T -> B -> C.
        let lists = vec![
            (Pid::new(1), [rec(1, 1, CallbackKind::Timer, None, &["/t"], 1)].into_iter().collect::<CbList>()),
            (Pid::new(2), [
                rec(2, 2, CallbackKind::Subscriber, Some("/t"), &["/a"], 2),
                rec(2, 3, CallbackKind::Subscriber, Some("/t"), &["/b"], 3),
            ].into_iter().collect()),
            (Pid::new(3), [
                rec(3, 4, CallbackKind::Subscriber, Some("/a"), &["/c"], 4),
                rec(3, 5, CallbackKind::Subscriber, Some("/b"), &["/c"], 5),
            ].into_iter().collect()),
            (Pid::new(4), [rec(4, 6, CallbackKind::Subscriber, Some("/c"), &[], 6)].into_iter().collect()),
        ];
        let names: HashMap<Pid, String> = (1..=4)
            .map(|i| (Pid::new(i), format!("n{i}")))
            .collect();
        Dag::from_cblists(&lists, &names)
    }

    #[test]
    fn enumerates_all_paths() {
        let dag = diamond();
        let chains = enumerate_chains(&dag);
        assert_eq!(chains.len(), 2, "two root-to-sink paths");
        for c in &chains {
            assert_eq!(c.vertices.len(), 4);
            let desc = c.describe(&dag);
            assert!(desc.starts_with("n1(timer)"), "{desc}");
            assert!(desc.ends_with("n4(subscriber)"), "{desc}");
        }
    }

    #[test]
    fn latency_bound_sums_wcets() {
        let dag = diamond();
        let chains = enumerate_chains(&dag);
        let bounds: Vec<Nanos> = chains.iter().map(|c| latency_bound(&dag, c)).collect();
        // Chains: 1+2+4+6=13 and 1+3+5+6=15 (timer has a single start, so
        // no period estimate contributes).
        let mut ms: Vec<f64> = bounds.iter().map(|b| b.as_millis_f64()).collect();
        ms.sort_by(f64::total_cmp);
        assert_eq!(ms, vec![13.0, 15.0]);
    }

    #[test]
    fn empty_dag_no_chains() {
        assert!(enumerate_chains(&Dag::new()).is_empty());
    }
}
