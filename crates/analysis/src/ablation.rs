//! Ablation: why a multi-caller service needs per-caller vertices.
//!
//! Sec. IV argues that modeling a service invoked by `n` clients as a
//! single vertex with `n` incoming and `n` outgoing edges creates `n × n`
//! chains through the vertex — of which `n² - n` are *spurious*
//! cross-caller chains (e.g. `SC3 → SV3 → CL4` in Fig. 3a, "which is
//! incorrect"). This module builds the single-vertex variant of a model
//! and counts the difference.

use crate::chains::enumerate_chains;
use rtms_core::{Dag, VertexKind};
use rtms_trace::CallbackKind;

/// Comparison between the paper's per-caller service model and the naive
/// single-vertex model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpuriousChains {
    /// Chains in the correctly split model.
    pub split_chains: usize,
    /// Chains when each service collapses to one vertex.
    pub single_vertex_chains: usize,
}

impl SpuriousChains {
    /// Chains that exist only because of the wrong modeling.
    pub fn spurious(&self) -> usize {
        self.single_vertex_chains.saturating_sub(self.split_chains)
    }
}

/// Builds the single-vertex-service variant of `dag`: all service vertices
/// of one node that share their undecorated request topic are collapsed
/// into one vertex carrying the union of the edges.
fn collapse_services(dag: &Dag) -> Dag {
    // Work on a serialized copy: collapse = merge vertices whose node +
    // base in_topic coincide, keeping all in/out topics.
    let mut collapsed = Dag::new();
    collapsed.merge(dag); // structural clone via merge into empty
    // Identify service-vertex groups by (node, base request topic).
    let mut groups: std::collections::HashMap<(String, String), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, v) in collapsed.vertices().iter().enumerate() {
        if v.kind == VertexKind::Callback(CallbackKind::Service) {
            let base = v
                .in_topic
                .as_deref()
                .map(|t| t.split('#').next().unwrap_or(t).to_string())
                .unwrap_or_default();
            groups.entry((v.node.clone(), base)).or_default().push(i);
        }
    }
    // Rebuild: vertices with unified topic names so the single vertex
    // matches every caller edge and every client edge.
    let mut clone = collapsed.clone();
    for ((_, base), members) in groups {
        if members.len() < 2 {
            continue;
        }
        clone = rebuild_with_undecorated_service(&clone, &base);
    }
    clone
}

/// Strips the per-caller/per-client decorations related to `base` from all
/// vertices, making the service and its RPC topics collapse.
fn rebuild_with_undecorated_service(dag: &Dag, base: &str) -> Dag {
    use rtms_core::{CallbackRecord, CbList, ExecStats};
    use rtms_trace::{CallbackId, Pid};
    use std::collections::HashMap;

    let strip = |t: &std::sync::Arc<str>| -> std::sync::Arc<str> {
        if t.starts_with(base) {
            std::sync::Arc::from(base)
        } else {
            std::sync::Arc::clone(t)
        }
    };
    // Reconstruct per-node callback lists from the vertices (the inverse
    // of from_cblists at the undetailed level), with stripped topics.
    let mut lists: Vec<(Pid, CbList)> = Vec::new();
    let mut names: HashMap<Pid, String> = HashMap::new();
    let mut node_pid: HashMap<String, Pid> = HashMap::new();
    let mut next_pid = 1u32;
    let mut next_id = 1u64;
    for v in dag.vertices() {
        if v.kind == VertexKind::AndJunction {
            continue;
        }
        let kind = match v.kind {
            VertexKind::Callback(k) => k,
            VertexKind::AndJunction => unreachable!(),
        };
        let pid = *node_pid.entry(v.node.clone()).or_insert_with(|| {
            let p = Pid::new(next_pid);
            next_pid += 1;
            names.insert(p, v.node.clone());
            p
        });
        let rec = CallbackRecord {
            pid,
            id: CallbackId::new(next_id),
            kind,
            in_topic: v.in_topic.as_ref().map(strip),
            out_topics: v.out_topics.iter().map(strip).collect(),
            is_sync_subscriber: v.is_sync_member,
            stats: v.stats.clone(),
            period: ExecStats::new(),
            starts: None,
        };
        next_id += 1;
        match lists.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, list)) => list.add_instance(rec),
            None => {
                let list: CbList = [rec].into_iter().collect();
                lists.push((pid, list));
            }
        }
    }
    Dag::from_cblists(&lists, &names)
}

/// Counts chains under both service models.
pub fn spurious_chain_report(dag: &Dag) -> SpuriousChains {
    let split_chains = enumerate_chains(dag).len();
    let single = collapse_services(dag);
    let single_vertex_chains = enumerate_chains(&single).len();
    SpuriousChains { split_chains, single_vertex_chains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList, ExecStats};
    use rtms_trace::{CallbackId, Nanos, Pid};
    use std::collections::HashMap;

    fn rec(
        pid: u32,
        id: u64,
        kind: CallbackKind,
        in_topic: Option<&str>,
        outs: &[&str],
    ) -> CallbackRecord {
        CallbackRecord {
            pid: Pid::new(pid),
            id: CallbackId::new(id),
            kind,
            in_topic: in_topic.map(std::sync::Arc::from),
            out_topics: outs.iter().map(|s| std::sync::Arc::from(*s)).collect(),
            is_sync_subscriber: false,
            stats: ExecStats::from_samples([Nanos::from_millis(1)]),
            period: ExecStats::new(),
            starts: Some((Nanos::ZERO, Nanos::ZERO)),
        }
    }

    /// Two callers -> split service (2 vertices) -> two clients.
    fn split_service_dag() -> Dag {
        let lists = vec![
            (Pid::new(1), [
                rec(1, 1, CallbackKind::Timer, None, &["/svRequest#caller1"]),
                rec(1, 2, CallbackKind::Client, Some("/svReply#client1"), &[]),
            ].into_iter().collect::<CbList>()),
            (Pid::new(2), [
                rec(2, 3, CallbackKind::Timer, None, &["/svRequest#caller2"]),
                rec(2, 4, CallbackKind::Client, Some("/svReply#client2"), &[]),
            ].into_iter().collect()),
            (Pid::new(3), [
                rec(3, 5, CallbackKind::Service, Some("/svRequest#caller1"), &["/svReply#client1"]),
                rec(3, 5, CallbackKind::Service, Some("/svRequest#caller2"), &["/svReply#client2"]),
            ].into_iter().collect()),
        ];
        let names: HashMap<Pid, String> =
            [(Pid::new(1), "a".into()), (Pid::new(2), "b".into()), (Pid::new(3), "srv".into())]
                .into();
        Dag::from_cblists(&lists, &names)
    }

    #[test]
    fn split_model_has_no_cross_caller_chains() {
        let dag = split_service_dag();
        let report = spurious_chain_report(&dag);
        assert_eq!(report.split_chains, 2, "caller1->sv->client1, caller2->sv->client2");
        assert_eq!(report.single_vertex_chains, 4, "n*n chains through one vertex");
        assert_eq!(report.spurious(), 2, "n^2 - n spurious chains for n = 2");
    }
}
