//! Processor-load accounting from the synthesized model.
//!
//! The paper notes that its measurements are "useful even for simple
//! debugging and optimization, e.g., balancing load across processor cores
//! or keeping the load below a certain threshold while determining core
//! bindings" — and quotes cb2's 27 % average core load as the example.

use rtms_core::{Dag, VertexKind};
use rtms_trace::Nanos;

/// Average processor load of one vertex over an observation window:
/// total measured execution time divided by the window length.
pub fn callback_load(dag: &Dag, vertex: rtms_core::VertexId, window: Nanos) -> f64 {
    if window == Nanos::ZERO {
        return 0.0;
    }
    dag.vertex(vertex).stats.sum() as f64 / window.as_nanos() as f64
}

/// Aggregated load of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLoad {
    /// The node name.
    pub node: String,
    /// Sum of its callbacks' loads (fraction of one core).
    pub load: f64,
}

/// Per-node processor loads over an observation window, sorted descending —
/// the input to a load-balancing / core-binding decision.
pub fn node_loads(dag: &Dag, window: Nanos) -> Vec<NodeLoad> {
    let mut nodes: Vec<String> = dag.vertices().iter().map(|v| v.node.clone()).collect();
    nodes.sort();
    nodes.dedup();
    let mut out: Vec<NodeLoad> = nodes
        .into_iter()
        .map(|node| {
            let load = dag
                .vertex_ids()
                .filter(|&v| dag.vertex(v).node == node)
                .filter(|&v| dag.vertex(v).kind != VertexKind::AndJunction)
                .map(|v| callback_load(dag, v, window))
                .sum();
            NodeLoad { node, load }
        })
        .collect();
    out.sort_by(|a, b| b.load.total_cmp(&a.load));
    out
}

/// Mean per-node processor loads across the per-run models of a multi-run
/// experiment, sorted descending.
///
/// Each run observed the same window; a run in which a node does not
/// appear contributes zero load for it (the node was idle, not absent from
/// the machine). This is the multi-run generalization of [`node_loads`]
/// used by the experiment harness: feed it the per-run DAGs a run fan-out
/// collected and the per-run observation window. For models that arrive
/// one at a time (streamed synthesis, models loaded from disk), use
/// [`LoadAccumulator`] — this function is its batch wrapper.
pub fn node_loads_across_runs(dags: &[Dag], window: Nanos) -> Vec<NodeLoad> {
    let mut acc = LoadAccumulator::new(window);
    for dag in dags {
        acc.add_run(dag);
    }
    acc.mean_loads()
}

/// Streaming accumulator behind [`node_loads_across_runs`]: folds per-run
/// models in one at a time, so a cross-run load analysis never needs every
/// run's DAG in memory at once.
///
/// # Example
///
/// ```
/// use rtms_analysis::LoadAccumulator;
/// use rtms_core::Dag;
/// use rtms_trace::Nanos;
///
/// let mut acc = LoadAccumulator::new(Nanos::from_secs(1));
/// acc.add_run(&Dag::new()); // e.g. a model streamed from a SynthesisSession
/// assert_eq!(acc.runs(), 1);
/// assert!(acc.mean_loads().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LoadAccumulator {
    window: Nanos,
    sums: rtms_util::FxHashMap<String, f64>,
    runs: usize,
}

impl LoadAccumulator {
    /// Creates an accumulator for runs that each observed `window`.
    pub fn new(window: Nanos) -> LoadAccumulator {
        LoadAccumulator { window, sums: rtms_util::FxHashMap::default(), runs: 0 }
    }

    /// Folds in one run's model; the model can be dropped afterwards.
    pub fn add_run(&mut self, dag: &Dag) {
        self.runs += 1;
        for nl in node_loads(dag, self.window) {
            *self.sums.entry(nl.node).or_insert(0.0) += nl.load;
        }
    }

    /// Number of runs folded in so far.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Mean per-node loads over the runs seen so far, sorted descending
    /// (ties broken by node name). Empty if no runs were added.
    pub fn mean_loads(&self) -> Vec<NodeLoad> {
        if self.runs == 0 {
            return Vec::new();
        }
        let runs = self.runs as f64;
        let mut out: Vec<NodeLoad> = self
            .sums
            .iter()
            .map(|(node, sum)| NodeLoad { node: node.clone(), load: sum / runs })
            .collect();
        out.sort_by(|a, b| b.load.total_cmp(&a.load).then_with(|| a.node.cmp(&b.node)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtms_core::{CallbackRecord, CbList, ExecStats};
    use rtms_trace::{CallbackId, CallbackKind, Pid};
    use std::collections::HashMap;

    fn dag_one_cb(samples_ms: &[u64]) -> Dag {
        let times: Vec<Nanos> = samples_ms.iter().map(|&m| Nanos::from_millis(m)).collect();
        let rec = CallbackRecord {
            pid: Pid::new(1),
            id: CallbackId::new(1),
            kind: CallbackKind::Subscriber,
            in_topic: Some("/in".into()),
            out_topics: vec![],
            is_sync_subscriber: false,
            stats: ExecStats::from_samples(times.iter().copied()),
            period: ExecStats::new(),
            starts: Some((Nanos::ZERO, Nanos::ZERO)),
        };
        let list: CbList = [rec].into_iter().collect();
        let names: HashMap<Pid, String> = [(Pid::new(1), "n".to_string())].into();
        Dag::from_cblists(&[(Pid::new(1), list)], &names)
    }

    #[test]
    fn load_is_exec_over_window() {
        // 10 instances of 27 ms over 1 s => 27% — the paper's cb2 example.
        let dag = dag_one_cb(&[27; 10]);
        let v = dag.vertex_ids().next().expect("vertex");
        let load = callback_load(&dag, v, Nanos::from_secs(1));
        assert!((load - 0.27).abs() < 1e-9);
    }

    #[test]
    fn node_loads_sorted_descending() {
        let dag = dag_one_cb(&[10; 5]);
        let loads = node_loads(&dag, Nanos::from_secs(1));
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].node, "n");
        assert!((loads[0].load - 0.05).abs() < 1e-9);
    }

    #[test]
    fn cross_run_loads_average_and_default_to_zero() {
        // Run 1 observes 50 ms of work, run 2 has the node idle (absent):
        // the mean load over both runs is 2.5%.
        let runs = [dag_one_cb(&[10; 5]), Dag::new()];
        let loads = node_loads_across_runs(&runs, Nanos::from_secs(1));
        assert_eq!(loads.len(), 1);
        assert!((loads[0].load - 0.025).abs() < 1e-9);
        assert!(node_loads_across_runs(&[], Nanos::from_secs(1)).is_empty());
    }

    #[test]
    fn accumulator_matches_batch() {
        let runs = [dag_one_cb(&[10; 5]), dag_one_cb(&[20; 2]), Dag::new()];
        let mut acc = LoadAccumulator::new(Nanos::from_secs(1));
        for dag in &runs {
            acc.add_run(dag);
        }
        assert_eq!(acc.runs(), 3);
        assert_eq!(acc.mean_loads(), node_loads_across_runs(&runs, Nanos::from_secs(1)));
    }

    #[test]
    fn zero_window_is_zero_load() {
        let dag = dag_one_cb(&[10]);
        let v = dag.vertex_ids().next().expect("vertex");
        assert_eq!(callback_load(&dag, v, Nanos::ZERO), 0.0);
    }
}
