//! DAG synthesis from callback lists (Sec. IV, "DAG synthesis").

use crate::cblist::{CallbackRecord, CbList};
use crate::stats::ExecStats;
use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a vertex within a [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub usize);

/// What a vertex models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VertexKind {
    /// A ROS2 callback of the given kind.
    Callback(CallbackKind),
    /// An `&` (AND) junction inserted for data synchronization: a task
    /// with zero execution time that fires when all its predecessors have
    /// produced fresh data.
    AndJunction,
}

impl VertexKind {
    fn name(self) -> &'static str {
        match self {
            VertexKind::Callback(k) => k.name(),
            VertexKind::AndJunction => "&",
        }
    }
}

impl fmt::Display for VertexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One task of the synthesized timing model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagVertex {
    /// The ROS2 node the task belongs to.
    pub node: String,
    /// Callback kind or AND junction.
    pub kind: VertexKind,
    /// Canonicalized subscribed topic (callbacks only; see
    /// [`Dag::from_cblists`] for the canonical decoration format). An
    /// undecorated topic shares the callback record's name allocation.
    pub in_topic: Option<Arc<str>>,
    /// Canonicalized published topics. Undecorated names are shared, like
    /// `in_topic`.
    pub out_topics: Vec<Arc<str>>,
    /// Whether this callback feeds a synchronizer (its outputs route
    /// through the node's `&` junction).
    pub is_sync_member: bool,
    /// Whether several publishers feed this vertex's subscribed topic
    /// (`OR` junction marking of Sec. IV).
    pub or_junction: bool,
    /// Measured execution-time statistics.
    pub stats: ExecStats,
    /// Statistics over consecutive start-time gaps (period estimate for
    /// timer callbacks).
    pub period: ExecStats,
}

impl DagVertex {
    /// The merge identity of this vertex: node + kind + subscribed topic,
    /// falling back to the sorted published-topic set for input-less
    /// callbacks (timers), which is what distinguishes two timers of one
    /// node across runs.
    pub fn merge_key(&self) -> String {
        let mut key = String::new();
        self.write_merge_key(&mut key);
        key
    }

    /// Appends [`DagVertex::merge_key`] to `out`, so a caller keying many
    /// vertices can reuse one buffer.
    pub fn write_merge_key(&self, out: &mut String) {
        for part in [&self.node, "|", self.kind.name(), "|"] {
            out.push_str(part);
        }
        match (&self.in_topic, &self.kind) {
            (_, VertexKind::AndJunction) => out.push('&'),
            (Some(t), _) => out.push_str(t),
            (None, _) if self.out_topics.is_sorted() => join_into(out, &self.out_topics),
            (None, _) => {
                let mut outs: Vec<&Arc<str>> = self.out_topics.iter().collect();
                outs.sort();
                join_into(out, outs);
            }
        }
    }
}

/// The base topic and callback ID of a `#cb:`-decorated topic.
fn decoration(topic: &str) -> Option<(&str, CallbackId)> {
    let (base, hex) = topic.split_once("#cb:")?;
    let id = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
    Some((base, CallbackId::new(id)))
}

/// The input topic a canonical label names: the subscribed topic without
/// its decoration, `-` for input-less callbacks.
fn base_input(rec: &CallbackRecord) -> &str {
    rec.in_topic.as_deref().map_or("-", |t| t.split('#').next().unwrap_or(t))
}

/// The canonical label of callback `id` (see [`Dag::from_cblists`]):
/// `<node>:<kind>:<base input topic>` of its first record in `records`,
/// suffixed `~n` when `n` callbacks of lower ID share that label. `None`
/// when no record has the ID.
fn canonical_label<'a, I>(id: CallbackId, records: impl Fn() -> I) -> Option<String>
where
    I: Iterator<Item = (&'a str, &'a CallbackRecord)>,
{
    let first = |id: CallbackId| records().find(|(_, rec)| rec.id == id);
    let (node, rec) = first(id)?;
    let label = format!("{node}:{}:{}", rec.kind, base_input(rec));
    // Whether `label` equals the label of `rec` on `node`, unformatted.
    let shared = |node: &str, rec: &CallbackRecord| {
        let rest = label.strip_prefix(node).and_then(|s| s.strip_prefix(':'));
        let rest = rest.and_then(|s| s.strip_prefix(rec.kind.name()));
        rest.and_then(|s| s.strip_prefix(':')) == Some(base_input(rec))
    };
    let n = records()
        .filter(|&(node, rec)| rec.id < id && shared(node, rec))
        .filter(|&(_, rec)| first(rec.id).is_some_and(|(_, f)| std::ptr::eq(f, rec)))
        .count();
    Some(if n > 0 { format!("{label}~{n}") } else { label })
}

/// Appends `topics` to `out`, comma-separated.
fn join_into<T: AsRef<str>>(out: &mut String, topics: impl IntoIterator<Item = T>) {
    for (i, t) in topics.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(t.as_ref());
    }
}

/// A directed edge: data flows from `from` to `to` over `topic`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagEdge {
    /// Producer task.
    pub from: VertexId,
    /// Consumer task.
    pub to: VertexId,
    /// The (canonicalized) topic carrying the data, shared with the
    /// consumer vertex's `in_topic`.
    pub topic: Arc<str>,
}

/// The synthesized timing model: callbacks as tasks, DDS communication as
/// precedence relations, annotated with measured timing attributes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dag {
    vertices: Vec<DagVertex>,
    edges: Vec<DagEdge>,
}

impl Dag {
    /// Creates an empty model.
    pub fn new() -> Self {
        Dag::default()
    }

    /// Synthesizes the DAG from per-node callback lists.
    ///
    /// `node_names` maps executor PIDs to node names (from the P1 events of
    /// the INIT tracer); unknown PIDs are named `pid:<n>`.
    ///
    /// Topic decorations produced by Algorithm 1 embed raw callback IDs
    /// (`/svRequest#cb:0x2a`), which are runtime addresses and differ from
    /// run to run. This constructor rewrites each `#cb:…` suffix into a
    /// *canonical* callback label (`<node>:<kind>:<base input topic>`),
    /// which is stable across runs, so models from different runs merge
    /// vertex-for-vertex (Fig. 2, "merge DAGs"). Colliding labels (two
    /// same-kind callbacks of one node on the same input) are disambiguated
    /// with a `~n` suffix assigned in callback-ID order — not in
    /// observation order — so two models extracted from different windows
    /// of one run label the same callback identically even when the
    /// callbacks first complete in a different order.
    ///
    /// The lists may be owned or borrowed (anything that borrows as a
    /// [`CbList`]): a streaming session builds its model straight from
    /// the lists it holds, without copying them first.
    pub fn from_cblists<L: Borrow<CbList>>(
        lists: &[(Pid, L)],
        node_names: &HashMap<Pid, String>,
    ) -> Dag {
        let node_of = |pid: Pid| {
            node_names.get(&pid).cloned().unwrap_or_else(|| format!("pid:{}", pid.get()))
        };
        let nodes: Vec<String> = lists.iter().map(|(pid, _)| node_of(*pid)).collect();
        let records = || {
            lists.iter().zip(&nodes).flat_map(|((_, list), node)| {
                list.borrow().entries().iter().map(move |rec| (node.as_str(), rec))
            })
        };

        // Only `#cb:` decorations read canonical labels, so only the
        // callbacks they reference get one: a model without service
        // traffic builds none.
        let mut referenced: Vec<CallbackId> = records()
            .flat_map(|(_, rec)| rec.in_topic.iter().chain(&rec.out_topics))
            .filter_map(|t| decoration(t).map(|(_, id)| id))
            .collect();
        referenced.sort_unstable();
        referenced.dedup();
        let canon: Vec<(CallbackId, String)> = referenced
            .into_iter()
            .filter_map(|id| canonical_label(id, records).map(|label| (id, label)))
            .collect();
        let rewrite = |topic: &Arc<str>| -> Arc<str> {
            let relabeled = decoration(topic).and_then(|(base, id)| {
                let i = canon.binary_search_by_key(&id, |(i, _)| *i).ok()?;
                Some(rtms_util::concat3(base, "#", &canon[i].1))
            });
            // Undecorated (or naming no listed callback): share the
            // record's allocation untouched.
            relabeled.unwrap_or_else(|| Arc::clone(topic))
        };

        // Vertices.
        let mut dag = Dag::new();
        for (node, rec) in records() {
            dag.vertices.push(DagVertex {
                node: node.to_string(),
                kind: VertexKind::Callback(rec.kind),
                in_topic: rec.in_topic.as_ref().map(&rewrite),
                out_topics: rec.out_topics.iter().map(&rewrite).collect(),
                is_sync_member: rec.is_sync_subscriber,
                or_junction: false,
                stats: rec.stats.clone(),
                period: rec.period.clone(),
            });
        }

        // AND junctions: one per node that has sync members (the P7 probe
        // identifies members but not groups, so members of one node form
        // one synchronizer — the paper's MS_alpha).
        let sync_nodes: Vec<String> = {
            let mut nodes: Vec<String> = dag
                .vertices
                .iter()
                .filter(|v| v.is_sync_member)
                .map(|v| v.node.clone())
                .collect();
            nodes.sort();
            nodes.dedup();
            nodes
        };
        for node in sync_nodes {
            let member_ids: Vec<VertexId> = dag
                .vertices
                .iter()
                .enumerate()
                .filter(|(_, v)| v.is_sync_member && v.node == node)
                .map(|(i, _)| VertexId(i))
                .collect();
            let outs: Vec<Arc<str>> = {
                let mut outs: Vec<Arc<str>> = member_ids
                    .iter()
                    .flat_map(|&VertexId(i)| dag.vertices[i].out_topics.clone())
                    .collect();
                outs.sort();
                outs.dedup();
                outs
            };
            let junction = VertexId(dag.vertices.len());
            dag.vertices.push(DagVertex {
                node: node.clone(),
                kind: VertexKind::AndJunction,
                in_topic: None,
                out_topics: outs,
                is_sync_member: false,
                or_junction: false,
                stats: ExecStats::from_samples([Nanos::ZERO]),
                period: ExecStats::new(),
            });
            let membership = rtms_util::concat2("&", &node);
            for m in member_ids {
                dag.edges.push(DagEdge {
                    from: m,
                    to: junction,
                    topic: Arc::clone(&membership),
                });
            }
        }

        dag.rebuild_topic_edges();
        dag
    }

    /// Rebuilds all topic-based edges and OR markings from the vertices'
    /// topic sets (`&`-junction membership edges are preserved).
    pub(crate) fn rebuild_topic_edges(&mut self) {
        self.edges.retain(|e| e.topic.starts_with('&'));
        let memberships = self.edges.len();
        // Publishers per topic, in vertex order within a topic: sync
        // members publish via their junction.
        let mut publishers: Vec<(&str, VertexId)> = Vec::new();
        for (i, v) in self.vertices.iter().enumerate() {
            if v.is_sync_member {
                continue; // outputs routed through the AND junction
            }
            publishers.extend(v.out_topics.iter().map(|t| (&**t, VertexId(i))));
        }
        publishers.sort_unstable();
        // Edges into each consumer, and its OR marking: >= 2 incoming
        // edges with its topic.
        let mut or_junctions = Vec::new();
        for (i, v) in self.vertices.iter().enumerate() {
            let Some(in_topic) = &v.in_topic else { continue };
            let from = publishers.partition_point(|&(t, _)| t < &**in_topic);
            let before = self.edges.len();
            for &(_, p) in publishers[from..].iter().take_while(|&&(t, _)| t == &**in_topic) {
                if p != VertexId(i) {
                    self.edges.push(DagEdge { from: p, to: VertexId(i), topic: in_topic.clone() });
                }
            }
            let memberships_in = self.edges[..memberships]
                .iter()
                .filter(|e| e.to == VertexId(i) && &e.topic == in_topic)
                .count();
            or_junctions.push((i, self.edges.len() - before + memberships_in >= 2));
        }
        for (i, or) in or_junctions {
            self.vertices[i].or_junction = or;
        }
    }

    /// A stable 64-bit fingerprint of the whole model: FNV-1a 64 over the
    /// canonical JSON serialization. Two models are byte-identical under
    /// `serde_json::to_string` iff their digests match (up to hash
    /// collisions), which is exactly the equivalence the streaming and
    /// replay suites pin — so the replay corpus commits digests instead
    /// of full models.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("model serializes");
        rtms_util::fnv1a_64(json.as_bytes())
    }

    /// The tasks.
    pub fn vertices(&self) -> &[DagVertex] {
        &self.vertices
    }

    /// The precedence relations.
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// Vertex lookup by ID.
    pub fn vertex(&self, id: VertexId) -> &DagVertex {
        &self.vertices[id.0]
    }

    /// All vertex IDs.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertices.len()).map(VertexId)
    }

    /// IDs of vertices belonging to `node`.
    pub fn vertices_of_node<'a>(&'a self, node: &'a str) -> impl Iterator<Item = VertexId> + 'a {
        self.vertices
            .iter()
            .enumerate()
            .filter(move |(_, v)| v.node == node)
            .map(|(i, _)| VertexId(i))
    }

    /// Direct successors of a vertex.
    pub fn successors(&self, id: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> =
            self.edges.iter().filter(|e| e.from == id).map(|e| e.to).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Direct predecessors of a vertex.
    pub fn predecessors(&self, id: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> =
            self.edges.iter().filter(|e| e.to == id).map(|e| e.from).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Vertices with no incoming edges (chain sources, e.g. timers and
    /// sensor-driven subscribers).
    pub fn roots(&self) -> Vec<VertexId> {
        self.vertex_ids().filter(|&v| self.predecessors(v).is_empty()).collect()
    }

    /// Whether the graph is acyclic (it must be, for the timing analyses
    /// the model feeds).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm.
        let n = self.vertices.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to.0] += 1;
        }
        let mut queue: Vec<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop() {
            visited += 1;
            for e in self.edges.iter().filter(|e| e.from.0 == i) {
                indeg[e.to.0] -= 1;
                if indeg[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        visited == n
    }

    /// Merges another model into this one (Fig. 2, "merge DAGs"): vertices
    /// are unioned by [`DagVertex::merge_key`], execution-time statistics
    /// and published-topic sets are combined, edges are re-derived.
    pub fn merge(&mut self, other: &Dag) {
        let mut key_to_idx: HashMap<String, usize> = self
            .vertices
            .iter()
            .enumerate()
            .map(|(i, v)| (v.merge_key(), i))
            .collect();
        for v in &other.vertices {
            match key_to_idx.get(&v.merge_key()) {
                Some(&i) => {
                    let mine = &mut self.vertices[i];
                    mine.stats.merge(&v.stats);
                    mine.period.merge(&v.period);
                    mine.is_sync_member |= v.is_sync_member;
                    for t in &v.out_topics {
                        if !mine.out_topics.contains(t) {
                            mine.out_topics.push(t.clone());
                        }
                    }
                }
                None => {
                    key_to_idx.insert(v.merge_key(), self.vertices.len());
                    self.vertices.push(v.clone());
                }
            }
        }
        self.rederive_edges();
    }

    /// Re-derives every edge from current vertex state: `&`-junction
    /// membership edges, junction output unions, topic edges, and OR
    /// markings. Shared by [`Dag::merge`] and [`Dag::canonicalize`] —
    /// both rewrite the vertex set and then rebuild edges from scratch.
    fn rederive_edges(&mut self) {
        self.edges.clear();
        let mut junctions: HashMap<String, VertexId> = HashMap::new();
        for (i, v) in self.vertices.iter().enumerate() {
            if v.kind == VertexKind::AndJunction {
                junctions.insert(v.node.clone(), VertexId(i));
            }
        }
        let mut membership = Vec::new();
        for (i, v) in self.vertices.iter().enumerate() {
            if v.is_sync_member {
                if let Some(&j) = junctions.get(&v.node) {
                    membership.push(DagEdge {
                        from: VertexId(i),
                        to: j,
                        topic: rtms_util::concat2("&", &v.node),
                    });
                }
            }
        }
        // Junction outputs are the union of member outputs.
        for (node, &j) in &junctions {
            let mut outs: Vec<Arc<str>> = self
                .vertices
                .iter()
                .filter(|v| v.is_sync_member && &v.node == node)
                .flat_map(|v| v.out_topics.clone())
                .collect();
            outs.sort();
            outs.dedup();
            self.vertices[j.0].out_topics = outs;
        }
        self.edges = membership;
        self.rebuild_topic_edges();
    }

    /// Rewrites the model into its canonical form: duplicate-merge-key
    /// vertices folded into one (stats summed, topic lists unioned),
    /// vertices sorted by merge key, per-vertex `out_topics` sorted, and
    /// edges re-derived and sorted.
    ///
    /// This is the fixture behind the fleet determinism invariant.
    /// [`Dag::merge`] unions vertices in encounter order, so merging the
    /// *same* set of per-tenant models under different groupings (e.g.
    /// shard-local merges followed by a cross-shard merge, for varying
    /// shard counts) yields models that are semantically equal but
    /// differ in vertex order — and, when one model carries two vertices
    /// with the same merge key, in how those duplicates were folded.
    /// Canonicalizing the final merge makes the serialized bytes a pure
    /// function of the model *set*, independent of grouping and order.
    pub fn canonicalize(&mut self) {
        // Fold duplicate merge keys. ExecStats combines integer sums, so
        // folding is exactly commutative; the list unions are made
        // order-blind by the sorts below.
        let mut folded: Vec<DagVertex> = Vec::with_capacity(self.vertices.len());
        let mut key_to_idx: HashMap<String, usize> = HashMap::new();
        for v in self.vertices.drain(..) {
            match key_to_idx.get(&v.merge_key()) {
                Some(&i) => {
                    let mine = &mut folded[i];
                    mine.stats.merge(&v.stats);
                    mine.period.merge(&v.period);
                    mine.is_sync_member |= v.is_sync_member;
                    for t in &v.out_topics {
                        if !mine.out_topics.contains(t) {
                            mine.out_topics.push(t.clone());
                        }
                    }
                }
                None => {
                    key_to_idx.insert(v.merge_key(), folded.len());
                    folded.push(v);
                }
            }
        }
        self.vertices = folded;
        self.vertices.sort_by_cached_key(DagVertex::merge_key);
        for v in &mut self.vertices {
            v.out_topics.sort();
            v.out_topics.dedup();
        }
        self.rederive_edges();
        self.edges.sort_by(|a, b| {
            (a.from, a.to, a.topic.as_ref() as &str).cmp(&(b.from, b.to, b.topic.as_ref()))
        });
    }

    /// Renders the model in Graphviz DOT format, with timing annotations.
    ///
    /// Node names and topics are escaped, so a `"` or `\` in a name cannot
    /// break out of the quoted DOT label it is embedded in.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph timing_model {\n  rankdir=LR;\n");
        for (i, v) in self.vertices.iter().enumerate() {
            let node = dot_escape(&v.node);
            let label = match v.kind {
                VertexKind::AndJunction => format!("&\\n({node})"),
                VertexKind::Callback(k) => {
                    let timing = match (v.stats.mbcet(), v.stats.macet(), v.stats.mwcet()) {
                        (Some(b), Some(a), Some(w)) => format!(
                            "\\n[{:.2}/{:.2}/{:.2} ms]",
                            b.as_millis_f64(),
                            a.as_millis_f64(),
                            w.as_millis_f64()
                        ),
                        _ => String::new(),
                    };
                    let or = if v.or_junction { "\\nOR" } else { "" };
                    format!("{} {}\\n({}){}{}", k, i, node, timing, or)
                }
            };
            let shape = match v.kind {
                VertexKind::AndJunction => "diamond",
                _ => "box",
            };
            let _ = writeln!(s, "  v{i} [label=\"{label}\", shape={shape}];");
        }
        for e in &self.edges {
            let _ = writeln!(
                s,
                "  v{} -> v{} [label=\"{}\"];",
                e.from.0,
                e.to.0,
                dot_escape(&e.topic)
            );
        }
        s.push_str("}\n");
        s
    }

    /// The structural summary of this model: vertex merge keys and edges
    /// as key triples, with multiplicity.
    pub fn topology(&self) -> Topology {
        let mut vertices: Vec<String> = self.vertices.iter().map(DagVertex::merge_key).collect();
        let keys = vertices.clone(); // index-aligned before sorting
        vertices.sort();
        let mut edges: Vec<TopologyEdge> = self
            .edges
            .iter()
            .map(|e| TopologyEdge {
                from: keys[e.from.0].clone(),
                to: keys[e.to.0].clone(),
                topic: e.topic.to_string(),
            })
            .collect();
        edges.sort();
        Topology { vertices, edges }
    }
}

/// Escapes a string for embedding inside a double-quoted DOT label.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out
}

/// A structural summary of a [`Dag`]: the sorted multiset of vertex merge
/// keys and of edges (as `(from key, to key, topic)` triples). Two models
/// of the same application — e.g. two observation windows of one run —
/// have equal topologies even though their timing annotations differ.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Sorted vertex merge keys. Duplicates are kept: two distinct
    /// callbacks with the same merge key count twice.
    pub vertices: Vec<String>,
    /// Sorted edge triples.
    pub edges: Vec<TopologyEdge>,
}

impl Topology {
    /// An order-independent FNV-1a fingerprint of the topology, for cheap
    /// equality checks and logging.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for v in &self.vertices {
            eat(v.as_bytes());
            eat(&[0xff]);
        }
        for e in &self.edges {
            eat(e.from.as_bytes());
            eat(&[0xfe]);
            eat(e.to.as_bytes());
            eat(&[0xfe]);
            eat(e.topic.as_bytes());
            eat(&[0xff]);
        }
        h
    }
}

/// The decoration of an element whose identity is unresolved: Algorithm
/// 1's `FindCaller`/`FindClient` fallback when a trace cut leaves a service
/// interaction's peer undetermined. A model synthesized from a bounded
/// window can contain such elements for interactions straddling the window
/// edge, so structural comparisons skip every vertex key, edge endpoint or
/// topic containing it.
pub const UNRESOLVED_MARKER: &str = "#unknown";

/// An edge of a [`Topology`]: data flow between two vertices identified by
/// their merge keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TopologyEdge {
    /// Merge key of the producer vertex.
    pub from: String,
    /// Merge key of the consumer vertex.
    pub to: String,
    /// The (decorated) topic carrying the data.
    pub topic: String,
}

/// The structural difference between two models, as the drift monitor
/// (`rtms-monitor`) reports it: which vertices and edges appeared and which
/// disappeared, identified by merge key. Each list is sorted and names an
/// element once. Comparison respects multiplicity — if a merge key occurs
/// twice in the old model and once in the new one, it is listed under
/// `missing_vertices`.
///
/// Diffs order lexicographically over their four (sorted) lists, so a
/// collection of diffs — e.g. one per tenant in a fleet rollup — has a
/// stable total order independent of arrival interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModelDiff {
    /// Vertex keys present in the new model but not the old one.
    pub added_vertices: Vec<String>,
    /// Vertex keys present in the old model but not the new one.
    pub missing_vertices: Vec<String>,
    /// Edges present in the new model but not the old one.
    pub added_edges: Vec<TopologyEdge>,
    /// Edges present in the old model but not the new one.
    pub missing_edges: Vec<TopologyEdge>,
}

impl ModelDiff {
    /// Whether the two models are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added_vertices.is_empty()
            && self.missing_vertices.is_empty()
            && self.added_edges.is_empty()
            && self.missing_edges.is_empty()
    }

    /// Total number of differing elements across all four lists.
    pub fn len(&self) -> usize {
        self.added_vertices.len()
            + self.missing_vertices.len()
            + self.added_edges.len()
            + self.missing_edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cblist::CallbackRecord;

    fn rec(
        pid: u32,
        id: u64,
        kind: CallbackKind,
        in_topic: Option<&str>,
        outs: &[&str],
        sync: bool,
    ) -> CallbackRecord {
        CallbackRecord::instance(
            Pid::new(pid),
            CallbackId::new(id),
            kind,
            in_topic.map(Arc::from),
            outs.iter().map(|s| Arc::from(*s)).collect(),
            sync,
            Nanos::from_millis(1),
            Nanos::ZERO,
        )
    }

    fn names(pairs: &[(u32, &str)]) -> HashMap<Pid, String> {
        pairs.iter().map(|(p, n)| (Pid::new(*p), n.to_string())).collect()
    }

    fn list(records: Vec<CallbackRecord>) -> CbList {
        records.into_iter().collect()
    }

    #[test]
    fn chain_edges() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (
                Pid::new(2),
                list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &["/b"], false)]),
            ),
            (Pid::new(3), list(vec![rec(3, 3, CallbackKind::Subscriber, Some("/b"), &[], false)])),
        ];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "n2"), (3, "n3")]));
        assert_eq!(dag.vertices().len(), 3);
        assert_eq!(dag.edges().len(), 2);
        assert!(dag.is_acyclic());
        assert_eq!(dag.roots().len(), 1);
    }

    #[test]
    fn or_junction_marked_for_two_publishers() {
        let lists = vec![
            (Pid::new(1), list(vec![
                rec(1, 1, CallbackKind::Timer, None, &["/clp3"], false),
                rec(1, 2, CallbackKind::Timer, None, &["/clp3", "/t2"], false),
            ])),
            (Pid::new(2), list(vec![rec(2, 3, CallbackKind::Subscriber, Some("/clp3"), &[], false)])),
        ];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "timers"), (2, "sub")]));
        let sub = dag
            .vertex_ids()
            .find(|&v| dag.vertex(v).in_topic.as_deref() == Some("/clp3"))
            .expect("subscriber vertex");
        assert!(dag.vertex(sub).or_junction, "two publishers on /clp3 must mark OR");
        assert_eq!(dag.predecessors(sub).len(), 2);
    }

    #[test]
    fn and_junction_for_sync_members() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/f1"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Timer, None, &["/f2"], false)])),
            (Pid::new(3), list(vec![
                rec(3, 3, CallbackKind::Subscriber, Some("/f1"), &["/f3"], true),
                rec(3, 4, CallbackKind::Subscriber, Some("/f2"), &[], true),
            ])),
            (Pid::new(4), list(vec![rec(4, 5, CallbackKind::Subscriber, Some("/f3"), &[], false)])),
        ];
        let dag = Dag::from_cblists(
            &lists,
            &names(&[(1, "s1"), (2, "s2"), (3, "fusion"), (4, "sink")]),
        );
        // 5 callbacks + 1 junction.
        assert_eq!(dag.vertices().len(), 6);
        let junction = dag
            .vertex_ids()
            .find(|&v| dag.vertex(v).kind == VertexKind::AndJunction)
            .expect("junction");
        assert_eq!(dag.vertex(junction).node, "fusion");
        assert_eq!(dag.predecessors(junction).len(), 2, "both members feed the junction");
        // Junction has zero execution time.
        assert_eq!(dag.vertex(junction).stats.mwcet(), Some(Nanos::ZERO));
        // The sink is fed by the junction, not directly by the member.
        let sink = dag
            .vertex_ids()
            .find(|&v| dag.vertex(v).in_topic.as_deref() == Some("/f3"))
            .expect("sink");
        assert_eq!(dag.predecessors(sink), vec![junction]);
        assert!(dag.is_acyclic());
    }

    #[test]
    fn canonicalization_makes_service_decorations_stable() {
        // Same structure, different runtime callback IDs: merge keys and
        // edges must align.
        let build = |caller_id: u64, service_id: u64, client_id: u64| {
            let lists = vec![
                (Pid::new(1), list(vec![
                    rec(1, caller_id, CallbackKind::Timer, None,
                        &[&format!("/svRequest#cb:{caller_id:#x}")], false),
                    rec(1, client_id, CallbackKind::Client,
                        Some(&format!("/svReply#cb:{client_id:#x}")), &[], false),
                ])),
                (Pid::new(2), list(vec![rec(
                    2, service_id, CallbackKind::Service,
                    Some(&format!("/svRequest#cb:{caller_id:#x}")),
                    &[&format!("/svReply#cb:{client_id:#x}")], false,
                )])),
            ];
            Dag::from_cblists(&lists, &names(&[(1, "caller"), (2, "server")]))
        };
        let a = build(0x10, 0x20, 0x30);
        let b = build(0x99, 0x88, 0x77);
        let keys_a: Vec<String> = a.vertices().iter().map(|v| v.merge_key()).collect();
        let keys_b: Vec<String> = b.vertices().iter().map(|v| v.merge_key()).collect();
        assert_eq!(keys_a, keys_b, "canonical keys must not depend on runtime IDs");
        assert_eq!(a.edges().len(), 2, "timer->service and service->client");
        assert_eq!(b.edges().len(), 2);
    }

    #[test]
    fn merge_unions_structure_and_stats() {
        let lists1 = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], false)])),
        ];
        let mut d1 = Dag::from_cblists(&lists1, &names(&[(1, "n1"), (2, "n2")]));
        // Run 2 observes an extra publication and different exec times.
        let mut r = rec(1, 9, CallbackKind::Timer, None, &["/a", "/dbg"], false);
        r.stats = ExecStats::from_samples([Nanos::from_millis(5)]);
        let lists2 = vec![
            (Pid::new(1), list(vec![r])),
            (Pid::new(2), list(vec![rec(2, 8, CallbackKind::Subscriber, Some("/a"), &[], false)])),
        ];
        let d2 = Dag::from_cblists(&lists2, &names(&[(1, "n1"), (2, "n2")]));
        d1.merge(&d2);
        // Timer identified by node+outputs... here outputs differ between
        // runs ("/a" vs "/a,/dbg"), so the timer appears as two vertices —
        // the inherent ambiguity of input-less callbacks. The subscriber
        // merges into one vertex with pooled stats.
        let sub = d1
            .vertex_ids()
            .find(|&v| d1.vertex(v).in_topic.as_deref() == Some("/a"))
            .expect("subscriber");
        assert_eq!(d1.vertex(sub).stats.count(), 2);
        assert!(d1.is_acyclic());
    }

    #[test]
    fn merge_identical_runs_is_idempotent_on_structure() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &["/b"], false)])),
        ];
        let nm = names(&[(1, "n1"), (2, "n2")]);
        let mut d1 = Dag::from_cblists(&lists, &nm);
        let d2 = Dag::from_cblists(&lists, &nm);
        let (nv, ne) = (d1.vertices().len(), d1.edges().len());
        d1.merge(&d2);
        assert_eq!(d1.vertices().len(), nv, "same structure: no new vertices");
        assert_eq!(d1.edges().len(), ne, "same structure: no new edges");
        // But stats doubled.
        assert_eq!(d1.vertices()[0].stats.count(), 2);
    }

    /// Three apps sharing a topology, merged in both orders — raw merges
    /// permute vertices, canonical forms are byte-identical.
    #[test]
    fn canonicalize_makes_merge_order_immaterial() {
        let app = |tag: &str, extra: &str| {
            let t_a: &str = &format!("/{tag}/a");
            let lists = vec![
                (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &[t_a], false)])),
                (
                    Pid::new(2),
                    list(vec![rec(2, 2, CallbackKind::Subscriber, Some(t_a), &[extra], false)]),
                ),
            ];
            Dag::from_cblists(&lists, &names(&[(1, "src"), (2, "sink")]))
        };
        let (a, b, c) = (app("x", "/out1"), app("y", "/out2"), app("x", "/out3"));
        let mut fwd = a.clone();
        fwd.merge(&b);
        fwd.merge(&c);
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_ne!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap(),
            "raw merges are order-dependent (vertex encounter order)"
        );
        fwd.canonicalize();
        rev.canonicalize();
        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap(),
            "canonical forms must be byte-identical"
        );
        assert!(fwd.is_acyclic());
    }

    /// Duplicate merge keys inside one model (two subscribers of one node
    /// on the same topic with the same outputs) fold into a single vertex
    /// with pooled stats, regardless of how the model was grouped.
    #[test]
    fn canonicalize_folds_duplicate_keys() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (
                Pid::new(2),
                list(vec![
                    rec(2, 2, CallbackKind::Subscriber, Some("/a"), &["/b"], false),
                    rec(2, 3, CallbackKind::Subscriber, Some("/a"), &["/b"], false),
                ]),
            ),
        ];
        let mut d = Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "n2")]));
        assert_eq!(d.vertices().len(), 3, "duplicates kept by synthesis");
        d.canonicalize();
        assert_eq!(d.vertices().len(), 2, "duplicates folded by canonical form");
        let sub = d
            .vertex_ids()
            .find(|&v| d.vertex(v).in_topic.as_deref() == Some("/a"))
            .expect("subscriber");
        assert_eq!(d.vertex(sub).stats.count(), 2, "stats pooled across the fold");
        assert_eq!(d.vertex(sub).stats.sum(), Nanos::from_millis(2).as_nanos());
    }

    /// Canonicalize preserves topology: same merge keys, same edge
    /// triples, same fingerprint (up to duplicate-key folding, absent
    /// here), and is idempotent.
    #[test]
    fn canonicalize_preserves_topology_and_is_idempotent() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/f1"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Timer, None, &["/f2"], false)])),
            (
                Pid::new(3),
                list(vec![
                    rec(3, 3, CallbackKind::Subscriber, Some("/f1"), &["/f3"], true),
                    rec(3, 4, CallbackKind::Subscriber, Some("/f2"), &[], true),
                ]),
            ),
            (Pid::new(4), list(vec![rec(4, 5, CallbackKind::Subscriber, Some("/f3"), &[], false)])),
        ];
        let mut d =
            Dag::from_cblists(&lists, &names(&[(1, "s1"), (2, "s2"), (3, "fusion"), (4, "sink")]));
        let before = d.topology();
        d.canonicalize();
        assert_eq!(d.topology(), before, "canonical form keeps the topology");
        assert!(d.is_acyclic());
        let first = serde_json::to_string(&d).unwrap();
        d.canonicalize();
        assert_eq!(serde_json::to_string(&d).unwrap(), first, "idempotent");
    }

    #[test]
    fn dot_output_contains_vertices_and_edges() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], false)])),
        ];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "n2")]));
        let dot = dag.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("v0 -> v1"), "{dot}");
        assert!(dot.contains("/a"));
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a\"];evil"], false)])),
            (
                Pid::new(2),
                list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a\"];evil"), &[], false)]),
            ),
        ];
        let dag =
            Dag::from_cblists(&lists, &names(&[(1, "n\"1"), (2, "n\\2")]));
        let dot = dag.to_dot();
        assert!(dot.contains("n\\\"1"), "quote in node name must be escaped: {dot}");
        assert!(dot.contains("n\\\\2"), "backslash in node name must be escaped: {dot}");
        assert!(dot.contains("/a\\\"];evil"), "quote in topic must be escaped: {dot}");
        // No label's quoted string is terminated early: every line still
        // ends in the well-formed attribute tail.
        for line in dot.lines().filter(|l| l.contains("label=")) {
            assert!(
                line.ends_with("];"),
                "label line must stay well-formed: {line}"
            );
        }
    }

    #[test]
    fn canonical_label_suffixes_do_not_depend_on_observation_order() {
        // Two timers of one node share the label base `n1:timer:-`; the ~1
        // suffix must go to the same callback (the higher ID) regardless of
        // which one completed first, so per-window models of one run agree.
        let make = |first: u64, second: u64| {
            let lists = vec![
                (
                    Pid::new(1),
                    list(vec![
                        rec(1, first, CallbackKind::Timer, None,
                            &[&format!("/req#cb:{first:#x}")], false),
                        rec(1, second, CallbackKind::Timer, None,
                            &[&format!("/req#cb:{second:#x}")], false),
                    ]),
                ),
                (
                    Pid::new(2),
                    list(vec![
                        rec(2, 9, CallbackKind::Service, Some(&format!("/req#cb:{first:#x}")), &[], false),
                        rec(2, 9, CallbackKind::Service, Some(&format!("/req#cb:{second:#x}")), &[], false),
                    ]),
                ),
            ];
            Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "srv")]))
        };
        let a = make(3, 7); // lower ID observed first
        let b = make(7, 3); // higher ID observed first
        let mut keys_a: Vec<String> = a.vertices().iter().map(|v| v.merge_key()).collect();
        let mut keys_b: Vec<String> = b.vertices().iter().map(|v| v.merge_key()).collect();
        keys_a.sort();
        keys_b.sort();
        assert_eq!(keys_a, keys_b, "labels must be assigned in ID order, not observation order");
    }

    #[test]
    fn canonical_labels_count_every_peer_once() {
        // Three timers of n1 share the base label `n1:timer:-`, and ID 5
        // recurs on another node (its first record names it). Only ID 7
        // is referenced, yet its suffix counts both lower-ID peers once.
        let lists = vec![
            (Pid::new(1), list(vec![
                rec(1, 3, CallbackKind::Timer, None, &["/x"], false),
                rec(1, 5, CallbackKind::Timer, None, &["/y"], false),
                rec(1, 7, CallbackKind::Timer, None, &["/z"], false),
            ])),
            (Pid::new(2), list(vec![rec(2, 5, CallbackKind::Subscriber, Some("/q"), &[], false)])),
            (Pid::new(3), list(vec![
                rec(3, 9, CallbackKind::Service, Some("/req#cb:0x7"), &[], false),
                rec(3, 10, CallbackKind::Service, Some("/req#cb:0x63"), &[], false),
            ])),
        ];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "n2"), (3, "srv")]));
        let ins: Vec<&str> =
            dag.vertices()[4..].iter().filter_map(|v| v.in_topic.as_deref()).collect();
        assert_eq!(ins, vec!["/req#n1:timer:-~2", "/req#cb:0x63"], "an unknown ID stays as is");
    }

    #[test]
    fn topology_fingerprint_tracks_structure() {
        let base_lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], false)])),
        ];
        let nm = names(&[(1, "n1"), (2, "n2")]);
        let old = Dag::from_cblists(&base_lists, &nm);
        assert_eq!(old.topology().fingerprint(), old.topology().fingerprint());
        let edge = TopologyEdge {
            from: "n1|timer|/a".to_string(),
            to: "n2|subscriber|/a".to_string(),
            topic: "/a".to_string(),
        };
        assert_eq!(old.topology().edges, vec![edge]);

        // New model: the subscriber is gone, a fresh timer appeared.
        let new_lists = vec![
            (Pid::new(1), list(vec![
                rec(1, 1, CallbackKind::Timer, None, &["/a"], false),
                rec(1, 3, CallbackKind::Timer, None, &["/b"], false),
            ])),
        ];
        let new = Dag::from_cblists(&new_lists, &nm);
        assert_eq!(new.topology().vertices, vec!["n1|timer|/a", "n1|timer|/b"]);
        assert!(new.topology().edges.is_empty());
        assert_ne!(old.topology().fingerprint(), new.topology().fingerprint());
    }

    #[test]
    fn unresolved_marker_is_algorithm_1_decoration() {
        assert_eq!(UNRESOLVED_MARKER, format!("#{}", crate::alg1::UNKNOWN));
    }

    #[test]
    fn merge_key_sorts_timer_outputs_and_appends_to_the_buffer() {
        let lists = vec![(
            Pid::new(1),
            list(vec![rec(1, 1, CallbackKind::Timer, None, &["/b", "/a"], false)]),
        )];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "n1")]));
        assert_eq!(dag.vertices()[0].merge_key(), "n1|timer|/a,/b");
        let mut buf = String::from("x");
        dag.vertices()[0].write_merge_key(&mut buf);
        assert_eq!(buf, "xn1|timer|/a,/b");
    }

    #[test]
    fn topology_serde_round_trip() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
            (Pid::new(2), list(vec![rec(2, 2, CallbackKind::Subscriber, Some("/a"), &[], false)])),
        ];
        let topo = Dag::from_cblists(&lists, &names(&[(1, "n1"), (2, "n2")])).topology();
        let json = serde_json::to_string(&topo).expect("ser");
        let back: Topology = serde_json::from_str(&json).expect("de");
        assert_eq!(topo, back);
    }

    #[test]
    fn serde_round_trip() {
        let lists = vec![
            (Pid::new(1), list(vec![rec(1, 1, CallbackKind::Timer, None, &["/a"], false)])),
        ];
        let dag = Dag::from_cblists(&lists, &names(&[(1, "n1")]));
        let json = serde_json::to_string(&dag).expect("ser");
        let back: Dag = serde_json::from_str(&json).expect("de");
        assert_eq!(dag, back);
    }
}
