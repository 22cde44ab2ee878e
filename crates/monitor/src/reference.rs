//! The monitor's reference topology, interned once, and the per-window
//! keying that compares a snapshot against it without building strings.

use crate::baseline::Baseline;
use rtms_core::dag::UNRESOLVED_MARKER;
use rtms_core::{Dag, TopologyEdge};

/// One distinct merge key of the reference.
#[derive(Debug, Clone)]
struct RefKey {
    key: String,
    /// Occurrences among the sanitized reference vertices (0 for a key
    /// that only an envelope or an edge endpoint names).
    count: u32,
    /// Index into [`Baseline::envelopes`].
    envelope: Option<usize>,
}

/// One distinct edge triple of the reference.
#[derive(Debug, Clone)]
struct RefEdge {
    from: u32,
    to: u32,
    topic: String,
    /// Occurrences among the sanitized reference edges.
    count: u32,
}

/// The baseline topology with `#unknown`-decorated elements removed
/// (the reference side of every structural comparison), interned.
///
/// Keys get ids in sorted key order and edge triples in sorted triple
/// order, so comparing ids orders elements exactly as comparing their
/// strings would. The key table also holds every envelope key, including
/// unresolved ones, so one lookup per snapshot vertex finds both its
/// structural id and its envelope.
#[derive(Debug, Clone)]
pub(crate) struct Reference {
    keys: Vec<RefKey>,
    edges: Vec<RefEdge>,
}

fn resolved(s: &str) -> bool {
    !s.contains(UNRESOLVED_MARKER)
}

impl Reference {
    pub(crate) fn new(baseline: &Baseline) -> Reference {
        let topology = &baseline.topology;
        let edges: Vec<&TopologyEdge> = topology
            .edges
            .iter()
            .filter(|e| resolved(&e.from) && resolved(&e.to) && resolved(&e.topic))
            .collect();
        let mut names: Vec<&str> = topology
            .vertices
            .iter()
            .map(String::as_str)
            .filter(|k| resolved(k))
            .chain(edges.iter().flat_map(|e| [e.from.as_str(), e.to.as_str()]))
            .chain(baseline.envelopes.iter().map(|e| e.key.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut reference = Reference {
            keys: names
                .iter()
                .map(|&key| RefKey {
                    key: key.to_string(),
                    count: 0,
                    envelope: baseline.envelopes.binary_search_by(|e| e.key.as_str().cmp(key)).ok(),
                })
                .collect(),
            edges: Vec::new(),
        };
        for v in topology.vertices.iter().filter(|k| resolved(k)) {
            let id = reference.key_id(v).expect("every reference vertex is interned");
            reference.keys[id as usize].count += 1;
        }
        let mut triples: Vec<(u32, u32, &str)> = edges
            .iter()
            .map(|e| {
                let id = |k: &str| reference.key_id(k).expect("every edge endpoint is interned");
                (id(&e.from), id(&e.to), e.topic.as_str())
            })
            .collect();
        triples.sort_unstable();
        for (from, to, topic) in triples {
            match reference.edges.last_mut() {
                Some(e) if (e.from, e.to, e.topic.as_str()) == (from, to, topic) => e.count += 1,
                _ => reference.edges.push(RefEdge { from, to, topic: topic.to_string(), count: 1 }),
            }
        }
        reference
    }

    fn key_id(&self, key: &str) -> Option<u32> {
        self.keys.binary_search_by(|k| k.key.as_str().cmp(key)).ok().map(|i| i as u32)
    }

    fn edge_id(&self, from: u32, to: u32, topic: &str) -> Option<u32> {
        self.edges
            .binary_search_by(|e| (e.from, e.to, e.topic.as_str()).cmp(&(from, to, topic)))
            .ok()
            .map(|i| i as u32)
    }

    /// The merge key with id `id`.
    pub(crate) fn key(&self, id: u32) -> &str {
        &self.keys[id as usize].key
    }

    /// The envelope index of the key with id `id`.
    pub(crate) fn envelope(&self, id: u32) -> Option<usize> {
        self.keys[id as usize].envelope
    }

    /// Edge `id` as an owned topology edge.
    pub(crate) fn edge(&self, id: u32) -> TopologyEdge {
        let e = &self.edges[id as usize];
        TopologyEdge {
            from: self.key(e.from).to_string(),
            to: self.key(e.to).to_string(),
            topic: e.topic.clone(),
        }
    }

    /// Keys one snapshot: every vertex's merge key is formatted once and
    /// looked up once, and the snapshot's resolved vertices and edges are
    /// counted against the reference.
    pub(crate) fn key_window(&self, snapshot: &Dag, w: &mut WindowKeys) {
        w.slots.clear();
        w.key_count.clear();
        w.key_count.resize(self.keys.len(), 0);
        w.edge_count.clear();
        w.edge_count.resize(self.edges.len(), 0);
        w.added_vertices.clear();
        w.added_edges.clear();
        for v in snapshot.vertices() {
            w.buf.clear();
            v.write_merge_key(&mut w.buf);
            let id = self.key_id(&w.buf);
            let slot = if !resolved(&w.buf) {
                Slot::Unresolved(id)
            } else if let Some(id) = id {
                w.key_count[id as usize] += 1;
                if w.key_count[id as usize] > self.keys[id as usize].count {
                    w.added_vertices.push(w.buf.clone());
                }
                Slot::Ref(id)
            } else {
                w.added_vertices.push(w.buf.clone());
                Slot::New(w.added_vertices.len() - 1)
            };
            w.slots.push(slot);
        }
        for e in snapshot.edges() {
            if !resolved(&e.topic) {
                continue;
            }
            let (from, to) = (w.slots[e.from.0], w.slots[e.to.0]);
            let added = match (from, to) {
                (Slot::Unresolved(_), _) | (_, Slot::Unresolved(_)) => continue,
                (Slot::Ref(from), Slot::Ref(to)) => match self.edge_id(from, to, &e.topic) {
                    Some(id) => {
                        w.edge_count[id as usize] += 1;
                        w.edge_count[id as usize] > self.edges[id as usize].count
                    }
                    None => true,
                },
                _ => true,
            };
            if added {
                let name = |slot: Slot| match slot {
                    Slot::Ref(id) => self.key(id).to_string(),
                    Slot::New(i) => w.added_vertices[i].clone(),
                    Slot::Unresolved(_) => unreachable!("unresolved endpoints are skipped"),
                };
                let edge =
                    TopologyEdge { from: name(from), to: name(to), topic: e.topic.to_string() };
                w.added_edges.push(edge);
            }
        }
        w.added_vertices.sort_unstable();
        w.added_vertices.dedup();
        w.added_edges.sort_unstable();
        w.added_edges.dedup();
    }

    /// Number of reference key ids.
    pub(crate) fn keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of reference edge ids.
    pub(crate) fn edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the keyed window holds key `id` fewer times than the
    /// reference does.
    pub(crate) fn key_missing(&self, w: &WindowKeys, id: u32) -> bool {
        w.key_count[id as usize] < self.keys[id as usize].count
    }

    /// Whether the keyed window holds edge `id` fewer times than the
    /// reference does.
    pub(crate) fn edge_missing(&self, w: &WindowKeys, id: u32) -> bool {
        w.edge_count[id as usize] < self.edges[id as usize].count
    }
}

/// How one snapshot vertex keyed against the [`Reference`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// A resolved key the reference knows, by id.
    Ref(u32),
    /// A resolved key the reference does not know: an added vertex, by
    /// index into [`WindowKeys::added_vertices`] before it is sorted.
    New(usize),
    /// An `#unknown`-decorated key, skipped by structural comparison; its
    /// id when an envelope names it.
    Unresolved(Option<u32>),
}

impl Slot {
    /// The key id, for envelope lookups.
    pub(crate) fn id(self) -> Option<u32> {
        match self {
            Slot::Ref(id) | Slot::Unresolved(Some(id)) => Some(id),
            Slot::New(_) | Slot::Unresolved(None) => None,
        }
    }
}

/// Per-window scratch of a [`Reference`] comparison, reused across
/// windows so a window whose structure matches allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowKeys {
    buf: String,
    /// Per snapshot vertex, in vertex order.
    pub(crate) slots: Vec<Slot>,
    key_count: Vec<u32>,
    edge_count: Vec<u32>,
    /// Sorted, distinct keys the window holds more often than the
    /// reference.
    pub(crate) added_vertices: Vec<String>,
    /// Sorted, distinct edges the window holds more often than the
    /// reference.
    pub(crate) added_edges: Vec<TopologyEdge>,
}
