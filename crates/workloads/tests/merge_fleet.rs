//! The merge algebra behind the fleet's hierarchical aggregation.
//!
//! The fleet service merges per-tenant models eagerly on each shard (in
//! tenant *completion* order — racy) and then merges the shard
//! accumulators (in shard index order), canonicalizing only the final
//! result. That is byte-identical to a flat merge of the same models only
//! if [`merge_dag_refs`] + [`Dag::canonicalize`] is associative and
//! order-independent over real synthesized models — including models
//! whose canonical callback labels carry `~n` collision suffixes (two
//! same-kind callbacks of one node on the same input), where a
//! window-order-dependent labeling would silently cross-wire vertices.
//!
//! This suite pins both properties over a population of 100+ models
//! synthesized from generated applications (rotating the fleet's image
//! shapes: standard, multi-threaded, bursty, service-heavy) plus the
//! paper's SYN case-study app at several scales. Debug builds shrink the
//! population; release (the CI sweep mode) covers the full count.

use rtms_core::{merge_dag_refs, Dag, SynthesisSession};
use rtms_ros2::WorldBuilder;
use rtms_trace::{Nanos, TraceSegment};
use rtms_workloads::{generate_app, syn_app, GeneratorConfig};

/// Population size: 104 models in release, a smaller smoke in debug.
const MODELS: usize = if cfg!(debug_assertions) { 16 } else { 104 };

fn json(dag: &Dag) -> String {
    serde_json::to_string(dag).expect("model serializes")
}

/// Merges `dags` in iteration order and canonicalizes — the fleet's
/// aggregation step, reduced to its algebra.
fn canonical_merge<'a, I: IntoIterator<Item = &'a Dag>>(dags: I) -> Dag {
    let mut merged = merge_dag_refs(dags);
    merged.canonicalize();
    merged
}

/// Synthesizes one model per population slot: three generator shapes and
/// a service-heavy variant in rotation, with every eighth slot running
/// the SYN case-study app instead of a generated one.
fn population() -> Vec<Dag> {
    (0..MODELS)
        .map(|i| {
            let seed = i as u64;
            let app = if i % 8 == 7 {
                syn_app(1.0 + (i / 8) as f64 * 0.5)
            } else {
                let base = GeneratorConfig::default();
                let cfg = match i % 4 {
                    0 => base,
                    1 => GeneratorConfig { workers: (2, 3), ..base },
                    2 => GeneratorConfig { bursts: (1, 2), ..base },
                    _ => GeneratorConfig { services: (2, 4), ..base },
                };
                generate_app(seed, &cfg)
            };
            let mut world = WorldBuilder::new(4)
                .seed(seed ^ 0x51ab)
                .app(app)
                .build()
                .expect("population app deploys");
            let trace = world.trace_run(Nanos::from_millis(400));
            rtms_core::synthesize(&trace)
        })
        .collect()
}

#[test]
fn merge_is_associative_and_order_independent() {
    let models = population();
    let reference = json(&canonical_merge(&models));

    // The property must be exercised on colliding labels, not just clean
    // ones: the population is seeded so some models carry `~n` suffixes.
    assert!(
        reference.contains('~'),
        "population produced no ~n label collisions; the suffix-stability \
         half of this test is vacuous"
    );

    // Shard-then-global grouping, the fleet topology: shard-local eager
    // merges (not canonicalized, exactly like `rtms-fleet`'s shard
    // workers) followed by one cross-shard merge.
    for shards in [2, 3, 5, 13] {
        let mut groups: Vec<Vec<&Dag>> = vec![Vec::new(); shards];
        for (i, m) in models.iter().enumerate() {
            groups[i % shards].push(m);
        }
        let locals: Vec<Dag> =
            groups.iter().filter(|g| !g.is_empty()).map(|g| merge_dag_refs(g.iter().copied())).collect();
        assert_eq!(
            json(&canonical_merge(&locals)),
            reference,
            "shard-then-global merge diverged from the flat merge at {shards} shards"
        );
    }

    // Order independence: reversed, and a strided permutation (7 is
    // coprime to both population sizes, so the stride visits every model).
    assert_eq!(
        json(&canonical_merge(models.iter().rev())),
        reference,
        "reversed merge order diverged"
    );
    let strided: Vec<&Dag> = (0..models.len()).map(|i| &models[(i * 7) % models.len()]).collect();
    assert_eq!(
        json(&canonical_merge(strided.iter().copied())),
        reference,
        "strided merge order diverged"
    );

    // Pairwise associativity on owned accumulators: (a ⊔ b) ⊔ c and
    // a ⊔ (b ⊔ c) canonicalize identically.
    let (a, b, c) = (&models[0], &models[1], &models[2]);
    let mut ab = a.clone();
    ab.merge(b);
    ab.merge(c);
    ab.canonicalize();
    let mut bc = b.clone();
    bc.merge(c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    a_bc.canonicalize();
    assert_eq!(json(&ab), json(&a_bc), "pairwise merge is not associative");
    assert_eq!(json(&ab), json(&canonical_merge([a, b, c])), "fold disagrees with merge_dag_refs");
}

/// `~n` collision suffixes are assigned in callback-ID order, not
/// observation order, so models extracted from *different windows of one
/// run* label the same callback identically — merging window models then
/// folds colliding-label vertices instead of cross-wiring them. Pinned
/// the way the fleet exercises it: per-window models (named from the
/// first window's INIT events, as shard workers do) must merge to the
/// same canonical key set as the full-run model, and the windowed merge
/// must be grouping-independent like any other.
#[test]
fn tilde_labels_stable_across_windows_of_one_run() {
    // Seed 27's default-config app carries two label collisions (probed;
    // the assert below keeps that from rotting silently).
    let app = generate_app(27, &GeneratorConfig::default());
    let mut world =
        WorldBuilder::new(4).seed(27 ^ 0x51ab).app(app).build().expect("app deploys");
    let mut segments: Vec<TraceSegment> = Vec::new();
    world.trace_segments_sequential(Nanos::from_millis(1_200), Nanos::from_millis(300), |seg| {
        segments.push(std::mem::take(seg));
    });
    assert_eq!(segments.len(), 4);

    // Full-run model: one session over every segment (streaming equals
    // batch, pinned by the streaming_equivalence suite).
    let mut full_session = SynthesisSession::new();
    for seg in &segments {
        full_session.feed_segment(seg);
    }
    let full = {
        let mut m = full_session.model();
        m.canonicalize();
        m
    };
    let full_keys: Vec<String> = full.vertices().iter().map(|v| v.merge_key()).collect();
    assert!(
        full_keys.iter().any(|k| k.contains('~')),
        "seed 27 no longer produces label collisions; re-probe for a seed that does"
    );

    // Per-window models, named like fleet shard windows: node names come
    // from the first window's session (INIT events only appear there).
    let names = std::sync::Arc::clone(full_session.names());
    let windows: Vec<Dag> = segments
        .iter()
        .map(|seg| {
            let mut s = SynthesisSession::with_names(std::sync::Arc::clone(&names));
            s.feed_segment(seg);
            s.model()
        })
        .collect();

    // Stable labels mean the merged windows cover exactly the full-run
    // key set — a window-order-dependent `~n` assignment would leak extra
    // keys (the same callback labeled two ways) into the union.
    let merged = canonical_merge(&windows);
    let merged_keys: Vec<String> = merged.vertices().iter().map(|v| v.merge_key()).collect();
    assert_eq!(merged_keys, full_keys, "windowed merge re-labeled vertices");

    // And the windowed merge obeys the same grouping independence.
    let reference = json(&merged);
    let mut first_half = merge_dag_refs(&windows[..2]);
    first_half.merge(&merge_dag_refs(&windows[2..]));
    first_half.canonicalize();
    assert_eq!(json(&first_half), reference, "window grouping changed the merged bytes");
    assert_eq!(json(&canonical_merge(windows.iter().rev())), reference);
}
