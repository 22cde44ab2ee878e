//! Cost of DAG synthesis from callback lists as the application grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtms_core::{CallbackRecord, CbList, Dag, ExecStats};
use rtms_trace::{CallbackId, CallbackKind, Nanos, Pid};
use std::collections::HashMap;
use std::hint::black_box;

/// Builds `nodes` chained nodes with `cbs_per_node` subscriber callbacks
/// each, every callback feeding the next node.
fn chained_lists(nodes: usize, cbs_per_node: usize) -> (Vec<(Pid, CbList)>, HashMap<Pid, String>) {
    let mut lists = Vec::new();
    let mut names = HashMap::new();
    let mut id = 1u64;
    for n in 0..nodes {
        let pid = Pid::new(n as u32 + 1);
        names.insert(pid, format!("node{n}"));
        let mut list = CbList::new();
        for c in 0..cbs_per_node {
            list.add_instance(CallbackRecord {
                pid,
                id: CallbackId::new(id),
                kind: CallbackKind::Subscriber,
                in_topic: Some(format!("/hop{n}_{c}").into()),
                out_topics: vec![format!("/hop{}_{c}", n + 1).into()],
                is_sync_subscriber: false,
                stats: ExecStats::from_samples([Nanos::from_millis(1)]),
                period: ExecStats::new(),
                starts: Some((Nanos::ZERO, Nanos::ZERO)),
            });
            id += 1;
        }
        lists.push((pid, list));
    }
    (lists, names)
}

fn bench_dag(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_synthesis");
    for (nodes, cbs) in [(10usize, 4usize), (50, 4), (100, 8)] {
        let (lists, names) = chained_lists(nodes, cbs);
        group.bench_with_input(
            BenchmarkId::new("from_cblists", format!("{nodes}n_x_{cbs}cb")),
            &(lists, names),
            |b, (lists, names)| b.iter(|| black_box(Dag::from_cblists(lists, names))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dag);
criterion_main!(benches);
