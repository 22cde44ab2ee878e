//! Throughput of the eBPF substrate: RT-tracer probe dispatch and
//! kernel-tracer PID filtering — the in-kernel hot paths whose cost the
//! Sec. VI overhead numbers reflect.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rtms_ebpf::{map, FunctionArgs, FunctionCall, KernelTracer, Ros2RtTracer, SrcTsRef};
use rtms_trace::{
    CallbackId, Cpu, Nanos, Pid, Priority, SchedEvent, SourceTimestamp, ThreadState, Topic,
};
use std::hint::black_box;

fn bench_rt_dispatch(c: &mut Criterion) {
    let topic = Topic::plain("/bench");
    let calls: Vec<FunctionCall> = (0..1_000u64)
        .flat_map(|i| {
            let t = Nanos::from_micros(i);
            let pid = Pid::new(1);
            vec![
                FunctionCall::entry(t, pid, FunctionArgs::ExecuteSubscription),
                FunctionCall::entry(
                    t,
                    pid,
                    FunctionArgs::RmwTakeInt {
                        subscription: CallbackId::new(1),
                        topic: &topic,
                        src_ts: SrcTsRef::pending(0x1000 + i),
                    },
                ),
                FunctionCall::exit(
                    t,
                    pid,
                    FunctionArgs::RmwTakeInt {
                        subscription: CallbackId::new(1),
                        topic: &topic,
                        src_ts: SrcTsRef::resolved(0x1000 + i, SourceTimestamp::new(i)),
                    },
                ),
                FunctionCall::exit(t, pid, FunctionArgs::ExecuteSubscription),
            ]
        })
        .collect();

    let mut group = c.benchmark_group("ebpf");
    group.throughput(Throughput::Elements(calls.len() as u64));
    group.bench_function("rt_tracer_dispatch_4k_calls", |b| {
        b.iter(|| {
            let mut tracer = Ros2RtTracer::new().expect("programs verify");
            tracer.start();
            for call in &calls {
                tracer.on_function(black_box(call));
            }
            black_box(tracer.drain_segment().len())
        })
    });

    let events: Vec<SchedEvent> = (0..10_000u64)
        .map(|i| {
            SchedEvent::switch(
                Nanos::from_micros(i),
                Cpu::new((i % 12) as u16),
                Pid::new((i % 64) as u32),
                Priority::NORMAL,
                ThreadState::Runnable,
                Pid::new(((i + 1) % 64) as u32),
                Priority::NORMAL,
            )
        })
        .collect();
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("kernel_tracer_filter_10k_events", |b| {
        b.iter(|| {
            let filter = map::pid_filter_map();
            for p in 0..8u32 {
                filter.update(Pid::new(p), ()).expect("room");
            }
            let mut tracer = KernelTracer::new(Some(filter)).expect("program verifies");
            tracer.start();
            for ev in &events {
                tracer.on_sched_event(black_box(ev));
            }
            black_box(tracer.exported())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rt_dispatch);
criterion_main!(benches);
