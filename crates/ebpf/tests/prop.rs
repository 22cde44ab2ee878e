//! Property-based tests of the eBPF substrate: buffer accounting, map
//! capacity, and tracer dispatch invariants.

use proptest::prelude::*;
use rtms_ebpf::{map, BpfMap, FunctionArgs, FunctionCall, KernelTracer, PerfBuffer, Ros2RtTracer, SrcTsRef};
use rtms_trace::{
    CallbackId, CallbackKind, Cpu, Nanos, Pid, Priority, RosEvent, RosPayload, SchedEvent,
    SourceTimestamp, ThreadState, Topic,
};

fn small_event() -> RosEvent {
    RosEvent::new(Nanos::ZERO, Pid::new(1), RosPayload::SyncSubscribe)
}

proptest! {
    /// pushed + dropped always equals the number of offered records, and
    /// the buffer never holds more bytes than its capacity.
    #[test]
    fn perf_buffer_accounting(capacity_records in 1usize..64, offered in 0usize..200) {
        let one = small_event().encoded_size();
        let mut buf = PerfBuffer::new(capacity_records * one);
        let mut accepted = 0u64;
        for _ in 0..offered {
            if buf.push(small_event()) {
                accepted += 1;
            }
        }
        prop_assert_eq!(buf.pushed(), accepted);
        prop_assert_eq!(buf.pushed() + buf.dropped(), offered as u64);
        prop_assert!(buf.peak_bytes() <= buf.capacity_bytes());
        prop_assert_eq!(buf.len() as u64, accepted);
        let drained = buf.drain();
        prop_assert_eq!(drained.len() as u64, accepted);
        prop_assert!(buf.is_empty());
    }

    /// A map never exceeds its capacity and lookup reflects the last
    /// update for any interleaving of operations.
    #[test]
    fn bpf_map_capacity_and_consistency(
        ops in proptest::collection::vec((0u32..16, 0u64..100, any::<bool>()), 0..200),
        cap in 1usize..8,
    ) {
        let m: BpfMap<u32, u64> = BpfMap::new("m", cap);
        let mut model = std::collections::HashMap::new();
        for (key, value, is_insert) in ops {
            if is_insert {
                match m.update(key, value) {
                    Ok(()) => { model.insert(key, value); }
                    Err(_) => {
                        prop_assert!(model.len() >= cap && !model.contains_key(&key));
                    }
                }
            } else {
                prop_assert_eq!(m.delete(&key), model.remove(&key));
            }
            prop_assert!(m.len() <= cap);
        }
        for (k, v) in &model {
            prop_assert_eq!(m.lookup(k), Some(*v));
        }
    }

    /// For any interleaving of per-thread take entry/exit pairs, the RT
    /// tracer emits exactly one event per completed pair, with the exit
    /// value.
    #[test]
    fn rt_tracer_take_pairing(pids in proptest::collection::vec(1u32..6, 1..40)) {
        let mut tracer = Ros2RtTracer::new().expect("programs verify");
        tracer.start();
        let mut open: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut completed = 0usize;
        let mut addr = 0x1000u64;
        for pid in pids {
            match open.remove(&pid) {
                None => {
                    addr += 0x10;
                    open.insert(pid, addr);
                    tracer.on_function(&FunctionCall::entry(
                        Nanos::ZERO,
                        Pid::new(pid),
                        FunctionArgs::RmwTakeInt {
                            subscription: CallbackId::new(u64::from(pid)),
                            topic: &Topic::plain("/t"),
                            src_ts: SrcTsRef::pending(addr),
                        },
                    ));
                }
                Some(a) => {
                    completed += 1;
                    tracer.on_function(&FunctionCall::exit(
                        Nanos::ZERO,
                        Pid::new(pid),
                        FunctionArgs::RmwTakeInt {
                            subscription: CallbackId::new(u64::from(pid)),
                            topic: &Topic::plain("/t"),
                            src_ts: SrcTsRef::resolved(a, SourceTimestamp::new(a)),
                        },
                    ));
                }
            }
        }
        let events = tracer.drain_segment();
        prop_assert_eq!(events.len(), completed);
        for e in events {
            match e.payload {
                RosPayload::TakeData { src_ts, .. } => prop_assert!(src_ts.get() >= 0x1000),
                other => prop_assert!(false, "unexpected payload {:?}", other),
            }
        }
    }

    /// The kernel tracer's export set is exactly the filter predicate
    /// applied to the input stream.
    #[test]
    fn kernel_filter_is_exact(
        switches in proptest::collection::vec((0u32..32, 0u32..32), 0..200),
        traced in proptest::collection::vec(0u32..32, 0..8),
    ) {
        let filter = map::pid_filter_map();
        for &p in &traced {
            filter.update(Pid::new(p), ()).expect("room");
        }
        let mut tracer = KernelTracer::new(Some(filter)).expect("program verifies");
        tracer.start();
        let mut expected = 0u64;
        for (prev, next) in switches {
            if traced.contains(&prev) || traced.contains(&next) {
                expected += 1;
            }
            tracer.on_sched_event(&SchedEvent::switch(
                Nanos::ZERO,
                Cpu::new(0),
                Pid::new(prev),
                Priority::NORMAL,
                ThreadState::Runnable,
                Pid::new(next),
                Priority::NORMAL,
            ));
        }
        prop_assert_eq!(tracer.exported(), expected);
    }

    /// Callback start/end dispatch is kind-faithful for every kind.
    #[test]
    fn execute_probes_preserve_kind(kind_sel in 0usize..4, entries in 1usize..20) {
        let (args, kind) = match kind_sel {
            0 => (FunctionArgs::ExecuteTimer, CallbackKind::Timer),
            1 => (FunctionArgs::ExecuteSubscription, CallbackKind::Subscriber),
            2 => (FunctionArgs::ExecuteService, CallbackKind::Service),
            _ => (FunctionArgs::ExecuteClient, CallbackKind::Client),
        };
        let mut tracer = Ros2RtTracer::new().expect("programs verify");
        tracer.start();
        for i in 0..entries {
            tracer.on_function(&FunctionCall::entry(
                Nanos::from_nanos(i as u64),
                Pid::new(1),
                args,
            ));
            tracer.on_function(&FunctionCall::exit(
                Nanos::from_nanos(i as u64 + 1),
                Pid::new(1),
                args,
            ));
        }
        let events = tracer.drain_segment();
        prop_assert_eq!(events.len(), entries * 2);
        for pair in events.chunks(2) {
            prop_assert_eq!(&pair[0].payload, &RosPayload::CallbackStart { kind });
            prop_assert_eq!(&pair[1].payload, &RosPayload::CallbackEnd { kind });
        }
    }
}
