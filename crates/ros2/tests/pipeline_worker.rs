//! The pipelined segment path on its persistent worker: one worker per
//! calling thread across many calls, concurrent callers, panics in the
//! consumer, and a pipelined call nested inside another's consumer.

use rtms_core::SynthesisSession;
use rtms_ros2::{AppBuilder, Ros2World, WorkModel, WorldBuilder};
use rtms_trace::{Nanos, TraceSegment};
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::thread::ThreadId;

/// Two callers of one service plus a timer → subscriber chain: every
/// decoration path of the walker shows up in the model.
fn world(seed: u64) -> Ros2World {
    let mut app = AppBuilder::new("rpc");
    let a = app.node("caller_a");
    app.timer(a, "TA", Nanos::from_millis(10), WorkModel::constant_millis(1.0))
        .calls("CLA")
        .publishes("/chatter");
    app.client(a, "CLA", "/srv", WorkModel::constant_millis(0.5));
    let b = app.node("caller_b");
    app.timer(b, "TB", Nanos::from_millis(15), WorkModel::constant_millis(1.0)).calls("CLB");
    app.client(b, "CLB", "/srv", WorkModel::constant_millis(0.5));
    let s = app.node("server");
    app.service(s, "SV", "/srv", WorkModel::constant_millis(2.0));
    app.subscriber(s, "on_chatter", "/chatter", WorkModel::constant_millis(0.5));
    WorldBuilder::new(2).seed(seed).app(app.build().expect("valid")).build().expect("world")
}

const TOTAL: Nanos = Nanos::from_millis(300);
const SEGMENT: Nanos = Nanos::from_millis(40);

/// A segment consumer, as the tracing paths take it.
type OnSegment<'a> = dyn FnMut(&mut TraceSegment) + Send + 'a;

/// The model digest of `world(seed)` traced by `path`.
fn digest(seed: u64, path: fn(&mut Ros2World, &mut OnSegment<'_>)) -> u64 {
    let mut session = SynthesisSession::new();
    path(&mut world(seed), &mut |segment| session.feed_segment(segment));
    session.model().digest()
}

fn sequential(w: &mut Ros2World, f: &mut OnSegment<'_>) {
    w.trace_segments_sequential(TOTAL, SEGMENT, f);
}

fn pipelined(w: &mut Ros2World, f: &mut OnSegment<'_>) {
    w.trace_segments_pipelined(TOTAL, SEGMENT, f);
}

/// The thread that ran `on_segment` for one short pipelined call.
fn consumer_of(w: &mut Ros2World) -> ThreadId {
    let mut id = None;
    w.trace_segments_pipelined(Nanos::from_millis(2), Nanos::from_millis(1), |_| {
        id = Some(std::thread::current().id());
    });
    id.expect("a segment arrived")
}

#[test]
fn back_to_back_calls_on_one_thread_spawn_one_worker() {
    std::thread::spawn(|| {
        let mut w = world(1);
        let consumers: HashSet<ThreadId> = (0..1_000).map(|_| consumer_of(&mut w)).collect();
        assert_eq!(consumers.len(), 1, "1,000 calls spawned {} workers", consumers.len());
        assert!(!consumers.contains(&std::thread::current().id()));
    })
    .join()
    .expect("calling thread");
}

#[test]
fn concurrent_callers_match_the_sequential_digest() {
    let expected: Vec<u64> = (0..4).map(|seed| digest(seed, sequential)).collect();
    let got: Vec<Vec<u64>> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..4)
            .map(|seed| s.spawn(move || (0..5).map(|_| digest(seed, pipelined)).collect()))
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller")).collect()
    });
    for (seed, digests) in got.iter().enumerate() {
        assert!(digests.iter().all(|&d| d == expected[seed]), "seed {seed}: {digests:x?}");
    }
}

#[test]
fn consumer_panic_resumes_on_the_caller_and_the_next_call_works() {
    std::thread::spawn(|| {
        let mut w = world(2);
        let worker = consumer_of(&mut w);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            w.trace_segments_pipelined(TOTAL, SEGMENT, |segment| {
                assert!(segment.index() < 2, "consumer gave up at segment {}", segment.index());
            });
        }));
        let payload = caught.expect_err("the consumer's panic resumed on the caller");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("gave up at segment 2"), "{message}");
        assert_eq!(consumer_of(&mut w), worker, "the same worker serves the next call");
        assert_eq!(digest(3, pipelined), digest(3, sequential));
    })
    .join()
    .expect("calling thread");
}

#[test]
fn nested_pipelined_call_inside_on_segment_completes() {
    let expected = digest(4, sequential);
    let mut nested = Vec::new();
    let mut outer = world(5);
    outer.trace_segments_pipelined(TOTAL, SEGMENT, |segment| {
        if segment.index() < 2 {
            nested.push(digest(4, pipelined));
        }
    });
    assert_eq!(nested, vec![expected; 2]);
}
