//! Dependency-free utilities shared by the hot paths of the workspace.
//!
//! Two things live here, both in service of the "as fast as the hardware
//! allows" goal (see `docs/PERFORMANCE.md`):
//!
//! - [`fx`] — a vendored-style FxHash implementation and the
//!   [`FxHashMap`]/[`FxHashSet`] aliases built on it. The per-event maps of
//!   the synthesis pipeline key on small integers ([`u64`] source
//!   timestamps, PIDs); SipHash's DoS resistance buys nothing there and
//!   costs a measurable fraction of the per-event budget.
//! - [`arcstr`] — building `Arc<str>` values by concatenation without the
//!   intermediate `String` that `format!` materializes on every call.
//! - [`varint`] — LEB128 variable-length integers (plus the ZigZag
//!   mapping), the packing primitive of the binary trace codec in
//!   `rtms_trace::codec`.
//! - [`fnv`] — FNV-1a 64, the *stable* content hash the replay corpus
//!   pins model digests with (FxHash is free to change; a committed
//!   digest is not).
//! - [`spsc`] — a hand-rolled lock-free single-producer/single-consumer
//!   ring (cache-line-padded atomic head/tail over a power-of-two slot
//!   array) that carries trace-segment slabs between the collector and
//!   synthesis threads of the pipelined path.
//! - [`mpsc`] — sharded multi-producer lanes built from one [`spsc`]
//!   ring per producer plus a shared park/unpark flag; the ingress
//!   queue of a fleet shard worker (`rtms-fleet`).
//! - [`slab`] — a tiny object pool with a lifetime-allocation counter,
//!   the producer-side front of the segment-slab freelist.
//! - [`worker`] — one persistent helper thread per calling thread, which
//!   runs the consumer half of the pipelined trace path so that a call
//!   does not pay a thread spawn and join.
//! - [`cores`] — the machine's core count, read once per process.
//!
//! Like the `vendor/` crates, everything is hand-rolled against the
//! published algorithm (FxHash is the Firefox/rustc hash, LEB128 is the
//! DWARF/protobuf varint) rather than pulled from the registry — this
//! workspace builds offline.

#![warn(missing_docs)]

pub mod arcstr;
pub mod fnv;
pub mod fx;
pub mod mpsc;
pub mod slab;
pub mod spsc;
pub mod varint;
pub mod worker;

pub use arcstr::{concat2, concat2_fmt, concat3};
pub use fnv::fnv1a_64;
pub use mpsc::{lanes, LaneReceiver, LaneSender};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use slab::SlabPool;
pub use spsc::{ring, Consumer, Producer, PushError};

/// The number of cores this process may run on, read once and cached.
///
/// `std::thread::available_parallelism` re-reads the cgroup quota and the
/// affinity mask on every call, which costs tens of microseconds. The
/// callers here only choose between a sequential and an overlapped path,
/// so the first answer stands for the life of the process. An error reads
/// as one core.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}
