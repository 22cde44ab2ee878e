//! Shared record/replay plumbing for the experiment binaries.
//!
//! The `record` binary traces a seeded world into a binary segment file;
//! the `replay` binary feeds such a file back through a
//! [`SynthesisSession`]. Both sides construct
//! the world the same way from the same parameters, carried inside the
//! file as its meta frame ([`RecordMeta`]) — so a replayed file knows how
//! to rebuild its own live twin for equivalence checking.

use rtms_core::{Dag, SynthesisSession};
use rtms_ros2::{QosSpec, Ros2World, WorldBuilder};
use rtms_trace::{CodecError, Nanos, SegmentFileStats, SegmentReader, SegmentWriter};
use rtms_workloads::{generate_app, GeneratorConfig, WorldProfile};
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// The parameters a recording was produced with, stored as the segment
/// file's meta frame (as JSON). Enough to rebuild the identical world:
/// the bench worlds are fully determined by `(apps, seed, profile)` and
/// the run by `(secs, segment_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Simulated seconds recorded.
    pub secs: u64,
    /// Number of generated applications co-deployed.
    pub apps: u64,
    /// World seed.
    pub seed: u64,
    /// Segment length in simulated milliseconds.
    pub segment_ms: u64,
    /// World construction recipe. Omitted from the JSON when standard,
    /// so recordings of standard worlds keep the exact meta bytes older
    /// readers pinned — and frames written before profiles existed parse
    /// as standard.
    pub profile: WorldProfile,
}

// Manual impls (the vendored serde derive has no `default` /
// `skip_serializing_if`): the profile field is optional on the wire.
impl Serialize for RecordMeta {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("secs".to_string(), self.secs.to_value()),
            ("apps".to_string(), self.apps.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("segment_ms".to_string(), self.segment_ms.to_value()),
        ];
        if !self.profile.is_standard() {
            fields.push(("profile".to_string(), self.profile.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for RecordMeta {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = serde::expect_object(v)?;
        Ok(RecordMeta {
            secs: u64::from_value(serde::expect_field(obj, "secs")?)?,
            apps: u64::from_value(serde::expect_field(obj, "apps")?)?,
            seed: u64::from_value(serde::expect_field(obj, "seed")?)?,
            segment_ms: u64::from_value(serde::expect_field(obj, "segment_ms")?)?,
            profile: match obj.iter().find(|(k, _)| k == "profile") {
                Some((_, v)) => WorldProfile::from_value(v)?,
                None => WorldProfile::Standard,
            },
        })
    }
}

impl RecordMeta {
    /// Serializes to the JSON stored in the meta frame.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("meta serializes")
    }

    /// Parses a meta frame written by [`RecordMeta::to_json`].
    pub fn from_json(json: &str) -> Option<RecordMeta> {
        serde_json::from_str(json).ok()
    }
}

/// The standard bench world: `apps` generated applications on a 4-CPU
/// machine, fully determined by `(apps, seed)`. Shared by `record` and
/// `replay` so a recorded file's live twin is exactly the world the
/// recording came from.
pub fn bench_world(apps: u64, seed: u64) -> Ros2World {
    bench_world_profiled(apps, seed, WorldProfile::Standard)
}

/// [`bench_world`] under a scenario [`WorldProfile`]: multi-threaded
/// executors, degraded QoS, or bursty publishers. The standard profile is
/// exactly the classic bench world.
pub fn bench_world_profiled(apps: u64, seed: u64, profile: WorldProfile) -> Ros2World {
    let config = match profile {
        WorldProfile::Standard | WorldProfile::Lossy => GeneratorConfig::default(),
        WorldProfile::MultiThreaded => GeneratorConfig::multi_threaded(),
        WorldProfile::Bursty => GeneratorConfig::bursty(),
    };
    let mut b = WorldBuilder::new(4).seed(seed);
    if profile == WorldProfile::Lossy {
        b = b.qos(QosSpec {
            drop_prob: 0.15,
            reorder_bound: 2,
            jitter: Nanos::from_micros(200),
        });
    }
    for i in 0..apps {
        b = b.app(generate_app(seed.wrapping_add(1000 + i), &config));
    }
    b.build().expect("generated apps deploy")
}

/// Records the world described by `meta` into a segment file at `path`.
///
/// # Errors
///
/// Returns the first encode or I/O error.
pub fn record_to_file(path: impl AsRef<Path>, meta: RecordMeta) -> Result<SegmentFileStats, CodecError> {
    let mut world = bench_world_profiled(meta.apps, meta.seed, meta.profile);
    let mut writer = SegmentWriter::create(path)?;
    writer.set_meta(&meta.to_json())?;
    world.record_segments(
        &mut writer,
        Nanos::from_secs(meta.secs),
        Nanos::from_millis(meta.segment_ms),
    )?;
    let (_, stats) = writer.finish()?;
    Ok(stats)
}

/// What a replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The synthesized model.
    pub model: Dag,
    /// Segments replayed.
    pub segments: usize,
    /// Events replayed.
    pub events: u64,
    /// The file's recording parameters, if its meta frame parses.
    pub meta: Option<RecordMeta>,
}

/// Replays a recorded segment file into a fresh [`SynthesisSession`] and
/// returns the synthesized model.
///
/// # Errors
///
/// Returns the first decode or I/O error.
pub fn replay_path(path: impl AsRef<Path>) -> Result<ReplayOutcome, CodecError> {
    let mut reader = SegmentReader::open(path)?;
    let mut session = SynthesisSession::new();
    let segments = session.feed_reader(&mut reader)?;
    Ok(ReplayOutcome {
        model: session.model(),
        segments,
        events: session.events_fed(),
        meta: reader.meta().and_then(RecordMeta::from_json),
    })
}

/// Synthesizes the model of `meta`'s world live (trace and feed, no
/// file), for byte-identical comparison against a replayed model.
pub fn live_model(meta: RecordMeta) -> Dag {
    let mut world = bench_world_profiled(meta.apps, meta.seed, meta.profile);
    let mut session = SynthesisSession::new();
    world.trace_segments(
        Nanos::from_secs(meta.secs),
        Nanos::from_millis(meta.segment_ms),
        |segment| session.feed_segment(segment),
    );
    session.model()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_through_json() {
        let meta =
            RecordMeta { secs: 2, apps: 2, seed: 7, segment_ms: 250, profile: WorldProfile::Standard };
        assert_eq!(RecordMeta::from_json(&meta.to_json()), Some(meta));
        assert_eq!(RecordMeta::from_json("not json"), None);
    }

    #[test]
    fn standard_meta_bytes_and_legacy_frames_are_stable() {
        // A standard recording's meta frame must not mention the profile
        // at all (older files are byte-identical), and frames written
        // before profiles existed must parse as standard.
        let meta =
            RecordMeta { secs: 1, apps: 1, seed: 3, segment_ms: 250, profile: WorldProfile::Standard };
        assert!(!meta.to_json().contains("profile"), "{}", meta.to_json());
        let legacy = r#"{"secs":1,"apps":1,"seed":3,"segment_ms":250}"#;
        assert_eq!(RecordMeta::from_json(legacy), Some(meta));

        let mt = RecordMeta { profile: WorldProfile::MultiThreaded, ..meta };
        assert!(mt.to_json().contains("multi-threaded"), "{}", mt.to_json());
        assert_eq!(RecordMeta::from_json(&mt.to_json()), Some(mt));
    }

    #[test]
    fn profiled_worlds_record_and_replay_byte_identically() {
        let dir = std::env::temp_dir()
            .join(format!("rtms-bench-profiled-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (i, profile) in
            [WorldProfile::MultiThreaded, WorldProfile::Lossy, WorldProfile::Bursty]
                .into_iter()
                .enumerate()
        {
            let path = dir.join(format!("p{i}.seg"));
            let meta = RecordMeta { secs: 1, apps: 1, seed: 41 + i as u64, segment_ms: 250, profile };
            record_to_file(&path, meta).expect("record");
            let outcome = replay_path(&path).expect("replay");
            assert_eq!(outcome.meta, Some(meta));
            assert_eq!(
                serde_json::to_string(&outcome.model).expect("ser"),
                serde_json::to_string(&live_model(meta)).expect("ser"),
                "{profile:?}: replayed model must be byte-identical to the live one"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_then_replay_matches_live() {
        let dir = std::env::temp_dir()
            .join(format!("rtms-bench-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.seg");
        let meta =
            RecordMeta { secs: 1, apps: 1, seed: 3, segment_ms: 250, profile: WorldProfile::Standard };
        let stats = record_to_file(&path, meta).expect("record");
        assert!(stats.segments > 0);
        assert!(stats.events > 0);

        let outcome = replay_path(&path).expect("replay");
        assert_eq!(outcome.meta, Some(meta));
        assert_eq!(outcome.events, stats.events);
        assert_eq!(outcome.segments, stats.segments);
        let live = live_model(meta);
        assert_eq!(
            serde_json::to_string(&outcome.model).expect("ser"),
            serde_json::to_string(&live).expect("ser"),
            "replayed model must be byte-identical to the live one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
