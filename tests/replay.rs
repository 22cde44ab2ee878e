//! Replay regression tests: the committed golden corpus and large-scale
//! record→replay equivalence.
//!
//! The corpus under `tests/corpus/` pins the binary trace format *and*
//! the synthesis semantics at once: each committed `.seg` file must keep
//! decoding byte-for-byte, and replaying it must keep producing the
//! model digest committed in `MANIFEST.json`. Regenerate with
//! `cargo run --release -p rtms-bench --bin record -- corpus=tests/corpus`
//! only when intentionally changing the format or the synthesis
//! semantics (see `docs/TRACE_FORMAT.md`).

use rtms_bench::{bench_world_profiled, live_model, replay_path, RecordMeta};
use rtms_core::SynthesisSession;
use rtms_trace::{CodecError, Nanos, SegmentReader, SegmentWriter};
use rtms_workloads::{WorldProfile, CORPUS_CASES};
use serde::Deserialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Mirror of the manifest entries `record corpus=` writes.
struct ManifestEntry {
    name: String,
    file: String,
    secs: u64,
    apps: u64,
    seed: u64,
    segment_ms: u64,
    profile: WorldProfile,
    segments: usize,
    events: u64,
    bytes: u64,
    model_digest: String,
}

// Manual impl: `profile` is omitted from the manifest for standard
// worlds, and the vendored serde derive has no `default` attribute.
impl Deserialize for ManifestEntry {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = serde::expect_object(v)?;
        Ok(ManifestEntry {
            name: String::from_value(serde::expect_field(obj, "name")?)?,
            file: String::from_value(serde::expect_field(obj, "file")?)?,
            secs: u64::from_value(serde::expect_field(obj, "secs")?)?,
            apps: u64::from_value(serde::expect_field(obj, "apps")?)?,
            seed: u64::from_value(serde::expect_field(obj, "seed")?)?,
            segment_ms: u64::from_value(serde::expect_field(obj, "segment_ms")?)?,
            profile: match obj.iter().find(|(k, _)| k == "profile") {
                Some((_, v)) => WorldProfile::from_value(v)?,
                None => WorldProfile::Standard,
            },
            segments: usize::from_value(serde::expect_field(obj, "segments")?)?,
            events: u64::from_value(serde::expect_field(obj, "events")?)?,
            bytes: u64::from_value(serde::expect_field(obj, "bytes")?)?,
            model_digest: String::from_value(serde::expect_field(obj, "model_digest")?)?,
        })
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn load_manifest() -> Vec<ManifestEntry> {
    let path = corpus_dir().join("MANIFEST.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e} (is the corpus committed?)", path.display()));
    serde_json::from_str(&json).expect("MANIFEST.json parses")
}

/// Every committed corpus file still decodes, still carries its recorded
/// parameters, and still replays to the committed model digest. This is
/// the backward-compatibility pin: a codec change that breaks years-old
/// files, or a synthesis change that silently alters models, fails here.
#[test]
fn corpus_replays_to_committed_digests() {
    let manifest = load_manifest();
    assert_eq!(
        manifest.len(),
        CORPUS_CASES.len(),
        "manifest out of sync with CORPUS_CASES; regenerate the corpus"
    );
    for entry in &manifest {
        let case = CORPUS_CASES
            .iter()
            .find(|c| c.name == entry.name)
            .unwrap_or_else(|| panic!("manifest case {:?} not in CORPUS_CASES", entry.name));
        let path = corpus_dir().join(&entry.file);
        let on_disk = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("stat {}: {e}", path.display()))
            .len();
        assert_eq!(on_disk, entry.bytes, "{}: file size drifted", entry.name);

        let outcome =
            replay_path(&path).unwrap_or_else(|e| panic!("replaying {}: {e}", entry.name));
        assert_eq!(outcome.events, entry.events, "{}: event count drifted", entry.name);
        assert_eq!(outcome.segments, entry.segments, "{}: segment count drifted", entry.name);
        assert_eq!(
            outcome.meta,
            Some(RecordMeta {
                secs: case.secs,
                apps: case.apps,
                seed: case.seed,
                segment_ms: case.segment_ms,
                profile: case.profile,
            }),
            "{}: meta frame drifted",
            entry.name
        );
        assert_eq!(
            format!("{:016x}", outcome.model.digest()),
            entry.model_digest,
            "{}: replayed model digest drifted from the committed one",
            entry.name
        );
    }
}

/// Today's live synthesis of each corpus world still produces the
/// committed digest — the committed file, the committed digest, and the
/// current simulator+synthesizer all agree.
#[test]
fn corpus_digests_match_live_synthesis() {
    for entry in load_manifest() {
        let meta = RecordMeta {
            secs: entry.secs,
            apps: entry.apps,
            seed: entry.seed,
            segment_ms: entry.segment_ms,
            profile: entry.profile,
        };
        let live = live_model(meta);
        assert_eq!(
            format!("{:016x}", live.digest()),
            entry.model_digest,
            "{}: live synthesis no longer matches the committed digest",
            entry.name
        );
    }
}

/// Record→replay equivalence across a wide sweep of generated apps under
/// every scenario profile — multi-threaded executors interleave callback
/// instances across workers, lossy QoS drops and reorders samples, bursty
/// publishers back the executor up — and in every interleaving the
/// replayed model is byte-identical (as canonical JSON) to the live one.
/// Debug builds sweep a subset to keep `cargo test` quick; release builds
/// (and the CI replay job) cover the full sweep.
#[test]
fn generated_apps_replay_byte_identical() {
    let seeds = if cfg!(debug_assertions) { 12u64 } else { 100 };
    let profiles = [
        WorldProfile::Standard,
        WorldProfile::MultiThreaded,
        WorldProfile::Lossy,
        WorldProfile::Bursty,
    ];
    for seed in 0..seeds {
        // Rotate profiles across the seed sweep (every profile still gets
        // dozens of seeds in release) instead of multiplying the runtime
        // by four.
        let profile = profiles[(seed % profiles.len() as u64) as usize];
        let meta = RecordMeta { secs: 1, apps: 1, seed, segment_ms: 250, profile };

        let mut world = bench_world_profiled(meta.apps, meta.seed, meta.profile);
        let mut writer = SegmentWriter::new(Vec::new()).expect("header");
        writer.set_meta(&meta.to_json()).expect("meta");
        world
            .record_segments(
                &mut writer,
                Nanos::from_secs(meta.secs),
                Nanos::from_millis(meta.segment_ms),
            )
            .expect("record");
        let (file, stats) = writer.finish().expect("finish");
        assert!(stats.events > 0, "seed {seed} {profile:?}: empty recording");

        let mut reader = SegmentReader::new(file.as_slice()).expect("header");
        let mut session = SynthesisSession::new();
        session.feed_reader(&mut reader).expect("replay");
        let replayed = session.model();

        let live = live_model(meta);
        assert_eq!(
            serde_json::to_string(&replayed).expect("ser"),
            serde_json::to_string(&live).expect("ser"),
            "seed {seed} {profile:?}: replayed model is not byte-identical to the live model"
        );
    }
}

/// Replays `bytes` through the fused walk (`SynthesisSession::feed_reader`)
/// and returns the model digest as the manifest spells it.
fn replay_digest(bytes: &[u8]) -> Result<String, CodecError> {
    let mut reader = SegmentReader::new(bytes)?;
    let mut session = SynthesisSession::new();
    session.feed_reader(&mut reader)?;
    Ok(format!("{:016x}", session.model().digest()))
}

/// The walker entry is as robust as the decoder: every truncation point
/// and every single-bit flip of a corpus file, fed through
/// `feed_reader`, fails with a typed `CodecError` or replays to the
/// committed digest — never a panic, never a silently different model.
#[test]
fn corrupt_corpus_bytes_fail_typed_or_replay_to_the_digest() {
    let entry = load_manifest().into_iter().find(|e| e.name == "app-f").expect("app-f case");
    let file = std::fs::read(corpus_dir().join(&entry.file)).expect("read corpus file");
    assert_eq!(file.len() as u64, entry.bytes);
    assert_eq!(replay_digest(&file).expect("intact file"), entry.model_digest);

    // The sequential reader never consumes the 16-byte trailer, so only
    // cuts inside it still replay.
    let trailer_start = file.len() - 16;
    for cut in 0..file.len() {
        match replay_digest(&file[..cut]) {
            Ok(digest) => {
                assert!(cut >= trailer_start, "a {cut}-byte prefix replayed as complete");
                assert_eq!(digest, entry.model_digest, "a {cut}-byte prefix");
            }
            Err(_) => assert!(cut < trailer_start, "a {cut}-byte prefix failed: trailer only"),
        }
    }

    let mut detected = 0usize;
    for byte in 0..file.len() {
        for bit in 0..8 {
            let mut mutated = file.clone();
            mutated[byte] ^= 1 << bit;
            match replay_digest(&mutated) {
                Err(_) => detected += 1,
                Ok(digest) => assert_eq!(
                    digest, entry.model_digest,
                    "flipping bit {bit} of byte {byte} silently changed the model"
                ),
            }
        }
    }
    // Every bit between the 12-byte header and the trailer is framed and
    // checksummed, so every flip there is detected.
    assert!(detected >= (trailer_start - 12) * 8, "only {detected} flips detected");
}

/// Replay keeps topic names shared: every undecorated topic name in the
/// replayed callback records is the reader's dictionary allocation
/// itself, not a copy.
#[test]
fn replayed_plain_topic_names_are_the_dictionary_allocations() {
    for entry in load_manifest() {
        let mut reader =
            SegmentReader::open(corpus_dir().join(&entry.file)).expect("open corpus file");
        let mut session = SynthesisSession::new();
        session.feed_reader(&mut reader).expect("replay");
        let mut plain = 0usize;
        for (_, list) in session.callback_lists() {
            for rec in list.entries() {
                for name in rec.in_topic.iter().chain(&rec.out_topics) {
                    if name.contains('#') {
                        continue; // decorated: built by synthesis, not read
                    }
                    let dict = reader.topics().iter().find(|d| *d == name);
                    assert!(
                        dict.is_some_and(|d| Arc::ptr_eq(d, name)),
                        "{}: topic {name:?} does not alias the dictionary entry",
                        entry.name
                    );
                    plain += 1;
                }
            }
        }
        assert!(plain > 0, "{}: no plain topic names to check", entry.name);
    }
}
