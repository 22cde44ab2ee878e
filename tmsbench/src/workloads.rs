//! The untraced (end-to-end) side of each workload: set-up, then a
//! closed measurement loop that drives the library exactly as a user
//! would, with no spans inside the timed work.

use crate::inputs::{Inputs, WorldSpec};
use crate::Workload;
use rtms_core::{Dag, SynthesisSession};
use rtms_fleet::{per_tenant_recall, TenantDirectory};
use rtms_monitor::{Alert, Baseline, Monitor, MonitorConfig};
use rtms_trace::{SegmentReader, SegmentWriter, TraceSegment};
use rtms_workloads::monitor_run;
use std::time::{Duration, Instant};

/// A recorded run, kept in memory: the encoded segment file and the
/// digest of the live model it was recorded from.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The encoded segment file.
    pub file: Vec<u8>,
    /// FNV-1a digest of the model synthesized live during recording.
    pub digest: u64,
    /// Events in the file.
    pub events: u64,
    /// Segments in the file.
    pub segments: u64,
}

/// What set-up leaves for the measurement loop.
pub struct Prepared {
    /// Reference model digest per `live` world: its sequential synthesis.
    pub digests: Vec<u64>,
    /// Reference alerts per world (`monitor`: the library's own
    /// `monitor_run` harness).
    pub alerts: Vec<Vec<(usize, Alert)>>,
    /// In-memory recordings the `replay` loop replays.
    pub recordings: Vec<Recording>,
    /// Tenant directories of the fleet configurations (`fleet` only).
    pub directories: Vec<TenantDirectory>,
    /// Correctness checks made during set-up.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

/// Result of a measurement loop.
#[derive(Debug, Default)]
pub struct Measured {
    /// Trace events carried to a final result.
    pub events: u64,
    /// Wall time of the timed jobs (world construction excluded).
    pub busy: Duration,
    /// Verdict latencies in microseconds (see README.md per workload).
    pub verdicts_us: Vec<f64>,
    /// Operations (segments) attempted.
    pub attempted: u64,
    /// Operations that failed: decode errors, digest mismatches, missed
    /// faults, alerts on healthy tenants.
    pub failed: u64,
    /// Jobs completed.
    pub jobs: u64,
}

/// Records `spec` once: synthesizes it live through the sequential
/// pipeline while encoding every segment. Returns the recording and the
/// live model's digest.
pub fn record(spec: &WorldSpec) -> Recording {
    let mut world = spec.build();
    let mut session = SynthesisSession::new();
    let mut writer = SegmentWriter::new(Vec::new()).expect("in-memory header");
    let mut write_ok = true;
    world.trace_segments_sequential(spec.total, spec.segment, |segment| {
        session.feed_segment(segment);
        write_ok &= writer.write_segment(segment).is_ok();
    });
    assert!(write_ok, "encoding into memory cannot fail");
    let (file, stats) = writer.finish().expect("in-memory finish");
    Recording {
        file,
        digest: session.model().digest(),
        events: stats.events,
        segments: stats.segments as u64,
    }
}

/// Replays a recording into a fresh session; `None` on a decode error.
pub fn replay(file: &[u8]) -> Option<Dag> {
    let mut reader = SegmentReader::new(file).ok()?;
    let mut session = SynthesisSession::new();
    session.feed_reader(&mut reader).ok()?;
    Some(session.model())
}

/// Set-up of `workload` over generated `inputs`: the references the
/// measurement loop is checked against. `live` and `replay` record every
/// world and check that the recording replays to the live model;
/// `monitor` runs the library's own `monitor_run` harness on every
/// scenario; `fleet` builds each configuration's tenant directory.
pub fn setup(workload: Workload, inputs: &Inputs) -> Prepared {
    let mut prepared = Prepared {
        digests: Vec::new(),
        alerts: Vec::new(),
        recordings: Vec::new(),
        directories: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    match workload {
        Workload::Live | Workload::Replay => {
            for spec in &inputs.worlds {
                let rec = record(spec);
                prepared.attempted += rec.segments;
                if replay(&rec.file).map(|m| m.digest()) != Some(rec.digest) {
                    prepared.failed += rec.segments;
                }
                prepared.digests.push(rec.digest);
                if workload == Workload::Replay {
                    prepared.recordings.push(rec);
                }
            }
        }
        Workload::Monitor => {
            for spec in &inputs.worlds {
                let mut world = spec.build();
                let (_, alerts) = monitor_run(
                    &mut world,
                    spec.segment,
                    spec.baseline_segments(),
                    spec.segments(),
                );
                prepared.attempted += spec.segments() as u64;
                prepared.failed += (spec.truth.len() - detected_faults(spec, &alerts)) as u64;
                prepared.alerts.push(alerts);
            }
        }
        Workload::Fleet => {
            prepared.directories = inputs.fleets.iter().map(TenantDirectory::new).collect();
        }
    }
    prepared
}

/// Runs jobs round-robin over the inputs until `seconds` of wall time
/// have passed (at least one job).
pub fn measure(workload: Workload, inputs: &Inputs, prepared: &Prepared, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let jobs = match workload {
        Workload::Fleet => inputs.fleets.len(),
        Workload::Replay => prepared.recordings.len(),
        Workload::Live | Workload::Monitor => inputs.worlds.len(),
    };
    let start = Instant::now();
    while m.jobs == 0 || start.elapsed().as_secs_f64() < seconds {
        let i = m.jobs as usize % jobs;
        match workload {
            Workload::Live => live_job(&inputs.worlds[i], prepared.digests[i], &mut m),
            Workload::Replay => replay_job(&prepared.recordings[i], &mut m),
            Workload::Monitor => monitor_job(
                &inputs.worlds[i],
                &inputs.monitor,
                &prepared.alerts[i],
                &mut m,
            ),
            Workload::Fleet => fleet_job(&inputs.fleets[i], &prepared.directories[i], &mut m),
        }
        m.jobs += 1;
    }
    m
}

/// `live`: the Fig. 2 flow through the (2-core) pipelined segment
/// transport into one session, model once at the end. Verdict: one
/// segment's hand-over to the consumer until it is folded into the
/// session.
fn live_job(spec: &WorldSpec, reference: u64, m: &mut Measured) {
    let mut world = spec.build();
    let mut session = SynthesisSession::new();
    let verdicts = &mut m.verdicts_us;
    let t = Instant::now();
    world.trace_segments(spec.total, spec.segment, |segment| {
        let t0 = Instant::now();
        session.feed_segment(segment);
        verdicts.push(t0.elapsed().as_secs_f64() * 1e6);
    });
    let model = session.model();
    m.busy += t.elapsed();
    let segments = session.segments_fed() as u64;
    m.events += session.events_fed();
    m.attempted += segments;
    if model.digest() != reference {
        m.failed += segments;
    }
}

/// `replay`: decode a recording straight into a fresh session (fused
/// reader) and build its model. Verdict: the replay. The recordings
/// differ in size, which keeps the verdict distribution wide: on a
/// machine whose speed switches between two states, a percentile of
/// identical jobs would jump between the two.
fn replay_job(rec: &Recording, m: &mut Measured) {
    let t = Instant::now();
    let model = replay(&rec.file);
    let elapsed = t.elapsed();
    m.busy += elapsed;
    m.verdicts_us.push(elapsed.as_secs_f64() * 1e6);
    m.events += rec.events;
    m.attempted += rec.segments;
    if model.map(|m| m.digest()) != Some(rec.digest) {
        m.failed += rec.segments;
    }
}

/// Scores alerts against a world's injected faults, with the
/// `monitoring` experiment's rule: a fault is detected by an alert of the
/// expected kind raised at or after its activation segment.
pub fn detected_faults(spec: &WorldSpec, alerts: &[(usize, Alert)]) -> usize {
    spec.truth
        .iter()
        .filter(|fault| {
            let fault_segment = (fault.at.as_nanos() / spec.segment.as_nanos()) as usize;
            alerts
                .iter()
                .any(|(seg, alert)| *seg >= fault_segment && fault.is_detected_by(alert))
        })
        .count()
}

/// `monitor`: the first third of the windows builds the baseline; every
/// later window gets a fresh session, one feed, one model and one
/// `observe`. Verdict: a window's callback entry until `observe` returns.
fn monitor_job(
    spec: &WorldSpec,
    config: &MonitorConfig,
    reference: &[(usize, Alert)],
    m: &mut Measured,
) {
    let mut world = spec.build();
    let baseline_segments = spec.baseline_segments();
    let mut baseline = SynthesisSession::new();
    let mut monitor: Option<Monitor> = None;
    let mut alerts: Vec<(usize, Alert)> = Vec::new();
    let (mut events, mut segments) = (0u64, 0u64);
    let verdicts = &mut m.verdicts_us;
    let t = Instant::now();
    world.trace_segments(spec.total, spec.segment, |segment: &mut TraceSegment| {
        let t0 = Instant::now();
        events += segment.len() as u64;
        segments += 1;
        if segment.index() < baseline_segments {
            baseline.feed_segment(segment);
            if segment.index() + 1 == baseline_segments {
                let learned = Baseline::from_dag(&baseline.model());
                monitor = Some(Monitor::with_config(learned, config.clone()));
            }
            return;
        }
        let mut window = SynthesisSession::with_names(baseline.names().clone());
        window.feed_segment(segment);
        let snapshot = window.model();
        let monitor = monitor.as_mut().expect("baseline precedes monitoring");
        for alert in monitor.observe(&snapshot, spec.segment) {
            alerts.push((segment.index(), alert));
        }
        verdicts.push(t0.elapsed().as_secs_f64() * 1e6);
    });
    m.busy += t.elapsed();
    m.events += events;
    m.attempted += segments;
    m.failed += (spec.truth.len() - detected_faults(spec, &alerts)) as u64;
    if alerts != reference {
        m.failed += segments;
    }
}

/// `fleet`: one whole `rtms_fleet::run`. Verdict: the run, from
/// configuration to merged model and alert rollup.
fn fleet_job(config: &rtms_fleet::FleetConfig, dir: &TenantDirectory, m: &mut Measured) {
    let t = Instant::now();
    let outcome = rtms_fleet::run(config);
    let elapsed = t.elapsed();
    m.busy += elapsed;
    m.verdicts_us.push(elapsed.as_secs_f64() * 1e6);
    match outcome {
        Ok(outcome) => {
            m.events += outcome.report.events;
            m.attempted += outcome.report.segments;
            m.failed += fleet_failures(config, dir, &outcome);
        }
        Err(_) => {
            let segments = (config.tenants * config.plan().total_segments) as u64;
            m.attempted += segments;
            m.failed += segments;
        }
    }
}

/// Missed injected faults plus alerts raised by healthy tenants.
pub fn fleet_failures(
    config: &rtms_fleet::FleetConfig,
    dir: &TenantDirectory,
    outcome: &rtms_fleet::FleetOutcome,
) -> u64 {
    let truth = dir.faulty().map_or(0, |s| s.truth.len()) as f64;
    let missed: f64 = per_tenant_recall(dir, config.plan().segment, &outcome.alerts)
        .iter()
        .map(|(_, recall)| ((1.0 - recall) * truth).round())
        .sum();
    missed as u64 + outcome.report.healthy_alerts
}
