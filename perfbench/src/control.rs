//! The control-plane phase: the paper's autonomic pipeline as an operator
//! runs it, on one thread — label measured configurations, train the
//! selector, answer `configure` queries, and adapt faulted streams.

use std::time::Instant;

use adamant::features::{candidate_protocols, raw_features, FEATURE_DIM};
use adamant::prelude::*;
use adamant::{Adamant, LabeledDataset, ResourceProbe, SimulatedCloud};
use adamant_ann::{BatchScratch, MinMaxScaler};
use adamant_experiments::dataset_gen::{dataset_grid, generate_over, LABEL_SAMPLES, REPETITIONS};
use adamant_experiments::RunSpec;
use adamant_metrics::{percentile, QosReport};
use adamant_netsim::{FaultPlan, LossModel, NetworkConfig};
use adamant_proto::DetRng;
use adamant_transport::ant;

use crate::host::HostSpeed;
use crate::trace::Tracer;

/// Where the training rows live, relative to the repository root.
const DATASET_PATH: &str = "artifacts/dataset.json";

/// Indices into `dataset_grid()` labelled in turn, one per round: a fixed
/// stride, so every cycle of three rounds does the same simulated work.
pub const LABEL_CONFIGS: [usize; 3] = [0, 66, 132];
/// Passes over every training row's `configure` query per round: enough
/// calls that the per-round p99 has tens of calls beyond it.
const CONFIGURE_PASSES: usize = 10;
/// Faulted streams per round, and samples per stream.
const STREAMS: u64 = 4;
const STREAM_SAMPLES: u64 = 2_000;

/// Reads and parses the training rows.
pub fn load_dataset() -> Result<LabeledDataset, String> {
    let text = std::fs::read_to_string(DATASET_PATH)
        .map_err(|e| format!("cannot read {DATASET_PATH}: {e}"))?;
    adamant_json::from_str(&text).map_err(|e| format!("cannot parse {DATASET_PATH}: {}", e.0))
}

/// Everything one control-plane round measured.
#[derive(Debug, Default)]
pub struct Control {
    /// Index into [`LABEL_CONFIGS`] of the configuration labelled.
    pub label_config: usize,
    pub label_runs: u64,
    pub label_s: f64,
    pub train_s: f64,
    /// Host-speed scales (see [`crate::host`]) of the four phases.
    pub label_scale: f64,
    pub train_scale: f64,
    pub configure_scale: f64,
    pub adapt_scale: f64,
    pub train_epochs: u32,
    /// `configure` calls made, and the median and p99 of their latency.
    pub configure_calls: u64,
    pub configure_p50_us: f64,
    pub configure_p99_us: f64,
    pub stream_windows: u64,
    pub stream_s: f64,
    pub alarms: u64,
    pub switches: u64,
    /// Operations attempted: label runs, trainings, `configure` calls and
    /// streams.
    pub operations: u64,
    pub checks: u64,
    pub failures: Vec<String>,
    /// Traced rounds only.
    pub layers: Option<ControlLayers>,
}

/// Per-layer timings of a traced round.
#[derive(Debug, Default)]
pub struct ControlLayers {
    pub dds_install_us: Vec<f64>,
    /// `(protocol label, wall ms)` per simulated run.
    pub netsim_ms: Vec<(String, f64)>,
    pub netsim_events: Vec<f64>,
    pub report_us: Vec<f64>,
    pub score_ns: Vec<f64>,
    pub forward_ns: f64,
    pub select_ns: f64,
    pub probe_ns: f64,
    pub adapt_scaling: f64,
}

impl Control {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn adapt_window_us(&self) -> f64 {
        self.stream_s * 1e6 / self.stream_windows.max(1) as f64
    }
}

/// The round's entropy for one use: the re-run pick, the query order, or
/// the stream seeds, each its own stream of the round seed.
fn entropy(seed: u64, stream: u64) -> DetRng {
    DetRng::seed_from_u64(seed).fork(stream)
}

/// The topic QoS `Scenario::run` pairs with each candidate.
fn qos_for(kind: ProtocolKind) -> QosProfile {
    match kind {
        ProtocolKind::Udp => QosProfile::best_effort(),
        ProtocolKind::Nakcast { .. }
        | ProtocolKind::StreamCast { .. }
        | ProtocolKind::ShmCast { .. } => QosProfile::reliable(),
        ProtocolKind::Ricochet { .. }
        | ProtocolKind::Ackcast { .. }
        | ProtocolKind::Slingshot { .. } => QosProfile::time_critical(),
    }
}

/// `Scenario::run` taken apart at the layer boundaries: DDS install, the
/// discrete-event run, and the report fold, each timed into `layers`.
fn run_decomposed(spec: &RunSpec, tracer: &mut Tracer, layers: &mut ControlLayers) -> QosReport {
    let scenario = Scenario::paper(spec.env, spec.app, spec.seed()).with_samples(spec.samples);
    let transport = TransportConfig::new(spec.protocol).with_tuning(Tuning::default());

    let span = tracer.open("dds.install");
    let start = Instant::now();
    let qos = qos_for(transport.kind);
    let mut participant = DomainParticipant::new(0, scenario.env.dds);
    let topic = participant
        .create_topic::<[u8; 12]>("adamant/experiment", qos)
        .expect("fresh participant has no topics");
    let host = scenario.env.host_config();
    participant
        .create_data_writer(
            topic,
            qos,
            AppSpec::at_rate(
                scenario.samples,
                f64::from(scenario.app.rate_hz),
                scenario.payload_bytes,
            ),
            host,
        )
        .expect("topic has no writer yet");
    for _ in 0..scenario.app.receivers {
        participant
            .create_data_reader(topic, qos, host, scenario.env.drop_probability())
            .expect("reader creation is infallible here");
    }
    let mut sim = Simulation::new(scenario.seed).with_network(scenario.env.network_config());
    let handles = participant
        .install(&mut sim, topic, transport)
        .expect("candidate protocols satisfy their matching qos");
    layers
        .dds_install_us
        .push(start.elapsed().as_secs_f64() * 1e6);
    tracer.close(span);

    let span = tracer.open("netsim.run");
    let start = Instant::now();
    let publish_span =
        SimDuration::from_secs_f64(scenario.samples as f64 / f64::from(scenario.app.rate_hz));
    sim.run_until(SimTime::ZERO + publish_span + SimDuration::from_secs(3));
    layers
        .netsim_ms
        .push((spec.protocol.label(), start.elapsed().as_secs_f64() * 1e3));
    layers.netsim_events.push(sim.events_processed() as f64);
    tracer.close(span);

    let span = tracer.open("metrics.report");
    let start = Instant::now();
    let report = ant::collect_report(&sim, &handles);
    layers.report_us.push(start.elapsed().as_secs_f64() * 1e6);
    tracer.close(span);

    let span = tracer.open("metrics.score");
    let start = Instant::now();
    let scores: Vec<f64> = MetricKind::paper_metrics()
        .iter()
        .map(|m| m.score(&report))
        .collect();
    layers
        .score_ns
        .push(start.elapsed().as_nanos() as f64 / scores.len() as f64);
    std::hint::black_box(scores);
    tracer.close(span);
    report
}

/// Every feasible candidate × repetition of one labelled configuration,
/// in `generate_over`'s order.
fn label_specs(config: (Environment, AppParams)) -> Vec<RunSpec> {
    let (env, app) = config;
    candidate_protocols()
        .into_iter()
        .filter(|&kind| adamant::features::is_feasible(kind, &env))
        .flat_map(|protocol| {
            (0..REPETITIONS).map(move |repetition| RunSpec {
                env,
                app,
                protocol,
                samples: LABEL_SAMPLES,
                repetition,
            })
        })
        .collect()
}

/// (a) Labels this round's configuration of the fixed stride through
/// `generate_over` (the traced round runs the same specs through the
/// decomposed runner instead).
fn label(
    out: &mut Control,
    config: (Environment, AppParams),
    seed: u64,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) {
    let specs = label_specs(config);
    out.label_runs = specs.len() as u64;
    out.operations += specs.len() as u64;

    let span = tracer.open("label");
    let start = Instant::now();
    if let Some(layers) = out.layers.as_mut() {
        let first = run_decomposed(&specs[0], tracer, layers);
        for spec in &specs[1..] {
            std::hint::black_box(run_decomposed(spec, tracer, layers));
        }
        out.label_s = start.elapsed().as_secs_f64();
        tracer.close(span);
        out.label_scale = host.scale();
        let whole = specs[0].execute(Tuning::default());
        out.check(first == whole, || {
            format!(
                "decomposed Scenario::run of {} differs from Scenario::run",
                specs[0].protocol
            )
        });
    } else {
        let dataset = generate_over(
            &[config],
            LABEL_SAMPLES,
            REPETITIONS,
            1,
            Tuning::default(),
            &mut |_, _| {},
        );
        out.label_s = start.elapsed().as_secs_f64();
        tracer.close(span);
        out.label_scale = host.scale();
        out.check(dataset.len() == 2, || {
            format!("labelling one config gave {} rows", dataset.len())
        });
    }
    // One spec of the config, picked by the seed, re-run with the same
    // seed must reproduce its report exactly.
    let spec = specs[entropy(seed, 0).next_below(specs.len() as u64) as usize];
    let first = spec.execute(Tuning::default());
    let again = spec.execute(Tuning::default());
    out.check(first == again, || {
        format!(
            "re-running {} with the same seed changed its report",
            spec.protocol
        )
    });
}

/// (b) Trains the selector on the training rows.
fn train(
    out: &mut Control,
    dataset: &LabeledDataset,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) -> ProtocolSelector {
    out.operations += 1;
    let span = tracer.open("ann.train");
    let start = Instant::now();
    let (selector, outcome) = ProtocolSelector::train_from(dataset, &SelectorConfig::default());
    out.train_s = start.elapsed().as_secs_f64();
    tracer.close(span);
    out.train_scale = host.scale();
    out.train_epochs = outcome.epochs;
    let evaluation = selector.evaluate_on(dataset);
    let correct = (evaluation.accuracy() * dataset.len() as f64).round() as usize;
    out.check(correct == dataset.len(), || {
        format!(
            "trained selector labels {correct} of {} training rows correctly",
            dataset.len()
        )
    });
    selector
}

/// (c) Answers `configure` for every training row's environment, in a
/// seed-shuffled order, and checks batched against scalar selection.
fn configure(
    out: &mut Control,
    dataset: &LabeledDataset,
    selector: &ProtocolSelector,
    seed: u64,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) {
    let platform = Adamant::new(selector.clone());
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    entropy(seed, 1).shuffle(&mut order);
    out.configure_calls = (CONFIGURE_PASSES * order.len()) as u64;
    out.operations += out.configure_calls;
    let mut latency_us = Vec::with_capacity(CONFIGURE_PASSES * order.len());
    let span = tracer.open("core.configure");
    for _ in 0..CONFIGURE_PASSES {
        for &i in &order {
            let row = &dataset.rows[i];
            let cloud = SimulatedCloud::new(row.env);
            let start = Instant::now();
            let config = platform.configure(
                &cloud,
                row.env.dds,
                row.env.loss_percent,
                row.app,
                row.metric,
            );
            latency_us.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(config.expect("simulated cloud probes cannot fail"));
        }
    }
    tracer.close(span);
    out.configure_scale = host.scale();
    out.configure_p50_us = percentile(&latency_us, 0.50).unwrap_or(0.0);
    out.configure_p99_us = percentile(&latency_us, 0.99).unwrap_or(0.0);

    let queries: Vec<FeatureRow> = dataset
        .rows
        .iter()
        .map(|r| FeatureRow::new(r.env, r.app, r.metric))
        .collect();
    let mut batch = vec![Choice::default(); queries.len()];
    selector.select_batch(&queries, &mut batch);
    let mismatches = queries
        .iter()
        .zip(&batch)
        .filter(|(q, b)| selector.select(&q.env, &q.app, q.metric).protocol != b.protocol)
        .count();
    out.check(mismatches == 0, || {
        format!("select_batch disagrees with select on {mismatches} queries")
    });
}

/// The provisioned environment and fault of `examples/quickstart.rs`: a
/// gigabit LAN that drops to 100 Mb/s with 8 % loss three seconds in.
fn faulted_stream(seed: u64, samples: u64) -> (StreamConfig, FaultPlan) {
    let env = Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        5,
    );
    let fault_at = SimTime::from_secs(3);
    let mut plan = FaultPlan::new().set_network_at(
        fault_at,
        NetworkConfig {
            propagation: BandwidthClass::Mbps100.propagation(),
            loss: LossModel::Bernoulli(0.08),
        },
    );
    for node in 0..4 {
        plan = plan.set_bandwidth_at(fault_at, NodeId::from_index(node), Bandwidth::MBPS_100);
    }
    (
        StreamConfig::new(env, AppParams::new(3, 25), samples, seed),
        plan,
    )
}

fn naive_transport() -> TransportConfig {
    TransportConfig::new(ProtocolKind::Nakcast {
        timeout: SimDuration::from_millis(50),
    })
}

/// (d) Adapts faulted streams; each must alarm and switch at least once.
fn adapt(
    out: &mut Control,
    selector: &ProtocolSelector,
    seed: u64,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) {
    let policy = AdaptivePolicy::new(MetricKind::ReLate2)
        .with_ann(selector.clone(), 0.1)
        .with_thresholds(MonitorThresholds::default())
        .with_backoff(SimDuration::from_secs(2), SimDuration::from_secs(16));
    let seeds: Vec<u64> = {
        let mut rng = entropy(seed, 2);
        (0..STREAMS).map(|_| rng.next_u64()).collect()
    };
    let mut walls = Vec::new();
    out.operations += STREAMS;
    for &stream_seed in &seeds {
        let (stream, plan) = faulted_stream(stream_seed, STREAM_SAMPLES);
        let span = tracer.open("core.run_stream");
        let start = Instant::now();
        let outcome = policy.run_stream(&stream, naive_transport(), plan);
        let wall = start.elapsed().as_secs_f64();
        tracer.close(span);
        walls.push(wall);
        out.stream_s += wall;
        out.stream_windows += outcome.windows.len() as u64;
        out.alarms += outcome.alarms;
        out.switches += outcome.switches.len() as u64;
        out.check(outcome.alarms >= 1 && !outcome.switches.is_empty(), || {
            format!(
                "faulted stream raised {} alarms and {} switches",
                outcome.alarms,
                outcome.switches.len()
            )
        });
    }
    out.adapt_scale = host.scale();
    if let Some(layers) = out.layers.as_mut() {
        // Twice the samples on the first stream's seed: 1.0 means the
        // loop's cost grows linearly with stream length.
        let (stream, plan) = faulted_stream(seeds[0], 2 * STREAM_SAMPLES);
        let span = tracer.open("core.run_stream");
        let start = Instant::now();
        std::hint::black_box(policy.run_stream(&stream, naive_transport(), plan));
        let wall = start.elapsed().as_secs_f64();
        tracer.close(span);
        layers.adapt_scaling = wall / (2.0 * walls[0]);
    }
}

/// Times the selector's pieces per query: the bare forward pass and
/// `select` around it, interleaved so both see the same host conditions,
/// and the simulated-cloud probe. Each is the median of per-call times.
fn time_selector(
    layers: &mut ControlLayers,
    dataset: &LabeledDataset,
    selector: &ProtocolSelector,
) {
    let (_, scaler): (_, MinMaxScaler) = dataset.to_training_data();
    let mut scratch = BatchScratch::new();
    let mut scores = Vec::new();
    let (mut forward, mut select, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CONFIGURE_PASSES {
        for r in &dataset.rows {
            let raw = raw_features(&r.env, &r.app, r.metric);
            let input: Vec<f64> = (0..FEATURE_DIM)
                .map(|d| scaler.scale_dim(d, raw[d]))
                .collect();
            let start = Instant::now();
            selector
                .network()
                .run_batch_cols_into(&input, 1, &mut scratch, &mut scores);
            forward.push(start.elapsed().as_nanos() as f64);
            std::hint::black_box(&scores);

            let start = Instant::now();
            std::hint::black_box(selector.select(&r.env, &r.app, r.metric));
            select.push(start.elapsed().as_nanos() as f64);

            let cloud = SimulatedCloud::new(r.env);
            let start = Instant::now();
            std::hint::black_box(cloud.probe().expect("simulated probe"));
            probe.push(start.elapsed().as_nanos() as f64);
        }
    }
    layers.forward_ns = percentile(&forward, 0.5).unwrap_or(0.0);
    layers.select_ns = percentile(&select, 0.5).unwrap_or(0.0) - layers.forward_ns;
    layers.probe_ns = percentile(&probe, 0.5).unwrap_or(0.0);
}

/// Runs one control-plane round: label configuration `round % 3` of the
/// stride, train, configure, adapt.
pub fn run_round(
    dataset: &LabeledDataset,
    round: usize,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) -> Control {
    let mut out = Control {
        layers: traced.then(ControlLayers::default),
        ..Control::default()
    };
    out.label_config = round % LABEL_CONFIGS.len();
    let config = dataset_grid()[LABEL_CONFIGS[out.label_config]];
    label(&mut out, config, seed, tracer, host);
    let selector = train(&mut out, dataset, tracer, host);
    configure(&mut out, dataset, &selector, seed, tracer, host);
    adapt(&mut out, &selector, seed, tracer, host);
    if let Some(layers) = out.layers.as_mut() {
        time_selector(layers, dataset, &selector);
    }
    out
}

/// Labels of the candidates the stride runs (every candidate feasible on
/// a cross-host configuration), in candidate order.
pub fn labelled_protocols() -> Vec<String> {
    let grid = dataset_grid();
    candidate_protocols()
        .into_iter()
        .filter(|&kind| {
            LABEL_CONFIGS
                .iter()
                .any(|&i| adamant::features::is_feasible(kind, &grid[i].0))
        })
        .map(|kind| kind.label())
        .collect()
}
