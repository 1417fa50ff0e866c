//! End-to-end and per-layer benchmark of the ADAMANT reproduction.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fanout_paced --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Run from the repository root (the control plane trains on
//! `artifacts/dataset.json`). A run repeats rounds until `--seconds` have
//! passed; every round re-does the set-up, then runs one fan-out round over
//! loopback UDP and one control-plane round (see `README.md` in this
//! directory). Every metric is the median of its per-round values, and
//! every CPU-bound time is scaled to a reference host speed by a
//! calibration kernel timed around it (see [`host`]).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` traces every
//! other round, prints the per-layer metrics of the traced rounds, and
//! writes their spans to `.bench_trace/`. Either way the last stdout line
//! is one JSON object, and the exit code is nonzero when any correctness
//! check fails.

mod control;
mod fanout;
mod host;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use adamant::LabeledDataset;
use adamant_metrics::percentile;

use crate::fanout::Shape;
use crate::host::HostSpeed;
use crate::stats::ratio;
use crate::trace::Tracer;

/// The workloads: the fan-out shape each run's rounds use.
const WORKLOADS: [(&str, Shape); 2] = [
    ("fanout_paced", fanout::PACED),
    ("fanout_lossy", fanout::LOSSY),
];

/// Rounds run between two looks at the clock: one cycle of the stride's
/// configurations, so that every run labels each of them equally often.
/// A traced run alternates untraced and traced rounds, so its blocks are
/// two cycles long.
const BLOCK: usize = control::LABEL_CONFIGS.len();

/// Directory (relative to the repository root) the traced run's spans
/// are written to.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
    })
}

/// A distinct, reproducible seed per round.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round as u64 + 1)
}

/// Everything the untraced or the traced rounds of a run measured.
#[derive(Default)]
struct Pass {
    /// Unscaled set-up times and their host-speed scales.
    setup_s: Vec<f64>,
    setup_scale: Vec<f64>,
    fanout: Vec<fanout::Round>,
    control: Vec<control::Control>,
}

/// Runs blocks of rounds until `seconds` have passed; with `trace` every
/// other round is traced. Returns the untraced and the traced rounds, and
/// every host-speed calibration made.
fn run_rounds(
    shape: Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<(Pass, Pass, Vec<f64>), String> {
    let mut passes = (Pass::default(), Pass::default());
    let mut host = HostSpeed::new();
    let start = Instant::now();
    let mut round = 0;
    let block = if trace { 2 * BLOCK } else { BLOCK };
    while round == 0 || start.elapsed().as_secs_f64() < seconds as f64 {
        for _ in 0..block {
            run_round(shape, seed, round, trace, tracer, &mut host, &mut passes)?;
            round += 1;
        }
    }
    Ok((passes.0, passes.1, host.samples))
}

/// Runs round number `round` into the untraced or the traced pass.
fn run_round(
    shape: Shape,
    seed: u64,
    round: usize,
    trace: bool,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
    passes: &mut (Pass, Pass),
) -> Result<(), String> {
    let traced = trace && round % 2 == 1;
    let pass = if traced { &mut passes.1 } else { &mut passes.0 };
    let mut untraced = Tracer::new(false);
    let tracer = if traced { tracer } else { &mut untraced };
    let seed = round_seed(seed, round);
    let span = tracer.open("setup.dataset");
    let start = Instant::now();
    let dataset: LabeledDataset = control::load_dataset()?;
    let parse_s = start.elapsed().as_secs_f64();
    tracer.close(span);
    let fan = fanout::run_round(shape, seed, traced, tracer, host)?;
    pass.setup_s.push(parse_s + fan.setup_s);
    pass.setup_scale.push(fan.setup_scale);
    pass.fanout.push(fan);
    let span = tracer.open("control.round");
    pass.control.push(control::run_round(
        &dataset, round, seed, traced, tracer, host,
    ));
    tracer.close(span);
    Ok(())
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, for the printed report.
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// The median over rounds of a per-round value.
fn per_round<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    percentile(&rounds.iter().map(f).collect::<Vec<_>>(), 0.5).unwrap_or(0.0)
}

/// Whether a smaller value of the end-to-end metric `name` is better.
fn lower_is_better(name: &str) -> bool {
    !matches!(name, "deliveries_per_s" | "label_runs_per_s")
}

/// The end-to-end metrics of a pass; with `scaled`, every CPU-bound time
/// is scaled to the reference host's speed (see [`host`]), the way they
/// are reported.
fn end_to_end(pass: &Pass, scaled: bool) -> Vec<Metric> {
    let f = &pass.fanout;
    let c = &pass.control;
    let k = |scale: f64| if scaled { scale } else { 1.0 };
    let deliveries = f.iter().map(|r| r.delivered).sum::<u64>() as usize;
    let setups: Vec<f64> = pass
        .setup_s
        .iter()
        .zip(&pass.setup_scale)
        .map(|(s, &scale)| s * k(scale))
        .collect();
    let trainings: Vec<f64> = c.iter().map(|r| r.train_s * k(r.train_scale)).collect();
    let configures = c.iter().map(|r| r.configure_calls).sum::<u64>() as usize;
    let windows: u64 = c.iter().map(|r| r.stream_windows).sum();
    // Each configuration of the stride costs differently, so the label
    // rate is one cycle's runs over the summed median time of labelling
    // each configuration.
    let (mut cycle_runs, mut cycle_s, mut label_runs) = (0u64, 0.0, 0u64);
    for config in 0..control::LABEL_CONFIGS.len() {
        let rounds: Vec<&control::Control> =
            c.iter().filter(|r| r.label_config == config).collect();
        let times: Vec<f64> = rounds
            .iter()
            .map(|r| r.label_s * k(r.label_scale))
            .collect();
        cycle_runs += rounds.first().map_or(0, |r| r.label_runs);
        cycle_s += percentile(&times, 0.5).unwrap_or(0.0);
        label_runs += rounds.iter().map(|r| r.label_runs).sum::<u64>();
    }
    let e2e = |name: &str, values: Vec<f64>, unit: &'static str, samples: usize| {
        metric(name, percentile(&values, 0.5).unwrap_or(0.0), unit, samples)
    };
    let over = |g: &dyn Fn(&fanout::Round) -> f64| f.iter().map(g).collect::<Vec<f64>>();
    let over_c = |g: &dyn Fn(&control::Control) -> f64| c.iter().map(g).collect::<Vec<f64>>();
    vec![
        e2e("setup_s", setups, "s", pass.setup_s.len()),
        e2e(
            "deliver_p50_us",
            over(&|r| r.latency_p50_us * k(r.window_scale)),
            "us",
            deliveries,
        ),
        e2e(
            "deliver_p99_us",
            over(&|r| r.latency_p99_us),
            "us",
            deliveries,
        ),
        e2e(
            "deliveries_per_s",
            over(&fanout::Round::deliveries_per_s),
            "1/s",
            deliveries,
        ),
        e2e(
            "cpu_us_per_delivery",
            over(&|r| r.cpu_us_per_delivery() * k(r.window_scale)),
            "us",
            deliveries,
        ),
        metric(
            "label_runs_per_s",
            cycle_runs as f64 / cycle_s,
            "1/s",
            label_runs as usize,
        ),
        e2e("train_s", trainings.clone(), "s", trainings.len()),
        e2e(
            "configure_p99_us",
            over_c(&|r| r.configure_p99_us * k(r.configure_scale)),
            "us",
            configures,
        ),
        e2e(
            "adapt_window_us",
            over_c(&|r| r.adapt_window_us() * k(r.adapt_scale)),
            "us",
            windows as usize,
        ),
    ]
}

/// Per-layer metrics of a traced pass; `overhead_pct` compares its
/// end-to-end metrics with the untraced pass's.
fn per_layer(
    traced: &Pass,
    calibrations_s: &[f64],
    overhead_pct: f64,
    fail_frac: f64,
    check_fail_frac: f64,
) -> Vec<Metric> {
    let f = &traced.fanout;
    let c = &traced.control;
    let n = f.len();
    let sum = |g: &dyn Fn(&fanout::Round) -> f64| f.iter().map(g).sum::<f64>();
    let delivered = sum(&|r| r.delivered as f64);
    let recovered = sum(&|r| r.recovered as f64);
    let give_ups = sum(&|r| r.give_ups as f64);
    let recovery_us: Vec<f64> = f
        .iter()
        .flat_map(|r| r.recovery_us.iter().copied())
        .collect();
    let codec: Vec<(f64, f64, f64)> = f.iter().map(fanout::time_codec).collect();
    let mut out = vec![
        metric(
            "rt.self_ms",
            per_round(f, |r| {
                r.run_for_s * 1e3 - (r.sender_step_ns + r.receiver_step_ns) as f64 / 1e6
            }),
            "ms",
            n,
        ),
        metric(
            "rt.datagrams_per_delivery",
            ratio(sum(&|r| r.stats.datagrams_sent as f64), delivered),
            "ratio",
            n,
        ),
        metric(
            "rt.timer_late_p50_us",
            per_round(f, |r| r.timer_late_p50_us),
            "us",
            n,
        ),
        metric(
            "rt.timer_late_p99_us",
            per_round(f, |r| r.timer_late_p99_us),
            "us",
            n,
        ),
        metric(
            "rt.busy_polls",
            per_round(f, |r| r.stats.busy_polls as f64),
            "count",
            n,
        ),
        metric(
            "rt.backpressure_stalls",
            per_round(f, |r| r.stats.backpressure_stalls as f64),
            "count",
            n,
        ),
        metric(
            "rt.backpressure_drops",
            per_round(f, |r| r.stats.backpressure_drops as f64),
            "count",
            n,
        ),
        metric(
            "transport.sender_step_ns",
            ratio(
                sum(&|r| r.sender_step_ns as f64),
                sum(&|r| r.sender_steps as f64),
            ),
            "ns",
            n,
        ),
        metric(
            "transport.receiver_step_ns",
            ratio(
                sum(&|r| r.receiver_step_ns as f64),
                sum(&|r| r.receiver_steps as f64),
            ),
            "ns",
            n,
        ),
        metric(
            "transport.steps_per_delivery",
            ratio(
                sum(&|r| (r.sender_steps + r.receiver_steps) as f64),
                delivered,
            ),
            "ratio",
            n,
        ),
        metric(
            "transport.naks_sent",
            per_round(f, |r| r.naks_sent as f64),
            "count",
            n,
        ),
        metric(
            "transport.retransmissions",
            per_round(f, |r| r.retransmissions as f64),
            "count",
            n,
        ),
        metric(
            "transport.give_ups",
            per_round(f, |r| r.give_ups as f64),
            "count",
            n,
        ),
        metric(
            "transport.recovered_frac",
            if recovered + give_ups == 0.0 {
                1.0
            } else {
                recovered / (recovered + give_ups)
            },
            "ratio",
            n,
        ),
        metric(
            "transport.recovery_p50_us",
            percentile(&recovery_us, 0.5).unwrap_or(0.0),
            "us",
            recovery_us.len(),
        ),
        metric(
            "transport.duplicates",
            per_round(f, |r| r.duplicates as f64),
            "count",
            n,
        ),
        metric("proto.encode_ns", per_round(&codec, |c| c.0), "ns", n),
        metric("proto.decode_ns", per_round(&codec, |c| c.1), "ns", n),
        metric("proto.frame_decode_ns", per_round(&codec, |c| c.2), "ns", n),
    ];

    let layers: Vec<&control::ControlLayers> = c.iter().filter_map(|r| r.layers.as_ref()).collect();
    let runs: Vec<(String, f64)> = layers
        .iter()
        .flat_map(|l| l.netsim_ms.iter().cloned())
        .collect();
    let events: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.netsim_events.iter().copied())
        .collect();
    let run_ms: f64 = runs.iter().map(|r| r.1).sum();
    let pooled = |g: &dyn Fn(&control::ControlLayers) -> &Vec<f64>| {
        percentile(
            &layers
                .iter()
                .flat_map(|l| g(l).iter().copied())
                .collect::<Vec<_>>(),
            0.5,
        )
        .unwrap_or(0.0)
    };
    out.push(metric(
        "netsim.events_per_s",
        events.iter().sum::<f64>() / (run_ms / 1e3),
        "1/s",
        runs.len(),
    ));
    out.push(metric(
        "netsim.events_per_run",
        percentile(&events, 0.5).unwrap_or(0.0),
        "count",
        runs.len(),
    ));
    let mut by_protocol: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (label, ms) in &runs {
        by_protocol.entry(label.clone()).or_default().push(*ms);
    }
    for label in control::labelled_protocols() {
        let ms = by_protocol.get(&label).map_or(&[][..], Vec::as_slice);
        out.push(metric(
            &format!("netsim.run_ms.{label}"),
            percentile(ms, 0.5).unwrap_or(0.0),
            "ms",
            ms.len(),
        ));
    }
    out.push(metric(
        "dds.install_us",
        pooled(&|l| &l.dds_install_us),
        "us",
        runs.len(),
    ));
    out.push(metric(
        "metrics.report_us",
        pooled(&|l| &l.report_us),
        "us",
        runs.len(),
    ));
    out.push(metric(
        "metrics.score_ns",
        pooled(&|l| &l.score_ns),
        "ns",
        runs.len(),
    ));

    // Scaled like `train_s` and `configure_p99_us`, whose shares these
    // two are; every other per-layer time is raw.
    let trainings: Vec<f64> = c.iter().map(|r| r.train_s * r.train_scale).collect();
    let epochs = c.first().map_or(0, |r| r.train_epochs);
    out.push(metric(
        "ann.train_epochs",
        f64::from(epochs),
        "count",
        trainings.len(),
    ));
    out.push(metric(
        "ann.epoch_us",
        percentile(&trainings, 0.5).unwrap_or(0.0) * 1e6 / f64::from(epochs.max(1)),
        "us",
        trainings.len(),
    ));
    // Not an end-to-end metric: a call takes about a microsecond, and the
    // shared host switches it between two speeds (about 1.3 and 2.2 µs)
    // for stretches longer than a round, so the median flips between them
    // from run to run. The p99 lies above both and stays end-to-end.
    out.push(metric(
        "configure_p50_us",
        per_round(c, |r| r.configure_p50_us * r.configure_scale),
        "us",
        c.iter().map(|r| r.configure_calls).sum::<u64>() as usize,
    ));
    out.push(metric(
        "ann.forward_ns",
        per_round(&layers, |l| l.forward_ns),
        "ns",
        layers.len(),
    ));
    out.push(metric(
        "core.select_ns",
        per_round(&layers, |l| l.select_ns),
        "ns",
        layers.len(),
    ));
    out.push(metric(
        "core.probe_ns",
        per_round(&layers, |l| l.probe_ns),
        "ns",
        layers.len(),
    ));
    out.push(metric(
        "core.adapt_scaling",
        per_round(&layers, |l| l.adapt_scaling),
        "ratio",
        layers.len(),
    ));
    out.push(metric(
        "core.alarms",
        per_round(c, |r| r.alarms as f64),
        "count",
        c.len(),
    ));
    out.push(metric(
        "core.switches",
        per_round(c, |r| r.switches as f64),
        "count",
        c.len(),
    ));
    out.push(metric(
        "host.calibrate_us",
        percentile(calibrations_s, 0.5).unwrap_or(0.0) * 1e6,
        "us",
        calibrations_s.len(),
    ));
    out.push(metric("trace_overhead_pct", overhead_pct, "%", 1));
    out.push(metric("fail_frac", fail_frac, "ratio", 1));
    out.push(metric("check_fail_frac", check_fail_frac, "ratio", 1));
    out
}

/// Median over the end-to-end metrics (set-up excepted) of how much worse
/// the traced pass read than the untraced one, in percent.
fn trace_overhead_pct(untraced: &[Metric], traced: &[Metric]) -> f64 {
    let diffs: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .filter(|(u, _)| u.name != "setup_s")
        .map(|(u, t)| {
            let worse = if lower_is_better(&u.name) {
                t.value / u.value
            } else {
                u.value / t.value
            };
            (worse - 1.0) * 100.0
        })
        .collect();
    percentile(&diffs, 0.5).unwrap_or(0.0)
}

/// Totals of work attempted and failed, and the check outcomes, over
/// every pass of the run.
#[derive(Default)]
struct Outcome {
    expected_deliveries: u64,
    delivered: u64,
    operations: u64,
    checks: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, pass: &Pass) {
        for r in &pass.fanout {
            self.expected_deliveries += r.published * r.readers;
            self.delivered += r.delivered;
            self.checks += r.checks;
            self.failures.extend(r.failures.iter().cloned());
        }
        for r in &pass.control {
            self.operations += r.operations;
            self.checks += r.checks;
            self.failures.extend(r.failures.iter().cloned());
        }
    }

    fn missing(&self) -> u64 {
        self.expected_deliveries.saturating_sub(self.delivered)
    }
}

fn print_counters(label: &str, pass: &Pass) {
    let f = &pass.fanout;
    let total = |g: &dyn Fn(&fanout::Round) -> u64| f.iter().map(g).sum::<u64>();
    println!(
        "[{label}] fanout: {} rounds, published {}, delivered {} (recovered {}), naks {}, \
         retransmissions {}, give-ups {}, duplicates {}",
        f.len(),
        total(&|r| r.published),
        total(&|r| r.delivered),
        total(&|r| r.recovered),
        total(&|r| r.naks_sent),
        total(&|r| r.retransmissions),
        total(&|r| r.give_ups),
        total(&|r| r.duplicates),
    );
    println!(
        "[{label}] rt: datagrams sent {}, received {}, busy polls {}, backpressure stalls {}, \
         drops {}",
        total(&|r| r.stats.datagrams_sent),
        total(&|r| r.stats.datagrams_received),
        total(&|r| r.stats.busy_polls),
        total(&|r| r.stats.backpressure_stalls),
        total(&|r| r.stats.backpressure_drops),
    );
    let c = &pass.control;
    println!(
        "[{label}] control: {} label runs, {} trainings, {} configure calls, {} stream windows, \
         {} alarms, {} switches",
        c.iter().map(|r| r.label_runs).sum::<u64>(),
        c.len(),
        c.iter().map(|r| r.configure_calls).sum::<u64>(),
        c.iter().map(|r| r.stream_windows).sum::<u64>(),
        c.iter().map(|r| r.alarms).sum::<u64>(),
        c.iter().map(|r| r.switches).sum::<u64>(),
    );
    let recovery: Vec<f64> = f
        .iter()
        .flat_map(|r| r.recovery_us.iter().copied())
        .collect();
    if !recovery.is_empty() {
        println!(
            "[{label}] recovered deliveries: {} samples, p50 {:.1} us",
            recovery.len(),
            percentile(&recovery.clone(), 0.5).unwrap_or(0.0)
        );
    }
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "[{label}] {:<32} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let shape = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|&(_, shape)| shape)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            format!(
                "unknown workload {:?}; choose one of {names:?}",
                args.workload
            )
        })?;
    let cpu = host::pin_to_one_cpu().map_or_else(
        || "unpinned".to_owned(),
        |cpu| format!("pinned to cpu {cpu}"),
    );
    println!(
        "workload {} seed {} seconds {} trace {} (one worker, two sockets, 127.0.0.1, {cpu})",
        args.workload, args.seed, args.seconds, args.trace
    );

    let mut tracer = Tracer::new(args.trace);
    let (untraced, traced, calibrations_s) =
        run_rounds(shape, args.seed, args.seconds, args.trace, &mut tracer)?;
    let e2e = end_to_end(&untraced, true);
    let mut outcome = Outcome::default();
    outcome.absorb(&untraced);
    outcome.absorb(&traced);
    print_counters("untraced", &untraced);
    print_metrics("end-to-end", &e2e);
    print_metrics("end-to-end unscaled", &end_to_end(&untraced, false));

    let reported = if args.trace {
        print_counters("traced", &traced);
        let traced_e2e = end_to_end(&traced, true);
        print_metrics("traced end-to-end", &traced_e2e);
        let fail_frac = ratio(outcome.missing() as f64, outcome.expected_deliveries as f64);
        let check_fail_frac = ratio(outcome.failures.len() as f64, outcome.checks as f64);
        let layers = per_layer(
            &traced,
            &calibrations_s,
            trace_overhead_pct(&e2e, &traced_e2e),
            fail_frac,
            check_fail_frac,
        );
        print_metrics("per-layer", &layers);
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("mkdir {TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
        std::fs::write(&path, tracer.to_json_lines()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {} spans to {path}", tracer.len());
        layers
    } else {
        e2e
    };

    println!(
        "fail_frac {:.6} ({} of {} deliveries missing); checks {} run, {} failed",
        ratio(outcome.missing() as f64, outcome.expected_deliveries as f64),
        outcome.missing(),
        outcome.expected_deliveries,
        outcome.checks,
        outcome.failures.len()
    );
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    let finite = reported.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("CHECK FAILED: a metric is not a finite number");
    }
    let correct = outcome.failures.is_empty() && finite;
    let attempted = outcome.expected_deliveries + outcome.operations;
    let failed = outcome.missing() + outcome.failures.len() as u64;
    println!("{}", result_json(correct, attempted, failed, &reported));
    Ok(correct)
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
