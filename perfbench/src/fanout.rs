//! The fan-out phase: one NAKcast writer feeding N readers on a single
//! `MuxCluster` worker with two shared sockets, over the host's loopback
//! interface.
//!
//! Every core runs inside a [`Probe`], the benchmark's own wrapper: it
//! stamps each delivery with the time of the step that produced it (the
//! runtime's report keeps only the publication stamp), records what the
//! writer published, and — in a traced round — times every `step()`,
//! matches `SetTimer` deadlines to the `TimerFired` inputs they produce,
//! and keeps a sample of the messages each core sent.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use adamant_metrics::percentile;
use adamant_proto::{
    Effect, Env, FrameHeader, GroupId, Input, NodeId, ProtocolCore, Span, TimePoint, TimerToken,
    WireMsg,
};
use adamant_rt::{ClusterStats, EndpointId, MonotonicClock, MuxCluster, MuxConfig};
use adamant_transport::{AppSpec, NakcastReceiver, NakcastSender, StackProfile, Tuning};

use crate::host::HostSpeed;
use crate::stats::process_cpu_s;
use crate::trace::Tracer;

/// The load shape of one fan-out workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Readers fed by the single writer.
    readers: u32,
    /// Seeded end-host drop probability at each reader.
    loss: f64,
    /// Offered publication rate (the writer's own timer).
    rate_hz: f64,
    /// Samples published per round.
    samples: u64,
}

/// Paced: 2 kHz offered to 15 readers with 1 % end-host loss.
pub const PACED: Shape = Shape {
    readers: 15,
    loss: 0.01,
    rate_hz: 2_000.0,
    samples: 1_000,
};

/// Lossy: 2 kHz offered to 3 readers with 5 % end-host loss, the other
/// corner of the paper's receiver-count × loss grid.
pub const LOSSY: Shape = Shape {
    readers: 3,
    loss: 0.05,
    rate_hz: 2_000.0,
    samples: 1_000,
};

/// Application payload bytes per sample, as in the paper.
const PAYLOAD_BYTES: u32 = 12;
/// The readers' NAK timeout.
const NAK_TIMEOUT: Span = Span::from_millis(2);
/// Wall time per `run_for` call; completion is checked between calls.
const SLICE: Duration = Duration::from_millis(50);
/// How long a round may run past the end of publication, and in all,
/// before the samples still missing count as failures.
const DRAIN_CAP: Duration = Duration::from_secs(10);
const ROUND_CAP: Duration = Duration::from_secs(60);
/// Sent messages of each kind a traced probe keeps for the codec timing.
const MSG_SAMPLE: u64 = 256;

/// What a traced probe measured.
#[derive(Debug, Default)]
struct StepTrace {
    steps: u64,
    step_ns: u64,
    /// Deadlines of armed timers, by token.
    armed: HashMap<TimerToken, TimePoint>,
    /// Fire time minus requested deadline, per fired timer (ns).
    timer_late_ns: Vec<u64>,
    /// Up to [`MSG_SAMPLE`] sent messages per kind.
    sent: Vec<WireMsg>,
    /// Messages sent per kind: Data, Heartbeat, Nak.
    sent_per_kind: [u64; 3],
}

/// The benchmark's wrapper around one protocol core.
#[derive(Debug)]
struct Probe<C> {
    inner: C,
    /// `(seq, published_at, delivered_at, recovered)` per delivery.
    deliveries: Vec<(u64, TimePoint, TimePoint, bool)>,
    /// `published_at` of every original (non-retransmitted) data message
    /// this core sent, indexed by sequence.
    published: Vec<TimePoint>,
    trace: Option<StepTrace>,
}

impl<C> Probe<C> {
    fn new(inner: C, traced: bool) -> Self {
        Probe {
            inner,
            deliveries: Vec::new(),
            published: Vec::new(),
            trace: traced.then(StepTrace::default),
        }
    }
}

fn kind_slot(msg: &WireMsg) -> Option<usize> {
    match msg {
        WireMsg::Data(_) => Some(0),
        WireMsg::Heartbeat(_) => Some(1),
        WireMsg::Nak(_) => Some(2),
        _ => None,
    }
}

impl<C: ProtocolCore> ProtocolCore for Probe<C> {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        let now = env.now();
        let mark = env.effects_len();
        match self.trace.as_mut() {
            None => self.inner.step(input, env),
            Some(trace) => {
                if let Input::TimerFired { token, .. } = input {
                    if let Some(deadline) = trace.armed.remove(&token) {
                        trace
                            .timer_late_ns
                            .push(now.saturating_since(deadline).as_nanos());
                    }
                }
                let start = Instant::now();
                self.inner.step(input, env);
                trace.step_ns += start.elapsed().as_nanos() as u64;
                trace.steps += 1;
            }
        }
        for effect in env.effects_since(mark) {
            match effect {
                Effect::Deliver {
                    seq,
                    published_at,
                    recovered,
                } => self.deliveries.push((*seq, *published_at, now, *recovered)),
                Effect::Send { msg, .. } => {
                    if let WireMsg::Data(data) = msg {
                        if !data.retransmission && data.seq == self.published.len() as u64 {
                            self.published.push(data.published_at);
                        }
                    }
                    if let Some(trace) = self.trace.as_mut() {
                        if let Some(slot) = kind_slot(msg) {
                            if trace.sent_per_kind[slot] < MSG_SAMPLE {
                                trace.sent.push(msg.clone());
                            }
                            trace.sent_per_kind[slot] += 1;
                        }
                    }
                }
                Effect::SetTimer { token, delay, .. } => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.armed.insert(*token, now + *delay);
                    }
                }
                Effect::CancelTimer { token } => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.armed.remove(token);
                    }
                }
                Effect::Trace(_) => {}
            }
        }
    }
}

/// Everything one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Host-speed scales (see [`crate::host`]) of the set-up and of the
    /// timed window.
    pub setup_scale: f64,
    pub window_scale: f64,
    pub published: u64,
    pub readers: u64,
    pub delivered: u64,
    pub recovered: u64,
    pub give_ups: u64,
    pub naks_sent: u64,
    pub retransmissions: u64,
    pub duplicates: u64,
    /// Median and p99 of the publish → deliver latency of every delivery
    /// at every reader (µs).
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    /// Publish → deliver latency of recovered deliveries (µs).
    pub recovery_us: Vec<f64>,
    /// First `published_at` to last `delivered_at`.
    pub span_s: f64,
    /// Process CPU time while the round ran.
    pub cpu_s: f64,
    /// Wall time spent inside `run_for`.
    pub run_for_s: f64,
    pub stats: ClusterStats,
    /// Correctness checks run and the descriptions of those that failed.
    pub checks: u64,
    pub failures: Vec<String>,
    /// Traced rounds only: summed step time of the writer and readers.
    pub sender_steps: u64,
    pub sender_step_ns: u64,
    pub receiver_steps: u64,
    pub receiver_step_ns: u64,
    /// Median and p99 of timer lateness (fire time minus deadline, µs).
    pub timer_late_p50_us: f64,
    pub timer_late_p99_us: f64,
    pub sent_sample: Vec<WireMsg>,
    pub sent_per_kind: [u64; 3],
}

impl Round {
    /// Deliveries per second over the stream's own timestamps.
    pub fn deliveries_per_s(&self) -> f64 {
        self.delivered as f64 / self.span_s
    }

    /// CPU microseconds per delivery.
    pub fn cpu_us_per_delivery(&self) -> f64 {
        self.cpu_s * 1e6 / self.delivered.max(1) as f64
    }
}

/// Binds the cluster and installs the writer and readers; the set-up the
/// timed window excludes.
fn build(shape: Shape, seed: u64, traced: bool) -> Result<(MuxCluster, Vec<EndpointId>), String> {
    let tuning = Tuning::default();
    let clock = MonotonicClock::start();
    let cfg = MuxConfig::new(1)
        .with_sockets_per_worker(2)
        .with_seed(seed)
        .with_observed(false)
        .with_clock(clock);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
    let writer = NakcastSender::new(
        AppSpec::at_rate(shape.samples, shape.rate_hz, PAYLOAD_BYTES),
        StackProfile::new(10.0, 48),
        tuning,
        GroupId(0),
    );
    let mut ids = vec![cluster
        .add_endpoint(NodeId(0), Probe::new(writer, traced))
        .map_err(|e| e.to_string())?];
    for n in 1..=shape.readers {
        let reader =
            NakcastReceiver::new(NodeId(0), shape.samples, NAK_TIMEOUT, tuning, shape.loss);
        ids.push(
            cluster
                .add_endpoint(NodeId(n), Probe::new(reader, traced))
                .map_err(|e| e.to_string())?,
        );
    }
    cluster.connect_full_mesh().map_err(|e| e.to_string())?;
    Ok((cluster, ids))
}

fn writer(cluster: &MuxCluster, id: EndpointId) -> &Probe<NakcastSender> {
    cluster
        .core::<Probe<NakcastSender>>(id)
        .expect("endpoint 0 is the probed writer")
}

fn reader(cluster: &MuxCluster, id: EndpointId) -> &Probe<NakcastReceiver> {
    cluster
        .core::<Probe<NakcastReceiver>>(id)
        .expect("endpoints 1.. are probed readers")
}

/// Whether every reader has delivered or given up on every published
/// sample of a finished stream.
fn drained(cluster: &MuxCluster, ids: &[EndpointId], samples: u64) -> bool {
    writer(cluster, ids[0]).inner.published() >= samples
        && ids[1..].iter().all(|&id| {
            let r = reader(cluster, id);
            r.deliveries.len() as u64 + r.inner.give_ups() >= samples
        })
}

/// Runs one round: set up, publish the whole stream, drain, check.
pub fn run_round(
    shape: Shape,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) -> Result<Round, String> {
    let round_span = tracer.open("fanout.round");
    let setup_start = Instant::now();
    let (mut cluster, ids) = build(shape, seed, traced)?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let setup_scale = host.scale();

    let cpu_start = process_cpu_s();
    let round_start = Instant::now();
    let mut run_for_s = 0.0;
    let mut published_done: Option<Instant> = None;
    loop {
        let slice = tracer.open("rt.run_for");
        let start = Instant::now();
        cluster.run_for(SLICE).map_err(|e| e.to_string())?;
        run_for_s += start.elapsed().as_secs_f64();
        tracer.close(slice);
        if drained(&cluster, &ids, shape.samples) || round_start.elapsed() > ROUND_CAP {
            break;
        }
        if writer(&cluster, ids[0]).inner.published() >= shape.samples {
            let done = *published_done.get_or_insert_with(Instant::now);
            if done.elapsed() > DRAIN_CAP {
                break;
            }
        }
    }
    let cpu_s = process_cpu_s() - cpu_start;
    tracer.close(round_span);
    let window_scale = host.scale();

    let mut round = Round {
        setup_s,
        setup_scale,
        window_scale,
        run_for_s,
        cpu_s,
        readers: u64::from(shape.readers),
        stats: cluster.stats(),
        ..Round::default()
    };
    check_round(&cluster, &ids, &mut round);
    Ok(round)
}

/// Folds the probes into `round` and runs the correctness checks.
fn check_round(cluster: &MuxCluster, ids: &[EndpointId], round: &mut Round) {
    let w = writer(cluster, ids[0]);
    let published = w.inner.published();
    round.published = published;
    round.retransmissions = w.inner.retransmissions_sent();
    let mut check = |ok: bool, what: String| {
        round.checks += 1;
        if !ok {
            round.failures.push(what);
        }
    };
    check(
        w.published.len() as u64 == published,
        format!(
            "writer published {published} samples but {} original data sends were seen",
            w.published.len()
        ),
    );
    let stats = round.stats;
    for (name, count) in [
        ("decode", stats.decode_errors),
        ("header", stats.header_drops),
        ("unknown-endpoint", stats.unknown_endpoint_drops),
        ("stale", stats.stale_drops),
    ] {
        check(count == 0, format!("{count} {name} drops"));
    }

    let mut first_published = TimePoint::MAX;
    let mut last_delivered = TimePoint::ZERO;
    let mut delivered = 0u64;
    let mut recovered = 0u64;
    let mut give_ups = 0u64;
    let mut naks = 0u64;
    let mut duplicates = 0u64;
    let mut latency_us = Vec::new();
    let mut timer_late_us = Vec::new();
    let mut recovery_us = Vec::new();
    let mut failures = Vec::new();
    let mut checks = 0u64;
    for (index, &id) in ids[1..].iter().enumerate() {
        let r = reader(cluster, id);
        let mut seen = vec![false; published as usize];
        let (mut twice, mut beyond, mut disagree, mut backwards) = (0u64, 0u64, 0u64, 0u64);
        for &(seq, published_at, delivered_at, was_recovered) in &r.deliveries {
            if seq >= published {
                beyond += 1;
                continue;
            }
            if std::mem::replace(&mut seen[seq as usize], true) {
                twice += 1;
            }
            if w.published.get(seq as usize) != Some(&published_at) {
                disagree += 1;
            }
            if delivered_at < published_at {
                backwards += 1;
            }
            let us = delivered_at.saturating_since(published_at).as_micros_f64();
            latency_us.push(us);
            if was_recovered {
                recovered += 1;
                recovery_us.push(us);
            }
            first_published = first_published.min(published_at);
            last_delivered = last_delivered.max(delivered_at);
        }
        let reader_delivered = r.deliveries.len() as u64;
        let reader_give_ups = r.inner.give_ups();
        let reader_checks = [
            (
                twice == 0,
                format!("reader {index}: {twice} sequences delivered twice"),
            ),
            (
                beyond == 0,
                format!("reader {index}: {beyond} deliveries beyond published()"),
            ),
            (
                disagree == 0,
                format!("reader {index}: {disagree} published_at stamps disagree with the writer"),
            ),
            (
                backwards == 0,
                format!("reader {index}: {backwards} deliveries before publication"),
            ),
            (
                reader_delivered + reader_give_ups >= published,
                format!(
                    "reader {index}: {reader_delivered} delivered + {reader_give_ups} given up \
                     < {published} published after draining"
                ),
            ),
        ];
        for (ok, what) in reader_checks {
            checks += 1;
            if !ok {
                failures.push(what);
            }
        }
        delivered += reader_delivered;
        give_ups += reader_give_ups;
        naks += r.inner.naks_sent();
        duplicates += r.inner.duplicates();
        if let Some(trace) = &r.trace {
            round.receiver_steps += trace.steps;
            round.receiver_step_ns += trace.step_ns;
            timer_late_us.extend(trace.timer_late_ns.iter().map(|&ns| ns as f64 / 1e3));
            round.sent_sample.extend(trace.sent.iter().cloned());
            for (total, n) in round.sent_per_kind.iter_mut().zip(trace.sent_per_kind) {
                *total += n;
            }
        }
    }
    if let Some(trace) = &w.trace {
        round.sender_steps = trace.steps;
        round.sender_step_ns = trace.step_ns;
        timer_late_us.extend(trace.timer_late_ns.iter().map(|&ns| ns as f64 / 1e3));
        round.sent_sample.extend(trace.sent.iter().cloned());
        for (total, n) in round.sent_per_kind.iter_mut().zip(trace.sent_per_kind) {
            *total += n;
        }
    }
    round.checks += checks;
    round.failures.extend(failures);
    round.delivered = delivered;
    round.recovered = recovered;
    round.give_ups = give_ups;
    round.naks_sent = naks;
    round.duplicates = duplicates;
    round.latency_p50_us = percentile(&latency_us, 0.50).unwrap_or(0.0);
    round.latency_p99_us = percentile(&latency_us, 0.99).unwrap_or(0.0);
    round.timer_late_p50_us = percentile(&timer_late_us, 0.50).unwrap_or(0.0);
    round.timer_late_p99_us = percentile(&timer_late_us, 0.99).unwrap_or(0.0);
    round.recovery_us = recovery_us;
    round.span_s = last_delivered
        .saturating_since(first_published)
        .as_secs_f64();
}

/// Codec cost on a traced round's own message mix: mean ns per
/// `WireMsg::encode`, `WireMsg::decode` and `FrameHeader::decode`, each
/// kind weighted by how many messages of that kind the round sent.
pub fn time_codec(round: &Round) -> (f64, f64, f64) {
    const REPEATS: usize = 50;
    let mut per_kind = [[0.0f64; 3]; 3];
    for (slot, row) in per_kind.iter_mut().enumerate() {
        let msgs: Vec<&WireMsg> = round
            .sent_sample
            .iter()
            .filter(|m| kind_slot(m) == Some(slot))
            .collect();
        if msgs.is_empty() {
            continue;
        }
        let mut buf = Vec::new();
        let start = Instant::now();
        for _ in 0..REPEATS {
            for msg in &msgs {
                buf.clear();
                msg.encode(&mut buf);
                std::hint::black_box(&buf);
            }
        }
        let n = (REPEATS * msgs.len()) as f64;
        row[0] = start.elapsed().as_nanos() as f64 / n;

        let bodies: Vec<Vec<u8>> = msgs
            .iter()
            .map(|m| {
                let mut body = Vec::new();
                m.encode(&mut body);
                body
            })
            .collect();
        let start = Instant::now();
        for _ in 0..REPEATS {
            for body in &bodies {
                std::hint::black_box(WireMsg::decode(body));
            }
        }
        row[1] = start.elapsed().as_nanos() as f64 / n;

        let frames: Vec<Vec<u8>> = bodies
            .iter()
            .map(|body| {
                let mut frame = Vec::new();
                FrameHeader {
                    src: NodeId(0),
                    dst_endpoint: 1,
                    dst_incarnation: 0,
                }
                .encode(&mut frame);
                FrameHeader::encode_body_entry(&mut frame, body);
                frame
            })
            .collect();
        let start = Instant::now();
        for _ in 0..REPEATS {
            for frame in &frames {
                std::hint::black_box(FrameHeader::decode(frame));
            }
        }
        row[2] = start.elapsed().as_nanos() as f64 / n;
    }
    let total: u64 = round.sent_per_kind.iter().sum();
    let weighted = |col: usize| {
        per_kind
            .iter()
            .zip(round.sent_per_kind)
            .map(|(row, n)| row[col] * n as f64)
            .sum::<f64>()
            / total.max(1) as f64
    };
    (weighted(0), weighted(1), weighted(2))
}
