//! The open-loop TCP serving workloads.
//!
//! A run deploys the model behind a `NetServer`, offers load at the
//! workload's nominal rate (latency, accuracy, spikes and steps) in
//! slices between the rungs of a climb up a fixed ladder of offered
//! rates, which finds `slo_rps`: the highest
//! rung whose p99 over *offered* requests (a failed request counts as a
//! miss) meets the workload's limit with at most 1% failures and no
//! growing backlog. Every phase is checked: each response against the
//! offline `exit::run_with_policy` result for its image, one terminal
//! outcome per request, and the client's tallies against the server's
//! `NetStatsSnapshot` and `MetricsSnapshot`.

use crate::gen::{run_phase, schedule, Load, Outcome, Phase};
use crate::report::Report;
use crate::report::{profile_delta, profile_metrics, setup_metrics};
use crate::setup::{deploy, fixture, tune, Arch, Deployment, ServeShape, Server, MODEL};
use crate::stats::{kept_stretches, mean, median, percentile, percentile_sorted, supported_tail};
use crate::sys::{peak_rss_mib, start_peak_rss_window, steal_between, KeepAwake, STEAL_LIMIT};
use crate::trace::{self_time_by_name, SpanId, Trace};
use bsnn_core::batch::{padded_width, BatchedNetwork};
use bsnn_core::coding::CodingScheme;
use bsnn_serve::{
    run_batch_with_policies, run_with_policy, ArrivalProcess, ExitPolicy, ExitReason,
    MetricsSnapshot, NetStatsSnapshot, SpanKind, TraceEvent,
};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Rungs a climb typically offers (climb, bisection and retries); the
/// ladder's half of the run is split between them.
const RUNGS: f64 = 10.0;
/// Requests in one slice of the nominal load; the slices are spread
/// between the ladder's rungs.
const SLICE_REQUESTS: usize = 1400;
/// Ladder rungs skipped per step while climbing; the climb then bisects
/// back between the last passing and the first failing rung.
const STRIDE: usize = 8;

/// One serving workload.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Network shape.
    pub arch: Arch,
    /// Coding scheme.
    pub scheme: CodingScheme,
    /// Server configuration.
    pub shape: ServeShape,
    /// Exit policy every request carries.
    pub policy: ExitPolicy,
    /// Mean requests per burst.
    pub burst: usize,
    /// The nominal offered rate, req/s.
    pub nominal_rps: f64,
    /// The fixed ladder of offered rates, ascending.
    pub ladder: Vec<f64>,
    /// p99 latency limit for `slo_rps`, µs.
    pub p99_limit_us: u64,
    /// Distinct images offered.
    pub pool: usize,
}

impl ServeWorkload {
    fn arrival(&self, rps: f64) -> ArrivalProcess {
        ArrivalProcess::Bursty {
            rps,
            burst: self.burst,
        }
    }
}

/// The offline answer for one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Predicted class.
    pub prediction: usize,
    /// Time steps to exit.
    pub steps: usize,
}

/// Offline `run_with_policy` answers (the scalar f32 engine) for every
/// image in the pool.
pub fn reference(d: &Deployment, images: &[Vec<f32>], policy: &ExitPolicy) -> Vec<Expected> {
    let mut net = d.entry.network().clone();
    images
        .iter()
        .map(|image| {
            let o = run_with_policy(&mut net, image, &d.entry, policy).expect("reference run");
            Expected {
                prediction: o.prediction,
                steps: o.steps,
            }
        })
        .collect()
}

/// Offline answers of the entry's own lockstep engine at width 1, with
/// its dispatch policy and so its int8 stages: the reference where the
/// autotuner admitted int8, whose answers the f32 engine does not
/// reproduce.
pub fn engine_reference(d: &Deployment, images: &[Vec<f32>], policy: &ExitPolicy) -> Vec<Expected> {
    let mut engine = BatchedNetwork::new(d.entry.network().clone(), 1).expect("width-1 engine");
    engine.set_dispatch(d.dispatch());
    images
        .iter()
        .map(|image| {
            let o = run_batch_with_policies(
                &mut engine,
                &[image.as_slice()],
                &d.entry,
                std::slice::from_ref(policy),
            )
            .expect("reference run");
            Expected {
                prediction: o[0].prediction,
                steps: o[0].steps,
            }
        })
        .collect()
}

/// What a deployment's responses are checked against: the f32 answers
/// `f32_answers`, or with int8 admitted the engine's own answers (see
/// [`check_phase`]), plus the share of images whose prediction int8
/// moved away from f32.
pub fn expected_answers(
    d: &Deployment,
    images: &[Vec<f32>],
    policy: &ExitPolicy,
    f32_answers: &[Expected],
) -> (Vec<Expected>, f64) {
    if !d.int8_admitted() {
        return (f32_answers.to_vec(), 0.0);
    }
    let answers = engine_reference(d, images, policy);
    let moved = answers
        .iter()
        .zip(f32_answers)
        .filter(|(a, b)| a.prediction != b.prediction)
        .count();
    (answers, moved as f64 / images.len().max(1) as f64)
}

/// Client-side tallies of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests offered (scheduled and written).
    pub offered: u64,
    /// OK responses.
    pub ok: u64,
    /// SHED responses.
    pub shed: u64,
    /// ERROR responses.
    pub errors: u64,
    /// DEADLINE_EXCEEDED responses.
    pub deadline: u64,
    /// Requests without a response.
    pub dropped: u64,
}

impl Tally {
    /// Tallies a phase's first outcomes.
    pub fn of(phase: &Phase) -> Self {
        let mut t = Tally::default();
        for r in &phase.records {
            if r.sent_ns != u64::MAX {
                t.offered += 1;
            }
            match &r.outcome {
                Some(Outcome::Ok(_)) => t.ok += 1,
                Some(Outcome::Shed) => t.shed += 1,
                Some(Outcome::Error(_)) => t.errors += 1,
                Some(Outcome::Deadline) => t.deadline += 1,
                None => t.dropped += 1,
            }
        }
        t
    }

    /// Requests that did not get an answer (shed, error, deadline,
    /// dropped), protocol errors included.
    pub fn failed(&self, protocol_errors: u64) -> u64 {
        self.shed + self.errors + self.deadline + self.dropped + protocol_errors
    }
}

/// Server counters around one phase.
#[derive(Debug, Clone)]
pub struct Counters {
    /// Front-end counters.
    pub net: NetStatsSnapshot,
    /// Runtime counters.
    pub metrics: MetricsSnapshot,
}

impl Counters {
    fn read(server: &Server) -> Self {
        Counters {
            net: server.net.stats(),
            metrics: server.runtime.metrics(),
        }
    }
}

/// Share of predictions the autotuner's int8 accuracy gate lets differ
/// from the f32 engine (its default `quant_delta`).
pub const INT8_GATE: f64 = 0.005;

/// Share of exit steps that may differ from the width-1 engine where
/// int8 runs. The autotuner's gate does not bound when a run exits, and
/// exit steps move more than predictions: a small change to the output
/// potentials moves the step at which the confidence margin is crossed.
/// Measured over 141 runs of `serve_vgg_burst`: at most 0.54% of the
/// responses (median 0.13%); this is about twice the highest.
pub const INT8_STEPS_GATE: f64 = 0.01;

/// Agreement of served answers with the width-1 engine where int8 runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agreement {
    /// OK responses compared.
    pub responses: u64,
    /// Of those, predictions that differ.
    pub wrong_predictions: u64,
    /// Of those, exit steps that differ.
    pub wrong_steps: u64,
}

impl Agreement {
    fn add(self, o: Agreement) -> Agreement {
        Agreement {
            responses: self.responses + o.responses,
            wrong_predictions: self.wrong_predictions + o.wrong_predictions,
            wrong_steps: self.wrong_steps + o.wrong_steps,
        }
    }

    /// The violation, if predictions disagree with the width-1 engine on
    /// more than [`INT8_GATE`] of the responses or exit steps on more
    /// than [`INT8_STEPS_GATE`].
    pub fn verdict(&self, label: &str) -> Option<String> {
        println!(
            "{label}: int8 admitted; {} predictions and {} exit steps of {} responses differ \
             from the width-1 engine",
            self.wrong_predictions, self.wrong_steps, self.responses
        );
        let n = self.responses as f64;
        (self.wrong_predictions as f64 > INT8_GATE * n
            || self.wrong_steps as f64 > INT8_STEPS_GATE * n)
            .then(|| {
                format!(
                    "{label}: {} predictions and {} exit steps of {} responses differ from the \
                     width-1 engine, beyond the int8 gates of {INT8_GATE} and {INT8_STEPS_GATE}",
                    self.wrong_predictions, self.wrong_steps, self.responses
                )
            })
    }
}

/// Checks one phase: every offered request has exactly one terminal
/// outcome, every OK response matches the offline answer for its image,
/// and the client's tallies equal the server's counter deltas. Returns
/// every violation found.
///
/// Where the autotuner admitted int8 (`int8 = Some`), `expected` holds
/// the engine's own width-1 answers, and no reference is exact: the int8
/// kernel is picked per step from the whole lockstep batch's density, so
/// an answer depends on its batch-mates. Disagreements are then added to
/// the run's [`Agreement`], which must stay within the autotuner's own
/// gate over the whole run.
pub fn check_phase(
    label: &str,
    phase: &Phase,
    expected: &[Expected],
    int8: Option<&Cell<Agreement>>,
    before: &Counters,
    after: &Counters,
) -> Vec<String> {
    let mut errors = Vec::new();
    let t = Tally::of(phase);
    let unsent = phase.records.len() as u64 - t.offered;
    if unsent > 0 {
        errors.push(format!("{label}: {unsent} requests could not be sent"));
    }
    let duplicated = phase.records.iter().filter(|r| r.responses > 1).count();
    if t.dropped > 0 || duplicated > 0 || phase.unknown_ids > 0 {
        errors.push(format!(
            "{label}: {} requests without a response, {duplicated} answered more than once, \
             {} responses with unknown ids",
            t.dropped, phase.unknown_ids
        ));
    }
    if phase.protocol_errors > 0 {
        errors.push(format!(
            "{label}: {} protocol errors",
            phase.protocol_errors
        ));
    }
    let mut seen = Agreement::default();
    let mut first_wrong = None;
    for (i, r) in phase.records.iter().enumerate() {
        if let Some(Outcome::Ok(resp)) = &r.outcome {
            let want = expected[r.image];
            let p = resp.prediction != want.prediction;
            let s = resp.steps != want.steps;
            seen.responses += 1;
            seen.wrong_predictions += u64::from(p);
            seen.wrong_steps += u64::from(s);
            if p || s {
                first_wrong.get_or_insert((i, resp.prediction, resp.steps, want));
            }
        }
    }
    match int8 {
        Some(run) => run.set(run.get().add(seen)),
        None => {
            if let Some((i, p, s, want)) = first_wrong {
                errors.push(format!(
                    "{label}: {} of {} responses differ from the offline answer \
                     (request {i}: prediction {p} steps {s}, expected {want:?})",
                    seen.wrong_predictions.max(seen.wrong_steps),
                    seen.responses
                ));
            }
        }
    }
    let (n0, n1) = (&before.net, &after.net);
    let (m0, m1) = (&before.metrics, &after.metrics);
    let pairs = [
        ("net frames_in", n1.frames_in - n0.frames_in, t.offered),
        ("net responses_ok", n1.responses_ok - n0.responses_ok, t.ok),
        (
            "net responses_shed",
            n1.responses_shed - n0.responses_shed,
            t.shed,
        ),
        (
            "net responses_error",
            n1.responses_error - n0.responses_error,
            t.errors,
        ),
        (
            "net responses_deadline",
            n1.responses_deadline - n0.responses_deadline,
            t.deadline,
        ),
        (
            "net protocol_errors",
            n1.protocol_errors - n0.protocol_errors,
            0,
        ),
        ("net bytes_in", n1.bytes_in - n0.bytes_in, phase.bytes_sent),
        (
            "net bytes_out",
            n1.bytes_out - n0.bytes_out,
            phase.bytes_received,
        ),
        ("runtime completed", m1.completed - m0.completed, t.ok),
        ("runtime shed", m1.shed - m0.shed, t.shed),
        ("runtime failed", m1.failed - m0.failed, t.errors),
        (
            "runtime submitted",
            m1.submitted - m0.submitted,
            t.ok + t.errors + t.deadline,
        ),
    ];
    for (what, server, client) in pairs {
        if server != client {
            errors.push(format!(
                "{label}: server {what} delta {server} != client tally {client}"
            ));
        }
    }
    errors
}

/// What every phase of a run shares.
struct Bench<'a> {
    w: &'a ServeWorkload,
    images: &'a [Vec<f32>],
    order: &'a [usize],
    seed: u64,
}

/// A server under load and the answers it must give.
#[derive(Clone, Copy)]
struct Target<'a> {
    server: &'a Server,
    /// The run's agreement tally where the model runs int8 stages.
    int8: Option<&'a Cell<Agreement>>,
    expected: &'a [Expected],
}

/// One checked phase of load.
struct Run {
    phase: Phase,
    before: Counters,
    after: Counters,
}

/// Offers `rps` for `secs` to `target` and checks the phase.
fn offer(
    b: &Bench<'_>,
    label: &str,
    target: Target<'_>,
    rps: f64,
    secs: f64,
    report: &mut Report,
) -> Run {
    let load = Load {
        addr: target.server.addr(),
        model: MODEL,
        policy: b.w.policy.clone(),
        offsets: schedule(b.w.arrival(rps), Duration::from_secs_f64(secs), b.seed),
        images: b.images,
        order: b.order,
        drain: Duration::from_secs(10),
    };
    let before = Counters::read(target.server);
    let closed_before = before.net.closed;
    let phase = run_phase(&load, Instant::now()).expect("connect to the server");
    // The server closes the connection once every response is flushed;
    // its counters are final for this phase from then on.
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut after = Counters::read(target.server);
    while after.net.closed == closed_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        after = Counters::read(target.server);
    }
    for e in check_phase(label, &phase, target.expected, target.int8, &before, &after) {
        report.fail(e);
    }
    Run {
        phase,
        before,
        after,
    }
}

/// Latencies (from scheduled arrival) of the OK responses, sorted.
fn ok_latencies(phase: &Phase) -> Vec<u64> {
    let mut v: Vec<u64> = phase
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Some(Outcome::Ok(_))))
        .map(|r| r.latency_us())
        .collect();
    v.sort_unstable();
    v
}

/// The ladder's verdict on one rung: p99 over offered requests (a
/// failure is a miss), the failure share, and whether the backlog grew
/// (the median latency of the last quarter of the rung exceeds twice
/// that of the first quarter plus the limit's tenth).
fn rung_passes(run: &Run, limit_us: u64) -> (bool, u64, f64, bool) {
    let t = Tally::of(&run.phase);
    let failed = t.failed(run.phase.protocol_errors);
    let fail_frac = failed as f64 / t.offered.max(1) as f64;
    let mut lat: Vec<u64> = run
        .phase
        .records
        .iter()
        .map(|r| match r.outcome {
            Some(Outcome::Ok(_)) => r.latency_us(),
            _ => u64::MAX,
        })
        .collect();
    let n = lat.len();
    let quarter = (n / 4).max(1);
    let mut head = lat[..quarter.min(n)].to_vec();
    let mut tail = lat[n.saturating_sub(quarter)..].to_vec();
    let growing = percentile(&mut tail, 50.0)
        > percentile(&mut head, 50.0)
            .saturating_mul(2)
            .saturating_add(limit_us / 10);
    let p99 = percentile(&mut lat, 99.0);
    (
        p99 <= limit_us && fail_frac <= 0.01 && !growing,
        p99,
        fail_frac,
        growing,
    )
}

/// Climbs the ladder: every [`STRIDE`]-th rung until one fails, then
/// bisects the rungs in between. A failing rung is offered once more
/// and fails only if both tries do, so a single scheduling stall on the
/// host cannot end the climb. `between` runs before every rung offered.
/// Returns the highest passing rate (0 if the lowest rung fails) and
/// the shed share over all rungs.
fn climb(
    b: &Bench<'_>,
    target: Target<'_>,
    rung_secs: f64,
    report: &mut Report,
    between: &mut dyn FnMut(&mut Report),
) -> (f64, f64) {
    let w = b.w;
    let (mut shed, mut offered) = (0u64, 0u64);
    let mut try_once = |k: usize, report: &mut Report| -> bool {
        between(report);
        let rps = w.ladder[k];
        let label = format!("ladder {rps:.0} req/s");
        let run = offer(b, &label, target, rps, rung_secs, report);
        let t = Tally::of(&run.phase);
        shed += t.shed;
        offered += t.offered;
        let (pass, p99, fail_frac, growing) = rung_passes(&run, w.p99_limit_us);
        println!(
            "rung {rps:>8.0} req/s  p99 {p99:>9} us  fail {fail_frac:.4}  backlog growing {growing}  \
             shed {}  {}",
            t.shed,
            if pass { "pass" } else { "FAIL" }
        );
        pass
    };
    let mut try_rung = |k: usize, report: &mut Report| try_once(k, report) || try_once(k, report);
    let top = w.ladder.len() - 1;
    let mut lo: Option<usize> = None;
    let mut hi = top + 1;
    let mut k = 0;
    loop {
        if try_rung(k, report) {
            lo = Some(k);
            if k == top {
                break;
            }
            k = (k + STRIDE).min(top);
        } else {
            hi = k;
            break;
        }
    }
    if let Some(mut l) = lo {
        while hi - l > 1 {
            let mid = (l + hi) / 2;
            if try_rung(mid, report) {
                l = mid;
            } else {
                hi = mid;
            }
        }
        lo = Some(l);
    }
    (
        lo.map_or(0.0, |l| w.ladder[l]),
        shed as f64 / offered.max(1) as f64,
    )
}

/// The server's sampled lifecycle spans as benchmark spans under
/// `parent`, each `service` span a child of the `batch` span that
/// contains it on the same worker; returns the mean self time of the
/// queued, batch and service spans, µs.
fn merge_tracer(
    events: &[TraceEvent],
    offset_ns: u64,
    trace: &mut Trace,
    parent: Option<SpanId>,
) -> [f64; 3] {
    let mut local = Trace::new(true, trace.epoch());
    // The open batch span per worker thread id. Events arrive sorted by
    // start time, so a batch span precedes the service spans it contains.
    let mut open_batch: Vec<(u64, u64, SpanId)> = Vec::new();
    for e in events.iter().filter(|e| e.kind.is_complete()) {
        let start = offset_ns + e.ts_us * 1000;
        let end = start + e.dur_us * 1000;
        let tid = e.tid as usize;
        let (name, parent) = match e.kind {
            SpanKind::Queued => ("obs.queued", None),
            SpanKind::Batch => ("obs.batch", None),
            _ => (
                "obs.service",
                open_batch
                    .get(tid)
                    .filter(|&&(s, t, _)| s <= start && end <= t)
                    .map(|&(_, _, id)| id),
            ),
        };
        let id = local
            .add_ns(name, start, end, parent, e.token)
            .expect("enabled");
        if e.kind == SpanKind::Batch {
            if open_batch.len() <= tid {
                open_batch.resize(tid + 1, (0, 0, 0));
            }
            open_batch[tid] = (start, end, id);
        }
    }
    let by = self_time_by_name(local.spans());
    let mean_us = |name: &str| {
        by.get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n.max(1) as f64)
    };
    let out = [
        mean_us("obs.queued"),
        mean_us("obs.batch"),
        mean_us("obs.service"),
    ];
    trace.absorb(local, parent);
    out
}

/// Per-request spans of a phase: the request from scheduled arrival to
/// response, split into generator lateness and the round trip.
fn request_spans(phase: &Phase, start_ns: u64, trace: &mut Trace, parent: Option<SpanId>) {
    for (i, r) in phase.records.iter().enumerate() {
        if r.outcome.is_none() {
            continue;
        }
        let id = i as u64;
        let root = trace.add_ns(
            "client.request",
            start_ns + r.scheduled_ns,
            start_ns + r.done_ns,
            parent,
            id,
        );
        trace.add_ns(
            "gen.late",
            start_ns + r.scheduled_ns,
            start_ns + r.sent_ns,
            root,
            id,
        );
        trace.add_ns(
            "net.round_trip",
            start_ns + r.sent_ns,
            start_ns + r.done_ns,
            root,
            id,
        );
    }
}

/// The OK responses of a phase.
fn ok_responses(
    phase: &Phase,
) -> impl Iterator<Item = (&crate::gen::Record, &bsnn_serve::InferResponse)> {
    phase.records.iter().filter_map(|r| match &r.outcome {
        Some(Outcome::Ok(resp)) => Some((r, resp)),
        _ => None,
    })
}

/// Steal share and OK-response latencies (µs) of each second of a
/// phase's schedule, by the second a request was due in.
fn seconds_of(phase: &Phase) -> Vec<(f64, Vec<u64>)> {
    let mut secs: Vec<(f64, Vec<u64>)> = Vec::new();
    for r in phase.records.iter() {
        let k = (r.scheduled_ns / 1_000_000_000) as usize;
        if secs.len() <= k {
            secs.resize_with(k + 1, || (0.0, Vec::new()));
        }
        if matches!(r.outcome, Some(Outcome::Ok(_))) {
            secs[k].1.push(r.latency_us());
        }
    }
    for (k, sec) in secs.iter_mut().enumerate() {
        let at = |i: usize| phase.marks.get(i).copied().flatten();
        sec.0 = steal_between(at(k), at(k + 1).or(phase.marks.last().copied().flatten()));
    }
    secs
}

/// The end-to-end measurement of an untraced run: the nominal load for
/// `nominal_secs` in slices of [`SLICE_REQUESTS`] requests, one before
/// the climb and one before each ladder rung until they are all offered,
/// so that the slices are spread over the run. Each slice's percentiles
/// are taken over its requests due in seconds that the hypervisor stole
/// little CPU time from (see [`kept_stretches`], over the seconds of
/// all slices); `p50_us` and `p99_us` are the medians over the slices,
/// so that one slice the host disturbed in a way steal does not show
/// cannot set them. Every slice is checked and counts toward the other
/// metrics.
fn measure(
    b: &Bench<'_>,
    target: Target<'_>,
    labels: &[usize],
    nominal_secs: f64,
    rung_secs: f64,
    report: &mut Report,
) {
    let w = b.w;
    let slice_secs = SLICE_REQUESTS as f64 / w.nominal_rps;
    let n_slices = ((nominal_secs / slice_secs).floor() as usize).max(1);
    let mut slices: Vec<Phase> = Vec::with_capacity(n_slices);
    let offer_slice = |k: usize, report: &mut Report| {
        let label = format!("nominal slice {k}");
        offer(b, &label, target, w.nominal_rps, slice_secs, report).phase
    };
    // Peak memory of the first slice, which runs before any ladder rung:
    // after an overload rung the allocator keeps the queue's memory.
    start_peak_rss_window();
    slices.push(offer_slice(0, report));
    report.set("peak_rss_mb", peak_rss_mib());
    let (slo, _) = climb(b, target, rung_secs, report, &mut |report: &mut Report| {
        if slices.len() < n_slices {
            slices.push(offer_slice(slices.len(), report));
        }
    });
    while slices.len() < n_slices {
        slices.push(offer_slice(slices.len(), report));
    }
    report.set("slo_rps", slo);

    let per_slice: Vec<Vec<(f64, Vec<u64>)>> = slices.iter().map(seconds_of).collect();
    let steal: Vec<f64> = per_slice.iter().flatten().map(|s| s.0).collect();
    let kept = kept_stretches(&steal, STEAL_LIMIT);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut ok, mut wall, mut first_second) = (0usize, 0.0f64, 0usize);
    let (mut right, mut spikes, mut steps) = (0usize, 0.0f64, 0.0f64);
    for (k, (phase, seconds)) in slices.iter().zip(&per_slice).enumerate() {
        let t = Tally::of(phase);
        report.attempted += t.offered;
        report.failed += t.failed(phase.protocol_errors);
        let is_kept = |i: usize| kept.contains(&(first_second + i));
        let mut lat: Vec<u64> = seconds
            .iter()
            .enumerate()
            .filter(|&(i, _)| is_kept(i))
            .flat_map(|(_, s)| s.1.iter().copied())
            .collect();
        let (p50, p99) = (percentile(&mut lat, 50.0), percentile_sorted(&lat, 99.0));
        println!(
            "nominal slice {k}: offered {}  ok {}  failed {}  kept {} (p{})  p50 {p50} us  \
             p99 {p99} us  steal per second {}",
            t.offered,
            t.ok,
            t.failed(phase.protocol_errors),
            lat.len(),
            supported_tail(lat.len()).unwrap_or(0.0),
            seconds
                .iter()
                .enumerate()
                .map(|(i, s)| format!("{:.3}{}", s.0, if is_kept(i) { "" } else { "x" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if !lat.is_empty() {
            p50s.push(p50 as f64);
            p99s.push(p99 as f64);
        }
        first_second += seconds.len();
        wall += phase.wall.as_secs_f64();
        for (r, resp) in ok_responses(phase) {
            ok += 1;
            right += usize::from(resp.prediction == labels[r.image]);
            spikes += resp.spikes as f64;
            steps += resp.steps as f64;
        }
    }
    let n = ok.max(1) as f64;
    report.set("img_per_s", ok as f64 / wall);
    report.set("p50_us", median(&mut p50s));
    report.set("p99_us", median(&mut p99s));
    report.set("accuracy", right as f64 / n);
    report.set("spikes_per_img", spikes / n);
    report.set("steps_per_img", steps / n);
}

/// Runs one serving workload: tunes (see [`crate::setup::tune`]),
/// deploys the chosen policy, and offers the nominal load for half of
/// `seconds`, in slices interleaved with the ladder's rungs in the other
/// half (see `measure`). The traced run
/// offers the nominal load for a quarter each to that deployment and to
/// a traced one, and climbs the ladder on the traced one.
pub fn run(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool, trace: &mut Trace) -> Report {
    let mut report = Report::default();
    let mut fx = fixture(w.arch, w.scheme, seed, w.pool);
    let images: Vec<Vec<f32>> = (0..w.pool).map(|i| fx.test.image(i).to_vec()).collect();
    let labels: Vec<usize> = (0..w.pool).map(|i| fx.test.label(i)).collect();
    // The fixture already drew the images in seeded order.
    let order: Vec<usize> = (0..w.pool).collect();
    let b = Bench {
        w,
        images: &images,
        order: &order,
        seed,
    };
    let (policy, times) = tune(&mut fx, Some(&w.shape), w.shape.max_batch, trace);
    setup_metrics(&mut report, &times, traced);
    let (d, _) = deploy(&mut fx, Some(&policy), Some(&w.shape), false, trace);
    let f32_answers = reference(&d, &images, &w.policy);
    let (expected, _) = expected_answers(&d, &images, &w.policy, &f32_answers);
    let agreement = Cell::new(Agreement::default());
    let target = Target {
        server: d.server.as_ref().expect("serve deployment has a server"),
        int8: d.int8_admitted().then_some(&agreement),
        expected: &expected,
    };
    println!(
        "serve: pool {} images, width {}, int8 admitted {}",
        w.pool,
        policy.preferred_batch,
        target.int8.is_some()
    );
    // Every offered load runs with the CPUs kept from halting (see
    // `KeepAwake`); set-up does not.
    let awake = KeepAwake::start();
    println!("keep-awake: {} idle-priority spinners", awake.spinning());
    offer(&b, "warm-up", target, w.nominal_rps, 0.5, &mut report);
    let rung_secs = (seconds / 2.0 / RUNGS).max(0.25);
    if !traced {
        measure(&b, target, &labels, seconds / 2.0, rung_secs, &mut report);
        if let Some(e) = target.int8.and_then(|a| a.get().verdict("run")) {
            report.fail(e);
        }
        d.stop();
        return report;
    }
    let nominal_secs = seconds / 4.0;
    let nominal = offer(
        &b,
        "nominal",
        target,
        w.nominal_rps,
        nominal_secs,
        &mut report,
    );
    let p50 = percentile_sorted(&ok_latencies(&nominal.phase), 50.0) as f64;
    if let Some(e) = target.int8.and_then(|a| a.get().verdict("untraced run")) {
        report.fail(e);
    }
    d.stop();

    // Traced run: a second deployment with engine profiling and request
    // tracing on.
    let (td, _) = deploy(&mut fx, Some(&policy), Some(&w.shape), true, trace);
    let (traced_expected, traced_gap) = expected_answers(&td, &images, &w.policy, &f32_answers);
    let traced_agreement = Cell::new(Agreement::default());
    let traced_target = Target {
        server: td.server.as_ref().expect("serve deployment has a server"),
        int8: td.int8_admitted().then_some(&traced_agreement),
        expected: &traced_expected,
    };
    report.set("quant.f32_gap", traced_gap);
    let server_epoch_ns = trace.ns(Instant::now());
    offer(
        &b,
        "traced warm-up",
        traced_target,
        w.nominal_rps,
        0.5,
        &mut report,
    );
    let sink = td.entry.profile();
    let p0 = sink.snapshot();
    let phase_start = trace.ns(Instant::now());
    let root = trace.open("phase.nominal_traced", None, 0);
    let run = offer(
        &b,
        "traced nominal",
        traced_target,
        w.nominal_rps,
        nominal_secs,
        &mut report,
    );
    trace.close(root);
    let p = profile_delta(&sink.snapshot(), &p0);
    request_spans(&run.phase, phase_start, trace, root);
    let tlat = ok_latencies(&run.phase);
    let tt = Tally::of(&run.phase);
    report.attempted = tt.offered;
    report.failed = tt.failed(run.phase.protocol_errors);

    let oks: Vec<_> = ok_responses(&run.phase).collect();
    let lane_steps: u64 = oks.iter().map(|(_, r)| r.steps as u64).sum();
    profile_metrics(&mut report, &p, lane_steps);
    report.set("batch.advance_other_ns", 0.0);
    // Lane use: useful lane-steps over paid ones. Paid lane-steps are
    // approximated as the mean padded width per lockstep batch (from the
    // responses' batch sizes) times the engine steps the profile saw.
    let padded_sum: f64 = oks
        .iter()
        .map(|(_, r)| padded_width(r.batch_size) as f64 / r.batch_size as f64)
        .sum();
    let batches = oks
        .iter()
        .map(|(_, r)| 1.0 / r.batch_size as f64)
        .sum::<f64>();
    let mean_padded = padded_sum / batches.max(1e-9);
    report.set(
        "batch.lane_util",
        lane_steps as f64 / (mean_padded * p.steps.max(1) as f64),
    );
    report.set("autotune.preferred_batch", td.policy.preferred_batch as f64);
    let steps: Vec<f64> = oks.iter().map(|(_, r)| r.steps as f64).collect();
    report.set("exit.steps_mean", mean(&steps));
    report.set(
        "exit.early_frac",
        oks.iter()
            .filter(|(_, r)| r.exit != ExitReason::HorizonReached)
            .count() as f64
            / oks.len().max(1) as f64,
    );
    let mut queue: Vec<u64> = oks.iter().map(|(_, r)| r.queue_micros).collect();
    report.set("queue.wait_us.p50", percentile(&mut queue, 50.0) as f64);
    report.set("queue.wait_us.p99", percentile_sorted(&queue, 99.0) as f64);
    let mut service: Vec<u64> = oks.iter().map(|(_, r)| r.service_micros).collect();
    report.set(
        "worker.service_us.p50",
        percentile(&mut service, 50.0) as f64,
    );
    let batch_sizes: Vec<f64> = oks.iter().map(|(_, r)| r.batch_size as f64).collect();
    report.set("worker.batch_mean", mean(&batch_sizes));
    let mut wire: Vec<u64> = oks
        .iter()
        .map(|(rec, r)| {
            rec.round_trip_us()
                .saturating_sub(r.queue_micros + r.service_micros)
        })
        .collect();
    report.set("net.wire_us.p50", percentile(&mut wire, 50.0) as f64);
    report.set("net.wire_us.p99", percentile_sorted(&wire, 99.0) as f64);
    let (n0, n1) = (&run.before.net, &run.after.net);
    report.set(
        "net.bytes_per_req",
        (n1.bytes_in - n0.bytes_in + n1.bytes_out - n0.bytes_out) as f64
            / (n1.frames_in - n0.frames_in).max(1) as f64,
    );
    report.set(
        "fail_frac",
        tt.failed(run.phase.protocol_errors) as f64 / tt.offered.max(1) as f64,
    );
    let mut late: Vec<u64> = run.phase.records.iter().map(|r| r.late_us()).collect();
    report.set("gen.late_us.p99", percentile(&mut late, 99.0) as f64);
    report.set("gen.cpu_s", run.phase.cpu_s);
    let obs_root = trace.open("obs.tracer", None, 0);
    let [queued, batch, service] = merge_tracer(
        &traced_target.server.runtime.tracer().events(),
        server_epoch_ns,
        trace,
        obs_root,
    );
    trace.close(obs_root);
    report.set("obs.queued_us", queued);
    report.set("obs.batch_us", batch);
    report.set("obs.service_us", service);
    // Untraced over traced p50, so that, as on eval, 1 means no
    // overhead and lower means more.
    report.set(
        "trace.overhead",
        p50 / (percentile_sorted(&tlat, 50.0) as f64).max(1.0),
    );
    let (_, shed_frac) = climb(&b, traced_target, rung_secs, &mut report, &mut |_| {});
    report.set("shed.frac", shed_frac);
    if let Some(e) = traced_target
        .int8
        .and_then(|a| a.get().verdict("traced run"))
    {
        report.fail(e);
    }
    td.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::PHASE_PERIOD;
    use bsnn_core::coding::{HiddenCoding, InputCoding};
    use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
    use bsnn_core::synapse::Synapse;
    use bsnn_core::SpikingNetwork;
    use bsnn_serve::{ModelRegistry, NetConfig, NetServer, ServeConfig, ServeRuntime};
    use std::sync::Arc;

    fn tiny_server() -> (Deployment, Vec<Vec<f32>>) {
        let weight = |rows: usize, cols: usize, salt: usize| Synapse::Dense {
            weight: bsnn_tensor::Tensor::from_vec(
                (0..rows * cols)
                    .map(|i| ((i * 7 + salt) % 11) as f32 / 11.0 - 0.3)
                    .collect(),
                &[rows, cols],
            )
            .unwrap(),
        };
        let hidden =
            SpikingLayer::new(weight(8, 6, 1), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        let net = SpikingNetwork::new(8, vec![hidden], weight(6, 4, 5), None).unwrap();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let registry = Arc::new(ModelRegistry::new());
        registry.install(MODEL, net, scheme, PHASE_PERIOD);
        let entry = registry.get(MODEL).unwrap();
        let runtime = Arc::new(
            ServeRuntime::start(
                ServeConfig {
                    workers: 1,
                    ..ServeConfig::default()
                },
                Arc::clone(&registry),
            )
            .unwrap(),
        );
        let net = NetServer::bind("127.0.0.1:0", Arc::clone(&runtime), NetConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let images = (0..6)
            .map(|k| (0..8).map(|i| ((i + k) % 5) as f32 / 4.0).collect())
            .collect();
        let d = Deployment {
            entry,
            policy: bsnn_core::autotune::BatchPolicy {
                preferred_batch: 1,
                probes: Vec::new(),
                density_thresholds: Vec::new(),
                packed_thresholds: Vec::new(),
                quant_thresholds: Vec::new(),
                quant_eligible: Vec::new(),
            },
            server: Some(Server { runtime, net }),
        };
        (d, images)
    }

    fn bench<'a>(w: &'a ServeWorkload, images: &'a [Vec<f32>], order: &'a [usize]) -> Bench<'a> {
        Bench {
            w,
            images,
            order,
            seed: 3,
        }
    }

    fn target<'a>(d: &'a Deployment, expected: &'a [Expected]) -> Target<'a> {
        Target {
            server: d.server.as_ref().unwrap(),
            int8: None,
            expected,
        }
    }

    fn workload() -> ServeWorkload {
        ServeWorkload {
            arch: Arch::Mlp,
            scheme: CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
            shape: ServeShape {
                workers: 1,
                max_batch: 4,
                linger: Duration::from_micros(200),
            },
            policy: ExitPolicy::recommended(24),
            burst: 4,
            nominal_rps: 400.0,
            ladder: vec![400.0],
            p99_limit_us: 1_000_000,
            pool: 6,
        }
    }

    #[test]
    fn int8_agreement_gates_exit_steps_as_well_as_predictions() {
        let a = Agreement {
            responses: 1000,
            wrong_predictions: 5,
            wrong_steps: 10,
        };
        assert!(a.verdict("x").is_none());
        let steps = Agreement {
            wrong_steps: 11,
            ..a
        };
        assert!(steps.verdict("x").is_some());
        let predictions = Agreement {
            wrong_predictions: 6,
            ..a
        };
        assert!(predictions.verdict("x").is_some());
    }

    #[test]
    fn served_answers_match_the_offline_reference_and_counters_reconcile() {
        let (d, images) = tiny_server();
        let w = workload();
        let expected = reference(&d, &images, &w.policy);
        let order: Vec<usize> = (0..images.len()).collect();
        let mut report = Report::default();
        let run = offer(
            &bench(&w, &images, &order),
            "test",
            target(&d, &expected),
            400.0,
            0.1,
            &mut report,
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let t = Tally::of(&run.phase);
        assert_eq!(t.offered, 40);
        assert_eq!(t.ok, 40);
        d.stop();
    }

    #[test]
    fn a_planted_wrong_expected_prediction_fails_the_run() {
        let (d, images) = tiny_server();
        let w = workload();
        let mut expected = reference(&d, &images, &w.policy);
        expected[2].prediction = (expected[2].prediction + 1) % 4;
        let order: Vec<usize> = (0..images.len()).collect();
        let mut report = Report::default();
        offer(
            &bench(&w, &images, &order),
            "test",
            target(&d, &expected),
            400.0,
            0.1,
            &mut report,
        );
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.errors[0].contains("differ from the offline answer"));
        let line = report.json_line(&[]);
        assert!(line.starts_with("{\"correct\": false"));
        d.stop();
    }

    #[test]
    fn counter_mismatch_and_lost_or_duplicated_responses_are_caught() {
        let (d, images) = tiny_server();
        let w = workload();
        let expected = reference(&d, &images, &w.policy);
        let order: Vec<usize> = (0..images.len()).collect();
        let mut report = Report::default();
        let run = offer(
            &bench(&w, &images, &order),
            "test",
            target(&d, &expected),
            400.0,
            0.05,
            &mut report,
        );
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        // A server that answered one more request than the client saw.
        let mut after = run.after.clone();
        after.net.responses_ok += 1;
        let errs = check_phase("x", &run.phase, &expected, None, &run.before, &after);
        assert!(
            errs.iter().any(|e| e.contains("net responses_ok")),
            "{errs:?}"
        );
        // A lost and a duplicated response.
        let mut phase = run.phase.clone();
        phase.records[0].responses = 0;
        phase.records[0].outcome = None;
        phase.records[1].responses = 2;
        let errs = check_phase("x", &phase, &expected, None, &run.before, &run.after);
        assert!(
            errs.iter()
                .any(|e| e.contains("1 requests without a response, 1 answered more than once")),
            "{errs:?}"
        );
        d.stop();
    }
}
