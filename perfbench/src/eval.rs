//! The offline-evaluation workloads.
//!
//! The timed region is [`scoring_streams`] concurrent streams of scoring
//! jobs: each job is one `evaluate_dataset_batched_with_dispatch` call
//! with one thread over `job` images of the seeded dataset, at the
//! autotuned width. Job latency gives `p50_us`/`p99_us` and images
//! finished give `img_per_s`, each over the seconds of the stream that
//! the hypervisor stole little CPU time from (see [`kept_stretches`]).

use crate::report::{profile_delta, profile_metrics, setup_metrics, Report};
use crate::scoring_streams;
use crate::serve::INT8_GATE;
use crate::setup::{deploy, fixture, tune, Arch, Deployment};
use crate::stats::{kept_stretches, percentile, percentile_sorted, supported_tail};
use crate::sys::{cpu_jiffies, peak_rss_mib, start_peak_rss_window, steal_between, STEAL_LIMIT};
use crate::trace::{SpanId, Trace};
use bsnn_core::batch::{padded_width, BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::batch::{DispatchPolicy, ProfileSink};
use bsnn_core::coding::CodingScheme;
use bsnn_core::simulator::{evaluate_dataset, evaluate_dataset_batched_with_dispatch, EvalConfig};
use bsnn_core::SpikingNetwork;
use bsnn_data::ImageDataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One offline-evaluation workload.
#[derive(Debug, Clone)]
pub struct EvalWorkload {
    /// Network shape.
    pub arch: Arch,
    /// Coding scheme.
    pub scheme: CodingScheme,
    /// Images per scoring job.
    pub job: usize,
    /// Jobs in the seeded dataset (it is `job × jobs` images), a
    /// multiple of [`scoring_streams`].
    pub jobs: usize,
    /// Jobs whose results are re-checked against the scalar reference.
    pub checked_jobs: usize,
    /// Most lanes a scoring thread runs at once: the autotuned width is
    /// capped at this.
    pub max_lanes: usize,
}

/// Simulation horizon of every evaluation.
pub const STEPS: usize = 64;
/// Job latency limit for `slo_rps`, µs.
pub const JOB_LIMIT_US: u64 = 100_000;

/// The per-job result the correctness checks compare.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobResult {
    correct: u64,
    spikes: u64,
}

fn job_result(accuracy: f64, mean_spikes: f64, n: usize) -> JobResult {
    JobResult {
        correct: (accuracy * n as f64).round() as u64,
        spikes: (mean_spikes * n as f64).round() as u64,
    }
}

/// One image's answer from a lockstep engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    prediction: usize,
    spikes: u64,
}

/// The job result of per-image `answers` to `job`.
fn tally(answers: &[Answer], job: &ImageDataset) -> JobResult {
    JobResult {
        correct: answers
            .iter()
            .enumerate()
            .filter(|&(i, a)| a.prediction == job.label(i))
            .count() as u64,
        spikes: answers.iter().map(|a| a.spikes).sum(),
    }
}

/// Splits `test` into `jobs` datasets of `job` images.
fn split_jobs(test: &ImageDataset, job: usize, jobs: usize) -> Vec<ImageDataset> {
    assert!(test.len() >= job * jobs, "dataset too small for the jobs");
    (0..jobs)
        .map(|j| {
            let mut images = Vec::with_capacity(job * test.sample_volume());
            let mut labels = Vec::with_capacity(job);
            for i in j * job..(j + 1) * job {
                images.extend_from_slice(test.image(i));
                labels.push(test.label(i));
            }
            ImageDataset::new(
                "bench-job",
                images,
                labels,
                test.channels(),
                test.height(),
                test.width(),
                test.num_classes(),
            )
        })
        .collect()
}

/// Stats of one timed stream of jobs.
struct Stream {
    /// (second of the stream it ended in, latency µs) per job.
    jobs: Vec<(usize, u64)>,
    images: u64,
    wall: Duration,
    /// Images finished in each second of the stream.
    per_second: Vec<u64>,
    /// Of those, images in jobs within the job latency limit.
    within_per_second: Vec<u64>,
    /// The machine's CPU time ([`cpu_jiffies`]) as each second began
    /// (read at its first job's end), then at the stream's end.
    marks: Vec<Option<(u64, u64)>>,
}

/// A stream's figures over some of its seconds.
#[derive(Debug, Clone, PartialEq)]
struct Figures {
    img_per_s: f64,
    within_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    /// Jobs the percentiles are taken over.
    jobs: usize,
}

impl Stream {
    /// The steal share of each whole second of the stream.
    fn steal(&self) -> Vec<f64> {
        let whole = self.per_second.len().min(self.wall.as_secs() as usize);
        let at = |k: usize| self.marks.get(k).copied().flatten();
        (0..whole)
            .map(|k| steal_between(at(k), at(k + 1)))
            .collect()
    }

    /// The figures over the seconds `kept`, or over the whole stream if
    /// none are.
    fn figures(&self, kept: &[usize]) -> Figures {
        let mut lat: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(sec, _)| kept.is_empty() || kept.contains(sec))
            .map(|&(_, us)| us)
            .collect();
        let (images, within, secs) = if kept.is_empty() {
            (
                self.images as f64,
                self.within_per_second.iter().sum::<u64>() as f64,
                self.wall.as_secs_f64(),
            )
        } else {
            let sum = |v: &[u64]| kept.iter().map(|&k| v[k]).sum::<u64>() as f64;
            (
                sum(&self.per_second),
                sum(&self.within_per_second),
                kept.len() as f64,
            )
        };
        Figures {
            img_per_s: images / secs,
            within_per_s: within / secs,
            p50_us: percentile(&mut lat, 50.0),
            p99_us: percentile_sorted(&lat, 99.0),
            jobs: lat.len(),
        }
    }
}

/// What one stream of [`run_stream`] saw.
#[derive(Default)]
struct Part {
    jobs: Vec<(usize, u64)>,
    images: u64,
    per_second: Vec<u64>,
    within_per_second: Vec<u64>,
    marks: Vec<Option<(u64, u64)>>,
    /// Each job's first result in this stream.
    results: Vec<(usize, JobResult)>,
    errors: Vec<String>,
}

/// Runs jobs in `streams` concurrent streams for at least `budget` and
/// at least one full pass over the dataset: each stream is a thread
/// that scores one job after another, each job one
/// `evaluate_dataset_batched_with_dispatch` call with one thread, and
/// job `j` always runs on stream `j % streams`. Checks each repeat
/// against the job's first result (`first`, which it fills in).
#[allow(clippy::too_many_arguments)]
fn run_stream(
    net: &SpikingNetwork,
    jobs: &[ImageDataset],
    cfg: &EvalConfig,
    streams: usize,
    width: usize,
    dispatch: &DispatchPolicy,
    budget: Duration,
    limit_us: u64,
    first: &mut [Option<JobResult>],
    report: &mut Report,
) -> Stream {
    assert_eq!(
        jobs.len() % streams,
        0,
        "jobs split evenly over the streams"
    );
    let start = Instant::now();
    let known: &[Option<JobResult>] = first;
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|t| {
                scope.spawn(move || {
                    let mut p = Part::default();
                    let mut seen: Vec<Option<JobResult>> = known.to_vec();
                    if t == 0 {
                        p.marks.push(cpu_jiffies());
                    }
                    let mut k = t;
                    while k < jobs.len() || start.elapsed() < budget {
                        let j = k % jobs.len();
                        let t0 = Instant::now();
                        let r = evaluate_dataset_batched_with_dispatch(
                            net, &jobs[j], cfg, 1, width, dispatch,
                        )
                        .expect("dataset evaluation");
                        let us = t0.elapsed().as_micros() as u64;
                        let n = jobs[j].len() as u64;
                        p.images += n;
                        let second = start.elapsed().as_secs() as usize;
                        p.jobs.push((second, us));
                        if p.per_second.len() <= second {
                            p.per_second.resize(second + 1, 0);
                            p.within_per_second.resize(second + 1, 0);
                        }
                        if t == 0 && p.marks.len() <= second {
                            p.marks.resize(second + 1, cpu_jiffies());
                        }
                        p.per_second[second] += n;
                        if us <= limit_us {
                            p.within_per_second[second] += n;
                        }
                        let got =
                            job_result(r.final_accuracy(), r.final_mean_spikes(), jobs[j].len());
                        match seen[j] {
                            None => {
                                seen[j] = Some(got);
                                p.results.push((j, got));
                            }
                            Some(want) if want != got => p
                                .errors
                                .push(format!("job {j}: repeat gave {got:?}, first run {want:?}")),
                            Some(_) => {}
                        }
                        k += streams;
                    }
                    if t == 0 {
                        p.marks.push(cpu_jiffies());
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    });
    let mut s = Stream {
        jobs: Vec::new(),
        images: 0,
        wall: start.elapsed(),
        per_second: Vec::new(),
        within_per_second: Vec::new(),
        marks: Vec::new(),
    };
    let add = |into: &mut Vec<u64>, from: &[u64]| {
        if into.len() < from.len() {
            into.resize(from.len(), 0);
        }
        for (a, b) in into.iter_mut().zip(from) {
            *a += b;
        }
    };
    for p in parts {
        s.jobs.extend(p.jobs);
        s.images += p.images;
        add(&mut s.per_second, &p.per_second);
        add(&mut s.within_per_second, &p.within_per_second);
        if !p.marks.is_empty() {
            s.marks = p.marks;
        }
        for (j, got) in p.results {
            match first[j] {
                None => first[j] = Some(got),
                Some(want) if want != got => {
                    report.fail(format!("job {j}: repeat gave {got:?}, first run {want:?}"))
                }
                Some(_) => {}
            }
        }
        for e in p.errors {
            report.fail(e);
        }
    }
    s
}

/// What the instrumented job loop measured.
#[derive(Default)]
struct Instrumented {
    images: u64,
    wall: Duration,
    advance_ns: u64,
    advances: u64,
    live_share_sum: f64,
}

/// The twin of one `evaluate_dataset_batched_with_dispatch` call with
/// one thread: the same engine and lockstep loop, driven through the
/// `batch` module's public API so that every `advance()` can be timed,
/// the engine can carry a `ProfileSink`, and each image's answer is
/// seen. Returns the answers in image order.
#[allow(clippy::too_many_arguments)]
fn lockstep_job(
    net: &SpikingNetwork,
    job: &ImageDataset,
    cfg: &EvalConfig,
    width: usize,
    dispatch: &DispatchPolicy,
    sink: Option<&Arc<ProfileSink>>,
    spans: bool,
    trace: &mut Trace,
    parent: Option<SpanId>,
    acc: &mut Instrumented,
) -> Vec<Answer> {
    let n = job.len();
    let shard = if spans {
        trace.open("batch.shard", parent, 0)
    } else {
        None
    };
    let mut out = Vec::with_capacity(n);
    let batch = width.max(1);
    let mut engine = BatchedNetwork::new(net.clone(), padded_width(batch.min(n))).expect("engine");
    engine.set_dispatch(dispatch.clone());
    engine.set_profile_sink(sink.cloned());
    let mut start = 0;
    while start < n {
        let w = batch.min(n - start);
        let images: Vec<&[f32]> = (start..start + w).map(|i| job.image(i)).collect();
        let mut run =
            BatchedStepwiseInference::new_padded(&mut engine, &images, cfg).expect("lockstep run");
        loop {
            acc.live_share_sum += run.live_lanes() as f64 / run.batch() as f64;
            let t0 = Instant::now();
            let more = run.advance().expect("step");
            let t1 = Instant::now();
            acc.advance_ns += (t1 - t0).as_nanos() as u64;
            acc.advances += 1;
            if spans {
                trace.add("batch.advance", t0, t1, shard, 0);
            }
            if !more {
                break;
            }
        }
        out.extend((0..w).map(|lane| Answer {
            prediction: run.prediction(lane),
            spikes: run.total_spikes(lane),
        }));
        start += w;
    }
    trace.close(shard);
    out
}

/// Compares a deployment's results for the first jobs against the
/// scalar f32 reference; returns how many more or fewer images the
/// deployment classified correctly. The results must be equal unless
/// int8 was admitted, which [`check_int8_per_image`] checks instead.
fn check_against_scalar(
    got: &[JobResult],
    want: &[JobResult],
    job: usize,
    int8: bool,
    report: &mut Report,
) -> u64 {
    let count = |r: &[JobResult]| -> (u64, u64) {
        (
            r.iter().map(|x| x.correct).sum(),
            r.iter().map(|x| x.spikes).sum(),
        )
    };
    let (got_correct, got_spikes) = count(&got[..want.len()]);
    let (want_correct, want_spikes) = count(want);
    let images = want.len() * job;
    if int8 {
        println!(
            "int8 admitted: first {images} images batched correct {got_correct} spikes \
             {got_spikes} vs f32 scalar correct {want_correct} spikes {want_spikes}"
        );
    } else if got[..want.len()] != *want {
        report.fail(format!(
            "first {images} images: batched correct {got_correct} spikes {got_spikes}, \
             scalar reference correct {want_correct} spikes {want_spikes}"
        ));
    }
    got_correct.abs_diff(want_correct)
}

/// Per-image disagreement between two sets of answers to the same
/// images, and the spike totals of each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Disagreement {
    images: u64,
    predictions: u64,
    spikes: u64,
    got_spikes: u64,
    want_spikes: u64,
}

impl Disagreement {
    fn count(got: &[Answer], want: &[Answer]) -> Self {
        Disagreement {
            images: got.len() as u64,
            predictions: got
                .iter()
                .zip(want)
                .filter(|(a, b)| a.prediction != b.prediction)
                .count() as u64,
            spikes: got
                .iter()
                .zip(want)
                .filter(|(a, b)| a.spikes != b.spikes)
                .count() as u64,
            got_spikes: got.iter().map(|a| a.spikes).sum(),
            want_spikes: want.iter().map(|a| a.spikes).sum(),
        }
    }

    fn add(self, o: Disagreement) -> Disagreement {
        Disagreement {
            images: self.images + o.images,
            predictions: self.predictions + o.predictions,
            spikes: self.spikes + o.spikes,
            got_spikes: self.got_spikes + o.got_spikes,
            want_spikes: self.want_spikes + o.want_spikes,
        }
    }

    /// The violation, if predictions differ on more than [`INT8_GATE`]
    /// of the images or the spike total by more than that share. Single
    /// spike counts are reported, not gated: int8 moves a few spikes of
    /// many images without moving their answers.
    fn verdict(&self) -> Option<String> {
        println!(
            "int8 admitted: {} predictions and {} spike counts of {} images differ from the \
             width-1 engine; spikes {} vs {}",
            self.predictions, self.spikes, self.images, self.got_spikes, self.want_spikes
        );
        let spike_gap = self.got_spikes.abs_diff(self.want_spikes) as f64;
        (self.predictions as f64 > INT8_GATE * self.images as f64
            || spike_gap > INT8_GATE * self.want_spikes as f64)
            .then(|| {
                format!(
                    "{} of {} predictions differ from the width-1 engine, spikes {} vs {}; \
                     the int8 gate is {INT8_GATE}",
                    self.predictions, self.images, self.got_spikes, self.want_spikes
                )
            })
    }
}

/// The check where the autotuner admitted int8, over every job: no
/// reference is exact, since the int8 kernel is chosen per step from the
/// density of the whole lockstep batch, so an answer depends on its
/// batch-mates. Each image's answer from the deployment's lockstep twin
/// (whose job results must equal the batched evaluation's, `dataset`) is
/// compared with the same engine at width 1; predictions and the spike
/// total must agree at the autotuner's own gate.
fn check_int8_per_image(
    d: &Deployment,
    width: usize,
    jobs: &[ImageDataset],
    cfg: &EvalConfig,
    dataset: &[JobResult],
    report: &mut Report,
) {
    let net = d.entry.network();
    let dispatch = d.dispatch();
    let mut off = Trace::new(false, Instant::now());
    let mut unused = Instrumented::default();
    let mut answers = |job: &ImageDataset, width: usize| {
        lockstep_job(
            net,
            job,
            cfg,
            width,
            &dispatch,
            None,
            false,
            &mut off,
            None,
            &mut unused,
        )
    };
    let mut total = Disagreement::default();
    for (j, job) in jobs.iter().enumerate() {
        let got = answers(job, width);
        if tally(&got, job) != dataset[j] {
            report.fail(format!(
                "job {j}: lockstep twin gave {:?}, batched evaluation {:?}",
                tally(&got, job),
                dataset[j]
            ));
        }
        total = total.add(Disagreement::count(&got, &answers(job, 1)));
    }
    if let Some(e) = total.verdict() {
        report.fail(e);
    }
}

/// Runs one evaluation workload: tunes (see [`crate::setup::tune`]),
/// deploys the chosen policy and streams jobs for `seconds`; the traced
/// run streams half the time plain and half instrumented.
pub fn run(w: &EvalWorkload, seed: u64, seconds: f64, traced: bool, trace: &mut Trace) -> Report {
    let mut report = Report::default();
    let streams = scoring_streams();
    let mut fx = fixture(w.arch, w.scheme, seed, w.job * w.jobs);
    let jobs = split_jobs(&fx.test, w.job, w.jobs);
    let cfg = EvalConfig::new(w.scheme, STEPS).with_phase_period(crate::setup::PHASE_PERIOD);
    let (policy, times) = tune(&mut fx, None, w.max_lanes, trace);
    setup_metrics(&mut report, &times, traced);
    let (d, _) = deploy(&mut fx, Some(&policy), None, false, trace);

    let net = d.entry.network();
    let width = d.policy.preferred_batch.min(w.max_lanes);
    let dispatch = d.dispatch();
    let int8 = d.int8_admitted();
    println!(
        "eval: {} images in jobs of {}, {streams} streams, width {width}, int8 admitted {int8}",
        w.job * w.jobs,
        w.job
    );
    println!(
        "dispatch: density {:?}  packed {:?}  quant {:?}  int8 stages {:?}",
        dispatch.thresholds,
        dispatch.packed_thresholds,
        dispatch.quant_thresholds,
        dispatch.quant_eligible
    );
    let checked = w.checked_jobs.min(jobs.len());
    let mut scalar_net = net.clone();
    let scalar: Vec<JobResult> = jobs[..checked]
        .iter()
        .map(|job| {
            let r = evaluate_dataset(&mut scalar_net, job, &cfg).expect("scalar evaluation");
            job_result(r.final_accuracy(), r.final_mean_spikes(), job.len())
        })
        .collect();

    // A warm-up job, then the measured stream.
    let mut first = vec![None; jobs.len()];
    run_stream(
        net,
        &jobs[..1],
        &cfg,
        1,
        width,
        &dispatch,
        Duration::ZERO,
        JOB_LIMIT_US,
        &mut first[..1],
        &mut report,
    );
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    start_peak_rss_window();
    let s = run_stream(
        net,
        &jobs,
        &cfg,
        streams,
        width,
        &dispatch,
        budget,
        JOB_LIMIT_US,
        &mut first,
        &mut report,
    );
    let dataset: Vec<JobResult> = first.iter().map(|r| r.expect("every job ran")).collect();
    let moved = check_against_scalar(&dataset, &scalar, w.job, int8, &mut report);
    if int8 {
        check_int8_per_image(&d, width, &jobs, &cfg, &dataset, &mut report);
    }
    report.attempted = s.images;
    let peak_rss = peak_rss_mib();
    if traced {
        report.set("quant.f32_gap", moved as f64 / (checked * w.job) as f64);
        // The instrumented twin runs one stream.
        let plain_ips = s.images as f64 / s.wall.as_secs_f64() / streams as f64;
        traced_metrics(
            &d,
            width,
            &jobs,
            &cfg,
            &dataset,
            budget,
            plain_ips,
            trace,
            &mut report,
        );
    } else {
        let n_images = (w.job * w.jobs) as f64;
        let correct: u64 = dataset.iter().map(|r| r.correct).sum();
        let spikes: u64 = dataset.iter().map(|r| r.spikes).sum();
        let steal = s.steal();
        let kept = kept_stretches(&steal, STEAL_LIMIT);
        println!(
            "steal per second: {}",
            steal
                .iter()
                .enumerate()
                .map(|(k, x)| format!("{x:.3}{}", if kept.contains(&k) { "" } else { "x" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let f = s.figures(&kept);
        println!(
            "kept {} of {} seconds (x: left out); {} jobs, tail percentile supported: p{}",
            kept.len(),
            steal.len(),
            f.jobs,
            supported_tail(f.jobs).unwrap_or(0.0)
        );
        report.set("img_per_s", f.img_per_s);
        report.set("p50_us", f.p50_us as f64);
        report.set("p99_us", f.p99_us as f64);
        report.set("slo_rps", f.within_per_s);
        report.set("accuracy", correct as f64 / n_images);
        report.set("spikes_per_img", spikes as f64 / n_images);
        report.set("steps_per_img", STEPS as f64);
        report.set("peak_rss_mb", peak_rss);
    }
    d.stop();
    report
}

/// The traced half of a traced run: the instrumented twin of the job
/// stream on deployment `d`, with a `ProfileSink` on every engine and
/// every `advance()` timed. `dataset` holds the plain run's per-job
/// results, which the instrumented run must reproduce.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    d: &Deployment,
    width: usize,
    jobs: &[ImageDataset],
    cfg: &EvalConfig,
    dataset: &[JobResult],
    budget: Duration,
    img_per_s: f64,
    trace: &mut Trace,
    report: &mut Report,
) {
    let net = d.entry.network();
    let dispatch = d.dispatch();
    let sink = Arc::new(ProfileSink::new(net.layers().len() + 1));
    let before = sink.snapshot();
    let mut m = Instrumented::default();
    let start = Instant::now();
    let mut k = 0usize;
    while k < jobs.len() || start.elapsed() < budget {
        let j = k % jobs.len();
        // Step spans stop after a bounded number to keep the log small.
        let spans = trace.enabled() && trace.spans().len() < 100_000;
        let root = trace.open("simulator.job", None, k as u64);
        let answers = lockstep_job(
            net,
            &jobs[j],
            cfg,
            width,
            &dispatch,
            Some(&sink),
            spans,
            trace,
            root,
            &mut m,
        );
        let got = tally(&answers, &jobs[j]);
        trace.close(root);
        m.images += jobs[j].len() as u64;
        if got != dataset[j] {
            report.fail(format!(
                "job {j}: instrumented run gave {got:?}, plain run {:?}",
                dataset[j]
            ));
        }
        k += 1;
    }
    m.wall = start.elapsed();
    let p = profile_delta(&sink.snapshot(), &before);
    let lane_steps = m.images * STEPS as u64;
    profile_metrics(report, &p, lane_steps);
    report.set(
        "batch.advance_other_ns",
        m.advance_ns.saturating_sub(p.step_nanos) as f64 / lane_steps as f64,
    );
    report.set(
        "batch.lane_util",
        m.live_share_sum / m.advances.max(1) as f64,
    );
    report.set("autotune.preferred_batch", d.policy.preferred_batch as f64);
    report.set("exit.steps_mean", STEPS as f64);
    let traced_ips = m.images as f64 / m.wall.as_secs_f64();
    report.set("trace.overhead", traced_ips / img_per_s);
    // The serving layers are not on this workload's path.
    for name in [
        "exit.early_frac",
        "queue.wait_us.p50",
        "queue.wait_us.p99",
        "worker.service_us.p50",
        "worker.batch_mean",
        "net.wire_us.p50",
        "net.wire_us.p99",
        "net.bytes_per_req",
        "shed.frac",
        "fail_frac",
        "obs.queued_us",
        "obs.batch_us",
        "obs.service_us",
        "gen.late_us.p99",
        "gen.cpu_s",
    ] {
        report.set(name, 0.0);
    }
    println!(
        "traced: {traced_ips:.0} img/s vs {img_per_s:.0} untraced; {} advances timed",
        m.advances
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(predictions: &[usize], spikes: u64) -> Vec<Answer> {
        predictions
            .iter()
            .map(|&prediction| Answer { prediction, spikes })
            .collect()
    }

    /// A 10 s stream of 500 jobs a second (latency 100..=199 µs, one
    /// image each) whose seconds 4 and 5 carry 5% steal and 50 ms jobs.
    fn stream() -> Stream {
        let mut jobs = Vec::new();
        for sec in 0..10usize {
            for i in 0..500u64 {
                let us = if sec == 4 || sec == 5 {
                    50_000
                } else {
                    100 + i % 100
                };
                jobs.push((sec, us));
            }
        }
        let mut marks = vec![Some((0, 0))];
        for sec in 0..10u64 {
            let (s, t) = marks.last().unwrap().unwrap();
            let stolen = if sec == 4 || sec == 5 { 10 } else { 0 };
            marks.push(Some((s + stolen, t + 200)));
        }
        Stream {
            jobs,
            images: 5000,
            wall: Duration::from_secs(10),
            per_second: vec![500; 10],
            within_per_second: vec![500; 10],
            marks,
        }
    }

    #[test]
    fn each_second_carries_its_steal_and_stolen_seconds_are_left_out() {
        let s = stream();
        let steal = s.steal();
        assert_eq!(steal.len(), 10);
        assert_eq!((steal[3], steal[4], steal[5]), (0.0, 0.05, 0.05));
        let kept = kept_stretches(&steal, STEAL_LIMIT);
        assert_eq!(kept, vec![0, 1, 2, 3, 6, 7, 8, 9]);
        let f = s.figures(&kept);
        assert_eq!((f.img_per_s, f.within_per_s), (500.0, 500.0));
        assert_eq!((f.p50_us, f.p99_us, f.jobs), (149, 198, 4000));
        // Over the whole stream the stolen seconds set the tail.
        let all = s.figures(&[]);
        assert_eq!((all.jobs, all.p99_us), (5000, 50_000));
    }

    #[test]
    fn a_partial_last_second_is_not_measured() {
        let mut s = stream();
        s.wall = Duration::from_millis(9_500);
        assert_eq!(s.steal().len(), 9);
        // Too short a stream for a whole second: the whole stream.
        s.wall = Duration::from_millis(900);
        assert!(s.steal().is_empty());
        assert_eq!(s.figures(&[]).jobs, 5000);
    }

    #[test]
    fn int8_disagreement_counts_single_images_not_net_accuracy() {
        // Two images flip in opposite directions: the net count of right
        // answers is unchanged, but both are counted.
        let want = answers(&[0, 1, 2, 3], 10);
        let mut got = want.clone();
        got[0].prediction = 1;
        got[1].prediction = 0;
        let d = Disagreement::count(&got, &want);
        assert_eq!((d.images, d.predictions, d.spikes), (4, 2, 0));
        assert!(d.verdict().is_some());
    }

    #[test]
    fn int8_gate_allows_its_share_of_flips_and_of_the_spike_total() {
        let want = answers(&[1; 1000], 100);
        let mut got = want.clone();
        for a in &mut got[..5] {
            a.prediction = 2;
        }
        // Five flips in 1000 and 500 of 100 000 spikes are within 0.5%.
        for a in &mut got[..500] {
            a.spikes += 1;
        }
        let d = Disagreement::count(&got, &want);
        assert_eq!((d.predictions, d.spikes), (5, 500));
        assert!(d.verdict().is_none());
        got[5].prediction = 2;
        assert!(Disagreement::count(&got, &want).verdict().is_some());
        got[5].prediction = 1;
        got[500].spikes += 1;
        assert!(Disagreement::count(&got, &want).verdict().is_some());
    }
}
