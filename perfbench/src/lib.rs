//! # perfbench
//!
//! The burst-snn benchmark: offline evaluation and open-loop TCP
//! serving, measured end to end and per module. See `README.md` for the
//! workloads, the metrics and how each per-module metric maps to the
//! end-to-end metric it should move.

pub mod eval;
pub mod gen;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod sys;
pub mod trace;

use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
use bsnn_serve::ExitPolicy;
use eval::EvalWorkload;
use serve::ServeWorkload;
use setup::{Arch, ServeShape};
use std::time::Duration;

/// A workload by name.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Offline evaluation.
    Eval(EvalWorkload),
    /// Open-loop serving over TCP.
    Serve(ServeWorkload),
}

/// `n` offered rates growing 5% per rung from `base`, rounded to whole
/// req/s.
fn ladder(base: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| (base * 1.05f64.powi(k as i32)).round())
        .collect()
}

/// Concurrent job streams of an offline evaluation: one per CPU. Each
/// job is scored with one thread, so a job waits only for its own
/// stream: with every job split over all CPUs, a job waited for the
/// slowest of its threads, and any other runnable task that preempted
/// one of them set job latency (on 2 vCPUs job p99 read 1.7 to 2.4
/// times p50).
pub fn scoring_streams() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every workload, by the names `BENCHMARK.json` uses.
pub fn workload(name: &str) -> Option<Workload> {
    let streams = scoring_streams();
    // Jobs of 32 images, as many as fit 2560 images and split evenly
    // over the streams.
    let jobs = 2560 / 32 / streams * streams;
    match name {
        "eval_vgg_tiny" => Some(Workload::Eval(EvalWorkload {
            arch: Arch::VggTiny,
            scheme: CodingScheme::recommended(),
            // At most eight lanes: vgg_tiny's autotuner picks width 8 or
            // 16 about evenly (the two sit at its hysteresis), and that
            // flip alone moved throughput ~18% between runs at 16 lanes.
            job: 32,
            jobs,
            checked_jobs: 16,
            max_lanes: 8,
        })),
        "eval_mlp_rate" => Some(Workload::Eval(EvalWorkload {
            arch: Arch::Mlp,
            scheme: CodingScheme::new(InputCoding::Rate, HiddenCoding::Rate),
            job: 32,
            jobs,
            checked_jobs: 16,
            max_lanes: 32,
        })),
        "serve_vgg_burst" => Some(Workload::Serve(ServeWorkload {
            arch: Arch::VggTiny,
            scheme: CodingScheme::recommended(),
            // max_batch 8 for the same reason as eval_vgg_tiny's jobs:
            // it caps the lockstep width whether the autotuner picked 8
            // or 16, which otherwise made p50 bimodal across runs.
            shape: ServeShape {
                workers: 1,
                max_batch: 8,
                linger: Duration::from_micros(200),
            },
            policy: ExitPolicy::recommended(96),
            // Bursts of 3 to 7, so that every burst fits one lockstep
            // batch: a burst split in two made the second batch wait a
            // whole service time, which set p99 and moved it with the
            // host.
            burst: 5,
            // Bursts leave 12 to 28 ms apart, longer than a batch that
            // runs to the horizon takes even while the host is slow (up
            // to about 15 ms), so p99 is not inflated by queueing behind
            // one; at 500 req/s (6 to 14 ms apart) it was.
            nominal_rps: 250.0,
            ladder: ladder(500.0, 80),
            p99_limit_us: 100_000,
            // Each image is offered about twice at the nominal rate; with
            // 1024, about four times, p99 depended on which few hard
            // images the seed drew (6.6 to 9.6 ms over five seeds).
            pool: 2048,
        })),
        _ => None,
    }
}
