//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names
//! and units; `BENCHMARK.json` must list the same (a test checks it).
//! Every workload reports every metric of the list its run mode asks
//! for; a layer a workload does not exercise reads 0.

use crate::setup::SetupTimes;
use bsnn_core::batch::{ProfileSnapshot, StageProfileSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("img_per_s", "img/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("slo_rps", "req/s"),
    ("accuracy", "ratio"),
    ("spikes_per_img", "spikes"),
    ("steps_per_img", "steps"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("convert.s", "s"),
    ("autotune.s", "s"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("registry.install_s", "s"),
    ("server.start_s", "s"),
    ("autotune.preferred_batch", "lanes"),
    ("batch.step_ns", "ns"),
    ("batch.stage0_ns", "ns"),
    ("batch.stage1_ns", "ns"),
    ("batch.stage2_ns", "ns"),
    ("batch.advance_other_ns", "ns"),
    ("batch.kernel_mix.dense", "ratio"),
    ("batch.kernel_mix.sparse", "ratio"),
    ("batch.kernel_mix.packed", "ratio"),
    ("batch.kernel_mix.quant", "ratio"),
    ("batch.kernel_mix.cached", "ratio"),
    ("batch.lane_util", "ratio"),
    ("quant.f32_gap", "ratio"),
    ("exit.steps_mean", "steps"),
    ("exit.early_frac", "ratio"),
    ("queue.wait_us.p50", "us"),
    ("queue.wait_us.p99", "us"),
    ("worker.service_us.p50", "us"),
    ("worker.batch_mean", "req"),
    ("net.wire_us.p50", "us"),
    ("net.wire_us.p99", "us"),
    ("net.bytes_per_req", "B"),
    ("shed.frac", "ratio"),
    ("fail_frac", "ratio"),
    ("obs.queued_us", "us"),
    ("obs.batch_us", "us"),
    ("obs.service_us", "us"),
    ("gen.late_us.p99", "us"),
    ("gen.cpu_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Stage profile slots in [`PER_LAYER`] (`batch.stage0_ns` ...).
pub const STAGE_SLOTS: usize = 3;

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// Correctness violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under `name`, which must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// Records a correctness violation.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// The result line for `catalog`: `correct`, `attempted`, `failed`
    /// and every catalog metric. A metric the run did not set, or one
    /// that is not finite, makes the run incorrect.
    pub fn json_line(&mut self, catalog: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors.push(format!("metric {name} is {v}"));
                    0.0
                }
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The counters a `ProfileSink` gained between snapshots `b` and `a`.
pub fn profile_delta(a: &ProfileSnapshot, b: &ProfileSnapshot) -> ProfileSnapshot {
    let mut d = a.clone();
    for (x, y) in d.stages.iter_mut().zip(&b.stages) {
        x.dense_steps -= y.dense_steps;
        x.sparse_steps -= y.sparse_steps;
        x.packed_steps -= y.packed_steps;
        x.quant_steps -= y.quant_steps;
        x.cached_steps -= y.cached_steps;
        x.kernel_nanos -= y.kernel_nanos;
    }
    d.batches -= b.batches;
    d.steps -= b.steps;
    d.step_nanos -= b.step_nanos;
    d
}

/// Per-layer metrics read from a `ProfileSink` delta over `lane_steps`
/// real lane-steps: step and stage time per lane-step and the kernel
/// mix as shares of all stage-steps.
pub fn profile_metrics(report: &mut Report, p: &ProfileSnapshot, lane_steps: u64) {
    let per = |ns: u64| ns as f64 / lane_steps.max(1) as f64;
    report.set("batch.step_ns", per(p.step_nanos));
    const STAGES: [&str; STAGE_SLOTS] = ["batch.stage0_ns", "batch.stage1_ns", "batch.stage2_ns"];
    for (k, name) in STAGES.iter().enumerate() {
        report.set(name, p.stages.get(k).map_or(0.0, |s| per(s.kernel_nanos)));
    }
    if p.stages.len() > STAGE_SLOTS {
        report.fail(format!(
            "{} stages exceed the {STAGE_SLOTS} stage slots",
            p.stages.len()
        ));
    }
    let sum = |f: fn(&StageProfileSnapshot) -> u64| -> u64 { p.stages.iter().map(f).sum() };
    let (dense, sparse, packed, quant, cached) = (
        sum(|s| s.dense_steps),
        sum(|s| s.sparse_steps),
        sum(|s| s.packed_steps),
        sum(|s| s.quant_steps),
        sum(|s| s.cached_steps),
    );
    let all = (dense + sparse + packed + quant + cached).max(1) as f64;
    report.set("batch.kernel_mix.dense", dense as f64 / all);
    report.set("batch.kernel_mix.sparse", sparse as f64 / all);
    report.set("batch.kernel_mix.packed", packed as f64 / all);
    report.set("batch.kernel_mix.quant", quant as f64 / all);
    report.set("batch.kernel_mix.cached", cached as f64 / all);
}

/// Median of each setup step over the repeated deployments.
pub fn setup_metrics(report: &mut Report, times: &[SetupTimes], traced: bool) {
    let med = |f: fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = times.iter().map(f).collect();
        crate::stats::median(&mut v)
    };
    if traced {
        report.set("convert.s", med(|t| t.convert));
        report.set("autotune.s", med(|t| t.autotune));
        report.set("snapshot.save_s", med(|t| t.snapshot_save));
        report.set("snapshot.load_s", med(|t| t.snapshot_load));
        report.set("registry.install_s", med(|t| t.registry_install));
        report.set("server.start_s", med(|t| t.server_start));
    } else {
        report.set("setup_s", med(|t| t.total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"img_per_s\": {\"value\": 1.25, \"unit\": \"img/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(r.errors.is_empty());
    }

    #[test]
    fn missing_or_non_finite_metrics_make_the_run_incorrect() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1"));
        assert!(r.errors.iter().any(|e| e.contains("setup_s is NaN")));
        assert!(r
            .errors
            .iter()
            .any(|e| e.contains("p99_us was not measured")));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = match next {
                "" => text.len(),
                _ => start + text[start..].find(&format!("\"{next}\"")).expect(next),
            };
            text[start..end].to_string()
        };
        for (key, next, catalog) in [
            ("end_to_end", "per_layer", END_TO_END),
            ("per_layer", "", PER_LAYER),
        ] {
            let body = section(key, next);
            assert_eq!(
                body.matches("\"name\"").count(),
                catalog.len(),
                "{key} lists a different number of metrics"
            );
            for (name, unit) in catalog {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
