//! Fixtures and deployment.
//!
//! The trained DNN is a fixture: training is not timed. Deployment is
//! what `setup_s` times — everything from a trained DNN in memory to a
//! model that answers: `convert`, an uncached `autotune_batch`, a
//! snapshot save and load, the registry install, and for the serve
//! workloads the runtime start and the TCP front-end listening.

use crate::gen::SplitMix;
use crate::trace::Trace;
use bsnn_core::autotune::{autotune_batch, AutotuneConfig, BatchPolicy};
use bsnn_core::batch::{DispatchMode, DispatchPolicy};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::snapshot::{load_network_with_meta, save_network_with_meta, SnapshotMeta};
use bsnn_data::{ImageDataset, SynthSpec};
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_dnn::{models, Sequential};
use bsnn_serve::{
    ModelEntry, ModelRegistry, NetConfig, NetServer, NetServerHandle, ServeConfig, ServeRuntime,
    TraceConfig,
};
use bsnn_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry name every workload serves its model under.
pub const MODEL: &str = "bench";
/// Input phase period `k` (the library default).
pub const PHASE_PERIOD: u32 = 8;

/// The two network shapes the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// MLP 144-32-10.
    Mlp,
    /// vgg_tiny on 1×12×12 inputs.
    VggTiny,
}

/// Test images generated per class; each run draws its inputs from
/// these 8000.
const POOL_PER_CLASS: usize = 800;

/// A trained DNN plus the seeded images the workload runs on.
pub struct Fixture {
    /// The trained source network.
    pub dnn: Sequential,
    /// Training images used for conversion's weight normalization.
    pub norm: Tensor,
    /// The workload's inputs, drawn by the seed.
    pub test: ImageDataset,
    /// The coding scheme the model is converted for and run under.
    pub scheme: CodingScheme,
}

/// Trains `arch` on the synthetic-digit task and draws `n` of its test
/// images with `seed`.
///
/// The task and the trained network are fixed, so every seed measures
/// the same model; the seed picks which generated test images the run
/// offers and in what order.
pub fn fixture(arch: Arch, scheme: CodingScheme, seed: u64, n: usize) -> Fixture {
    let (train, pool) = SynthSpec::digits()
        .with_counts(60, POOL_PER_CLASS)
        .generate();
    let (mut dnn, epochs) = match arch {
        Arch::Mlp => (models::mlp(144, &[32], 10, 5).expect("mlp geometry"), 6),
        Arch::VggTiny => (
            models::vgg_tiny(1, 12, 12, 10, 0).expect("vgg_tiny geometry"),
            4,
        ),
    };
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &pool.take_per_class(20))
    .expect("training the fixture DNN");
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    assert!(n <= pool.len(), "the pool holds {} images", pool.len());
    let mut picks: Vec<usize> = (0..pool.len()).collect();
    let mut rng = SplitMix::new(seed);
    for i in 0..n {
        picks.swap(i, rng.range(i, pool.len() - 1));
    }
    let mut images = Vec::with_capacity(n * pool.sample_volume());
    for &i in &picks[..n] {
        images.extend_from_slice(pool.image(i));
    }
    let test = ImageDataset::new(
        "synth-digits-sample",
        images,
        picks[..n].iter().map(|&i| pool.label(i)).collect(),
        pool.channels(),
        pool.height(),
        pool.width(),
        pool.num_classes(),
    );
    Fixture {
        dnn,
        norm,
        test,
        scheme,
    }
}

/// The serving configuration of a serve workload.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Worker threads.
    pub workers: usize,
    /// Micro-batch cap.
    pub max_batch: usize,
    /// Micro-batch linger.
    pub linger: Duration,
}

/// Wall time of each deployment step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `convert`.
    pub convert: f64,
    /// `autotune_batch`.
    pub autotune: f64,
    /// `save_network_with_meta` into memory.
    pub snapshot_save: f64,
    /// `load_network_with_meta` from memory.
    pub snapshot_load: f64,
    /// `ModelRegistry::install_with_policy`.
    pub registry_install: f64,
    /// `ServeRuntime::start` plus `NetServer::bind` and `spawn`.
    pub server_start: f64,
    /// The whole deployment.
    pub total: f64,
}

/// A running server.
pub struct Server {
    /// The worker pool.
    pub runtime: Arc<ServeRuntime>,
    /// The TCP front-end.
    pub net: NetServerHandle,
}

impl Server {
    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    /// Stops the front-end, then the worker pool, and waits for both.
    pub fn stop(self) {
        let Server { runtime, net } = self;
        net.shutdown();
        match Arc::try_unwrap(runtime) {
            Ok(rt) => {
                rt.shutdown();
            }
            Err(shared) => drop(shared),
        }
    }
}

/// A deployed model.
pub struct Deployment {
    /// The registry entry every path runs (loaded from the snapshot).
    pub entry: Arc<ModelEntry>,
    /// What the autotuner chose.
    pub policy: BatchPolicy,
    /// The server, for serve workloads.
    pub server: Option<Server>,
}

impl Deployment {
    /// The dispatch policy the deployed entry runs with.
    pub fn dispatch(&self) -> DispatchPolicy {
        DispatchPolicy {
            mode: DispatchMode::Auto,
            thresholds: self.entry.density_thresholds().to_vec(),
            packed_thresholds: self.entry.packed_thresholds().to_vec(),
            quant_thresholds: self.entry.quant_thresholds().to_vec(),
            quant_eligible: self.entry.quant_eligible().to_vec(),
        }
    }

    /// Whether the autotuner let any stage run int8; results may then
    /// differ from the f32 reference.
    pub fn int8_admitted(&self) -> bool {
        self.entry.quant_eligible().iter().any(|&e| e)
    }

    /// Stops the deployment's server, if it has one.
    pub fn stop(self) {
        if let Some(server) = self.server {
            server.stop();
        }
    }
}

/// Deploys the fixture once, timing every step and recording each as a
/// span. `tuned = None` runs the autotuner; `Some` installs a policy an
/// earlier deployment measured. With `serve = Some`, also starts a
/// server; `traced` turns on its engine profile and request tracing.
pub fn deploy(
    fx: &mut Fixture,
    tuned: Option<&BatchPolicy>,
    serve: Option<&ServeShape>,
    traced: bool,
    trace: &mut Trace,
) -> (Deployment, SetupTimes) {
    let t0 = Instant::now();
    let root = trace.open("setup", None, 0);
    let scheme = fx.scheme;
    let mut t = SetupTimes::default();

    let (snn, d) = trace.time("convert", root, || {
        convert(&mut fx.dnn, &fx.norm, &ConversionConfig::new(scheme)).expect("conversion")
    });
    t.convert = d.as_secs_f64();

    let autotune_cfg = AutotuneConfig {
        phase_period: PHASE_PERIOD,
        ..AutotuneConfig::default()
    };
    let policy = match tuned {
        Some(policy) => policy.clone(),
        None => {
            let (policy, d) = trace.time("autotune", root, || {
                autotune_batch(&snn, scheme, &autotune_cfg).expect("autotune probe")
            });
            t.autotune = d.as_secs_f64();
            policy
        }
    };

    let meta = SnapshotMeta {
        preferred_batch: policy.preferred_batch as u32,
        density_thresholds: policy.density_thresholds.clone(),
        packed_thresholds: policy.packed_thresholds.clone(),
        quant_thresholds: policy.quant_thresholds.clone(),
        quant_eligible: policy.quant_eligible.clone(),
        quant_tables: Vec::new(),
    };
    let (bytes, d) = trace.time("snapshot.save", root, || {
        let mut bytes = Vec::new();
        save_network_with_meta(&snn, meta, &mut bytes).expect("in-memory snapshot save");
        bytes
    });
    t.snapshot_save = d.as_secs_f64();
    drop(snn);

    let ((net, meta), d) = trace.time("snapshot.load", root, || {
        load_network_with_meta(bytes.as_slice()).expect("snapshot load")
    });
    t.snapshot_load = d.as_secs_f64();

    let registry = Arc::new(ModelRegistry::new());
    let loaded = BatchPolicy {
        preferred_batch: meta.preferred_batch as usize,
        probes: Vec::new(),
        density_thresholds: meta.density_thresholds,
        packed_thresholds: meta.packed_thresholds,
        quant_thresholds: meta.quant_thresholds,
        quant_eligible: meta.quant_eligible,
    };
    let (entry, d) = trace.time("registry.install", root, || {
        registry.install_with_policy(MODEL, net, scheme, PHASE_PERIOD, &loaded);
        registry.get(MODEL).expect("just installed")
    });
    t.registry_install = d.as_secs_f64();

    let server = serve.map(|shape| {
        let (server, d) = trace.time("server.start", root, || {
            let runtime = Arc::new(
                ServeRuntime::start(
                    ServeConfig {
                        workers: shape.workers,
                        max_batch: shape.max_batch,
                        batch_linger: shape.linger,
                        profile: traced,
                        trace: if traced {
                            TraceConfig {
                                sample_every: 4,
                                capacity: 1 << 16,
                            }
                        } else {
                            TraceConfig::default()
                        },
                        ..ServeConfig::default()
                    },
                    Arc::clone(&registry),
                )
                .expect("runtime start"),
            );
            let net = NetServer::bind("127.0.0.1:0", Arc::clone(&runtime), NetConfig::default())
                .expect("bind loopback")
                .spawn()
                .expect("front-end thread");
            Server { runtime, net }
        });
        t.server_start = d.as_secs_f64();
        server
    });

    t.total = t0.elapsed().as_secs_f64();
    trace.close(root);
    (
        Deployment {
            entry,
            policy,
            server,
        },
        t,
    )
}

/// Deployments [`tune`] makes at least, for at least [`TUNE_SECONDS`],
/// and at most.
pub const TUNE_REPS: (usize, usize) = (5, 64);
/// Wall time [`tune`] keeps deploying for once it has the minimum.
pub const TUNE_SECONDS: f64 = 3.0;

/// Deploys the fixture with the autotuner, each deployment timed and
/// stopped, as often as [`TUNE_REPS`] and [`TUNE_SECONDS`] allow (so a
/// model whose setup takes milliseconds gets a median over dozens), and
/// returns the policy to measure with and every deployment's step times.
///
/// The autotuner's choices come from short wall-clock probes, so they
/// differ from deployment to deployment: on these models two widths sit
/// near its hysteresis (the MLP under rate coding picks width 1 in about
/// five of six, 8 or 16 otherwise), and the kernel crossovers and int8
/// verdicts land on neighbouring grid points, which moved vgg_tiny's
/// throughput by up to 18% between deployments of the same seed. The run
/// measures with the policy of the last deployment whose choices (see
/// [`Choices`]), at most `max_lanes` wide, were made most often
/// ([`modal`]): the policy a user deploying the model gets most often.
pub fn tune(
    fx: &mut Fixture,
    serve: Option<&ServeShape>,
    max_lanes: usize,
    trace: &mut Trace,
) -> (BatchPolicy, Vec<SetupTimes>) {
    let (min, max) = TUNE_REPS;
    let start = Instant::now();
    let mut times = Vec::new();
    let mut policies: Vec<BatchPolicy> = Vec::new();
    while times.len() < min || (times.len() < max && start.elapsed().as_secs_f64() < TUNE_SECONDS) {
        let (d, t) = deploy(fx, None, serve, false, trace);
        times.push(t);
        policies.push(d.policy.clone());
        d.stop();
    }
    let widths: Vec<usize> = policies.iter().map(|p| p.preferred_batch).collect();
    let choices: Vec<Choices> = policies.iter().map(|p| Choices::of(p, max_lanes)).collect();
    let chosen = modal(&choices);
    println!(
        "autotune widths over {} deployments: {widths:?}; measuring with the choices \
         made most often at up to {max_lanes} lanes ({} times)",
        widths.len(),
        choices.iter().filter(|&c| *c == chosen).count()
    );
    let pick = choices
        .iter()
        .rposition(|c| *c == chosen)
        .expect("a chosen policy");
    (policies.swap_remove(pick), times)
}

/// What of an autotuned policy the engine runs by: the width (at most
/// the lanes the workload runs at once), then the density, packed and
/// int8 crossovers (as bits) and the int8 verdicts; not the probe
/// timings.
#[derive(Debug, Clone, PartialEq)]
pub struct Choices(usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<bool>);

impl Choices {
    fn of(p: &BatchPolicy, max_lanes: usize) -> Self {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        Choices(
            p.preferred_batch.min(max_lanes),
            bits(&p.density_thresholds),
            bits(&p.packed_thresholds),
            bits(&p.quant_thresholds),
            p.quant_eligible.clone(),
        )
    }
}

/// The value found most often; of equally frequent ones, the one found
/// last.
pub fn modal<T: PartialEq + Clone>(xs: &[T]) -> T {
    let count = |v: &T| xs.iter().filter(|&x| x == v).count();
    let mut best = &xs[0];
    for x in xs {
        if count(x) >= count(best) {
            best = x;
        }
    }
    best.clone()
}

#[cfg(test)]
mod tests {
    use super::modal;

    #[test]
    fn the_modal_value_is_the_most_frequent_and_ties_go_to_the_last() {
        assert_eq!(modal(&[1, 16, 1, 8, 1, 16]), 1);
        assert_eq!(modal(&[4, 8, 8, 16, 8, 16]), 8);
        assert_eq!(modal(&[8, 16]), 16);
        assert_eq!(modal(&[16, 8, 8, 16]), 16);
        assert_eq!(modal(&[vec![0.5f32], vec![0.25], vec![0.5]]), vec![0.5]);
    }
}
