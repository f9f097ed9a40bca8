//! The benchmark's workloads. Each one feeds the same three phases (class-
//! incremental training, open-loop serving, learning beside serving) with
//! inputs of one shape; the shape decides which layers dominate.

use ncl_bench::Scale;
use replay4ncl::ScenarioConfig;

/// One workload: the scenario every phase runs at, and its serving load.
#[derive(Debug)]
pub struct Workload {
    /// Workload name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Scenario of the class-incremental phase (dataset shape, network,
    /// protocol); its datasets are a fixed suite, see `cl::pass_config`.
    pub scenario: ScenarioConfig,
    /// Harness scale the method specs are calibrated for.
    pub scale: Scale,
    /// Class-incremental passes per run, each on its own dataset.
    pub cl_passes: usize,
    /// Scenario of the served and fleet-deployed model.
    pub deploy: ScenarioConfig,
    /// Median latency (µs) up to which a swept rate counts as kept up:
    /// several times the unloaded median, far below what a growing queue
    /// reaches within one sweep step.
    pub limit_us: f64,
    /// Open-loop rate of the nominal serving phase (requests/s).
    pub nominal_rps: f64,
    /// Length of the nominal serving phase (s).
    pub nominal_s: f64,
}

/// SplitMix64: spreads a small `--seed` over every bit of a data seed.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The workload called `name`, with inputs generated from `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        let mut w = match name {
            // The paper's protocol at paper shape: 700 channels, T = 100,
            // a 200-100-50 recurrent network with a 20-class readout,
            // insertion layer 3, 19+1 classes, 50 CL epochs; pre-training
            // cut to 3 epochs. Kernels dominate every phase, served
            // predicts included (a 700x100 forward pass is ms-scale).
            "paper" => {
                let mut scenario = ScenarioConfig::paper();
                scenario.pretrain_epochs = 3;
                Workload {
                    name: "paper",
                    deploy: scenario.clone(),
                    scenario,
                    scale: Scale::Paper,
                    cl_passes: 4,
                    limit_us: 10_000.0,
                    nominal_rps: 500.0,
                    nominal_s: 6.0,
                }
            }
            // Small shapes. Serving and the fleet run the model `ncl-serve`,
            // `ncl-learnd` and `ncl-replica` ship with (48 channels,
            // T = 40, 24-16-4), whose forward passes are µs-scale, so
            // protocol, batcher, TCP and timers dominate. The class-
            // incremental phase runs the harness's demo scale (128
            // channels, T = 60, 64-48-32, 9+1 classes): the smallest shape
            // at which both methods learn the new class.
            "edge" => Workload {
                name: "edge",
                scenario: ncl_bench::demo_config(),
                deploy: ScenarioConfig::smoke(),
                scale: Scale::Demo,
                cl_passes: 16,
                limit_us: 5_000.0,
                nominal_rps: 1_000.0,
                nominal_s: 10.0,
            },
            _ => return None,
        };
        // The served/deployed dataset follows the seed (the class-
        // incremental suite does not; see `cl::pass_config`).
        if w.deploy != w.scenario {
            w.deploy.data.seed ^= mix(seed);
        }
        Some(w)
    }
}
