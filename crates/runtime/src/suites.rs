//! Standard sweep-suite builders.
//!
//! The paper's two grid studies — the Fig. 8 timestep sweep and the
//! Fig. 10 insertion-layer sweep — are expressed here as suite builders so
//! the sweep logic lives in one place: the figure table of `ncl_bench`
//! (run by `ncl-run --figure`) and the examples build the *same* job grids
//! and differ only in scale and rendering.

use replay4ncl::{MethodSpec, ScenarioConfig};

use crate::job::{Job, Suite};

/// The Fig. 8 timestep grid: fractions of the native step count `T`, as
/// `(fraction, steps)` pairs — 1.0, 0.6, 0.4, 0.2 (the paper's
/// 100/60/40/20), each clamped to at least one step.
#[must_use]
pub(crate) fn timestep_fractions(native_steps: usize) -> Vec<(f64, usize)> {
    let t = native_steps;
    [(1.0, t), (0.6, t * 3 / 5), (0.4, t * 2 / 5), (0.2, t / 5)]
        .into_iter()
        .map(|(f, steps)| (f, steps.max(1)))
        .collect()
}

/// The Fig. 8 sweep: SpikingLR at native `T` plus naive timestep
/// reductions at each smaller fraction, all at `per_class` stored replay
/// samples. Jobs are labelled `T=<steps>` in fraction order.
#[must_use]
pub fn timestep_sweep(config: &ScenarioConfig, per_class: usize) -> Suite {
    let native = config.data.steps;
    let mut suite = Suite::new(format!("timestep-sweep-T{native}"));
    for (_, steps) in timestep_fractions(native) {
        let method = if steps == native {
            MethodSpec::spiking_lr(per_class)
        } else {
            MethodSpec::spiking_lr_reduced(per_class, steps)
        };
        suite.push(Job::new(format!("T={steps}"), config.clone(), method));
    }
    suite
}

/// The Fig. 10 sweep: every method at every insertion layer
/// `0..=network.layers()`, insertion-major (all methods of layer 0 first).
/// Jobs are labelled `<method>@L<insertion>`.
#[must_use]
pub fn insertion_sweep(base: &ScenarioConfig, methods: &[MethodSpec]) -> Suite {
    let mut suite = Suite::new(format!("insertion-sweep-L0..{}", base.network.layers()));
    for insertion in 0..=base.network.layers() {
        for method in methods {
            let mut config = base.clone();
            config.insertion_layer = insertion;
            suite.push(Job::new(
                format!("{}@L{insertion}", method.name),
                config,
                method.clone(),
            ));
        }
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestep_fractions_match_paper_ratios() {
        assert_eq!(
            timestep_fractions(100)
                .iter()
                .map(|(_, s)| *s)
                .collect::<Vec<_>>(),
            vec![100, 60, 40, 20]
        );
        // Tiny T clamps to at least one step.
        assert!(timestep_fractions(1).iter().all(|(_, s)| *s >= 1));
    }

    #[test]
    fn timestep_sweep_uses_native_codec_then_reductions() {
        let config = ScenarioConfig::smoke(); // T = 40
        let suite = timestep_sweep(&config, 3);
        assert_eq!(suite.len(), 4);
        assert!(suite.validate().is_ok());
        assert_eq!(suite.jobs[0].label, "T=40");
        assert_eq!(suite.jobs[0].method, MethodSpec::spiking_lr(3));
        assert_eq!(suite.jobs[2].method, MethodSpec::spiking_lr_reduced(3, 16));
    }

    #[test]
    fn insertion_sweep_covers_the_full_grid() {
        let base = ScenarioConfig::smoke(); // 2 hidden layers
        let methods = [MethodSpec::spiking_lr(2), MethodSpec::replay4ncl(2, 16)];
        let suite = insertion_sweep(&base, &methods);
        assert_eq!(suite.len(), (base.network.layers() + 1) * 2);
        assert!(suite.validate().is_ok());
        assert_eq!(suite.jobs[0].label, "SpikingLR@L0");
        assert_eq!(suite.jobs[1].label, "Replay4NCL@L0");
        assert_eq!(suite.jobs[2].config.insertion_layer, 1);
        // Every job keeps the base scale, only the insertion varies.
        assert!(suite.jobs.iter().all(|j| j.config.data == base.data));
    }
}
