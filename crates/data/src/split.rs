//! Class-incremental task splits and replay-subset selection.
//!
//! The paper's protocol (Section IV): pre-train on 19 of the 20 SHD
//! classes, then learn the held-out class in the continual-learning phase.
//! [`ClassIncrementalSplit`] captures that partition; [`replay_subset`]
//! draws the `TS_replay ⊆ TS_pre` rehearsal samples of Alg. 1.

use ncl_tensor::Rng;
use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::sample::Dataset;

/// A partition of class labels into pre-training classes and classes
/// introduced during the continual-learning phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassIncrementalSplit {
    pretrain: Vec<u16>,
    continual: Vec<u16>,
}

impl ClassIncrementalSplit {
    /// The paper's split: classes `0..classes-1` are pre-trained, the last
    /// class arrives in the CL phase.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if `classes < 2`.
    pub fn hold_out_last(classes: u16) -> Result<Self, DataError> {
        if classes < 2 {
            return Err(DataError::InvalidConfig {
                what: "classes",
                detail: "class-incremental split needs at least 2 classes".into(),
            });
        }
        Ok(ClassIncrementalSplit {
            pretrain: (0..classes - 1).collect(),
            continual: vec![classes - 1],
        })
    }

    /// A custom split.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if either side is empty or the
    /// sides overlap.
    pub fn new(pretrain: Vec<u16>, continual: Vec<u16>) -> Result<Self, DataError> {
        if pretrain.is_empty() || continual.is_empty() {
            return Err(DataError::InvalidConfig {
                what: "split",
                detail: "both pretrain and continual class sets must be non-empty".into(),
            });
        }
        if pretrain.iter().any(|c| continual.contains(c)) {
            return Err(DataError::InvalidConfig {
                what: "split",
                detail: "pretrain and continual class sets overlap".into(),
            });
        }
        Ok(ClassIncrementalSplit {
            pretrain,
            continual,
        })
    }

    /// Labels of the pre-training classes (the paper's "old tasks").
    #[must_use]
    pub fn pretrain_classes(&self) -> &[u16] {
        &self.pretrain
    }

    /// Labels of the continual-learning classes (the paper's "new task").
    #[must_use]
    pub fn continual_classes(&self) -> &[u16] {
        &self.continual
    }

    /// Samples of `dataset` belonging to the pre-training classes
    /// (`TS_pre`).
    #[must_use]
    pub fn pretrain_subset(&self, dataset: &Dataset) -> Dataset {
        dataset.filter_classes(|l| self.pretrain.contains(&l))
    }

    /// Samples of `dataset` belonging to the continual classes (`TS_cl`).
    #[must_use]
    pub fn continual_subset(&self, dataset: &Dataset) -> Dataset {
        dataset.filter_classes(|l| self.continual.contains(&l))
    }
}

/// Draws `per_class` samples of each pre-training class (uniform, without
/// replacement) — the replay set `TS_replay ⊆ TS_pre` of Alg. 1.
///
/// Classes with fewer than `per_class` samples contribute everything they
/// have.
///
/// # Errors
///
/// Returns [`DataError::EmptySelection`] if the resulting subset would be
/// empty, or [`DataError::InvalidConfig`] if `per_class == 0`.
pub fn replay_subset(
    dataset: &Dataset,
    split: &ClassIncrementalSplit,
    per_class: usize,
    rng: &mut Rng,
) -> Result<Dataset, DataError> {
    if per_class == 0 {
        return Err(DataError::InvalidConfig {
            what: "per_class",
            detail: "replay subset needs at least 1 sample per class".into(),
        });
    }
    let mut picked = Vec::new();
    for &class in split.pretrain_classes() {
        let idx = dataset.indices_of_class(class);
        let chosen = rng.sample_indices(idx.len(), per_class);
        for c in chosen {
            picked.push(dataset.samples()[idx[c]].clone());
        }
    }
    if picked.is_empty() {
        return Err(DataError::EmptySelection {
            op: "replay_subset",
        });
    }
    Ok(dataset.with_samples(picked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::LabeledSample;
    use ncl_spike::SpikeRaster;

    fn dataset(classes: u16, per_class: usize) -> Dataset {
        let mut samples = Vec::new();
        for c in 0..classes {
            for _ in 0..per_class {
                samples.push(LabeledSample::new(SpikeRaster::new(4, 4), c));
            }
        }
        Dataset::new(samples, classes, 4, 4).unwrap()
    }

    #[test]
    fn hold_out_last_matches_paper_protocol() {
        let split = ClassIncrementalSplit::hold_out_last(20).unwrap();
        assert_eq!(split.pretrain_classes().len(), 19);
        assert_eq!(split.continual_classes(), &[19]);
        assert!(ClassIncrementalSplit::hold_out_last(1).is_err());
    }

    #[test]
    fn custom_split_validation() {
        assert!(ClassIncrementalSplit::new(vec![0, 1], vec![2]).is_ok());
        assert!(ClassIncrementalSplit::new(vec![], vec![1]).is_err());
        assert!(ClassIncrementalSplit::new(vec![0], vec![]).is_err());
        assert!(ClassIncrementalSplit::new(vec![0, 1], vec![1]).is_err());
    }

    #[test]
    fn subsets_partition_dataset() {
        let ds = dataset(4, 3);
        let split = ClassIncrementalSplit::hold_out_last(4).unwrap();
        let pre = split.pretrain_subset(&ds);
        let cl = split.continual_subset(&ds);
        assert_eq!(pre.len(), 9);
        assert_eq!(cl.len(), 3);
        assert!(pre.iter().all(|s| s.label < 3));
        assert!(cl.iter().all(|s| s.label == 3));
    }

    #[test]
    fn replay_subset_draws_per_class() {
        let ds = dataset(4, 5);
        let split = ClassIncrementalSplit::hold_out_last(4).unwrap();
        let mut rng = Rng::seed_from_u64(3);
        let replay = replay_subset(&ds, &split, 2, &mut rng).unwrap();
        assert_eq!(replay.len(), 6); // 3 pretrain classes x 2
        for c in 0..3 {
            assert_eq!(replay.indices_of_class(c).len(), 2);
        }
        assert!(
            replay.indices_of_class(3).is_empty(),
            "no new-class leakage"
        );
    }

    #[test]
    fn replay_subset_clamps_to_available() {
        let ds = dataset(3, 2);
        let split = ClassIncrementalSplit::hold_out_last(3).unwrap();
        let mut rng = Rng::seed_from_u64(3);
        let replay = replay_subset(&ds, &split, 10, &mut rng).unwrap();
        assert_eq!(replay.len(), 4); // 2 classes x all 2 samples
    }

    #[test]
    fn replay_subset_errors() {
        let ds = dataset(3, 2);
        let split = ClassIncrementalSplit::hold_out_last(3).unwrap();
        let mut rng = Rng::seed_from_u64(3);
        assert!(replay_subset(&ds, &split, 0, &mut rng).is_err());
        let empty = ds.filter_classes(|_| false);
        assert!(matches!(
            replay_subset(&empty, &split, 2, &mut rng),
            Err(DataError::EmptySelection { .. })
        ));
    }

    #[test]
    fn replay_subset_is_deterministic_per_seed() {
        let ds = dataset(4, 6);
        let split = ClassIncrementalSplit::hold_out_last(4).unwrap();
        let a = replay_subset(&ds, &split, 3, &mut Rng::seed_from_u64(9)).unwrap();
        let b = replay_subset(&ds, &split, 3, &mut Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
