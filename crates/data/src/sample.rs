//! Labeled spike samples and datasets.

use ncl_spike::SpikeRaster;
use serde::{Deserialize, Serialize};

use crate::error::DataError;

/// A spike raster with its class label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledSample {
    /// Input spike raster (`channels x steps`).
    pub raster: SpikeRaster,
    /// Class label in `0..classes`.
    pub label: u16,
}

impl LabeledSample {
    /// Creates a labeled sample.
    #[must_use]
    pub fn new(raster: SpikeRaster, label: u16) -> Self {
        LabeledSample { raster, label }
    }
}

/// An in-memory event dataset: a list of labeled rasters with shared shape
/// metadata.
///
/// # Example
///
/// ```
/// use ncl_data::{Dataset, LabeledSample};
/// use ncl_spike::SpikeRaster;
///
/// # fn main() -> Result<(), ncl_data::DataError> {
/// let samples = vec![LabeledSample::new(SpikeRaster::new(4, 10), 0)];
/// let ds = Dataset::new(samples, 2, 4, 10)?;
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds.classes(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    samples: Vec<LabeledSample>,
    classes: u16,
    channels: usize,
    steps: usize,
}

impl Dataset {
    /// Creates a dataset, validating that every sample matches the declared
    /// shape and label range.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if any sample has the wrong
    /// raster shape, or [`DataError::UnknownClass`] if a label is out of
    /// range.
    pub fn new(
        samples: Vec<LabeledSample>,
        classes: u16,
        channels: usize,
        steps: usize,
    ) -> Result<Self, DataError> {
        for s in &samples {
            if s.raster.neurons() != channels || s.raster.steps() != steps {
                return Err(DataError::InvalidConfig {
                    what: "sample shape",
                    detail: format!(
                        "expected {channels}x{steps}, got {}x{}",
                        s.raster.neurons(),
                        s.raster.steps()
                    ),
                });
            }
            if s.label >= classes {
                return Err(DataError::UnknownClass {
                    label: s.label,
                    classes,
                });
            }
        }
        Ok(Dataset {
            samples,
            classes,
            channels,
            steps,
        })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Declared number of classes.
    #[must_use]
    pub fn classes(&self) -> u16 {
        self.classes
    }

    /// Number of input channels (raster neurons).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of timesteps per sample.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Borrow of all samples.
    #[must_use]
    pub fn samples(&self) -> &[LabeledSample] {
        &self.samples
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, LabeledSample> {
        self.samples.iter()
    }

    /// Sample at `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&LabeledSample> {
        self.samples.get(index)
    }

    /// A new dataset containing only samples whose labels satisfy `keep`.
    /// Shape metadata and the class count are preserved (labels keep their
    /// global meaning, as the class-incremental protocol requires).
    #[must_use]
    pub(crate) fn filter_classes(&self, keep: impl Fn(u16) -> bool) -> Dataset {
        let samples = self
            .samples
            .iter()
            .filter(|s| keep(s.label))
            .cloned()
            .collect();
        Dataset {
            samples,
            classes: self.classes,
            channels: self.channels,
            steps: self.steps,
        }
    }

    /// Indices of samples with the given label.
    #[must_use]
    pub fn indices_of_class(&self, label: u16) -> Vec<usize> {
        self.samples
            .iter()
            .enumerate()
            .filter_map(|(i, s)| (s.label == label).then_some(i))
            .collect()
    }

    /// Builds a dataset holding the given samples with this dataset's
    /// metadata (used for subset selection).
    #[must_use]
    pub(crate) fn with_samples(&self, samples: Vec<LabeledSample>) -> Dataset {
        Dataset {
            samples,
            classes: self.classes,
            channels: self.channels,
            steps: self.steps,
        }
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a LabeledSample;
    type IntoIter = std::slice::Iter<'a, LabeledSample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_dataset() -> Dataset {
        let samples = (0..6)
            .map(|i| LabeledSample::new(SpikeRaster::new(4, 8), (i % 3) as u16))
            .collect();
        Dataset::new(samples, 3, 4, 8).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let bad = vec![LabeledSample::new(SpikeRaster::new(5, 8), 0)];
        assert!(matches!(
            Dataset::new(bad, 3, 4, 8),
            Err(DataError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn construction_validates_labels() {
        let bad = vec![LabeledSample::new(SpikeRaster::new(4, 8), 7)];
        assert!(matches!(
            Dataset::new(bad, 3, 4, 8),
            Err(DataError::UnknownClass { .. })
        ));
    }

    #[test]
    fn accessors() {
        let ds = mini_dataset();
        assert_eq!(ds.len(), 6);
        assert!(!ds.is_empty());
        assert_eq!(ds.classes(), 3);
        assert_eq!(ds.channels(), 4);
        assert_eq!(ds.steps(), 8);
        assert!(ds.get(0).is_some());
        assert!(ds.get(6).is_none());
        assert_eq!(ds.iter().count(), 6);
        assert_eq!((&ds).into_iter().count(), 6);
    }

    #[test]
    fn filter_classes_keeps_metadata() {
        let ds = mini_dataset();
        let only0 = ds.filter_classes(|l| l == 0);
        assert_eq!(only0.len(), 2);
        assert_eq!(only0.classes(), 3, "class count keeps global meaning");
        let none = ds.filter_classes(|_| false);
        assert!(none.is_empty());
    }

    #[test]
    fn indices_of_class() {
        let ds = mini_dataset();
        assert_eq!(ds.indices_of_class(1), vec![1, 4]);
        assert!(ds.indices_of_class(9).is_empty());
    }

    #[test]
    fn with_samples_reuses_metadata() {
        let ds = mini_dataset();
        let sub = ds.with_samples(ds.samples()[..2].to_vec());
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.classes(), 3);
    }
}
