//! Dataset assembly: generation, storage, and the paper's 80/10/10 split.

use crate::cdf5::{Cdf5Reader, Cdf5Writer, StoredSample};
use crate::fields::{FieldGenerator, GeneratorConfig};
use crate::label::{heuristic_labels, LabelerConfig};
use std::io;
use std::path::{Path, PathBuf};

/// Which split a sample belongs to (80 % / 10 % / 10 %, §III-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training set (80 %).
    Train,
    /// Test set (10 %).
    Test,
    /// Validation set (10 %).
    Validation,
}

/// Dataset construction parameters.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Field-generation parameters.
    pub generator: GeneratorConfig,
    /// Heuristic-labeler parameters.
    pub labeler: LabelerConfig,
    /// Total samples.
    pub n_samples: usize,
    /// Samples per CDF5 file (on-disk mode).
    pub samples_per_file: usize,
}

impl DatasetConfig {
    /// Small test-scale dataset.
    pub fn small(seed: u64, n_samples: usize) -> DatasetConfig {
        DatasetConfig {
            generator: GeneratorConfig::small(seed),
            labeler: LabelerConfig::default(),
            n_samples,
            samples_per_file: 4,
        }
    }
}

enum Backend {
    Memory(Vec<StoredSample>),
    Disk { files: Vec<PathBuf>, per_file: usize },
}

/// A generated climate dataset with deterministic splits.
pub struct ClimateDataset {
    backend: Backend,
    /// Channels per sample.
    pub channels: usize,
    /// Grid height.
    pub h: usize,
    /// Grid width.
    pub w: usize,
    n_samples: usize,
    /// Samples per chunk — the file granularity on disk, and the unit of
    /// the ingest subsystem's hierarchical shuffle for both backends.
    chunk: usize,
}

impl ClimateDataset {
    /// Generates the dataset fully in memory (fast path for tests and
    /// small training runs).
    pub fn in_memory(config: &DatasetConfig) -> ClimateDataset {
        let generator = FieldGenerator::new(config.generator.clone());
        let samples = (0..config.n_samples as u64)
            .map(|i| {
                let s = generator.generate(i);
                let labels = heuristic_labels(&s, &config.labeler);
                StoredSample { fields: s.data, labels }
            })
            .collect();
        ClimateDataset {
            backend: Backend::Memory(samples),
            channels: 16,
            h: config.generator.h,
            w: config.generator.w,
            n_samples: config.n_samples,
            chunk: config.samples_per_file.max(1),
        }
    }

    /// Generates the dataset into CDF5 files under `dir` (one file per
    /// `samples_per_file` samples, like the paper's multi-sample HDF5
    /// archives), then serves samples by reading those files back.
    pub fn on_disk(config: &DatasetConfig, dir: impl AsRef<Path>) -> io::Result<ClimateDataset> {
        std::fs::create_dir_all(dir.as_ref())?;
        let generator = FieldGenerator::new(config.generator.clone());
        let mut files = Vec::new();
        let mut i = 0u64;
        let mut file_idx = 0usize;
        while (i as usize) < config.n_samples {
            let path = dir.as_ref().join(format!("climate_{file_idx:05}.cdf5"));
            let mut writer = Cdf5Writer::create(&path, 16, config.generator.h, config.generator.w)?;
            for _ in 0..config.samples_per_file.min(config.n_samples - i as usize) {
                let s = generator.generate(i);
                let labels = heuristic_labels(&s, &config.labeler);
                writer.append(&s.data, &labels)?;
                i += 1;
            }
            files.push(writer.finish()?);
            file_idx += 1;
        }
        Ok(ClimateDataset {
            backend: Backend::Disk { files, per_file: config.samples_per_file },
            channels: 16,
            h: config.generator.h,
            w: config.generator.w,
            n_samples: config.n_samples,
            chunk: config.samples_per_file.max(1),
        })
    }

    /// Total samples.
    pub fn len(&self) -> usize {
        self.n_samples
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.n_samples == 0
    }

    /// Backing files (empty for in-memory datasets).
    pub fn files(&self) -> &[PathBuf] {
        match &self.backend {
            Backend::Memory(_) => &[],
            Backend::Disk { files, .. } => files,
        }
    }

    /// Loads one sample by global index.
    pub fn sample(&self, i: usize) -> io::Result<StoredSample> {
        assert!(i < self.n_samples, "sample {i} out of range {}", self.n_samples);
        match &self.backend {
            Backend::Memory(samples) => Ok(samples[i].clone()),
            Backend::Disk { files, per_file } => {
                let mut reader = Cdf5Reader::open(&files[i / per_file])?;
                reader.read_sample(i % per_file)
            }
        }
    }

    /// Samples per chunk (the on-disk file granularity; in-memory datasets
    /// keep the same logical chunking so shuffles are backend-invariant).
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Number of chunks (the last may be partial).
    pub fn n_chunks(&self) -> usize {
        self.n_samples.div_ceil(self.chunk)
    }

    /// Global index range `[start, end)` of chunk `c`.
    pub fn chunk_bounds(&self, c: usize) -> (usize, usize) {
        let start = c * self.chunk;
        (start, (start + self.chunk).min(self.n_samples))
    }

    /// Opens a cursor for sequential streaming reads. The cursor keeps the
    /// current CDF5 file open across calls, so walking a chunk costs one
    /// file open (not one per sample) and reuses the reader's scratch
    /// buffer — the access pattern the ingest workers drive.
    pub fn open_cursor(&self) -> DatasetCursor<'_> {
        DatasetCursor { dataset: self, open: None }
    }

    /// The split a global index belongs to. Deterministic and interleaved
    /// (every 10th sample is test, every following one validation) so all
    /// splits cover the same climate statistics.
    fn split_of(&self, i: usize) -> Split {
        match i % 10 {
            8 => Split::Test,
            9 => Split::Validation,
            _ => Split::Train,
        }
    }

    /// All indices belonging to a split.
    pub fn indices(&self, split: Split) -> Vec<usize> {
        (0..self.n_samples).filter(|&i| self.split_of(i) == split).collect()
    }

    /// Class frequencies over the given split (drives the loss weighting).
    pub fn class_frequencies(&self, split: Split, n_classes: usize) -> io::Result<Vec<f32>> {
        let mut counts = vec![0u64; n_classes];
        let mut total = 0u64;
        for i in self.indices(split) {
            let s = self.sample(i)?;
            for &l in &s.labels {
                counts[l as usize] += 1;
            }
            total += s.labels.len() as u64;
        }
        Ok(counts.into_iter().map(|c| c as f32 / total.max(1) as f32).collect())
    }
}

/// A streaming read handle over a [`ClimateDataset`] that caches the open
/// CDF5 reader for the file it last touched. Consecutive reads within one
/// chunk hit the cached reader; crossing a chunk boundary swaps files.
pub struct DatasetCursor<'a> {
    dataset: &'a ClimateDataset,
    open: Option<(usize, Cdf5Reader)>,
}

impl DatasetCursor<'_> {
    /// Reads global sample `i` into caller-provided buffers (cleared and
    /// filled). No fresh heap allocation on the steady-state path: the
    /// in-memory backend copies slices, the disk backend decodes through
    /// the cached reader's scratch buffer.
    pub fn read_into(
        &mut self,
        i: usize,
        fields: &mut Vec<f32>,
        labels: &mut Vec<u8>,
    ) -> io::Result<()> {
        assert!(i < self.dataset.n_samples, "sample {i} out of range {}", self.dataset.n_samples);
        match &self.dataset.backend {
            Backend::Memory(samples) => {
                let s = &samples[i];
                fields.clear();
                fields.extend_from_slice(&s.fields);
                labels.clear();
                labels.extend_from_slice(&s.labels);
                Ok(())
            }
            Backend::Disk { files, per_file } => {
                let file_idx = i / per_file;
                let reuse = matches!(&self.open, Some((idx, _)) if *idx == file_idx);
                if !reuse {
                    self.open = Some((file_idx, Cdf5Reader::open(&files[file_idx])?));
                }
                let (_, reader) = self.open.as_mut().expect("cursor reader just installed");
                reader.read_sample_into(i % per_file, fields, labels)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ratios_are_80_10_10() {
        let cfg = DatasetConfig::small(1, 40);
        let ds = ClimateDataset::in_memory(&cfg);
        assert_eq!(ds.indices(Split::Train).len(), 32);
        assert_eq!(ds.indices(Split::Test).len(), 4);
        assert_eq!(ds.indices(Split::Validation).len(), 4);
    }

    #[test]
    fn memory_and_disk_backends_agree() {
        let mut cfg = DatasetConfig::small(5, 6);
        cfg.generator.h = 32;
        cfg.generator.w = 48;
        cfg.samples_per_file = 4;
        let mem = ClimateDataset::in_memory(&cfg);
        let dir = std::env::temp_dir().join(format!("exaclim_ds_{}", std::process::id()));
        let disk = ClimateDataset::on_disk(&cfg, &dir).expect("on_disk");
        assert_eq!(disk.files().len(), 2, "6 samples at 4/file → 2 files");
        for i in 0..6 {
            let a = mem.sample(i).expect("mem");
            let b = disk.sample(i).expect("disk");
            assert_eq!(a.fields, b.fields, "sample {i} fields");
            assert_eq!(a.labels, b.labels, "sample {i} labels");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn class_frequencies_sum_to_one() {
        let mut cfg = DatasetConfig::small(9, 5);
        cfg.generator.h = 48;
        cfg.generator.w = 72;
        let ds = ClimateDataset::in_memory(&cfg);
        let f = ds.class_frequencies(Split::Train, 3).expect("freqs");
        let sum: f32 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(f[0] > 0.8, "background dominates: {f:?}");
    }

    #[test]
    fn cursor_agrees_with_random_access_on_both_backends() {
        let mut cfg = DatasetConfig::small(7, 9);
        cfg.generator.h = 16;
        cfg.generator.w = 24;
        cfg.samples_per_file = 4;
        let mem = ClimateDataset::in_memory(&cfg);
        let dir = std::env::temp_dir().join(format!("exaclim_cursor_{}", std::process::id()));
        let disk = ClimateDataset::on_disk(&cfg, &dir).expect("on_disk");
        let mut mem_cur = mem.open_cursor();
        let mut disk_cur = disk.open_cursor();
        let (mut fields, mut labels) = (Vec::new(), Vec::new());
        // Sequential then out-of-order, forcing both reuse and file swaps.
        for &i in &[0usize, 1, 2, 3, 4, 8, 5, 0, 7] {
            let want = mem.sample(i).expect("sample");
            mem_cur.read_into(i, &mut fields, &mut labels).expect("mem cursor");
            assert_eq!(fields, want.fields, "mem fields {i}");
            assert_eq!(labels, want.labels, "mem labels {i}");
            disk_cur.read_into(i, &mut fields, &mut labels).expect("disk cursor");
            assert_eq!(fields, want.fields, "disk fields {i}");
            assert_eq!(labels, want.labels, "disk labels {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_metadata_covers_all_samples() {
        let cfg = DatasetConfig::small(3, 10); // 4/file → chunks of 4, 4, 2
        let ds = ClimateDataset::in_memory(&cfg);
        assert_eq!(ds.chunk_size(), 4);
        assert_eq!(ds.n_chunks(), 3);
        assert_eq!(ds.chunk_bounds(0), (0, 4));
        assert_eq!(ds.chunk_bounds(2), (8, 10));
        let covered: usize = (0..ds.n_chunks()).map(|c| {
            let (s, e) = ds.chunk_bounds(c);
            e - s
        }).sum();
        assert_eq!(covered, ds.len());
    }

    #[test]
    fn deterministic_across_constructions() {
        let cfg = DatasetConfig::small(33, 3);
        let a = ClimateDataset::in_memory(&cfg);
        let b = ClimateDataset::in_memory(&cfg);
        for i in 0..3 {
            assert_eq!(a.sample(i).unwrap().fields, b.sample(i).unwrap().fields);
        }
    }
}
