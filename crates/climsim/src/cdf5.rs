//! The CDF5 sample container.
//!
//! Stands in for the paper's HDF5 files: a simple, seekable binary format
//! holding a batch of `channels×h×w` float fields with their label masks.
//! The staging system (§V-A1) and input pipeline (§V-A2) exercise real
//! file reads through this module; the HDF5 global-lock pathology the
//! paper worked around is emulated at the pipeline layer.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic  "CDF5"            4 B
//! version u32              4 B
//! n_samples u32, channels u32, h u32, w u32
//! then per sample: channels·h·w f32 fields, h·w u8 labels
//! ```

use bytes::{Buf, BufMut, BytesMut};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"CDF5";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 4 + 4 + 4 * 4;

/// A sample as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSample {
    /// Channel-major field data.
    pub fields: Vec<f32>,
    /// Per-pixel class labels.
    pub labels: Vec<u8>,
}

/// Writes CDF5 files.
pub struct Cdf5Writer {
    file: File,
    path: PathBuf,
    channels: u32,
    h: u32,
    w: u32,
    n_samples: u32,
}

impl Cdf5Writer {
    /// Creates a file and writes a header with a zero sample count (fixed
    /// up on [`Cdf5Writer::finish`]).
    pub fn create(path: impl AsRef<Path>, channels: usize, h: usize, w: usize) -> io::Result<Cdf5Writer> {
        let mut file = File::create(path.as_ref())?;
        let mut header = BytesMut::with_capacity(HEADER_LEN as usize);
        header.put_slice(MAGIC);
        header.put_u32_le(VERSION);
        header.put_u32_le(0);
        header.put_u32_le(channels as u32);
        header.put_u32_le(h as u32);
        header.put_u32_le(w as u32);
        file.write_all(&header)?;
        Ok(Cdf5Writer {
            file,
            path: path.as_ref().to_path_buf(),
            channels: channels as u32,
            h: h as u32,
            w: w as u32,
            n_samples: 0,
        })
    }

    /// Appends one sample.
    pub fn append(&mut self, fields: &[f32], labels: &[u8]) -> io::Result<()> {
        let expected = (self.channels * self.h * self.w) as usize;
        assert_eq!(fields.len(), expected, "field payload size mismatch");
        assert_eq!(labels.len(), (self.h * self.w) as usize, "label size mismatch");
        let mut buf = BytesMut::with_capacity(fields.len() * 4 + labels.len());
        for &v in fields {
            buf.put_f32_le(v);
        }
        buf.put_slice(labels);
        self.file.write_all(&buf)?;
        self.n_samples += 1;
        Ok(())
    }

    /// Rewrites the sample count and syncs; returns the path.
    pub fn finish(mut self) -> io::Result<PathBuf> {
        self.file.seek(SeekFrom::Start(8))?;
        self.file.write_all(&self.n_samples.to_le_bytes())?;
        self.file.sync_all()?;
        Ok(self.path)
    }
}

/// Reads CDF5 files with random access by sample index.
pub struct Cdf5Reader {
    file: File,
    /// Samples in the file.
    pub n_samples: usize,
    /// Channels per sample.
    pub channels: usize,
    /// Grid height.
    pub h: usize,
    /// Grid width.
    pub w: usize,
    /// Raw-byte staging area reused across reads, so a long-lived reader
    /// (one per streaming ingest worker) performs no per-sample heap
    /// allocation.
    scratch: Vec<u8>,
}

impl Cdf5Reader {
    /// Opens a file and validates its header.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Cdf5Reader> {
        let mut file = File::open(path.as_ref())?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        let mut buf = &header[..];
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a CDF5 file"));
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported CDF5 version {version}"),
            ));
        }
        let n_samples = buf.get_u32_le() as usize;
        let channels = buf.get_u32_le() as usize;
        let h = buf.get_u32_le() as usize;
        let w = buf.get_u32_le() as usize;
        Ok(Cdf5Reader { file, n_samples, channels, h, w, scratch: Vec::new() })
    }

    fn sample_bytes(&self) -> u64 {
        (self.channels * self.h * self.w * 4 + self.h * self.w) as u64
    }

    /// Reads sample `i`.
    pub fn read_sample(&mut self, i: usize) -> io::Result<StoredSample> {
        let mut fields = Vec::new();
        let mut labels = Vec::new();
        self.read_sample_into(i, &mut fields, &mut labels)?;
        Ok(StoredSample { fields, labels })
    }

    /// Reads sample `i` into caller-provided buffers (cleared and filled)
    /// — the zero-fresh-allocation path the streaming ingest workers use
    /// with pooled buffers. One seek + one contiguous read per sample;
    /// consecutive indices read sequentially.
    pub fn read_sample_into(
        &mut self,
        i: usize,
        fields: &mut Vec<f32>,
        labels: &mut Vec<u8>,
    ) -> io::Result<()> {
        if i >= self.n_samples {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("sample {i} out of range ({} samples)", self.n_samples),
            ));
        }
        self.file
            .seek(SeekFrom::Start(HEADER_LEN + i as u64 * self.sample_bytes()))?;
        let nfield = self.channels * self.h * self.w;
        let hw = self.h * self.w;
        self.scratch.clear();
        self.scratch.resize(nfield * 4 + hw, 0);
        self.file.read_exact(&mut self.scratch)?;
        fields.clear();
        fields.reserve(nfield);
        let mut buf = &self.scratch[..nfield * 4];
        for _ in 0..nfield {
            fields.push(buf.get_f32_le());
        }
        labels.clear();
        labels.extend_from_slice(&self.scratch[nfield * 4..]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("cdf5_test_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn roundtrip_multiple_samples() {
        let path = tmpdir().join("roundtrip.cdf5");
        let (c, h, w) = (2usize, 3usize, 4usize);
        let mut writer = Cdf5Writer::create(&path, c, h, w).expect("create");
        let s0: Vec<f32> = (0..c * h * w).map(|i| i as f32 * 0.5).collect();
        let l0: Vec<u8> = (0..h * w).map(|i| (i % 3) as u8).collect();
        let s1: Vec<f32> = (0..c * h * w).map(|i| -(i as f32)).collect();
        let l1 = vec![1u8; h * w];
        writer.append(&s0, &l0).expect("append 0");
        writer.append(&s1, &l1).expect("append 1");
        writer.finish().expect("finish");

        let mut reader = Cdf5Reader::open(&path).expect("open");
        assert_eq!(reader.n_samples, 2);
        assert_eq!((reader.channels, reader.h, reader.w), (c, h, w));
        // Random access, out of order.
        let r1 = reader.read_sample(1).expect("read 1");
        assert_eq!(r1.fields, s1);
        assert_eq!(r1.labels, l1);
        let r0 = reader.read_sample(0).expect("read 0");
        assert_eq!(r0.fields, s0);
        assert_eq!(r0.labels, l0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmpdir().join("bad.cdf5");
        std::fs::write(&path, b"NOTCDF5....................").expect("write");
        assert!(Cdf5Reader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_read_fails() {
        let path = tmpdir().join("range.cdf5");
        let mut wtr = Cdf5Writer::create(&path, 1, 2, 2).expect("create");
        wtr.append(&[1.0; 4], &[0; 4]).expect("append");
        wtr.finish().expect("finish");
        let mut rdr = Cdf5Reader::open(&path).expect("open");
        assert!(rdr.read_sample(1).is_err());
        std::fs::remove_file(&path).ok();
    }
}
