//! Parameter checkpointing.
//!
//! The paper's two-hour full-machine runs are only practical with reliable
//! checkpoint/restart; this module provides the equivalent for our
//! parameter sets: a small self-describing binary format (magic `EXCK`)
//! with per-tensor names, shapes, precisions and `f32` payloads.
//!
//! A file carries parameters and buffers only. Version 2 ends in an
//! optimizer-state section, which [`save`] always writes empty; the
//! reader stops after the tensors, so version-1 files (no section) and
//! version-2 files whose section holds state load alike. Optimizer state
//! moves in memory, as [`OptState::to_bytes`] inside the elastic
//! trainer's state snapshot.

use crate::layer::Layer;
use crate::optim::OptState;
use crate::param::ParamSet;
use exaclim_tensor::{DType, Shape, Tensor};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EXCK";
const VERSION: u32 = 2;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Collects a layer's complete persistent state: trainable parameters
/// plus non-trainable buffers (batch-norm running statistics). Saving
/// this — rather than `params()` alone — is what makes eval-mode
/// behaviour restore exactly.
pub fn full_state(layer: &dyn Layer) -> ParamSet {
    let mut set = layer.params();
    set.extend(layer.buffers());
    set
}

/// Saves every parameter (name, shape, dtype, values) to `path`, with an
/// empty optimizer section.
pub fn save(params: &ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, params.len() as u32)?;
    for p in params.iter() {
        let name = p.name();
        let value = p.value();
        write_u32(&mut w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        w.write_all(&[match value.dtype() {
            DType::F32 => 0u8,
            DType::F16 => 1u8,
        }])?;
        let dims = value.shape().dims();
        write_u32(&mut w, dims.len() as u32)?;
        for &d in dims {
            write_u32(&mut w, d as u32)?;
        }
        for &v in value.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    // Optimizer section: length-prefixed, empty OptState bytes.
    let opt_bytes = OptState::default().to_bytes();
    write_u32(&mut w, opt_bytes.len() as u32)?;
    w.write_all(&opt_bytes)?;
    w.flush()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// An open checkpoint that knows how many of its bytes are left, so every
/// length read from the file is checked before anything is allocated for
/// it: a truncated or hostile file is `InvalidData`, never an abort.
struct CheckpointReader {
    r: BufReader<File>,
    left: u64,
}

impl CheckpointReader {
    /// Opens a checkpoint and validates magic + version, leaving the reader
    /// at the tensor count. Versions 1 (no optimizer section) and 2 are
    /// accepted.
    fn open(path: impl AsRef<Path>) -> io::Result<CheckpointReader> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        let mut c = CheckpointReader { r: BufReader::new(file), left };
        if c.bytes(4, "magic")? != MAGIC {
            return Err(bad("not an EXCK checkpoint"));
        }
        let version = c.u32("version")?;
        if version == 0 || version > VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        Ok(c)
    }

    /// Reads `n` bytes of `what`, refusing a length past the end of the file.
    fn bytes(&mut self, n: usize, what: &str) -> io::Result<Vec<u8>> {
        if n as u64 > self.left {
            return Err(bad(format!("{what}: {n} bytes claimed, {} left in the file", self.left)));
        }
        let mut b = vec![0u8; n];
        self.r.read_exact(&mut b)?;
        self.left -= n as u64;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads the next stored tensor's name and value.
    fn tensor(&mut self) -> io::Result<(String, Tensor)> {
        let name_len = self.u32("name length")? as usize;
        let name = String::from_utf8(self.bytes(name_len, "tensor name")?).map_err(|_| bad("invalid tensor name"))?;
        let dtype = match self.bytes(1, "dtype")?[0] {
            0 => DType::F32,
            1 => DType::F16,
            other => return Err(bad(format!("unknown dtype tag {other}"))),
        };
        let rank = self.u32("rank")? as u64;
        if rank * 4 > self.left {
            return Err(bad(format!("{name}: rank {rank} runs past the end of the file")));
        }
        let dims = (0..rank).map(|_| self.u32("dim").map(|d| d as usize)).collect::<io::Result<Vec<_>>>()?;
        let payload = dims
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| bad(format!("{name}: dims {dims:?} overflow")))?;
        let data = self.bytes(payload, "tensor payload")?;
        let data = data.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect();
        Ok((name, Tensor::from_vec(Shape::new(&dims), dtype, data)))
    }
}

/// Loads a checkpoint into an existing parameter set. Every stored tensor
/// must match a parameter by name and shape (extra/missing parameters are
/// an error — a model-architecture mismatch). Whatever follows the
/// tensors (a version-2 optimizer section) is not read.
pub fn load_into(params: &ParamSet, path: impl AsRef<Path>) -> io::Result<()> {
    let mut c = CheckpointReader::open(path)?;
    let count = c.u32("tensor count")? as usize;
    if count != params.len() {
        return Err(bad(format!(
            "checkpoint holds {count} tensors but the model has {}",
            params.len()
        )));
    }
    for _ in 0..count {
        let (name, value) = c.tensor()?;
        let p = params
            .get(&name)
            .ok_or_else(|| bad(format!("model has no parameter named {name}")))?;
        if p.value().shape() != value.shape() {
            return Err(bad(format!(
                "shape mismatch for {name}: checkpoint {} vs model {}",
                value.shape(),
                p.value().shape()
            )));
        }
        p.set_value(value);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use exaclim_tensor::init::{randn, seeded_rng};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exaclim_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d.join(name)
    }

    fn sample_params(seed: u64) -> ParamSet {
        let mut rng = seeded_rng(seed);
        let mut set = ParamSet::new();
        set.push(Param::new("conv.weight", randn([4, 2, 3, 3], DType::F32, 1.0, &mut rng)));
        set.push(Param::new("bn.gamma", randn([4], DType::F32, 1.0, &mut rng)));
        set
    }

    #[test]
    fn roundtrip_restores_exact_bits() {
        let path = tmp("roundtrip.exck");
        let a = sample_params(1);
        save(&a, &path).expect("save");
        let b = sample_params(2); // different values, same structure
        assert_ne!(a.state_hash(), b.state_hash());
        load_into(&b, &path).expect("load");
        assert_eq!(a.state_hash(), b.state_hash(), "bitwise restore");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let path = tmp("mismatch.exck");
        save(&sample_params(1), &path).expect("save");
        let mut different = ParamSet::new();
        different.push(Param::new("other", Tensor::zeros([3], DType::F32)));
        assert!(load_into(&different, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let path = tmp("shape.exck");
        save(&sample_params(1), &path).expect("save");
        let mut wrong = ParamSet::new();
        let mut rng = seeded_rng(3);
        wrong.push(Param::new("conv.weight", randn([4, 2, 5, 5], DType::F32, 1.0, &mut rng)));
        wrong.push(Param::new("bn.gamma", randn([4], DType::F32, 1.0, &mut rng)));
        assert!(load_into(&wrong, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp("garbage.exck");
        std::fs::write(&path, b"not a checkpoint at all").expect("write");
        assert!(load_into(&sample_params(1), &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        // A checkpoint must survive a round trip through the loader with
        // zero drift: save → load → save produces the same bytes.
        let p1 = tmp("bytes_a.exck");
        let p2 = tmp("bytes_b.exck");
        let a = sample_params(11);
        save(&a, &p1).expect("first save");
        let b = sample_params(12);
        load_into(&b, &p1).expect("load");
        save(&b, &p2).expect("second save");
        let bytes1 = std::fs::read(&p1).expect("read a");
        let bytes2 = std::fs::read(&p2).expect("read b");
        assert_eq!(bytes1, bytes2, "checkpoint bytes drift through load/save");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn load_into_skips_a_filled_optimizer_section() {
        // A v2 file whose section holds state (as older writers left it):
        // the section length, then the encoded state, after the tensors.
        let path = tmp("opt_state.exck");
        let params = sample_params(21);
        save(&params, &path).expect("save");
        let mut opt = OptState::default();
        opt.push("sgd.v:bn.gamma", vec![0.5, -0.25, 0.0, 1.0]);
        opt.push("adam.t", vec![7.0]);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.truncate(bytes.len() - 8); // section length prefix + empty OptState
        bytes.extend_from_slice(&(opt.to_bytes().len() as u32).to_le_bytes());
        bytes.extend_from_slice(&opt.to_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let restored = sample_params(22);
        load_into(&restored, &path).expect("load params");
        assert_eq!(restored.state_hash(), params.state_hash());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plain_save_yields_empty_optimizer_state() {
        // The file ends in a 4-byte section holding an empty OptState.
        let path = tmp("no_opt.exck");
        save(&sample_params(31), &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        let empty = OptState::default().to_bytes();
        assert_eq!(empty, 0u32.to_le_bytes());
        assert_eq!(bytes[bytes.len() - 8..bytes.len() - 4], 4u32.to_le_bytes());
        assert_eq!(bytes[bytes.len() - 4..], empty[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version1_checkpoints_still_load() {
        // Synthesize a v1 file from a v2 save: patch the version field and
        // drop the optimizer section (v1 ended after the tensors).
        let path = tmp("v1.exck");
        let params = sample_params(41);
        save(&params, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        bytes.truncate(bytes.len() - 8); // section length prefix + empty OptState
        std::fs::write(&path, &bytes).expect("rewrite");
        let restored = sample_params(42);
        load_into(&restored, &path).expect("v1 load");
        assert_eq!(restored.state_hash(), params.state_hash());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let path = tmp("future.exck");
        save(&sample_params(51), &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(load_into(&sample_params(51), &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// The header of a one-tensor v2 file up to its dtype byte.
    fn header(name_len: u32, name: &[u8]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        for v in [VERSION, 1, name_len] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(name);
        b.push(0); // dtype F32
        b
    }

    fn assert_invalid(bytes: &[u8], file: &str) {
        let path = tmp(file);
        std::fs::write(&path, bytes).expect("write");
        let mut one = ParamSet::new();
        one.push(Param::new("w", Tensor::zeros([2], DType::F32)));
        let err = load_into(&one, &path).expect_err("a hostile file must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_lengths_are_invalid_data_not_an_abort() {
        // Rank u32::MAX: 22 bytes that once asked for a 32 GiB dims vector.
        let mut rank = header(1, b"w");
        rank.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(rank.len(), 22);
        assert_invalid(&rank, "hostile_rank.exck");
        // A name length far past the end of the file.
        assert_invalid(&header(u32::MAX, b""), "hostile_name.exck");
        // Dims whose element count overflows usize.
        let mut dims = header(1, b"w");
        for v in [3, u32::MAX, u32::MAX, u32::MAX] {
            dims.extend_from_slice(&v.to_le_bytes());
        }
        assert_invalid(&dims, "hostile_dims.exck");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let path = tmp("truncated.exck");
        let params = sample_params(61);
        save(&params, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        // The parameters end where the optimizer section's length begins.
        let tensors_end = bytes.len() - 8;
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).expect("truncate");
            let restored = sample_params(62);
            match load_into(&restored, &path) {
                Err(e) => assert!(len < tensors_end && e.kind() == io::ErrorKind::InvalidData, "{len} bytes: {e}"),
                Ok(()) => assert!(len >= tensors_end, "{len} bytes cut into the tensors but loaded"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fp16_params_roundtrip() {
        let path = tmp("fp16.exck");
        let mut rng = seeded_rng(9);
        let mut a = ParamSet::new();
        a.push(Param::new("h", randn([8], DType::F16, 1.0, &mut rng)));
        save(&a, &path).expect("save");
        let mut b = ParamSet::new();
        b.push(Param::new("h", Tensor::zeros([8], DType::F16)));
        load_into(&b, &path).expect("load");
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(b.get("h").expect("param").value().dtype(), DType::F16);
        std::fs::remove_file(&path).ok();
    }
}
