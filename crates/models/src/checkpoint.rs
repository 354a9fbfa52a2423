//! Binary model checkpoints.
//!
//! A deployment story needs durable weights: the Master trains (or loads) a
//! model once and re-deploys branches after failures. The format is a small
//! little-endian container (magic, version, architecture, tensors) with no
//! external dependencies.

use crate::arch::{Arch, WidthLadder};
use crate::network::ConvNet;
use fluid_tensor::{Prng, Tensor};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"FLDN";
const VERSION: u32 = 1;

/// Error loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a checkpoint or is damaged.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(why) => write!(f, "invalid checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn put_tensor<W: Write>(w: &mut W, t: &Tensor) -> io::Result<()> {
    put_u32(w, t.dims().len() as u32)?;
    for &d in t.dims() {
        put_u32(w, d as u32)?;
    }
    for &x in t.data() {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn get_tensor<R: Read>(r: &mut R) -> Result<Tensor, CheckpointError> {
    // Reject before `Tensor::from_vec`: `Shape` stores dimensions inline
    // and panics past `MAX_RANK`, and a corrupt checkpoint must surface as
    // a `Format` error (the all-or-nothing loader contract), not a crash.
    let rank = get_u32(r)? as usize;
    if rank > fluid_tensor::MAX_RANK {
        return Err(CheckpointError::Format(format!("tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(get_u32(r)? as usize);
    }
    let n: usize = dims.iter().product();
    if n > 256 * 1024 * 1024 {
        return Err(CheckpointError::Format(format!("tensor of {n} elements")));
    }
    let mut data = Vec::with_capacity(n);
    let mut b = [0u8; 4];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        data.push(f32::from_le_bytes(b));
    }
    Ok(Tensor::from_vec(data, &dims))
}

/// Writes a network (architecture + all weights) to a writer.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_net<W: Write>(net: &ConvNet, w: &mut W) -> Result<(), CheckpointError> {
    let arch = net.arch();
    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;
    put_u32(w, arch.ladder.levels() as u32)?;
    for &width in arch.ladder.widths() {
        put_u32(w, width as u32)?;
    }
    put_u32(w, arch.conv_stages as u32)?;
    put_u32(w, arch.kernel as u32)?;
    put_u32(w, arch.image_side as u32)?;
    put_u32(w, arch.image_channels as u32)?;
    put_u32(w, arch.classes as u32)?;
    for conv in net.convs() {
        put_tensor(w, conv.weight())?;
        put_tensor(w, conv.bias())?;
    }
    put_tensor(w, net.fc().weight())?;
    put_tensor(w, net.fc().bias())?;
    Ok(())
}

/// Reads a network written by [`save_net`].
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure, bad magic/version, or
/// mis-shaped tensors.
pub fn load_net<R: Read>(r: &mut R) -> Result<ConvNet, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let levels = get_u32(r)? as usize;
    if levels == 0 || levels > 64 {
        return Err(CheckpointError::Format(format!("{levels} ladder levels")));
    }
    let mut widths = Vec::with_capacity(levels);
    for _ in 0..levels {
        widths.push(get_u32(r)? as usize);
    }
    let conv_stages = get_u32(r)? as usize;
    let kernel = get_u32(r)? as usize;
    let image_side = get_u32(r)? as usize;
    let image_channels = get_u32(r)? as usize;
    let classes = get_u32(r)? as usize;
    if !(1..=16).contains(&conv_stages) || kernel == 0 || image_side == 0 || classes == 0 {
        return Err(CheckpointError::Format("implausible architecture".into()));
    }
    let arch = Arch {
        ladder: WidthLadder::new(widths),
        conv_stages,
        kernel,
        image_side,
        image_channels,
        classes,
    };
    let mut net = ConvNet::new(arch.clone(), &mut Prng::new(0));
    for stage in 0..conv_stages {
        let w = get_tensor(r)?;
        let b = get_tensor(r)?;
        let conv = &mut net.convs_mut()[stage];
        if w.dims() != conv.weight().dims() || b.dims() != conv.bias().dims() {
            return Err(CheckpointError::Format(format!(
                "conv{stage} tensor shape mismatch"
            )));
        }
        conv.weight_mut().data_mut().copy_from_slice(w.data());
        conv.bias_mut().data_mut().copy_from_slice(b.data());
    }
    let w = get_tensor(r)?;
    let b = get_tensor(r)?;
    if w.dims() != net.fc().weight().dims() || b.dims() != net.fc().bias().dims() {
        return Err(CheckpointError::Format("fc tensor shape mismatch".into()));
    }
    net.fc_mut()
        .weight_mut()
        .data_mut()
        .copy_from_slice(w.data());
    net.fc_mut().bias_mut().data_mut().copy_from_slice(b.data());
    Ok(net)
}

/// Saves a network to a file path.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_net_to_path(net: &ConvNet, path: &std::path::Path) -> Result<(), CheckpointError> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    save_net(net, &mut f)
}

/// Loads a network from a file path.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure or malformed contents.
pub fn load_net_from_path(path: &std::path::Path) -> Result<ConvNet, CheckpointError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    load_net(&mut f)
}

/// Loads a checkpoint *into* a live network: the checkpoint must carry the
/// same architecture, and on success every weight of `net` is overwritten
/// in place. This is the hot-swap loader — a serving layer keeps its
/// engine (and everything holding a reference to it) and only the function
/// changes.
///
/// All-or-nothing: the checkpoint is fully parsed and validated *before*
/// the first write, so a damaged or mismatched file leaves `net` exactly
/// as it was.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure, malformed contents, or an
/// architecture mismatch (`net` is untouched in every error case).
pub fn reload_net<R: Read>(net: &mut ConvNet, r: &mut R) -> Result<(), CheckpointError> {
    let loaded = load_net(r)?;
    if loaded.arch() != net.arch() {
        return Err(CheckpointError::Format(format!(
            "checkpoint architecture {:?} does not match the live net {:?}",
            loaded.arch(),
            net.arch()
        )));
    }
    for (dst, src) in net.convs_mut().iter_mut().zip(loaded.convs()) {
        dst.weight_mut()
            .data_mut()
            .copy_from_slice(src.weight().data());
        dst.bias_mut().data_mut().copy_from_slice(src.bias().data());
    }
    net.fc_mut()
        .weight_mut()
        .data_mut()
        .copy_from_slice(loaded.fc().weight().data());
    net.fc_mut()
        .bias_mut()
        .data_mut()
        .copy_from_slice(loaded.fc().bias().data());
    Ok(())
}

/// [`reload_net`] from a file path.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure, malformed contents, or an
/// architecture mismatch.
pub fn reload_net_from_path(
    net: &mut ConvNet,
    path: &std::path::Path,
) -> Result<(), CheckpointError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    reload_net(net, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BranchSpec;
    use fluid_nn::ChannelRange;

    #[test]
    fn roundtrip_preserves_function() {
        let net = ConvNet::new(Arch::paper(), &mut Prng::new(9));
        let mut buf = Vec::new();
        save_net(&net, &mut buf).expect("save");
        let mut loaded = load_net(&mut buf.as_slice()).expect("load");

        let branch = BranchSpec::uniform("full", ChannelRange::prefix(16), 3, true);
        let x = Tensor::from_fn(&[2, 1, 28, 28], |i| ((i % 83) as f32) / 83.0);
        let mut original = net.clone();
        let a = original.forward_branch(&x, &branch, false);
        let b = loaded.forward_branch(&x, &branch, false);
        assert!(a.allclose(&b, 0.0), "checkpoint changed the function");
    }

    #[test]
    fn roundtrip_preserves_arch() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(10));
        let mut buf = Vec::new();
        save_net(&net, &mut buf).expect("save");
        let loaded = load_net(&mut buf.as_slice()).expect("load");
        assert_eq!(loaded.arch(), net.arch());
    }

    #[test]
    fn transposed_copy_roundtrips() {
        // Checkpoints serialise tensors in row-major element order; a
        // transposed copy must survive save → load bit-exactly.
        let src = Tensor::from_fn(&[6, 10], |i| (i as f32).sin());
        let t = src.transpose();
        let mut buf = Vec::new();
        put_tensor(&mut buf, &t).expect("save");
        let back = get_tensor(&mut buf.as_slice()).expect("load");
        assert_eq!(back, t);
        assert_eq!(back.at2(7, 2), src.at2(2, 7));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_net(&mut &b"NOPE"[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(11));
        let mut buf = Vec::new();
        save_net(&net, &mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        assert!(load_net(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn over_rank_tensor_rejected_not_panicking() {
        // A corrupt rank past fluid_tensor::MAX_RANK must come back as a
        // Format error (the all-or-nothing loader contract) — Shape stores
        // dims inline and would panic if the guard let it through.
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(12));
        let mut buf = Vec::new();
        save_net(&net, &mut buf).expect("save");
        // First tensor's rank field sits after the header: magic + version
        // + ladder (level count + widths) + five u32 arch fields.
        let levels = u32::from_le_bytes(buf[8..12].try_into().expect("len")) as usize;
        let rank_at = 4 + 4 + 4 + levels * 4 + 5 * 4;
        buf[rank_at..rank_at + 4].copy_from_slice(&5u32.to_le_bytes());
        let err = load_net(&mut buf.as_slice()).expect_err("must reject rank 5");
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("rank")),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(12));
        let mut buf = Vec::new();
        save_net(&net, &mut buf).expect("save");
        buf[4] = 99; // clobber version
        assert!(load_net(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fluid_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("model.fldn");
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(13));
        save_net_to_path(&net, &path).expect("save");
        let loaded = load_net_from_path(&path).expect("load");
        assert_eq!(loaded.fc().weight().data(), net.fc().weight().data());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_overwrites_live_net_in_place() {
        let source = ConvNet::new(Arch::tiny_28(), &mut Prng::new(31));
        let mut live = ConvNet::new(Arch::tiny_28(), &mut Prng::new(32));
        assert_ne!(live.fc().weight().data(), source.fc().weight().data());
        let mut buf = Vec::new();
        save_net(&source, &mut buf).expect("save");
        reload_net(&mut live, &mut buf.as_slice()).expect("reload");
        assert_eq!(live.fc().weight().data(), source.fc().weight().data());
        assert_eq!(
            live.convs()[0].weight().data(),
            source.convs()[0].weight().data()
        );
    }

    #[test]
    fn reload_rejects_arch_mismatch_and_leaves_net_untouched() {
        let source = ConvNet::new(Arch::tiny(), &mut Prng::new(33)); // 14×14
        let mut live = ConvNet::new(Arch::tiny_28(), &mut Prng::new(34));
        let before: Vec<f32> = live.fc().weight().data().to_vec();
        let mut buf = Vec::new();
        save_net(&source, &mut buf).expect("save");
        let err = reload_net(&mut live, &mut buf.as_slice()).expect_err("arch mismatch");
        assert!(err.to_string().contains("architecture"), "{err}");
        assert_eq!(live.fc().weight().data(), &before[..], "net was touched");
        // A truncated checkpoint is also rejected without a partial write.
        let err = reload_net(&mut live, &mut buf[..buf.len() / 2].as_ref()).expect_err("truncated");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert_eq!(live.fc().weight().data(), &before[..]);
    }
}
