//! Binary model checkpoints.
//!
//! A deployment story needs durable weights: the Master trains (or loads) a
//! model once and re-deploys branches after failures. The format is a small
//! little-endian container written with [`fluid_tensor::codec`]:
//!
//! ```text
//! "FLDN" | version u32 = 2
//!        | levels u32 | levels × width u32
//!        | conv_stages u32 | kernel u32 | image_side u32
//!        | image_channels u32 | classes u32
//!        | per conv stage: weight tensor, bias tensor
//!        | fc weight tensor | fc bias tensor
//!        | FNV-1a u64 over every byte before it
//! ```
//!
//! A load reads the whole file (at most [`MAX_CHECKPOINT_BYTES`]) and checks
//! the trailer, the architecture, and that the tensor bytes it implies are
//! the bytes present, before the network allocates: a damaged or crafted
//! file is a [`CheckpointError::Format`], never a panic. A save renames a
//! synced temporary file into place, so a failed save keeps the old file.

use crate::arch::{Arch, WidthLadder};
use crate::network::ConvNet;
use fluid_tensor::codec::{fnv1a, put_tensor, put_u32, put_u64, CodecError, Cursor};
use fluid_tensor::{Prng, Tensor};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"FLDN";
const VERSION: u32 = 2;
/// Bytes of the FNV-1a trailer.
const TRAILER: usize = 8;

/// The largest checkpoint a load reads. The paper's model is ≈ 25 KB; a
/// longer input is refused rather than buffered.
pub const MAX_CHECKPOINT_BYTES: u64 = 256 << 20;

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

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Format(e.0)
    }
}

fn format_err<T>(why: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Format(why.into()))
}

/// The checkpoint bytes of `net`, trailer included.
fn encode_net(net: &ConvNet) -> Vec<u8> {
    let arch = net.arch();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, arch.ladder.levels() as u32);
    for &width in arch.ladder.widths() {
        put_u32(&mut out, width as u32);
    }
    for field in [
        arch.conv_stages,
        arch.kernel,
        arch.image_side,
        arch.image_channels,
        arch.classes,
    ] {
        put_u32(&mut out, field as u32);
    }
    for conv in net.convs() {
        put_tensor(&mut out, conv.weight());
        put_tensor(&mut out, conv.bias());
    }
    put_tensor(&mut out, net.fc().weight());
    put_tensor(&mut out, net.fc().bias());
    let digest = fnv1a(&out);
    put_u64(&mut out, digest);
    out
}

/// Reads the architecture fields, refusing any that would make
/// [`ConvNet::new`] panic.
fn read_arch(c: &mut Cursor) -> Result<Arch, CheckpointError> {
    let mut field = || c.u32().map(|v| v as usize);
    let levels = field()?;
    if levels == 0 || levels > 64 {
        return format_err(format!("{levels} ladder levels"));
    }
    let widths: Vec<usize> = (0..levels).map(|_| field()).collect::<Result<_, _>>()?;
    if widths[0] == 0 || widths.windows(2).any(|w| w[0] >= w[1]) {
        return format_err(format!(
            "ladder {widths:?} is not positive and strictly ascending"
        ));
    }
    let arch = Arch {
        ladder: WidthLadder::new(widths),
        conv_stages: field()?,
        kernel: field()?,
        image_side: field()?,
        image_channels: field()?,
        classes: field()?,
    };
    if !(1..=16).contains(&arch.conv_stages)
        || arch.kernel == 0
        || arch.image_channels == 0
        || arch.classes == 0
        || arch.final_side() == 0
    {
        return format_err(format!("implausible architecture {arch:?}"));
    }
    Ok(arch)
}

/// The dims of each tensor a net with `arch` holds, in checkpoint order,
/// or `None` when the FC width overflows `usize`.
fn shapes(arch: &Arch) -> Option<Vec<Vec<usize>>> {
    let (max, k, side) = (arch.ladder.max(), arch.kernel, arch.final_side());
    let fc_in = max.checked_mul(side)?.checked_mul(side)?;
    let mut shapes = Vec::with_capacity(2 * arch.conv_stages + 2);
    for stage in 0..arch.conv_stages {
        let c_in = if stage == 0 { arch.image_channels } else { max };
        shapes.extend([vec![max, c_in, k, k], vec![max]]);
    }
    shapes.extend([vec![arch.classes, fc_in], vec![arch.classes]]);
    Some(shapes)
}

/// Bytes `shapes` take as tensors (rank, dims and elements, 4 bytes
/// each), or `None` when the count overflows `usize`.
fn tensor_bytes(shapes: &[Vec<usize>]) -> Option<usize> {
    shapes.iter().try_fold(0usize, |total, dims| {
        let numel = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))?;
        total.checked_add(numel.checked_add(1 + dims.len())?.checked_mul(4)?)
    })
}

/// Decodes a whole checkpoint into its architecture and its tensors, in
/// checkpoint order and each of the shape the architecture implies.
fn decode(bytes: &[u8]) -> Result<(Arch, Vec<Tensor>), CheckpointError> {
    let mut c = Cursor::new(bytes);
    if c.bytes(MAGIC.len())? != MAGIC {
        return format_err("bad magic");
    }
    match c.u32()? {
        VERSION => {}
        1 => {
            return format_err(
                "version 1 checkpoint (no checksum) is not read by this build: \
                 re-save the model, e.g. re-run `fluidctl train --out`",
            )
        }
        v => return format_err(format!("unsupported version {v}")),
    }
    // The header just read is as long as the trailer, so this split holds.
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    if body.len() < MAGIC.len() + 4 || fnv1a(body).to_le_bytes() != trailer {
        return format_err("checksum mismatch: the file is damaged");
    }
    let mut c = Cursor::new(&body[MAGIC.len() + 4..]);
    let arch = read_arch(&mut c)?;
    let shapes = shapes(&arch).filter(|s| tensor_bytes(s) == Some(c.remaining()));
    let Some(shapes) = shapes else {
        return format_err(format!(
            "{} tensor bytes do not fit architecture {arch:?}",
            c.remaining()
        ));
    };
    let tensors = shapes
        .iter()
        .map(|dims| match c.tensor()? {
            t if t.dims() == &dims[..] => Ok(t),
            t => format_err(format!("tensor of shape {:?}, expected {dims:?}", t.dims())),
        })
        .collect::<Result<_, _>>()?;
    c.finish()?;
    Ok((arch, tensors))
}

/// Copies decoded tensors, in checkpoint order, over the weights of a net
/// of the same architecture.
fn install(net: &mut ConvNet, tensors: &[Tensor]) {
    let (convs, fc) = tensors.split_at(tensors.len() - 2);
    for (conv, wb) in net.convs_mut().iter_mut().zip(convs.chunks_exact(2)) {
        conv.weight_mut().data_mut().copy_from_slice(wb[0].data());
        conv.bias_mut().data_mut().copy_from_slice(wb[1].data());
    }
    let head = net.fc_mut();
    head.weight_mut().data_mut().copy_from_slice(fc[0].data());
    head.bias_mut().data_mut().copy_from_slice(fc[1].data());
}

/// All of `r`, up to [`MAX_CHECKPOINT_BYTES`].
fn read_capped<R: Read>(r: &mut R) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = Vec::new();
    r.take(MAX_CHECKPOINT_BYTES + 1).read_to_end(&mut bytes)?;
    if bytes.len() as u64 > MAX_CHECKPOINT_BYTES {
        return format_err(format!("longer than {MAX_CHECKPOINT_BYTES} bytes"));
    }
    Ok(bytes)
}

/// Writes a network (architecture + all weights) to a writer.
///
/// # Errors
///
/// Returns any underlying I/O error, from the write or the flush.
pub fn save_net<W: Write>(net: &ConvNet, w: &mut W) -> Result<(), CheckpointError> {
    w.write_all(&encode_net(net))?;
    w.flush()?;
    Ok(())
}

/// Reads a network written by [`save_net`]: the whole of `r`, up to
/// [`MAX_CHECKPOINT_BYTES`].
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on a read failure and
/// [`CheckpointError::Format`] on anything that is not a whole, intact
/// version-2 checkpoint: bad magic, version 1, a checksum mismatch, an
/// implausible architecture, mis-shaped tensors, or more bytes than the
/// cap.
pub fn load_net<R: Read>(r: &mut R) -> Result<ConvNet, CheckpointError> {
    let (arch, tensors) = decode(&read_capped(r)?)?;
    let mut net = ConvNet::new(arch, &mut Prng::new(0));
    install(&mut net, &tensors);
    Ok(net)
}

/// The temporary file a save to `path` writes before renaming it into
/// place: same directory, so the rename never crosses a file system.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_owned();
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Saves a network to a file path, atomically: the bytes go to a
/// temporary file in the same directory, which is flushed, synced and then
/// renamed over `path`, and the directory is synced so the rename is
/// durable. A failed save removes the temporary file and leaves any
/// existing checkpoint at `path` untouched.
///
/// # Errors
///
/// Returns every I/O error of the create, write, flush, syncs and rename.
pub fn save_net_to_path(net: &ConvNet, path: &Path) -> Result<(), CheckpointError> {
    let tmp = temp_path(path);
    let saved = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(&encode_net(net))?;
            f.flush()?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if saved.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    saved?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Loads a network from a file path.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure or malformed contents.
pub fn load_net_from_path(path: &Path) -> Result<ConvNet, CheckpointError> {
    load_net(&mut std::fs::File::open(path)?)
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
    let (arch, tensors) = decode(&read_capped(r)?)?;
    if &arch != net.arch() {
        return format_err(format!(
            "checkpoint architecture {arch:?} does not match the live net {:?}",
            net.arch()
        ));
    }
    install(net, &tensors);
    Ok(())
}

/// [`reload_net`] from a file path.
///
/// # Errors
///
/// Returns [`CheckpointError`] on I/O failure, malformed contents, or an
/// architecture mismatch.
pub fn reload_net_from_path(net: &mut ConvNet, path: &Path) -> Result<(), CheckpointError> {
    reload_net(net, &mut std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BranchSpec;
    use fluid_nn::ChannelRange;

    fn saved(arch: Arch, seed: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        save_net(&ConvNet::new(arch, &mut Prng::new(seed)), &mut buf).expect("save");
        buf
    }

    /// Recomputes the trailer of a hand-edited checkpoint, so the edit
    /// reaches the checks behind the checksum.
    fn reseal(buf: &mut Vec<u8>) {
        buf.truncate(buf.len() - TRAILER);
        let digest = fnv1a(buf);
        put_u64(buf, digest);
    }

    fn format_message(bytes: &[u8]) -> String {
        match load_net(&mut &bytes[..]) {
            Err(CheckpointError::Format(why)) => why,
            Err(e) => panic!("expected a Format error, got {e}"),
            Ok(_) => panic!("expected a Format error, got a net"),
        }
    }

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
        let buf = saved(Arch::tiny_28(), 10);
        let loaded = load_net(&mut buf.as_slice()).expect("load");
        assert_eq!(loaded.arch(), &Arch::tiny_28());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_net(&mut &b"NOPE"[..]).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = saved(Arch::tiny_28(), 11);
        buf.truncate(buf.len() / 2);
        assert!(format_message(&buf).contains("checksum"));
    }

    #[test]
    fn over_rank_tensor_rejected_not_panicking() {
        // A rank past fluid_tensor::MAX_RANK must come back as a Format
        // error (the all-or-nothing loader contract) — Shape stores dims
        // inline and would panic if the guard let it through.
        let mut buf = saved(Arch::tiny_28(), 12);
        // After magic, version, the 4-level ladder and five arch fields.
        let rank_at = 4 + 4 + 4 + 4 * 4 + 5 * 4;
        buf[rank_at..rank_at + 4].copy_from_slice(&5u32.to_le_bytes());
        reseal(&mut buf);
        assert!(format_message(&buf).contains("rank"));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = saved(Arch::tiny_28(), 12);
        buf[4] = 99; // clobber version
        assert!(format_message(&buf).contains("version 99"));
        buf[4] = 1;
        assert!(format_message(&buf).contains("re-save"));
    }

    #[test]
    fn encoding_is_stable_across_a_load() {
        for arch in [Arch::tiny(), Arch::tiny_28(), Arch::paper()] {
            let buf = saved(arch, 20);
            let again = encode_net(&load_net(&mut buf.as_slice()).expect("load"));
            assert_eq!(again, buf, "save ∘ load changed the bytes");
        }
    }

    #[test]
    fn shapes_describe_the_nets_tensors() {
        for arch in [Arch::tiny(), Arch::tiny_28(), Arch::paper()] {
            let net = ConvNet::new(arch.clone(), &mut Prng::new(21));
            let mut held: Vec<Vec<usize>> = Vec::new();
            for conv in net.convs() {
                held.push(conv.weight().dims().to_vec());
                held.push(conv.bias().dims().to_vec());
            }
            held.push(net.fc().weight().dims().to_vec());
            held.push(net.fc().bias().dims().to_vec());
            let shapes = shapes(&arch).expect("no overflow");
            assert_eq!(shapes, held, "{arch:?}");
            // Everything between the header and the trailer is tensors.
            let header = 4 + 4 + 4 + 4 * arch.ladder.levels() + 5 * 4;
            let body = encode_net(&net).len() - header - TRAILER;
            assert_eq!(tensor_bytes(&shapes), Some(body), "{arch:?}");
        }
    }

    #[test]
    fn empty_and_header_only_inputs_are_format_errors() {
        format_message(&[]);
        let mut header = MAGIC.to_vec();
        put_u32(&mut header, VERSION);
        assert!(format_message(&header).contains("checksum"));
    }

    #[test]
    fn any_edit_behind_the_header_fails_the_checksum() {
        let buf = saved(Arch::tiny_28(), 22);
        let mut flipped = buf.clone();
        let mid = buf.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(format_message(&flipped).contains("checksum"));
        let mut appended = buf.clone();
        appended.push(0);
        assert!(format_message(&appended).contains("checksum"));
        let mut trailer = buf;
        *trailer.last_mut().expect("non-empty") ^= 1;
        assert!(format_message(&trailer).contains("checksum"));
    }

    #[test]
    fn ladder_level_count_is_bounded() {
        for levels in [0u32, 65] {
            let mut buf = MAGIC.to_vec();
            put_u32(&mut buf, VERSION);
            put_u32(&mut buf, levels);
            for w in 1..=levels {
                put_u32(&mut buf, w);
            }
            buf.extend_from_slice(&[0; TRAILER]);
            reseal(&mut buf);
            assert!(format_message(&buf).contains("ladder levels"), "{levels}");
        }
    }

    #[test]
    fn conv_stage_count_is_bounded() {
        // conv_stages is the first field after the 4-level ladder.
        let stages_at = 4 + 4 + 4 + 4 * 4;
        for stages in [0u32, 17] {
            let mut buf = saved(Arch::tiny_28(), 23);
            buf[stages_at..stages_at + 4].copy_from_slice(&stages.to_le_bytes());
            reseal(&mut buf);
            assert!(format_message(&buf).contains("implausible"), "{stages}");
        }
    }

    #[test]
    fn permuted_tensor_dims_are_rejected() {
        // The first conv weight is [8, 1, 3, 3]; [1, 8, 3, 3] has the same
        // byte count, so only the shape check can catch it.
        let mut buf = saved(Arch::tiny_28(), 24);
        let dims_at = 4 + 4 + 4 + 4 * 4 + 5 * 4 + 4;
        assert_eq!(buf[dims_at..dims_at + 8], [8, 0, 0, 0, 1, 0, 0, 0]);
        buf[dims_at] = 1;
        buf[dims_at + 4] = 8;
        reseal(&mut buf);
        assert!(format_message(&buf).contains("expected [8, 1, 3, 3]"));
    }

    #[test]
    fn read_failure_is_an_io_error() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
        }
        let err = load_net(&mut Broken).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        let path = std::env::temp_dir()
            .join(format!("fluid_ckpt_absent_{}", std::process::id()))
            .join("model.fldn");
        let err = load_net_from_path(&path).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    /// A writer that fails write number `fail_write` (0-based) or, when
    /// that is `None`, its flush.
    struct FailingWriter {
        fail_write: Option<usize>,
        writes: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail_write == Some(self.writes) {
                return Err(io::Error::other("write refused"));
            }
            self.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            match self.fail_write {
                None => Err(io::Error::other("flush refused")),
                Some(_) => Ok(()),
            }
        }
    }

    #[test]
    fn save_net_returns_a_write_error() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(25));
        let mut w = FailingWriter {
            fail_write: Some(0),
            writes: 0,
        };
        assert!(matches!(
            save_net(&net, &mut w),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn save_net_returns_a_flush_error() {
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(26));
        let mut w = FailingWriter {
            fail_write: None,
            writes: 0,
        };
        assert!(matches!(
            save_net(&net, &mut w),
            Err(CheckpointError::Io(_))
        ));
        assert_eq!(w.writes, 1, "the bytes go down in one write");
    }

    #[test]
    fn save_replaces_an_existing_checkpoint() {
        let dir = std::env::temp_dir().join(format!("fluid_ckpt_replace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("model.fldn");
        let first = ConvNet::new(Arch::tiny_28(), &mut Prng::new(27));
        let second = ConvNet::new(Arch::tiny_28(), &mut Prng::new(28));
        save_net_to_path(&first, &path).expect("save");
        save_net_to_path(&second, &path).expect("save over");
        assert_eq!(std::fs::read(&path).expect("read"), encode_net(&second));
        let names: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
        assert_eq!(names.len(), 1, "a temporary file was left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_from_a_damaged_file_leaves_the_net_untouched() {
        let dir = std::env::temp_dir().join(format!("fluid_ckpt_damaged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("model.fldn");
        let mut buf = saved(Arch::tiny_28(), 29);
        let last = buf.len() - TRAILER - 1;
        buf[last] ^= 0x01;
        std::fs::write(&path, &buf).expect("write");
        let mut live = ConvNet::new(Arch::tiny_28(), &mut Prng::new(30));
        let before = encode_net(&live);
        let err = reload_net_from_path(&mut live, &path).expect_err("damaged");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(encode_net(&live), before, "net was touched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fluid_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("model.fldn");
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(13));
        save_net_to_path(&net, &path).expect("save");
        let loaded = load_net_from_path(&path).expect("load");
        assert_eq!(loaded.fc().weight().data(), net.fc().weight().data());
        assert!(
            !temp_path(&path).exists(),
            "the temporary file outlived the save"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_into_missing_directory_is_an_error() {
        let path = std::env::temp_dir()
            .join(format!("fluid_ckpt_missing_{}", std::process::id()))
            .join("model.fldn");
        let net = ConvNet::new(Arch::tiny_28(), &mut Prng::new(17));
        assert!(save_net_to_path(&net, &path).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn failed_save_leaves_the_old_checkpoint_intact() {
        let dir = std::env::temp_dir().join(format!("fluid_ckpt_keep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("model.fldn");
        save_net_to_path(&ConvNet::new(Arch::tiny_28(), &mut Prng::new(18)), &path).expect("save");
        let before = std::fs::read(&path).expect("read");
        // A directory where the temporary file goes makes the next save
        // fail at its first step.
        std::fs::create_dir(temp_path(&path)).expect("block the temp path");
        let other = ConvNet::new(Arch::tiny_28(), &mut Prng::new(19));
        assert!(save_net_to_path(&other, &path).is_err());
        assert_eq!(
            std::fs::read(&path).expect("read"),
            before,
            "old file changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
        let buf = saved(Arch::tiny(), 33); // 14×14
        let mut live = ConvNet::new(Arch::tiny_28(), &mut Prng::new(34));
        let before: Vec<f32> = live.fc().weight().data().to_vec();
        let err = reload_net(&mut live, &mut buf.as_slice()).expect_err("arch mismatch");
        assert!(err.to_string().contains("architecture"), "{err}");
        assert_eq!(live.fc().weight().data(), &before[..], "net was touched");
        // A truncated checkpoint is also rejected without a partial write.
        let err = reload_net(&mut live, &mut buf[..buf.len() / 2].as_ref()).expect_err("truncated");
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        assert_eq!(live.fc().weight().data(), &before[..]);
    }
}
