//! Decoding is total: `Message::decode` and `load_net` turn any bytes
//! into a value or an error — never a panic — and never ask the heap for
//! more than a small multiple of their input.
//!
//! The inputs are hostile bytes around real encodings (the 17 golden wire
//! messages and a `tiny_28` checkpoint): arbitrary bytes, and every
//! truncation and every single-bit flip of each encoding. A counting
//! global allocator sums the bytes the decoding thread requests — each
//! allocation's size and each reallocation's new size — in a
//! `const`-initialised thread-local, so other test threads never leak
//! into a count.

use fluid_dist::Message;
use fluid_integration_tests::golden_messages;
use fluid_models::{load_net, save_net, Arch, CheckpointError, ConvNet};
use fluid_tensor::codec::{fnv1a, put_u32, put_u64};
use fluid_tensor::Prng;
use proptest::prelude::*;
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Bytes requested from the heap by this thread.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still allocates, uncounted.
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

/// Forwards to the system allocator, summing the bytes of every request.
struct CountingAllocator;

// SAFETY: a pass-through to `System` plus a thread-local counter bump
// that never allocates; every `GlobalAlloc` obligation is `System`'s.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The most a decode of `n` bytes may request: a small multiple of its
/// input, plus room for an error message. A valid checkpoint is the
/// largest case (≈ 6.6× for `tiny_28`): the read buffer's doublings, the
/// decoded tensors, and the net's weights and gradients.
fn reserve_bound(n: usize) -> usize {
    8 * n + 4096
}

/// Runs `decode` on `bytes` and fails if it requested more than
/// [`reserve_bound`]. A panic inside `decode` fails the calling test.
fn bounded<T>(bytes: &[u8], decode: impl FnOnce(&[u8]) -> T) -> T {
    let before = REQUESTED.with(Cell::get);
    let out = decode(bytes);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= reserve_bound(bytes.len()),
        "decoding {} bytes requested {requested} bytes",
        bytes.len()
    );
    out
}

fn decode_wire(bytes: &[u8]) -> Option<Message> {
    bounded(bytes, |b| Message::decode(b).ok())
}

fn load_checkpoint(bytes: &[u8]) -> Result<ConvNet, CheckpointError> {
    bounded(bytes, |mut b| load_net(&mut b))
}

/// The `Format` error's reason; any other outcome fails the test.
fn assert_format(bytes: &[u8], what: &str) -> String {
    match load_checkpoint(bytes) {
        Err(CheckpointError::Format(why)) => why,
        Err(e) => panic!("{what}: expected a Format error, got {e}"),
        Ok(_) => panic!("{what}: loaded"),
    }
}

fn wire_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| golden_messages().iter().map(Message::encode).collect())
}

/// One real checkpoint: a seeded `tiny_28` net.
fn checkpoint_corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut bytes = Vec::new();
        save_net(
            &ConvNet::new(Arch::tiny_28(), &mut Prng::new(19)),
            &mut bytes,
        )
        .expect("save");
        vec![bytes]
    })
}

/// Hostile inputs around a corpus of valid encodings: arbitrary bytes, or
/// one corpus entry truncated, with one bit flipped, or with a 4-byte
/// window (a length, count or dimension field, say) overwritten.
struct HostileBytes(&'static [Vec<u8>]);

impl Strategy for HostileBytes {
    type Value = Vec<u8>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<u8> {
        let mut bytes = self.0[rng.index(self.0.len())].clone();
        let at = rng.index(bytes.len());
        match rng.index(4) {
            0 => (0..rng.index(256)).map(|_| rng.next_u64() as u8).collect(),
            1 => {
                bytes.truncate(at);
                bytes
            }
            2 => {
                bytes[at] ^= 1 << rng.index(8);
                bytes
            }
            _ => {
                let word = rng.next_u64().to_le_bytes();
                let end = (at + 4).min(bytes.len());
                bytes[at..end].copy_from_slice(&word[..end - at]);
                bytes
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_decode_is_total(bytes in HostileBytes(wire_corpus())) {
        decode_wire(&bytes);
    }

    #[test]
    fn checkpoint_load_is_total(bytes in HostileBytes(checkpoint_corpus())) {
        let _ = load_checkpoint(&bytes);
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_golden_message_is_total() {
    for (tag, full) in wire_corpus().iter().enumerate().map(|(i, b)| (i + 1, b)) {
        assert!(decode_wire(full).is_some(), "tag {tag} must decode");
        for cut in 0..full.len() {
            // Every field is fixed-width or length-prefixed, so no strict
            // prefix of a message is a message.
            assert!(
                decode_wire(&full[..cut]).is_none(),
                "tag {tag} cut at {cut} decoded"
            );
        }
        let mut bytes = full.clone();
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            decode_wire(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[test]
fn every_truncation_of_a_checkpoint_is_a_format_error() {
    let full = &checkpoint_corpus()[0];
    load_checkpoint(full).expect("the intact checkpoint loads");
    for cut in 0..full.len() {
        assert_format(&full[..cut], &format!("cut at {cut}"));
    }
}

#[test]
fn every_bit_flip_of_a_checkpoint_is_a_format_error() {
    let mut bytes = checkpoint_corpus()[0].clone();
    for bit in 0..8 * bytes.len() {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_format(&bytes, &format!("bit {bit} flipped"));
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// A version-2 checkpoint header: magic, version, the ladder, then
/// `conv_stages`, `kernel`, `image_side`, `image_channels` and `classes`.
fn header(widths: &[u32], fields: [u32; 5]) -> Vec<u8> {
    let mut bytes = b"FLDN".to_vec();
    put_u32(&mut bytes, 2);
    put_u32(&mut bytes, widths.len() as u32);
    for &v in widths.iter().chain(&fields) {
        put_u32(&mut bytes, v);
    }
    bytes
}

/// Appends the trailer that makes `body` pass the checksum, so a crafted
/// field reaches the checks behind it.
fn sealed(mut body: Vec<u8>) -> Vec<u8> {
    let digest = fnv1a(&body);
    put_u64(&mut body, digest);
    body
}

#[test]
fn crafted_checkpoints_are_format_errors_not_panics() {
    let tiny = [2, 3, 14, 1, 10];
    // Ladders that would trip `WidthLadder::new`'s asserts; `[4, 4]` is
    // the 40-byte file that used to panic `load_net`.
    for widths in [&[4, 4][..], &[], &[0, 4], &[8, 4]] {
        let why = assert_format(&sealed(header(widths, tiny)), &format!("{widths:?}"));
        assert!(why.contains("ladder"), "{why}");
    }
    // Zero image channels, and a 2×2 image that three pools shrink to
    // nothing: each would trip a layer constructor's assert.
    for fields in [[2, 3, 14, 0, 10], [3, 3, 2, 1, 10]] {
        let why = assert_format(&sealed(header(&[4, 8], fields)), &format!("{fields:?}"));
        assert!(why.contains("implausible"), "{why}");
    }
    // An arch claiming 11 classes over a 10-class net's tensors: the
    // bytes present do not fit, so nothing is allocated for the claim.
    let mut body = checkpoint_corpus()[0].clone();
    body.truncate(body.len() - 8);
    let classes_at = header(&[2, 4, 6, 8], tiny).len() - 4;
    body[classes_at..classes_at + 4].copy_from_slice(&11u32.to_le_bytes());
    let why = assert_format(&sealed(body), "11 classes");
    assert!(why.contains("do not fit"), "{why}");
}

#[test]
fn overflowing_tensor_claim_is_a_format_error_not_a_panic() {
    // A `tiny` checkpoint whose first tensor (rank 4) claims dims 65536⁴:
    // the element count overflows usize in every build profile.
    let mut body = Vec::new();
    save_net(&ConvNet::new(Arch::tiny(), &mut Prng::new(14)), &mut body).expect("save");
    body.truncate(body.len() - 8);
    let dims_at = header(&[2, 4, 6, 8], [2, 3, 14, 1, 10]).len() + 4;
    for d in 0..4 {
        body[dims_at + 4 * d..dims_at + 4 * d + 4].copy_from_slice(&65_536u32.to_le_bytes());
    }
    let why = assert_format(&sealed(body), "dims 65536⁴");
    assert!(why.contains("overflows"), "{why}");
}
