#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
//! # vom-persist
//!
//! Versioned, digest-validated, zero-copy on-disk snapshot format for
//! prepared-index artifacts (DESIGN.md §3e).
//!
//! A snapshot file is:
//!
//! ```text
//! header (7 × u64, little-endian):
//!     magic            "VOMPIDX1" as a LE u64
//!     format version   bumped on any layout change
//!     payload digest   FNV-1a 64 over every byte after the header
//!     graph digest     caller-defined (the instance fingerprint)
//!     spec digest      caller-defined (the problem-spec fingerprint)
//!     method           caller-defined method identity
//!     n_sections       number of section-table entries
//! section table (n_sections × 4 × u64): kind, id, file offset, byte length
//! payload: 8-byte-aligned flat sections, zero-padded between sections
//! ```
//!
//! Sections hold plain element arrays ([`Pod`] types) written verbatim in
//! little-endian order — saving an index serializes its existing flat
//! buffers with no per-element transformation, and loading on a
//! little-endian 64-bit target can borrow the file region directly
//! ([`FlatBuf::Static`]) instead of copying. The whole file is read with
//! one contiguous `read_exact` into an 8-byte-aligned buffer
//! ([`AlignedBuf`]); under [`LoadMode::MapStatic`] that buffer is leaked
//! (the `std`-only stand-in for an `mmap` region — the borrow seam is the
//! same, so a real mapping can be swapped in behind [`Snapshot`] without
//! touching callers).
//!
//! Every load validates the magic, format version, section bounds and the
//! payload digest before any section is handed out: corruption fails
//! closed with a typed [`PersistError`], never with a panic or garbage
//! data.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Deref;
use std::path::Path;

/// `"VOMPIDX1"` interpreted as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"VOMPIDX1");

/// Current snapshot format version; any change to the header, section
/// table or section encodings bumps this. Version 2 dropped the
/// redundant RS `walk_gain` section (gains are derived from the
/// truncation end values on load); version 3 dropped the DM diffusion
/// system's out-edge CSR and has-in-edges flags.
pub const FORMAT_VERSION: u64 = 3;

/// Header size in bytes (7 little-endian `u64` slots).
pub const HEADER_BYTES: usize = 7 * 8;

/// Section-table entry size in bytes (kind, id, offset, length).
pub const ENTRY_BYTES: usize = 4 * 8;

/// Typed snapshot failure. Every load/save error is one of these; loaders
/// are expected to fall back to a fresh build on any of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An I/O operation failed (message carries `std::io::Error` text).
    Io {
        /// The failing operation, e.g. `"open"`.
        op: &'static str,
        /// The OS error description.
        message: String,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The first 8 bytes actually found.
        got: u64,
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        got: u64,
        /// Version this build understands.
        want: u64,
    },
    /// The file is shorter than its own header/table claims.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A digest check failed (corruption or a mismatched artifact).
    DigestMismatch {
        /// Which digest: `"payload"`, `"graph"`, or `"spec"`.
        what: &'static str,
        /// Digest computed / expected by the caller.
        want: u64,
        /// Digest found in the file.
        got: u64,
    },
    /// A required section is absent.
    SectionMissing {
        /// Section kind.
        kind: u32,
        /// Section id.
        id: u64,
    },
    /// A section-table entry points outside the file or is misaligned.
    SectionBounds {
        /// Section kind.
        kind: u32,
        /// Section id.
        id: u64,
    },
    /// A section or scalar failed semantic validation on load.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The artifact's method has no snapshot support (e.g. baselines).
    UnsupportedMethod {
        /// Method display name.
        method: String,
    },
    /// The snapshot does not describe the problem the caller asked for.
    SpecMismatch {
        /// The mismatching field.
        what: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { op, message } => write!(f, "snapshot {op} failed: {message}"),
            PersistError::BadMagic { got } => {
                write!(f, "not a snapshot file (magic {got:#018x})")
            }
            PersistError::UnsupportedVersion { got, want } => {
                write!(f, "snapshot format version {got} (this build reads {want})")
            }
            PersistError::Truncated { what, needed, got } => {
                write!(
                    f,
                    "snapshot truncated reading {what}: need {needed} bytes, have {got}"
                )
            }
            PersistError::DigestMismatch { what, want, got } => {
                write!(
                    f,
                    "{what} digest mismatch: file has {got:#018x}, expected {want:#018x}"
                )
            }
            PersistError::SectionMissing { kind, id } => {
                write!(f, "snapshot section missing: kind {kind}, id {id}")
            }
            PersistError::SectionBounds { kind, id } => {
                write!(f, "snapshot section out of bounds: kind {kind}, id {id}")
            }
            PersistError::BadValue { what, detail } => {
                write!(f, "invalid snapshot value for {what}: {detail}")
            }
            PersistError::UnsupportedMethod { method } => {
                write!(f, "method {method} has no snapshot support")
            }
            PersistError::SpecMismatch { what } => {
                write!(f, "snapshot describes a different problem: {what} differs")
            }
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(op: &'static str, e: std::io::Error) -> PersistError {
    PersistError::Io {
        op,
        message: e.to_string(),
    }
}

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, PersistError>;

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher — the same digest family the bench
/// harness uses for selection digests, chosen for bit-stable results with
/// no dependencies.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest { state: FNV_BASIS }
    }
}

impl Digest {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` in little-endian order.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Absorbs an `f64` by bit pattern (bit-exact, `-0.0 != 0.0`).
    pub fn update_f64(&mut self, v: f64) -> &mut Self {
        self.update_u64(v.to_bits())
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

// ---------------------------------------------------------------------------
// Pod element types
// ---------------------------------------------------------------------------

/// A plain element type a snapshot section can hold.
///
/// On-disk encoding is little-endian with a fixed per-element width. When
/// the in-memory representation matches the disk representation on this
/// target (`cast_compatible`), whole sections are written with one
/// `memcpy` and loaded zero-copy; otherwise a per-element convert-copy
/// fallback runs (big-endian or 32-bit targets).
///
/// # Safety
///
/// Implementors must be `Copy` types with no padding and no invalid bit
/// patterns, so that casting an aligned byte region to `&[Self]` is sound
/// whenever `cast_compatible()` returns true.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// Bytes per element on disk.
    const WIDTH: usize;
    /// Element name for error messages.
    const NAME: &'static str;
    /// Whether `&[u8] -> &[Self]` casting is sound on this target
    /// (little-endian and matching element width).
    fn cast_compatible() -> bool;
    /// Appends `values` to `out` in the on-disk encoding.
    fn append_le(values: &[Self], out: &mut Vec<u8>);
    /// Decodes a byte region (length already validated as a multiple of
    /// [`Pod::WIDTH`]) into owned elements.
    fn decode_le(bytes: &[u8]) -> Vec<Self>;
}

/// Casts an aligned little-endian byte region to `&[T]`.
///
/// # Safety
///
/// The caller must check `T::cast_compatible()` (in-memory layout equals
/// the on-disk little-endian layout), that `bytes.len()` is a multiple
/// of `T::WIDTH`, and that `bytes.as_ptr()` is aligned to
/// `align_of::<T>()`.
unsafe fn cast_slice<T: Pod>(bytes: &[u8]) -> &[T] {
    // SAFETY: caller upholds alignment, length divisibility and layout
    // compatibility (see this function's `# Safety` contract); every
    // `Pod` type additionally guarantees no padding and no invalid bit
    // patterns, so any byte content is a valid `[T]`.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / T::WIDTH) }
}

macro_rules! pod_numeric {
    ($t:ty, $name:literal) => {
        // SAFETY: instantiated only for fixed-width unsigned integer
        // primitives (u8/u32/u64) — Copy, no padding, every bit pattern
        // valid — so casting aligned bytes to `&[$t]` is sound whenever
        // `cast_compatible()` (little-endian target) holds.
        unsafe impl Pod for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = $name;

            fn cast_compatible() -> bool {
                cfg!(target_endian = "little")
            }

            fn append_le(values: &[Self], out: &mut Vec<u8>) {
                if Self::cast_compatible() {
                    // One memcpy: in-memory layout equals disk layout.
                    // SAFETY: `values` is a live, initialized slice; a
                    // `*const u8` view of it is always aligned, and
                    // `len * WIDTH` equals its exact byte length.
                    out.extend_from_slice(unsafe {
                        std::slice::from_raw_parts(
                            values.as_ptr() as *const u8,
                            values.len() * Self::WIDTH,
                        )
                    });
                } else {
                    for v in values {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }

            fn decode_le(bytes: &[u8]) -> Vec<Self> {
                bytes
                    .chunks_exact(Self::WIDTH)
                    .map(|c| Self::from_le_bytes(c.try_into().expect("chunk width")))
                    .collect()
            }
        }
    };
}

pod_numeric!(u8, "u8");
pod_numeric!(u32, "u32");
pod_numeric!(u64, "u64");

// SAFETY: `f64` is a Copy primitive with no padding and no invalid bit
// patterns (every 64-bit pattern is some float, NaNs included), so the
// aligned byte→slice cast is sound on little-endian targets.
unsafe impl Pod for f64 {
    const WIDTH: usize = 8;
    const NAME: &'static str = "f64";

    fn cast_compatible() -> bool {
        cfg!(target_endian = "little")
    }

    fn append_le(values: &[Self], out: &mut Vec<u8>) {
        if Self::cast_compatible() {
            // SAFETY: live initialized slice viewed as bytes; `u8` has
            // alignment 1 and `len * 8` is the slice's exact byte length.
            out.extend_from_slice(unsafe {
                std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len() * 8)
            });
        } else {
            for v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("chunk width"))))
            .collect()
    }
}

// `usize` is stored on disk as `u64`; zero-copy only on 64-bit LE targets.
// SAFETY: `usize` is a Copy integer primitive (no padding, all bit
// patterns valid); `cast_compatible()` additionally requires
// `size_of::<usize>() == 8` so the in-memory width matches the on-disk
// `u64` width before any cast happens.
unsafe impl Pod for usize {
    const WIDTH: usize = 8;
    const NAME: &'static str = "usize";

    fn cast_compatible() -> bool {
        cfg!(target_endian = "little") && std::mem::size_of::<usize>() == 8
    }

    fn append_le(values: &[Self], out: &mut Vec<u8>) {
        if Self::cast_compatible() {
            // SAFETY: live initialized slice viewed as bytes; `u8` has
            // alignment 1 and `len * 8` is the slice's exact byte length
            // (WIDTH == size_of::<usize>() guaranteed by cast_compatible).
            out.extend_from_slice(unsafe {
                std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len() * 8)
            });
        } else {
            for v in values {
                out.extend_from_slice(&(*v as u64).to_le_bytes());
            }
        }
    }

    fn decode_le(bytes: &[u8]) -> Vec<Self> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk width")) as usize)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// FlatBuf
// ---------------------------------------------------------------------------

/// An immutable flat buffer that is either owned or borrowed from a
/// leaked/mapped snapshot region.
///
/// This is the seam that makes loaded and built indexes interchangeable:
/// artifact types store their large immutable arrays as `FlatBuf<T>`, a
/// fresh build produces [`FlatBuf::Owned`], and a zero-copy load produces
/// [`FlatBuf::Static`] slices pointing into the snapshot buffer. Both
/// variants deref to `&[T]` and are `Send + Sync`.
#[derive(Debug)]
pub enum FlatBuf<T: 'static> {
    /// Heap-owned storage (the result of a fresh build or a copying load).
    Owned(Vec<T>),
    /// A borrow of a `'static` snapshot region (zero-copy load).
    Static(&'static [T]),
}

impl<T> FlatBuf<T> {
    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            FlatBuf::Owned(v) => v,
            FlatBuf::Static(s) => s,
        }
    }

    /// Whether this buffer borrows a snapshot region (no owned heap).
    pub fn is_static(&self) -> bool {
        matches!(self, FlatBuf::Static(_))
    }

    /// Heap bytes owned by this buffer: the full `Vec` **capacity** for
    /// [`FlatBuf::Owned`] (post-build slack counts — it is resident), and
    /// zero for [`FlatBuf::Static`] (the snapshot region is shared, not
    /// owned). Every artifact `heap_bytes` impl sums these, so the
    /// accounting contract is capacity-exact by construction.
    pub fn heap_bytes(&self) -> usize {
        match self {
            FlatBuf::Owned(v) => v.capacity() * std::mem::size_of::<T>(),
            FlatBuf::Static(_) => 0,
        }
    }
}

impl<T> Deref for FlatBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for FlatBuf<T> {
    fn from(v: Vec<T>) -> Self {
        FlatBuf::Owned(v)
    }
}

impl<T> Default for FlatBuf<T> {
    fn default() -> Self {
        FlatBuf::Owned(Vec::new())
    }
}

impl<T: Clone> Clone for FlatBuf<T> {
    fn clone(&self) -> Self {
        match self {
            FlatBuf::Owned(v) => FlatBuf::Owned(v.clone()),
            // A static borrow is free to share.
            FlatBuf::Static(s) => FlatBuf::Static(s),
        }
    }
}

impl<T: PartialEq> PartialEq for FlatBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for FlatBuf<T> {}

// ---------------------------------------------------------------------------
// Aligned buffer
// ---------------------------------------------------------------------------

/// A byte buffer whose base address is 8-byte aligned (backed by
/// `Vec<u64>`), so every 8-aligned section inside a snapshot file can be
/// cast in place.
#[derive(Debug)]
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    /// A zeroed buffer of `len` bytes.
    pub fn with_len(len: usize) -> Self {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies a plain byte vector into aligned storage.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let mut buf = Self::with_len(bytes.len());
        buf.bytes_mut().copy_from_slice(&bytes);
        buf
    }

    /// The buffer contents.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len.div_ceil(8) * 8 >= len`
        // initialized bytes; a `u8` view needs alignment 1; the borrow
        // of `self` keeps the allocation alive for the slice lifetime.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    /// Mutable contents (used by the one-shot file read).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: same bounds as `bytes()`; `&mut self` guarantees the
        // view is the only live reference into `words`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }

    /// Leaks the buffer, returning a `'static` view of its bytes. This is
    /// the `std`-only stand-in for keeping an `mmap` region alive for the
    /// process lifetime; one leak per [`LoadMode::MapStatic`] load.
    pub fn leak(self) -> &'static [u8] {
        let len = self.len;
        let words: &'static mut [u64] = Vec::leak(self.words);
        // SAFETY: `Vec::leak` just promoted the allocation to 'static,
        // so the pointer stays valid forever; `len <= words.len() * 8`
        // by construction and `u8` views are always aligned.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, len) }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a snapshot: header fields plus an ordered list of sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    method: u64,
    graph_digest: u64,
    spec_digest: u64,
    sections: Vec<(u32, u64, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot for `method` over the given fingerprints.
    pub fn new(method: u64, graph_digest: u64, spec_digest: u64) -> Self {
        SnapshotWriter {
            method,
            graph_digest,
            spec_digest,
            sections: Vec::new(),
        }
    }

    /// Appends one flat section. `(kind, id)` must be unique per snapshot.
    pub fn section<T: Pod>(&mut self, kind: u32, id: u64, values: &[T]) {
        debug_assert!(
            !self.sections.iter().any(|(k, i, _)| *k == kind && *i == id),
            "duplicate section kind {kind} id {id}"
        );
        let mut bytes = Vec::with_capacity(values.len() * T::WIDTH);
        T::append_le(values, &mut bytes);
        self.sections.push((kind, id, bytes));
    }

    /// Serializes the snapshot to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let table_end = HEADER_BYTES + self.sections.len() * ENTRY_BYTES;
        let mut out = vec![0u8; table_end];
        // Payload: 8-aligned sections, recording absolute file offsets.
        let mut entries = Vec::with_capacity(self.sections.len());
        for (kind, id, bytes) in &self.sections {
            while out.len() % 8 != 0 {
                out.push(0);
            }
            entries.push((*kind, *id, out.len() as u64, bytes.len() as u64));
            out.extend_from_slice(bytes);
        }
        // Section table.
        for (i, (kind, id, offset, len)) in entries.iter().enumerate() {
            let at = HEADER_BYTES + i * ENTRY_BYTES;
            out[at..at + 8].copy_from_slice(&u64::from(*kind).to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&id.to_le_bytes());
            out[at + 16..at + 24].copy_from_slice(&offset.to_le_bytes());
            out[at + 24..at + 32].copy_from_slice(&len.to_le_bytes());
        }
        // Header; the payload digest covers everything after the header.
        let digest = fnv1a(&out[HEADER_BYTES..]);
        for (i, v) in [
            MAGIC,
            FORMAT_VERSION,
            digest,
            self.graph_digest,
            self.spec_digest,
            self.method,
            self.sections.len() as u64,
        ]
        .into_iter()
        .enumerate()
        {
            out[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Writes the snapshot to `path` atomically (temp file + rename).
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("vpi.tmp");
        let mut f = File::create(&tmp).map_err(|e| io_err("create", e))?;
        f.write_all(&bytes).map_err(|e| io_err("write", e))?;
        f.sync_all().map_err(|e| io_err("sync", e))?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// How a snapshot's sections are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Copy every requested section into owned `Vec`s; the file buffer is
    /// freed when the [`Snapshot`] drops.
    Copy,
    /// Keep the file buffer alive for the process lifetime (leaked; the
    /// mmap stand-in) and hand out zero-copy `&'static` section slices
    /// where the target's layout allows it.
    MapStatic,
}

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: u32,
    id: u64,
    offset: usize,
    len: usize,
}

#[derive(Debug)]
enum SnapshotData {
    Owned(AlignedBuf),
    Leaked(&'static [u8]),
}

impl SnapshotData {
    fn bytes(&self) -> &[u8] {
        match self {
            SnapshotData::Owned(buf) => buf.bytes(),
            SnapshotData::Leaked(s) => s,
        }
    }
}

/// A parsed, digest-validated snapshot file.
#[derive(Debug)]
pub struct Snapshot {
    data: SnapshotData,
    entries: Vec<SectionEntry>,
    method: u64,
    graph_digest: u64,
    spec_digest: u64,
}

impl Snapshot {
    /// Opens and fully validates a snapshot file: one contiguous read
    /// into an aligned buffer, then magic / version / bounds / digest
    /// checks before any section is reachable.
    pub fn open(path: &Path, mode: LoadMode) -> Result<Snapshot> {
        let mut file = File::open(path).map_err(|e| io_err("open", e))?;
        let len = file
            .metadata()
            .map_err(|e| io_err("stat", e))?
            .len()
            .try_into()
            .map_err(|_| PersistError::BadValue {
                what: "file length",
                detail: "exceeds addressable memory".into(),
            })?;
        let mut buf = AlignedBuf::with_len(len);
        file.read_exact(buf.bytes_mut())
            .map_err(|e| io_err("read", e))?;
        Self::from_aligned(buf, mode)
    }

    /// Parses an in-memory image (used by tests and corruption probes).
    pub fn from_bytes(bytes: Vec<u8>, mode: LoadMode) -> Result<Snapshot> {
        Self::from_aligned(AlignedBuf::from_vec(bytes), mode)
    }

    fn from_aligned(buf: AlignedBuf, mode: LoadMode) -> Result<Snapshot> {
        let (entries, method, graph_digest, spec_digest) = Self::validate(buf.bytes())?;
        let data = match mode {
            LoadMode::Copy => SnapshotData::Owned(buf),
            LoadMode::MapStatic => SnapshotData::Leaked(buf.leak()),
        };
        Ok(Snapshot {
            data,
            entries,
            method,
            graph_digest,
            spec_digest,
        })
    }

    fn validate(bytes: &[u8]) -> Result<(Vec<SectionEntry>, u64, u64, u64)> {
        if bytes.len() < HEADER_BYTES {
            return Err(PersistError::Truncated {
                what: "header",
                needed: HEADER_BYTES,
                got: bytes.len(),
            });
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != MAGIC {
            return Err(PersistError::BadMagic { got: word(0) });
        }
        if word(1) != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                got: word(1),
                want: FORMAT_VERSION,
            });
        }
        let n_sections = word(6) as usize;
        let table_end = HEADER_BYTES
            .checked_add(n_sections.saturating_mul(ENTRY_BYTES))
            .filter(|&end| end <= bytes.len())
            .ok_or(PersistError::Truncated {
                what: "section table",
                needed: HEADER_BYTES + n_sections * ENTRY_BYTES,
                got: bytes.len(),
            })?;
        // Whole-tail digest before trusting any entry contents.
        let digest = fnv1a(&bytes[HEADER_BYTES..]);
        if digest != word(2) {
            return Err(PersistError::DigestMismatch {
                what: "payload",
                want: digest,
                got: word(2),
            });
        }
        let mut entries = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let at = HEADER_BYTES + i * ENTRY_BYTES;
            let cell = |j: usize| {
                u64::from_le_bytes(bytes[at + j * 8..at + j * 8 + 8].try_into().unwrap())
            };
            let (kind, id, offset, len) = (cell(0), cell(1), cell(2) as usize, cell(3) as usize);
            let kind = u32::try_from(kind).map_err(|_| PersistError::BadValue {
                what: "section kind",
                detail: format!("{kind} exceeds u32"),
            })?;
            let in_bounds = offset >= table_end
                && offset % 8 == 0
                && offset
                    .checked_add(len)
                    .is_some_and(|end| end <= bytes.len());
            if !in_bounds {
                return Err(PersistError::SectionBounds { kind, id });
            }
            entries.push(SectionEntry {
                kind,
                id,
                offset,
                len,
            });
        }
        Ok((entries, word(5), word(3), word(4)))
    }

    /// The method identity recorded in the header.
    pub fn method(&self) -> u64 {
        self.method
    }

    /// The graph fingerprint recorded in the header.
    pub fn graph_digest(&self) -> u64 {
        self.graph_digest
    }

    /// The problem-spec fingerprint recorded in the header.
    pub fn spec_digest(&self) -> u64 {
        self.spec_digest
    }

    /// All `(kind, id)` pairs present, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.entries.iter().map(|e| (e.kind, e.id))
    }

    /// Whether a section is present.
    pub fn has_section(&self, kind: u32, id: u64) -> bool {
        self.entries.iter().any(|e| e.kind == kind && e.id == id)
    }

    /// Loads a section, or `None` if absent. Zero-copy when the snapshot
    /// was opened [`LoadMode::MapStatic`] and the target's in-memory
    /// layout matches the disk layout; an owned convert-copy otherwise.
    pub fn maybe_section<T: Pod>(&self, kind: u32, id: u64) -> Result<Option<FlatBuf<T>>> {
        let Some(entry) = self
            .entries
            .iter()
            .find(|e| e.kind == kind && e.id == id)
            .copied()
        else {
            return Ok(None);
        };
        if entry.len % T::WIDTH != 0 {
            return Err(PersistError::BadValue {
                what: T::NAME,
                detail: format!(
                    "section kind {kind} id {id}: {} bytes is not a whole number of elements",
                    entry.len
                ),
            });
        }
        let region = &self.data.bytes()[entry.offset..entry.offset + entry.len];
        if let SnapshotData::Leaked(all) = &self.data {
            if T::cast_compatible() && region.as_ptr() as usize % std::mem::align_of::<T>() == 0 {
                // Reborrow out of the leaked ('static) image.
                let start = entry.offset;
                let stat: &'static [u8] = &all[start..start + entry.len];
                // SAFETY: `cast_compatible()` and pointer alignment were
                // checked just above, and `entry.len % T::WIDTH == 0` was
                // rejected earlier — exactly the `cast_slice` contract.
                return Ok(Some(FlatBuf::Static(unsafe { cast_slice::<T>(stat) })));
            }
        }
        Ok(Some(FlatBuf::Owned(T::decode_le(region))))
    }

    /// Loads a required section ([`PersistError::SectionMissing`] if absent).
    pub fn section<T: Pod>(&self, kind: u32, id: u64) -> Result<FlatBuf<T>> {
        self.maybe_section(kind, id)?
            .ok_or(PersistError::SectionMissing { kind, id })
    }

    /// Loads a required section as owned scalars (convenience for small
    /// metadata sections).
    pub fn scalars(&self, kind: u32, id: u64) -> Result<Vec<u64>> {
        Ok(self.section::<u64>(kind, id)?.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new(2, 0xAAAA, 0xBBBB);
        w.section::<u64>(1, 0, &[7, 8, 9]);
        w.section::<u32>(2, 3, &[1, 2, 3, 4, 5]);
        w.section::<f64>(3, 0, &[0.5, -0.0, std::f64::consts::PI]);
        w.section::<u8>(4, 1, &[1, 0, 1]);
        w.section::<usize>(5, 0, &[usize::MAX, 0, 42]);
        w
    }

    fn open(bytes: Vec<u8>, mode: LoadMode) -> Result<Snapshot> {
        Snapshot::from_bytes(bytes, mode)
    }

    #[test]
    fn round_trips_all_pod_types() {
        for mode in [LoadMode::Copy, LoadMode::MapStatic] {
            let snap = open(sample().to_bytes(), mode).unwrap();
            assert_eq!(snap.method(), 2);
            assert_eq!(snap.graph_digest(), 0xAAAA);
            assert_eq!(snap.spec_digest(), 0xBBBB);
            assert_eq!(snap.section::<u64>(1, 0).unwrap().as_slice(), &[7, 8, 9]);
            assert_eq!(
                snap.section::<u32>(2, 3).unwrap().as_slice(),
                &[1, 2, 3, 4, 5]
            );
            let floats = snap.section::<f64>(3, 0).unwrap();
            assert_eq!(floats[0].to_bits(), 0.5f64.to_bits());
            assert_eq!(floats[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(snap.section::<u8>(4, 1).unwrap().as_slice(), &[1, 0, 1]);
            assert_eq!(
                snap.section::<usize>(5, 0).unwrap().as_slice(),
                &[usize::MAX, 0, 42]
            );
            assert_eq!(snap.sections().count(), 5);
        }
    }

    #[test]
    fn map_static_borrows_sections_zero_copy() {
        let snap = open(sample().to_bytes(), LoadMode::MapStatic).unwrap();
        if <u64 as Pod>::cast_compatible() {
            assert!(snap.section::<u64>(1, 0).unwrap().is_static());
            assert!(snap.section::<f64>(3, 0).unwrap().is_static());
        }
        // Copy mode never borrows.
        let snap = open(sample().to_bytes(), LoadMode::Copy).unwrap();
        assert!(!snap.section::<u64>(1, 0).unwrap().is_static());
    }

    #[test]
    fn sections_are_eight_aligned_on_disk() {
        // The 3-byte u8 section sits between 8-wide ones, forcing the
        // writer to pad; every recorded offset must still be 8-aligned.
        let snap = open(sample().to_bytes(), LoadMode::Copy).unwrap();
        for e in &snap.entries {
            assert_eq!(e.offset % 8, 0, "kind {} misaligned", e.kind);
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = open(sample().to_bytes(), LoadMode::Copy).unwrap();
        assert_eq!(snap.maybe_section::<u64>(99, 0).unwrap(), None);
        assert_eq!(
            snap.section::<u64>(99, 0).unwrap_err(),
            PersistError::SectionMissing { kind: 99, id: 0 }
        );
    }

    #[test]
    fn flipped_byte_fails_closed() {
        let bytes = sample().to_bytes();
        for at in [HEADER_BYTES, HEADER_BYTES + 17, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            match open(bad, LoadMode::Copy).unwrap_err() {
                PersistError::DigestMismatch {
                    what: "payload", ..
                } => {}
                other => panic!("expected payload digest mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_fails_closed() {
        let bytes = sample().to_bytes();
        for keep in [0, 8, HEADER_BYTES - 1, HEADER_BYTES + 5, bytes.len() - 1] {
            let err = open(bytes[..keep].to_vec(), LoadMode::Copy).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::DigestMismatch { .. }
                ),
                "keep {keep}: got {err:?}"
            );
        }
    }

    #[test]
    fn version_bump_fails_closed() {
        let mut bytes = sample().to_bytes();
        bytes[8..16].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            open(bytes, LoadMode::Copy).unwrap_err(),
            PersistError::UnsupportedVersion {
                got: FORMAT_VERSION + 1,
                want: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn bad_magic_fails_closed() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            open(bytes, LoadMode::Copy).unwrap_err(),
            PersistError::BadMagic { .. }
        ));
    }

    #[test]
    fn out_of_bounds_entry_fails_closed() {
        // Hand-craft an entry pointing past the end of the file, with a
        // freshly computed digest so only the bounds check can object.
        let mut bytes = sample().to_bytes();
        let at = HEADER_BYTES + 16; // first entry's offset cell
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let digest = fnv1a(&bytes[HEADER_BYTES..]);
        bytes[16..24].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            open(bytes, LoadMode::Copy).unwrap_err(),
            PersistError::SectionBounds { kind: 1, id: 0 }
        );
    }

    #[test]
    fn misaligned_entry_fails_closed_before_any_cast() {
        // Nudge the first entry's offset off 8-alignment (still in
        // bounds) and re-seal the digest so only the alignment check can
        // object. Under `MapStatic` an accepted entry would be cast
        // zero-copy — validation must reject it before any cast runs.
        let mut bytes = sample().to_bytes();
        let at = HEADER_BYTES + 16; // first entry's offset cell
        let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(offset + 1).to_le_bytes());
        let digest = fnv1a(&bytes[HEADER_BYTES..]);
        bytes[16..24].copy_from_slice(&digest.to_le_bytes());
        for mode in [LoadMode::Copy, LoadMode::MapStatic] {
            assert_eq!(
                open(bytes.clone(), mode).unwrap_err(),
                PersistError::SectionBounds { kind: 1, id: 0 },
                "misaligned entry must fail closed under {mode:?}"
            );
        }
    }

    #[test]
    fn truncated_static_load_fails_closed() {
        // Same truncation points as the Copy-mode test, but under
        // `MapStatic`: validation runs before the image is leaked, so a
        // short file is a typed error, never a short-lived cast.
        let bytes = sample().to_bytes();
        for keep in [0, 8, HEADER_BYTES - 1, HEADER_BYTES + 5, bytes.len() - 1] {
            let err = open(bytes[..keep].to_vec(), LoadMode::MapStatic).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::DigestMismatch { .. }
                ),
                "keep {keep}: got {err:?}"
            );
        }
    }

    #[test]
    fn ragged_static_load_is_an_error_not_a_cast() {
        // A 3-byte u8 section read as u64 under `MapStatic` must be a
        // typed width error; the zero-copy path may not round the length.
        let snap = open(sample().to_bytes(), LoadMode::MapStatic).unwrap();
        assert!(matches!(
            snap.section::<u64>(4, 1).unwrap_err(),
            PersistError::BadValue { .. }
        ));
        // 5 u32s (20 bytes) is not a whole number of f64s either.
        assert!(matches!(
            snap.section::<f64>(2, 3).unwrap_err(),
            PersistError::BadValue { .. }
        ));
    }

    #[test]
    fn ragged_element_width_fails_closed() {
        let snap = open(sample().to_bytes(), LoadMode::Copy).unwrap();
        // The 3-byte u8 section is not a whole number of u64s.
        assert!(matches!(
            snap.section::<u64>(4, 1).unwrap_err(),
            PersistError::BadValue { .. }
        ));
    }

    #[test]
    fn file_round_trip_and_atomic_write() {
        let dir = std::env::temp_dir().join("vom-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.vpi");
        sample().write_to(&path).unwrap();
        let snap = Snapshot::open(&path, LoadMode::Copy).unwrap();
        assert_eq!(snap.section::<u64>(1, 0).unwrap().as_slice(), &[7, 8, 9]);
        assert!(
            !dir.join("sample.vpi.tmp").exists(),
            "temp file left behind"
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Snapshot::open(&path, LoadMode::Copy).unwrap_err(),
            PersistError::Io { op: "open", .. }
        ));
    }

    #[test]
    fn digest_helpers_are_stable() {
        // Pinned FNV-1a vectors: the digest feeds persisted headers, so
        // accidental algorithm drift must fail a test.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.update_u64(7).update_f64(-0.0);
        let mut manual = Digest::new();
        manual.update(&7u64.to_le_bytes());
        manual.update(&(-0.0f64).to_bits().to_le_bytes());
        assert_eq!(d.finish(), manual.finish());
    }

    #[test]
    fn flatbuf_semantics() {
        let owned: FlatBuf<u32> = vec![1, 2, 3].into();
        let leaked: &'static [u32] = Vec::leak(vec![1, 2, 3]);
        let stat = FlatBuf::Static(leaked);
        assert_eq!(owned, stat);
        assert!(!owned.is_static() && stat.is_static());
        assert_eq!(&*owned.clone(), &[1, 2, 3]);
        assert_eq!(FlatBuf::<u32>::default().len(), 0);
    }
}
