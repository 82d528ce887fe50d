#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # vom-persist
//!
//! Versioned, digest-validated on-disk snapshot format for
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
//! Sections hold plain element arrays ([`Pod`] types), each element in
//! its fixed-width little-endian encoding. A save encodes each of an
//! index's flat buffers into one pre-sized byte buffer. A load reads the
//! whole file into one owned buffer, validates it, and decodes each
//! section it asks for into an owned `Vec`. Every section starts on an
//! 8-byte boundary: that is part of the format, and an entry off it is
//! rejected as malformed input.
//!
//! Every load validates the magic, format version, section bounds and the
//! payload digest before any section is handed out: corruption fails
//! closed with a typed [`PersistError`], never with a panic or garbage
//! data.

use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// `"VOMPIDX1"` interpreted as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"VOMPIDX1");

/// Current snapshot format version; any change to the header, section
/// table or section encodings bumps this. Version 2 dropped the
/// redundant RS `walk_gain` section (gains are derived from the
/// truncation end values on load); version 3 dropped the DM diffusion
/// system's out-edge CSR and has-in-edges flags; version 4 stores only
/// the sections that cost more than a linear pass to rebuild (the
/// rank index, DM's system and each RS slot's derived arrays are
/// rebuilt on load). Files of any other version fail closed with
/// [`PersistError::UnsupportedVersion`].
pub const FORMAT_VERSION: u64 = 4;

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

/// A plain element type a snapshot section can hold, encoded on disk
/// little-endian with a fixed per-element width.
pub trait Pod: Copy + Send + Sync + 'static {
    /// Bytes per element on disk.
    const WIDTH: usize;
    /// Element name for error messages.
    const NAME: &'static str;
    /// Writes `self` into `out` (exactly [`Pod::WIDTH`] bytes).
    fn write_le(self, out: &mut [u8]);
    /// Reads one element from `bytes` (exactly [`Pod::WIDTH`] bytes).
    fn read_le(bytes: &[u8]) -> Self;
}

// The encode and decode methods are `#[inline]`: sections run them once
// per element, in loops that the calling crates instantiate.
macro_rules! pod_int {
    ($t:ty) => {
        impl Pod for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const NAME: &'static str = stringify!($t);

            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("element width"))
            }
        }
    };
}

pod_int!(u8);
pod_int!(u32);
pod_int!(u64);

impl Pod for f64 {
    const WIDTH: usize = 8;
    const NAME: &'static str = "f64";

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        self.to_bits().write_le(out);
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_bits(u64::read_le(bytes))
    }
}

/// `usize` travels as a `u64`.
impl Pod for usize {
    const WIDTH: usize = 8;
    const NAME: &'static str = "usize";

    #[inline]
    fn write_le(self, out: &mut [u8]) {
        (self as u64).write_le(out);
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        u64::read_le(bytes) as usize
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
        let mut bytes = vec![0u8; values.len() * T::WIDTH];
        for (&v, out) in values.iter().zip(bytes.chunks_exact_mut(T::WIDTH)) {
            v.write_le(out);
        }
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

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: u32,
    id: u64,
    offset: usize,
    len: usize,
}

/// A parsed, digest-validated snapshot file.
#[derive(Debug)]
pub struct Snapshot {
    bytes: Vec<u8>,
    entries: Vec<SectionEntry>,
    method: u64,
    graph_digest: u64,
    spec_digest: u64,
}

impl Snapshot {
    /// Opens and fully validates a snapshot file: one contiguous read,
    /// then magic / version / bounds / digest checks before any section
    /// is reachable.
    pub fn open(path: &Path) -> Result<Snapshot> {
        let mut file = File::open(path).map_err(|e| io_err("open", e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", e))?;
        Self::from_bytes(bytes)
    }

    /// Parses an in-memory image (used by tests and corruption probes).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot> {
        let (entries, method, graph_digest, spec_digest) = Self::validate(&bytes)?;
        Ok(Snapshot {
            bytes,
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
        let table_end = n_sections
            .saturating_mul(ENTRY_BYTES)
            .saturating_add(HEADER_BYTES);
        if table_end > bytes.len() {
            return Err(PersistError::Truncated {
                what: "section table",
                needed: table_end,
                got: bytes.len(),
            });
        }
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

    /// Decodes a section into owned elements, or `None` if absent.
    pub fn maybe_section<T: Pod>(&self, kind: u32, id: u64) -> Result<Option<Vec<T>>> {
        let Some(entry) = self.entries.iter().find(|e| e.kind == kind && e.id == id) else {
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
        let region = &self.bytes[entry.offset..entry.offset + entry.len];
        let values = region.chunks_exact(T::WIDTH).map(T::read_le).collect();
        Ok(Some(values))
    }

    /// Decodes a required section ([`PersistError::SectionMissing`] if
    /// absent).
    pub fn section<T: Pod>(&self, kind: u32, id: u64) -> Result<Vec<T>> {
        self.maybe_section(kind, id)?
            .ok_or(PersistError::SectionMissing { kind, id })
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

    #[test]
    fn round_trips_all_pod_types() {
        let snap = Snapshot::from_bytes(sample().to_bytes()).unwrap();
        assert_eq!(snap.method(), 2);
        assert_eq!(snap.graph_digest(), 0xAAAA);
        assert_eq!(snap.spec_digest(), 0xBBBB);
        assert_eq!(snap.section::<u64>(1, 0).unwrap(), [7, 8, 9]);
        assert_eq!(snap.section::<u32>(2, 3).unwrap(), [1, 2, 3, 4, 5]);
        let floats = snap.section::<f64>(3, 0).unwrap();
        assert_eq!(floats[0].to_bits(), 0.5f64.to_bits());
        assert_eq!(floats[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(floats[2].to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(snap.section::<u8>(4, 1).unwrap(), [1, 0, 1]);
        assert_eq!(snap.section::<usize>(5, 0).unwrap(), [usize::MAX, 0, 42]);
        assert_eq!(snap.sections().count(), 5);
    }

    #[test]
    fn sections_encode_little_endian() {
        // The payload is the format, byte for byte: the u32 section's
        // first element, then the f64 section's first, on disk.
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        let offset = |kind| snap.entries.iter().find(|e| e.kind == kind).unwrap().offset;
        assert_eq!(bytes[offset(2)..offset(2) + 4], 1u32.to_le_bytes());
        assert_eq!(
            bytes[offset(3)..offset(3) + 8],
            0.5f64.to_bits().to_le_bytes()
        );
        assert_eq!(bytes[offset(5)..offset(5) + 8], u64::MAX.to_le_bytes());
    }

    #[test]
    fn sections_are_eight_aligned_on_disk() {
        // The 3-byte u8 section sits between 8-wide ones, forcing the
        // writer to pad; every recorded offset must still be 8-aligned.
        let snap = Snapshot::from_bytes(sample().to_bytes()).unwrap();
        for e in &snap.entries {
            assert_eq!(e.offset % 8, 0, "kind {} misaligned", e.kind);
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let snap = Snapshot::from_bytes(sample().to_bytes()).unwrap();
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
            match Snapshot::from_bytes(bad).unwrap_err() {
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
            let err = Snapshot::from_bytes(bytes[..keep].to_vec()).unwrap_err();
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
            Snapshot::from_bytes(bytes).unwrap_err(),
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
            Snapshot::from_bytes(bytes).unwrap_err(),
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
            Snapshot::from_bytes(bytes).unwrap_err(),
            PersistError::SectionBounds { kind: 1, id: 0 }
        );
    }

    #[test]
    fn misaligned_entry_fails_closed() {
        // Nudge the first entry's offset off 8-alignment (still in
        // bounds) and re-seal the digest so only the alignment check can
        // object: sections start 8-aligned by format.
        let mut bytes = sample().to_bytes();
        let at = HEADER_BYTES + 16; // first entry's offset cell
        let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(offset + 1).to_le_bytes());
        let digest = fnv1a(&bytes[HEADER_BYTES..]);
        bytes[16..24].copy_from_slice(&digest.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(bytes).unwrap_err(),
            PersistError::SectionBounds { kind: 1, id: 0 }
        );
    }

    #[test]
    fn ragged_element_width_fails_closed() {
        let snap = Snapshot::from_bytes(sample().to_bytes()).unwrap();
        // The 3-byte u8 section is not a whole number of u64s.
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
    fn file_round_trip_and_atomic_write() {
        let dir = std::env::temp_dir().join("vom-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.vpi");
        sample().write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.section::<u64>(1, 0).unwrap(), [7, 8, 9]);
        assert!(
            !dir.join("sample.vpi.tmp").exists(),
            "temp file left behind"
        );
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Snapshot::open(&path).unwrap_err(),
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
}
