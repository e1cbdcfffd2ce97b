//! Decomposition persistence.
//!
//! The paper's workflow decomposes once (their Julia pipeline, on fat
//! memory nodes) and reuses the decomposition across many SpMM runs. This
//! module serialises an [`ArrowDecomposition`] to a compact little-endian
//! binary stream so the same workflow works here: decompose, save, and
//! load on later runs without repeating the arrangement computation.
//!
//! There is one format. A stream is the magic `AMD4`, a [`CatalogMeta`]
//! header — content **fingerprint** of the decomposed matrix, lineage
//! **version** and **parent fingerprint**, the catalog **created-at**
//! counter and the full decompose identity (arrangement seed, arrow
//! width, pruning flag, level cap) — then `n`, `b`, `l` and per level
//! `active_n`, the permutation order array and the CSR arrays of the
//! level matrix, and last an 8-byte **checksum footer**: the FNV-1a-64
//! digest of every preceding byte. All integers are `u64` LE (the two
//! fingerprints `u128` LE); values are `f64` LE bits. Because the header
//! carries a complete manifest record, a lost or corrupt manifest can be
//! rebuilt by reading nothing but payload headers
//! ([`peek_catalog_header`]).
//!
//! The magic names the fingerprint as well as the layout: `AMD4` has
//! `AMD3`'s layout and checksum, but its fingerprints are the word-wise
//! [`CsrMatrix::fingerprint`], not the byte-wise FNV-1a of earlier
//! builds. An `AMD3` file's recorded fingerprint can match no matrix
//! this build hashes, so `AMD1`–`AMD3` are refused as retired formats
//! (decompose again), never reported as belonging to another matrix.
//!
//! [`load_catalog`] trusts nothing it has not checked: after the
//! fixed-size header it verifies the footer over the whole buffer
//! **before** reading a single length, and then bounds every length
//! prefix by the bytes that remain, so a torn, truncated or bit-flipped
//! file — simulated by the `catalog.payload.torn` failpoint, produced
//! for real by power loss mid-write — is a [`SparseError`], never a
//! panic or an allocation sized by a corrupt field.
//!
//! Every function here is an implementation detail of
//! [`crate::catalog`]; serving layers persist through a
//! [`Catalog`](crate::catalog::Catalog), never through this module
//! directly.

use crate::decomposition::{ArrowDecomposition, ArrowLevel};
use crate::la_decompose::DecomposeConfig;
use amd_sparse::{CsrMatrix, Permutation, SparseError, SparseResult};
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"AMD4";
/// Magics of earlier builds' payloads, refused with a "retired" error.
const RETIRED: [&[u8; 4]; 3] = [b"AMD1", b"AMD2", b"AMD3"];
/// Magic plus the [`CatalogMeta`] fields: two `u128`s and six `u64`s.
const HEADER_LEN: usize = 4 + 2 * 16 + 6 * 8;
const FOOTER_LEN: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Write adapter folding every byte into an FNV-1a-64 digest, so the
/// checksum costs one fused pass instead of re-reading the stream.
struct HashingWriter<W: Write> {
    inner: W,
    digest: u64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.digest = fnv1a(self.digest, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Provenance header of a persisted decomposition: everything the
/// [`catalog`](crate::catalog) needs to reconstruct a manifest record
/// from the payload file alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogMeta {
    /// [`CsrMatrix::fingerprint`] of the exact matrix that was decomposed.
    pub fingerprint: u128,
    /// Lineage revision counter (0 for a cold decomposition, +1 per
    /// streaming refresh along the chain).
    pub version: u64,
    /// Content fingerprint of the lineage predecessor this revision was
    /// refreshed from; 0 marks a chain root.
    pub parent: u128,
    /// Catalog-wide monotonic creation counter (orders versions within
    /// and across chains without wall clocks).
    pub created_at: u64,
    /// Seed of the random-forest arrangement strategy.
    pub seed: u64,
    /// Decomposition parameters (arrow width, pruning, level cap).
    pub config: DecomposeConfig,
}

/// Writes the stream: magic, [`CatalogMeta`] header, the decomposition
/// payload and the FNV-1a-64 checksum footer over everything before it.
pub fn save_catalog<W: Write>(
    d: &ArrowDecomposition,
    meta: &CatalogMeta,
    w: W,
) -> SparseResult<()> {
    let mut w = HashingWriter {
        inner: w,
        digest: FNV_OFFSET,
    };
    w.write_all(MAGIC).map_err(io_err)?;
    write_meta(&mut w, meta)?;
    put_u64(&mut w, d.n() as u64)?;
    put_u64(&mut w, d.b() as u64)?;
    put_u64(&mut w, d.order() as u64)?;
    for level in d.levels() {
        put_u64(&mut w, level.active_n as u64)?;
        let order = level.perm.order();
        put_u64(&mut w, order.len() as u64)?;
        for &v in order {
            put_u64(&mut w, v as u64)?;
        }
        let m = &level.matrix;
        put_u64(&mut w, m.nnz() as u64)?;
        for &off in m.indptr() {
            put_u64(&mut w, off as u64)?;
        }
        for &c in m.indices() {
            put_u64(&mut w, c as u64)?;
        }
        for &v in m.values() {
            w.write_all(&v.to_le_bytes()).map_err(io_err)?;
        }
    }
    let digest = w.digest;
    put_u64(&mut w, digest)
}

/// The wire layout of a [`CatalogMeta`] — in a payload header and in a
/// manifest row alike; [`Cursor::meta`] reads it back.
pub(crate) fn write_meta<W: Write>(w: &mut W, meta: &CatalogMeta) -> SparseResult<()> {
    w.write_all(&meta.fingerprint.to_le_bytes())
        .map_err(io_err)?;
    put_u64(w, meta.version)?;
    w.write_all(&meta.parent.to_le_bytes()).map_err(io_err)?;
    put_u64(w, meta.created_at)?;
    put_u64(w, meta.seed)?;
    put_u64(w, meta.config.arrow_width as u64)?;
    put_u64(w, meta.config.prune as u64)?;
    put_u64(w, meta.config.max_levels as u64)
}

/// A read position in a byte buffer. Every accessor checks what remains
/// first, so a length prefix can never make the parser read, or reserve,
/// past the input.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, len: usize) -> SparseResult<&'a [u8]> {
        if len > self.0.len() {
            return Err(SparseError::InvalidCsr(format!(
                "truncated stream: {len} bytes wanted, {} left",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(len);
        self.0 = tail;
        Ok(head)
    }

    pub(crate) fn u64(&mut self) -> SparseResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes taken")))
    }

    fn u128(&mut self) -> SparseResult<u128> {
        let bytes = self.take(16)?;
        Ok(u128::from_le_bytes(
            bytes.try_into().expect("16 bytes taken"),
        ))
    }

    /// A `u64` field that must fit the `u32` it was written from.
    fn u32(&mut self) -> SparseResult<u32> {
        narrow(self.u64()?)
    }

    /// The next `count` 8-byte words, or an error when fewer remain.
    fn words(&mut self, count: u64) -> SparseResult<impl Iterator<Item = u64> + 'a> {
        let len = usize::try_from(count.saturating_mul(8)).unwrap_or(usize::MAX);
        Ok(self
            .take(len)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks of 8"))))
    }

    fn header(&mut self) -> SparseResult<CatalogMeta> {
        let magic = self.take(MAGIC.len()).ok();
        match magic {
            Some(m) if m == MAGIC => self.meta(),
            Some(m) if RETIRED.iter().any(|r| m == *r) => Err(SparseError::InvalidCsr(format!(
                "bad magic {}: a retired arrow decomposition format, this build reads AMD4 \
                 (decompose the matrix again)",
                String::from_utf8_lossy(m),
            ))),
            _ => Err(SparseError::InvalidCsr(format!(
                "bad magic {magic:?}: not an AMD4 arrow decomposition file"
            ))),
        }
    }

    pub(crate) fn meta(&mut self) -> SparseResult<CatalogMeta> {
        Ok(CatalogMeta {
            fingerprint: self.u128()?,
            version: self.u64()?,
            parent: self.u128()?,
            created_at: self.u64()?,
            seed: self.u64()?,
            config: DecomposeConfig {
                arrow_width: self.u32()?,
                prune: self.u64()? != 0,
                max_levels: self.u32()?,
            },
        })
    }
}

fn narrow(v: u64) -> SparseResult<u32> {
    u32::try_from(v).map_err(|_| SparseError::InvalidCsr(format!("field {v} does not fit a u32")))
}

/// Reads **only** the header of a stream: the magic and the full
/// [`CatalogMeta`]. This is the cheap probe manifest rebuilds use: it
/// never touches the level payload (and so cannot vouch for it — only
/// [`load_catalog`] verifies the checksum).
pub fn peek_catalog_header<R: Read>(mut r: R) -> SparseResult<CatalogMeta> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(io_err)?;
    Cursor(&header).header()
}

/// Parses a whole stream held in memory: the decomposition and its
/// header. The checksum footer is verified over `bytes` before anything
/// past the fixed-size header is parsed; structure (permutations, CSR invariants, `active_n ≤ n`)
/// is validated on the way.
pub fn load_catalog(bytes: &[u8]) -> SparseResult<(ArrowDecomposition, CatalogMeta)> {
    let mut r = Cursor(bytes);
    let meta = r.header()?;
    let Some(payload_len) = r.0.len().checked_sub(FOOTER_LEN) else {
        return Err(SparseError::InvalidCsr(
            "truncated stream: no checksum footer".into(),
        ));
    };
    let stored = Cursor(&r.0[payload_len..]).u64()?;
    let digest = fnv1a(FNV_OFFSET, &bytes[..HEADER_LEN + payload_len]);
    if stored != digest {
        return Err(SparseError::InvalidCsr(format!(
            "payload checksum mismatch: stored {stored:#018x}, \
             computed {digest:#018x} (torn or corrupt write)"
        )));
    }
    r.0 = &r.0[..payload_len];
    let n = r.u32()?;
    let b = r.u32()?;
    if b == 0 {
        return Err(SparseError::InvalidCsr("arrow width 0".into()));
    }
    let l = r.u64()?;
    // Not reserved up front: `l` is checked only by the levels below
    // running out of bytes.
    let mut levels = Vec::new();
    for _ in 0..l {
        let active_n = r.u32()?;
        if active_n > n {
            return Err(SparseError::InvalidCsr(format!(
                "active prefix {active_n} > n = {n}"
            )));
        }
        let order_len = r.u64()?;
        if order_len != u64::from(n) {
            return Err(SparseError::InvalidCsr(format!(
                "permutation length {order_len} != n = {n}"
            )));
        }
        let order = r
            .words(order_len)?
            .map(narrow)
            .collect::<SparseResult<_>>()?;
        let perm = Permutation::from_order(order)?;
        let nnz = r.u64()?;
        let indptr = r
            .words(u64::from(n) + 1)?
            .map(|w| usize::try_from(w).unwrap_or(usize::MAX))
            .collect();
        let indices = r.words(nnz)?.map(narrow).collect::<SparseResult<_>>()?;
        let values = r.words(nnz)?.map(f64::from_bits).collect();
        // Full validation on load: corrupt files are rejected here.
        let matrix = CsrMatrix::from_raw(n, n, indptr, indices, values)?;
        levels.push(ArrowLevel {
            perm,
            matrix,
            active_n,
        });
    }
    if !r.0.is_empty() {
        return Err(SparseError::InvalidCsr(format!(
            "{} bytes between the last level and the checksum footer",
            r.0.len()
        )));
    }
    Ok((ArrowDecomposition::new(n, b, levels), meta))
}

pub(crate) fn put_u64<W: Write>(w: &mut W, v: u64) -> SparseResult<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

pub(crate) fn io_err(e: std::io::Error) -> SparseError {
    SparseError::InvalidCsr(format!("I/O error: {e}"))
}

/// Recomputes the footer after a deliberate edit, so the parser — not
/// the checksum — is what must catch it.
#[cfg(test)]
pub(crate) fn reseal(buf: &mut [u8]) {
    let body = buf.len() - FOOTER_LEN;
    let digest = fnv1a(FNV_OFFSET, &buf[..body]);
    buf[body..].copy_from_slice(&digest.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::la_decompose::{la_decompose, DecomposeConfig};
    use crate::strategy::RandomForestLa;
    use amd_graph::generators::datasets;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample() -> (CsrMatrix<f64>, ArrowDecomposition) {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = datasets::genbank_like(600, &mut rng);
        let a: CsrMatrix<f64> = g.to_adjacency();
        let d = la_decompose(
            &a,
            &DecomposeConfig::with_width(64),
            &mut RandomForestLa::new(3),
        )
        .unwrap();
        (a, d)
    }

    fn meta_for(a: &CsrMatrix<f64>) -> CatalogMeta {
        CatalogMeta {
            fingerprint: a.fingerprint(),
            version: 3,
            parent: 0xdead_beef,
            created_at: 17,
            seed: 9,
            config: DecomposeConfig::with_width(64),
        }
    }

    fn saved(d: &ArrowDecomposition, meta: &CatalogMeta) -> Vec<u8> {
        let mut buf = Vec::new();
        save_catalog(d, meta, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_decomposition() {
        let (a, d) = sample();
        let (loaded, _) = load_catalog(&saved(&d, &meta_for(&a))).unwrap();
        assert_eq!(d, loaded);
        assert_eq!(loaded.validate(&a).unwrap(), 0.0);
    }

    #[test]
    fn loaded_decomposition_multiplies() {
        let (a, d) = sample();
        let (loaded, _) = load_catalog(&saved(&d, &meta_for(&a))).unwrap();
        let x = amd_sparse::DenseMatrix::from_fn(a.rows(), 3, |r, c| ((r + c) % 5) as f64);
        let y1 = d.multiply(&x).unwrap();
        let y2 = loaded.multiply(&x).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn bad_magic_rejected() {
        // Any other magic — the three retired format versions included,
        // which say so.
        let (a, d) = sample();
        let good = saved(&d, &meta_for(&a));
        for (magic, retired) in [
            (b"NOPE", false),
            (b"AMDM", false),
            (b"AMD1", true),
            (b"AMD2", true),
            (b"AMD3", true),
        ] {
            let mut buf = good.clone();
            buf[..4].copy_from_slice(magic);
            reseal(&mut buf);
            let err = load_catalog(&buf).unwrap_err().to_string();
            assert!(err.contains("bad magic"), "{err}");
            assert_eq!(err.contains("retired"), retired, "{err}");
            assert!(peek_catalog_header(buf.as_slice()).is_err());
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let (a, d) = sample();
        let buf = saved(&d, &meta_for(&a));
        for cut in [0usize, 3, 11, 83, 84, 91, buf.len() / 2, buf.len() - 1] {
            assert!(load_catalog(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corrupted_permutation_rejected() {
        let (a, d) = sample();
        let mut buf = saved(&d, &meta_for(&a));
        // Duplicate the first permutation entry (header, then n, b, l,
        // active_n, order_len: entries start 5 words past the header).
        let at = HEADER_LEN + 5 * 8;
        let first = buf[at..at + 8].to_vec();
        buf[at + 8..at + 16].copy_from_slice(&first);
        reseal(&mut buf);
        let err = load_catalog(&buf).unwrap_err();
        assert!(err.to_string().contains("placed twice"), "{err}");
    }

    #[test]
    fn catalog_roundtrip_preserves_full_meta() {
        let (a, d) = sample();
        let meta = meta_for(&a);
        let buf = saved(&d, &meta);
        let (loaded, full) = load_catalog(&buf).unwrap();
        assert_eq!(loaded, d);
        assert_eq!(full, meta);
        // The header is readable without touching the payload.
        assert_eq!(peek_catalog_header(buf.as_slice()).unwrap(), meta);
    }

    #[test]
    fn truncated_v3_header_rejected() {
        let (a, d) = sample();
        let buf = saved(&d, &meta_for(&a));
        for cut in [4usize, 12, 30, 50, 83] {
            assert!(load_catalog(&buf[..cut]).is_err(), "cut at {cut} accepted");
            assert!(
                peek_catalog_header(&buf[..cut]).is_err(),
                "header cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn checksum_rejects_silent_value_corruption() {
        let (a, d) = sample();
        let mut buf = saved(&d, &meta_for(&a));
        // Flip one bit in the last payload value — the length and CSR
        // structure stay valid, so only the checksum can catch this.
        let idx = buf.len() - 9;
        buf[idx] ^= 0x01;
        let err = load_catalog(&buf).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "expected checksum rejection, got: {err}"
        );
        buf[idx] ^= 0x01;
        assert!(load_catalog(&buf).is_ok(), "restored file loads");
    }

    #[test]
    fn unchecksummed_v3_rejected() {
        let (a, d) = sample();
        let mut buf = saved(&d, &meta_for(&a));
        // A write torn exactly at the footer boundary: every payload
        // byte present, no digest to vouch for them.
        buf.truncate(buf.len() - FOOTER_LEN);
        assert!(load_catalog(&buf).is_err(), "footer-less stream accepted");
        // A partial footer is no better.
        buf.extend_from_slice(&[0xAB; 3]);
        assert!(load_catalog(&buf).is_err(), "partial footer accepted");
    }

    #[test]
    fn empty_decomposition_roundtrip() {
        let d = ArrowDecomposition::new(4, 2, Vec::new());
        let a = CsrMatrix::<f64>::zeros(4, 4);
        let (loaded, _) = load_catalog(&saved(&d, &meta_for(&a))).unwrap();
        assert_eq!(loaded.order(), 0);
        assert_eq!(loaded.n(), 4);
    }
}
