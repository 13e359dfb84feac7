//! Index persistence: serialize a built SS-tree to disk and load it back.
//!
//! Bottom-up construction is fast, but at the paper's scale (1 M × 64-d with a
//! k-means pass) it is still seconds of work — a production deployment builds
//! once and memory-maps/loads thereafter. The format is a little-endian,
//! versioned dump of the flattened arena; loading validates the structure
//! before returning, so a truncated or corrupted file cannot produce an index
//! that answers queries incorrectly.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use psb_geom::PointSet;

use crate::error::StructuralError;
use crate::tree::SsTree;
use crate::volumes::Spheres;

const MAGIC: [u8; 4] = *b"PSBT";
const VERSION: u32 = 1;
/// Magic, version, dims, degree, three u64 counts, root.
const HEADER_BYTES: u64 = 4 + 4 + 4 + 4 + 3 * 8 + 4;

/// Why a persisted index failed to load.
///
/// Framing problems ([`LoadError::Io`], [`LoadError::Format`]) are detected
/// while reading; a well-framed file whose arena violates a tree invariant is
/// rejected with the verifier's [`LoadError::Structural`] — a corrupt index
/// must never reach the query engines.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read (missing, permission, ...).
    Io(io::Error),
    /// The file is readable but not a PSBT index this version understands —
    /// or its header claims sizes the file does not hold (truncated, crafted).
    Format(&'static str),
    /// The file framed correctly but the decoded arena fails
    /// [`SsTree::validate`].
    Structural(StructuralError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error reading index: {e}"),
            LoadError::Format(what) => write!(f, "not a loadable PSBT index: {what}"),
            LoadError::Structural(e) => write!(f, "index failed structural validation: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(_) => None,
            LoadError::Structural(e) => Some(e),
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<StructuralError> for LoadError {
    fn from(e: StructuralError) -> Self {
        LoadError::Structural(e)
    }
}

fn write_u32s(w: &mut impl Write, vals: &[u32]) -> io::Result<()> {
    for &v in vals {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_f32s(w: &mut impl Write, vals: &[f32]) -> io::Result<()> {
    for &v in vals {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32s(r: &mut impl Read, n: usize) -> io::Result<Vec<u32>> {
    let mut out = vec![0u32; n];
    let mut b = [0u8; 4];
    for slot in out.iter_mut() {
        r.read_exact(&mut b)?;
        *slot = u32::from_le_bytes(b);
    }
    Ok(out)
}

fn read_f32s(r: &mut impl Read, n: usize) -> io::Result<Vec<f32>> {
    let mut out = vec![0f32; n];
    let mut b = [0u8; 4];
    for slot in out.iter_mut() {
        r.read_exact(&mut b)?;
        *slot = f32::from_le_bytes(b);
    }
    Ok(out)
}

/// Writes the tree to `path`.
pub fn save(tree: &SsTree, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(tree.dims as u32).to_le_bytes())?;
    w.write_all(&(tree.degree as u32).to_le_bytes())?;
    w.write_all(&(tree.points.len() as u64).to_le_bytes())?;
    w.write_all(&(tree.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(tree.num_leaves() as u64).to_le_bytes())?;
    w.write_all(&tree.root.to_le_bytes())?;

    write_f32s(&mut w, tree.points.as_flat())?;
    write_u32s(&mut w, &tree.point_ids)?;
    write_f32s(&mut w, &tree.volumes.centers)?;
    write_f32s(&mut w, &tree.volumes.radii)?;
    write_u32s(&mut w, &tree.parent)?;
    for &l in &tree.level {
        w.write_all(&[l])?;
    }
    write_u32s(&mut w, &tree.first_child)?;
    write_u32s(&mut w, &tree.child_count)?;
    write_u32s(&mut w, &tree.leaf_id)?;
    write_u32s(&mut w, &tree.subtree_min_leaf)?;
    write_u32s(&mut w, &tree.subtree_max_leaf)?;
    write_u32s(&mut w, &tree.leaf_node_of)?;
    w.flush()
}

/// Loads a tree from `path`, validating the structure before returning.
///
/// Every structural invariant is re-checked by [`SsTree::validate`] before
/// the tree is handed to the caller, so a byte-flipped but well-framed file
/// comes back as [`LoadError::Structural`], never as a loaded index.
pub fn load(path: &Path) -> Result<SsTree, LoadError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(LoadError::Format("bad magic"));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(LoadError::Format("unsupported format version"));
    }
    let dims = read_u32(&mut r)? as u64;
    let degree = read_u32(&mut r)? as usize;
    let n_points = read_u64(&mut r)?;
    let n_nodes = read_u64(&mut r)?;
    let n_leaves = read_u64(&mut r)?;
    let root = read_u32(&mut r)?;
    if dims == 0 || degree < 2 || n_points == 0 || n_nodes == 0 {
        return Err(LoadError::Format("degenerate header"));
    }
    // The header is untrusted: size every array in checked arithmetic and
    // hold the byte total it implies against the file's real length before
    // the first allocation, so no header can overflow, over-allocate or
    // abort the process — it can only disagree with the file.
    let implied_len = || {
        let point_lanes = n_points.checked_mul(dims)?;
        let center_lanes = n_nodes.checked_mul(dims)?;
        // 4-byte words: points, ids, centers, radii + six u32 node arrays,
        // the leaf chain; then one `level` byte per node.
        let words = point_lanes
            .checked_add(n_points)?
            .checked_add(center_lanes)?
            .checked_add(n_nodes.checked_mul(7)?)?
            .checked_add(n_leaves)?;
        words.checked_mul(4)?.checked_add(n_nodes)?.checked_add(HEADER_BYTES)
    };
    if implied_len() != Some(file_len) {
        return Err(LoadError::Format("header sizes disagree with the file length"));
    }
    // Everything below fits in the file, hence in `usize`.
    let (dims, n_points) = (dims as usize, n_points as usize);
    let (n_nodes, n_leaves) = (n_nodes as usize, n_leaves as usize);

    let points = PointSet::from_flat(dims, read_f32s(&mut r, n_points * dims)?);
    let point_ids = read_u32s(&mut r, n_points)?;
    let centers = read_f32s(&mut r, n_nodes * dims)?;
    let radii = read_f32s(&mut r, n_nodes)?;
    let parent = read_u32s(&mut r, n_nodes)?;
    let mut level = vec![0u8; n_nodes];
    r.read_exact(&mut level)?;
    let first_child = read_u32s(&mut r, n_nodes)?;
    let child_count = read_u32s(&mut r, n_nodes)?;
    let leaf_id = read_u32s(&mut r, n_nodes)?;
    let subtree_min_leaf = read_u32s(&mut r, n_nodes)?;
    let subtree_max_leaf = read_u32s(&mut r, n_nodes)?;
    let leaf_node_of = read_u32s(&mut r, n_leaves)?;

    let mut tree = SsTree {
        dims,
        degree,
        points,
        point_ids,
        volumes: Spheres { centers, radii },
        parent,
        level,
        first_child,
        child_count,
        leaf_id,
        subtree_min_leaf,
        subtree_max_leaf,
        leaf_node_of,
        root,
        arena: None,
    };
    tree.validate()?;
    // The arena is a derived cache, never persisted: rebuild it from the
    // freshly validated arrays.
    tree.rebuild_arena();
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildMethod};
    use crate::search::{knn_best_first, linear_knn};
    use psb_data::{sample_queries, ClusteredSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("psb_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn dataset() -> PointSet {
        ClusteredSpec { clusters: 5, points_per_cluster: 300, dims: 6, sigma: 90.0, seed: 161 }
            .generate()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ps = dataset();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let p = tmp("roundtrip.psbt");
        save(&tree, &p).unwrap();
        let back = load(&p).unwrap();
        assert_eq!(back.dims, tree.dims);
        assert_eq!(back.degree, tree.degree);
        assert_eq!(back.volumes.centers, tree.volumes.centers);
        assert_eq!(back.volumes.radii, tree.volumes.radii);
        assert_eq!(back.point_ids, tree.point_ids);
        assert_eq!(back.leaf_node_of, tree.leaf_node_of);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn loaded_tree_answers_queries() {
        let ps = dataset();
        let tree = build(&ps, 16, &BuildMethod::KMeans { k_leaf: 10, seed: 1 });
        let p = tmp("queryable.psbt");
        save(&tree, &p).unwrap();
        let back = load(&p).unwrap();
        for q in sample_queries(&ps, 8, 0.01, 162).iter() {
            let got = knn_best_first(&back, q, 8);
            let want = linear_knn(&ps, q, 8);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() <= w.dist.max(1.0) * 1e-4);
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_garbage() {
        let p = tmp("garbage.psbt");
        std::fs::write(&p, b"definitely not an index").unwrap();
        assert!(load(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_truncation() {
        let ps = dataset();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let p = tmp("truncated.psbt");
        save(&tree, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_corrupted_structure() {
        let ps = dataset();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let p = tmp("corrupt.psbt");
        save(&tree, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Flip a byte deep inside the structural arrays (past the header and
        // the point payload) — validate() must catch the inconsistency. The
        // file still frames correctly, so the error must be the verifier's,
        // not an I/O or format error.
        let off = bytes.len() - 40;
        bytes[off] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let err = load(&p).expect_err("corrupted structure must not load");
        assert!(
            matches!(err, LoadError::Structural(_)),
            "expected a structural rejection, got: {err}"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corruption_anywhere_in_the_arena_is_never_loaded_silently() {
        // Round-trip with a bit flip at many offsets across the structural
        // region: every mutation either still validates to the *same* arena
        // semantics (the flip hit dead padding — impossible here, the format
        // has none, so in practice this arm never fires for these offsets) or
        // is rejected. A flip must never yield `Ok` with different structure.
        let ps = dataset();
        let tree = build(&ps, 16, &BuildMethod::Hilbert);
        let p = tmp("sweep.psbt");
        save(&tree, &p).unwrap();
        let clean = std::fs::read(&p).unwrap();
        // The structural arrays start after the header and the point payload.
        let structural_start = clean.len() - tree.num_nodes() * 25 - tree.num_leaves() * 4;
        for i in 0..24 {
            let off = structural_start + (i * 613) % (clean.len() - structural_start);
            let mut bytes = clean.clone();
            bytes[off] ^= 0x10;
            std::fs::write(&p, &bytes).unwrap();
            if let Ok(back) = load(&p) {
                assert_eq!(back.parent, tree.parent, "flip at {off} silently changed links");
                assert_eq!(back.first_child, tree.first_child);
                assert_eq!(back.child_count, tree.child_count);
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn crafted_headers_are_format_errors_not_panics_or_aborts() {
        // 44 bytes of header and nothing else: sizes that overflow `usize`
        // arithmetic, overflow `Vec` capacity, or ask for terabytes.
        for (i, (dims, n_points, n_nodes)) in [
            (3u32, 1u64 << 62, 1u64 << 20),
            (3, 1 << 63, 1 << 20),
            (16, 1 << 36, 1 << 33),
            (u32::MAX, 1000, 100),
        ]
        .into_iter()
        .enumerate()
        {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&dims.to_le_bytes());
            bytes.extend_from_slice(&16u32.to_le_bytes());
            for n in [n_points, n_nodes, n_nodes / 2] {
                bytes.extend_from_slice(&n.to_le_bytes());
            }
            bytes.extend_from_slice(&0u32.to_le_bytes());
            assert_eq!(bytes.len() as u64, HEADER_BYTES);
            let p = tmp(&format!("crafted{i}.psbt"));
            std::fs::write(&p, &bytes).unwrap();
            let err = load(&p).expect_err("a header without its arrays must not load");
            assert!(matches!(err, LoadError::Format(_)), "header {i}: {err}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load(Path::new("/nonexistent/psb_no_such.psbt")).expect_err("must fail");
        assert!(matches!(err, LoadError::Io(_)));
    }
}
