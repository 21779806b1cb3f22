//! Input generators: R-MAT sparse matrices / graphs in CSR form.
//!
//! The paper's SpGEMM input (GAP-kron) and BFS input (com-Orkut) are both
//! heavy-tailed; R-MAT with the Graph500 parameters reproduces that degree
//! skew, which is what drives the applications' intrinsic load imbalance
//! (§7.2: "the different distributions of non-zero elements of each matrix
//! in SpGEMM, the uneven graph partitioning approach in BFS").

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// A sparse matrix / graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of rows (vertices).
    pub n: usize,
    /// Row pointers, length n+1.
    pub row_ptr: Vec<u32>,
    /// Column indices, length nnz.
    pub cols: Vec<u32>,
    /// Values, length nnz.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Number of non-zeros (edges).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Non-zeros of row `r` as (col, val) pairs.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.cols[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Degree of row `r`.
    pub fn degree(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Bytes of the three arrays (u32 ptr + u32 cols + f64 vals).
    pub fn bytes(&self) -> u64 {
        (self.row_ptr.len() * 4 + self.cols.len() * 4 + self.vals.len() * 8) as u64
    }
}

/// Generate an R-MAT matrix/graph: `n = 2^scale` vertices, `edges_per_vertex
/// × n` directed edges, Graph500 partition probabilities (a,b,c,d) =
/// (0.57, 0.19, 0.19, 0.05). Duplicate edges are merged; rows are sorted.
pub fn rmat(scale: u32, edges_per_vertex: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let m = n * edges_per_vertex;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut r, mut ccol) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let p: f64 = rng.gen();
            let (dr, dc) = if p < a {
                (0, 0)
            } else if p < a + b {
                (0, 1)
            } else if p < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= dr << bit;
            ccol |= dc << bit;
        }
        pairs.push((r as u32, ccol as u32));
    }
    pairs.sort_unstable();
    pairs.dedup();

    let mut row_ptr = vec![0u32; n + 1];
    for &(r, _) in &pairs {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let cols: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
    let vals: Vec<f64> = pairs
        .iter()
        .map(|&(r, c)| ((r as u64 * 31 + c as u64 * 17) % 97) as f64 / 97.0 + 0.5)
        .collect();
    Csr {
        n,
        row_ptr,
        cols,
        vals,
    }
}

/// Symmetrise a graph: add the reverse of every edge (BFS inputs like
/// com-Orkut are undirected). Values are carried over; duplicates merge.
pub fn symmetrize(g: &Csr) -> Csr {
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(g.nnz() * 2);
    for r in 0..g.n {
        for (c, _) in g.row(r) {
            pairs.push((r as u32, c));
            pairs.push((c, r as u32));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut row_ptr = vec![0u32; g.n + 1];
    for &(r, _) in &pairs {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..g.n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let cols: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
    let vals = vec![1.0; cols.len()];
    Csr {
        n: g.n,
        row_ptr,
        cols,
        vals,
    }
}

/// Partition `0..n` rows into `k` contiguous chunks ("Partition A into bins
/// by rows" — the bins are row ranges, so heavy-tailed degree distributions
/// make the bins uneven in nnz).
pub fn row_partitions(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(k);
    (0..k)
        .map(|i| (i * chunk).min(n)..((i + 1) * chunk).min(n))
        .collect()
}

/// Generate a Kronecker-product graph (the GAP-kron family): the adjacency
/// of `G ⊗ G ⊗ ... ⊗ G` (k factors) of a small seed matrix, sampled
/// edge-by-edge exactly like R-MAT but with the Graph500 Kronecker initiator
/// probabilities and per-level noise (the "+/- 0.1 noise" of the reference
/// generator), which sharpens the degree skew relative to plain R-MAT.
pub fn kron(scale: u32, edges_per_vertex: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let m = n * edges_per_vertex;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B72_6F6E);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut r, mut c) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            // Initiator [[0.57, 0.19], [0.19, 0.05]] with per-level noise.
            let noise: f64 = rng.gen_range(-0.1..0.1);
            let a = (0.57 + noise).clamp(0.05, 0.9);
            let b = 0.19;
            let cc = 0.19;
            let p: f64 = rng.gen();
            let (dr, dc) = if p < a {
                (0, 0)
            } else if p < a + b {
                (0, 1)
            } else if p < a + b + cc {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= dr << bit;
            c |= dc << bit;
        }
        pairs.push((r as u32, c as u32));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut row_ptr = vec![0u32; n + 1];
    for &(r, _) in &pairs {
        row_ptr[r as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let cols: Vec<u32> = pairs.iter().map(|&(_, c)| c).collect();
    let vals: Vec<f64> = pairs
        .iter()
        .map(|&(r, c)| ((r as u64 * 131 + c as u64 * 37) % 89) as f64 / 89.0 + 0.5)
        .collect();
    Csr {
        n,
        row_ptr,
        cols,
        vals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_shape_is_valid_csr() {
        let g = rmat(10, 8, 1);
        assert_eq!(g.n, 1024);
        assert_eq!(g.row_ptr.len(), 1025);
        assert_eq!(*g.row_ptr.last().unwrap() as usize, g.nnz());
        assert_eq!(g.cols.len(), g.vals.len());
        // Row pointers are monotone.
        assert!(g.row_ptr.windows(2).all(|w| w[0] <= w[1]));
        // All column indices in range.
        assert!(g.cols.iter().all(|&c| (c as usize) < g.n));
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 4, 7);
        let b = rmat(8, 4, 7);
        assert_eq!(a.cols, b.cols);
        assert_ne!(rmat(8, 4, 8).cols, a.cols);
    }

    #[test]
    fn rmat_degrees_are_skewed() {
        let g = rmat(12, 8, 3);
        let mut degs: Vec<usize> = (0..g.n).map(|r| g.degree(r)).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top1pct: usize = degs[..g.n / 100].iter().sum();
        let total: usize = degs.iter().sum();
        // Heavy tail: the top 1 % of vertices should hold > 5 % of edges.
        assert!(
            top1pct as f64 / total as f64 > 0.05,
            "top-1% share {}",
            top1pct as f64 / total as f64
        );
    }

    #[test]
    fn rows_iterate_correctly() {
        let g = rmat(6, 4, 2);
        let total: usize = (0..g.n).map(|r| g.row(r).count()).sum();
        assert_eq!(total, g.nnz());
    }

    #[test]
    fn partitions_cover_everything() {
        let p = row_partitions(100, 7);
        assert_eq!(p.len(), 7);
        assert_eq!(p[0].start, 0);
        assert_eq!(p.last().unwrap().end, 100);
        let covered: usize = p.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn symmetrize_makes_graph_undirected() {
        let g = rmat(8, 4, 5);
        let sg = symmetrize(&g);
        // Every edge has its reverse.
        for r in 0..sg.n {
            for (c, _) in sg.row(r) {
                let has_reverse = sg.row(c as usize).any(|(cc, _)| cc as usize == r);
                assert!(has_reverse, "missing reverse of ({r},{c})");
            }
        }
        assert!(sg.nnz() >= g.nnz());
    }

    #[test]
    fn bytes_accounting() {
        let g = rmat(6, 4, 2);
        assert_eq!(
            g.bytes(),
            (g.row_ptr.len() * 4 + g.cols.len() * 4 + g.vals.len() * 8) as u64
        );
    }
}

#[cfg(test)]
mod kron_tests {
    use super::*;

    #[test]
    fn kron_is_valid_csr() {
        let g = kron(10, 8, 2);
        assert_eq!(g.n, 1024);
        assert_eq!(*g.row_ptr.last().unwrap() as usize, g.nnz());
        assert!(g.row_ptr.windows(2).all(|w| w[0] <= w[1]));
        assert!(g.cols.iter().all(|&c| (c as usize) < g.n));
    }

    #[test]
    fn kron_deterministic_and_seed_sensitive() {
        assert_eq!(kron(8, 4, 7).cols, kron(8, 4, 7).cols);
        assert_ne!(kron(8, 4, 7).cols, kron(8, 4, 8).cols);
    }

    #[test]
    fn kron_skew_at_least_rmat_like() {
        let g = kron(12, 8, 3);
        let mut degs: Vec<usize> = (0..g.n).map(|r| g.degree(r)).collect();
        degs.sort_unstable_by(|x, y| y.cmp(x));
        let top1pct: usize = degs[..g.n / 100].iter().sum();
        let total: usize = degs.iter().sum();
        assert!(top1pct as f64 / total as f64 > 0.05);
    }
}
