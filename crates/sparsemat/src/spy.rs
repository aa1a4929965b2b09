//! Spy plots of sparsity patterns — the tool behind Figures 4.1–4.5 of the
//! paper (structure of BARTH4 under the original, GPS, GK, RCM and SPECTRAL
//! orderings).
//!
//! Two renderers are provided: a terminal-friendly ASCII grid and a binary
//! PGM (portable graymap) image, both produced by downsampling the pattern
//! onto a `size x size` pixel grid and darkening each pixel by the number of
//! nonzeros that land in it.

use crate::{Permutation, Result, SymmetricPattern};
use std::io::Write;
use std::path::Path;

/// A downsampled density grid of a (permuted) sparsity pattern.
#[derive(Debug, Clone)]
pub struct SpyGrid {
    size: usize,
    /// Row-major counts: `counts[r * size + c]` nonzeros mapped to pixel.
    counts: Vec<u32>,
    nnz_plotted: usize,
}

impl SpyGrid {
    /// Rasterises `pattern` under `perm` onto a `size x size` grid. Both the
    /// off-diagonal entries (both triangles, as in the paper's figures) and
    /// the diagonal are plotted.
    pub fn new(pattern: &SymmetricPattern, perm: &Permutation, size: usize) -> Result<SpyGrid> {
        let n = pattern.n();
        if perm.len() != n {
            return Err(crate::SparseError::DimensionMismatch(format!(
                "permutation length {} != pattern order {n}",
                perm.len()
            )));
        }
        let size = size.max(1);
        let mut counts = vec![0u32; size * size];
        let scale = |i: usize| -> usize {
            if n <= 1 {
                0
            } else {
                (i * (size - 1) + (n - 1) / 2) / (n - 1).max(1)
            }
        };
        let pos = perm.positions();
        let mut nnz = 0usize;
        for v in 0..n {
            let pv = scale(pos[v]);
            counts[pv * size + pv] += 1; // diagonal
            nnz += 1;
            for &u in pattern.neighbors(v) {
                let pu = scale(pos[u]);
                counts[pv * size + pu] += 1;
                nnz += 1;
            }
        }
        Ok(SpyGrid {
            size,
            counts,
            nnz_plotted: nnz,
        })
    }

    /// Grid side length in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of plotted entries (`2·edges + n`, the figures' `nz =` label).
    pub fn nnz_plotted(&self) -> usize {
        self.nnz_plotted
    }

    /// Count at pixel `(r, c)`.
    pub fn count(&self, r: usize, c: usize) -> u32 {
        self.counts[r * self.size + c]
    }

    /// Renders as ASCII art: blank for empty pixels, then ``.:*#@`` by
    /// increasing density. Each text row covers one pixel row.
    pub fn to_ascii(&self) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        let ramp = [b' ', b'.', b':', b'*', b'#', b'@'];
        let mut out = String::with_capacity(self.size * (self.size + 1));
        for r in 0..self.size {
            for c in 0..self.size {
                let v = self.count(r, c) as f64;
                let idx = if v == 0.0 {
                    0
                } else {
                    1 + ((v.ln_1p() / max.ln_1p()) * (ramp.len() - 2) as f64).round() as usize
                };
                out.push(ramp[idx.min(ramp.len() - 1)] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Renders as a binary PGM (P5) image: white background, darker pixels
    /// for denser regions.
    pub fn to_pgm(&self) -> Vec<u8> {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        let mut out = Vec::with_capacity(self.size * self.size + 32);
        out.extend_from_slice(format!("P5\n{} {}\n255\n", self.size, self.size).as_bytes());
        for &c in &self.counts {
            let v = if c == 0 {
                255u8
            } else {
                let t = (c as f64).ln_1p() / max.ln_1p();
                (200.0 * (1.0 - t)) as u8
            };
            out.push(v);
        }
        out
    }

    /// Writes the PGM image to a file.
    pub fn write_pgm(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_pgm())?;
        Ok(())
    }
}

/// One-call ASCII spy plot of a pattern under an ordering.
pub fn ascii_spy(pattern: &SymmetricPattern, perm: &Permutation, size: usize) -> String {
    SpyGrid::new(pattern, perm, size)
        .map(|g| g.to_ascii())
        .unwrap_or_else(|e| format!("<spy error: {e}>"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> SymmetricPattern {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        SymmetricPattern::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn grid_counts_total() {
        let p = path(10);
        let g = SpyGrid::new(&p, &Permutation::identity(10), 5).unwrap();
        let total: u32 = (0..5)
            .flat_map(|r| (0..5).map(move |c| (r, c)))
            .map(|(r, c)| g.count(r, c))
            .sum();
        // 10 diagonal + 18 off-diagonal entries.
        assert_eq!(total, 28);
        assert_eq!(g.nnz_plotted(), 28);
    }

    #[test]
    fn identity_path_is_diagonal_band() {
        let p = path(50);
        let g = SpyGrid::new(&p, &Permutation::identity(50), 10).unwrap();
        // All mass within one pixel of the diagonal.
        for r in 0..10 {
            for c in 0..10 {
                if g.count(r, c) > 0 {
                    assert!(r.abs_diff(c) <= 1, "entry far from diagonal at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn ascii_has_size_rows() {
        let p = path(20);
        let s = ascii_spy(&p, &Permutation::identity(20), 8);
        assert_eq!(s.lines().count(), 8);
        assert!(s.lines().all(|l| l.len() == 8));
    }

    #[test]
    fn pgm_header_and_length() {
        let p = path(20);
        let g = SpyGrid::new(&p, &Permutation::identity(20), 16).unwrap();
        let img = g.to_pgm();
        assert!(img.starts_with(b"P5\n16 16\n255\n"));
        assert_eq!(img.len(), b"P5\n16 16\n255\n".len() + 256);
    }

    #[test]
    fn permutation_changes_plot() {
        let p = path(40);
        let id = Permutation::identity(40);
        // A "bad" scrambled order spreads entries off the band.
        let order: Vec<usize> = (0..40).map(|i| (i * 17) % 40).collect();
        let bad = Permutation::from_new_to_old(order).unwrap();
        let g_id = SpyGrid::new(&p, &id, 8).unwrap();
        let g_bad = SpyGrid::new(&p, &bad, 8).unwrap();
        let far = |g: &SpyGrid| -> u32 {
            (0..8)
                .flat_map(|r| (0..8).map(move |c| (r, c)))
                .filter(|&(r, c): &(usize, usize)| r.abs_diff(c) > 1)
                .map(|(r, c)| g.count(r, c))
                .sum()
        };
        assert_eq!(far(&g_id), 0);
        assert!(far(&g_bad) > 0);
    }

    #[test]
    fn tiny_matrix_one_pixel() {
        let p = SymmetricPattern::from_edges(1, &[]).unwrap();
        let g = SpyGrid::new(&p, &Permutation::identity(1), 4).unwrap();
        assert_eq!(g.count(0, 0), 1);
    }
}
