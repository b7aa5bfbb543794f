//! Sparse LU factorization of the simplex basis, with product-form (eta)
//! updates.
//!
//! The basis matrices arising from scheduling MILPs are extremely sparse
//! (a handful of nonzeros per row, many slack columns), so a
//! Markowitz-flavoured right-looking elimination with threshold pivoting
//! keeps fill-in negligible and refactorization cheap.
//!
//! Terminology: the basis `B` is `m × m` with `B[row][pos] =
//! A[row][basis[pos]]`; *rows* index constraints, *positions* index slots in
//! the basis header. `ftran` solves `B x = b` (x over positions), `btran`
//! solves `Bᵀ y = c` (y over rows).

use std::collections::HashMap;

/// Factorization failure: the basis is (numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Singular {
    /// A basis position that could not be pivoted.
    pub position: usize,
}

/// One product-form update `B_new = B_old · E`, where `E` is the identity
/// with column `pos` replaced by `w = B_old⁻¹ a_entering`.
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    /// Off-pivot entries of `w` (position, value).
    entries: Vec<(usize, f64)>,
    /// `w[pos]`, the pivot element.
    pivot: f64,
}

/// LU factors plus the eta file accumulated since the last refactorization.
#[derive(Debug, Clone)]
pub(crate) struct Factors {
    m: usize,
    /// `(pivot_row, pivot_position)` per elimination step.
    pivots: Vec<(usize, usize)>,
    /// Per step: `(target_row, multiplier)` row operations.
    l_ops: Vec<Vec<(usize, f64)>>,
    /// Per step: snapshot of the pivot row `(position, value)`; contains
    /// only the pivot position and positions eliminated at later steps.
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Per step: the diagonal (pivot) value.
    u_diag: Vec<f64>,
    etas: Vec<Eta>,
}

impl Factors {
    /// Number of updates applied since factorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Factor the basis given its columns (`cols[pos]` = sparse column of
    /// `(row, value)` pairs, rows strictly increasing not required).
    pub fn factor(m: usize, cols: &[Vec<(usize, f64)>]) -> Result<Factors, Singular> {
        debug_assert_eq!(cols.len(), m);
        // Active matrix: row-major values + column-major structure.
        // `col_rows` may hold stale rows; `col_count` is exact.
        let mut rows: Vec<HashMap<usize, f64>> = vec![HashMap::new(); m];
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count: Vec<usize> = vec![0; m];
        let mut row_active = vec![true; m];
        let mut col_active = vec![true; m];
        for (pos, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if v != 0.0 {
                    rows[r].insert(pos, v);
                    col_rows[pos].push(r);
                }
            }
            col_count[pos] = col_rows[pos].len();
        }

        // Lazy min-heap over (count, column) for Markowitz-lite selection.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            (0..m).map(|c| Reverse((col_count[c], c))).collect();

        let mut pivots = Vec::with_capacity(m);
        let mut l_ops = Vec::with_capacity(m);
        let mut u_rows = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);

        const TAU: f64 = 0.05; // threshold-pivoting relative tolerance
        const ABS_TINY: f64 = 1e-11;

        for _step in 0..m {
            // Pivot column: smallest exact active count (lazy fix-up).
            let pc = loop {
                let Some(Reverse((cnt, c))) = heap.pop() else {
                    // All heap entries stale; find any active column.
                    let c = col_active
                        .iter()
                        .position(|&a| a)
                        .expect("active column remains before step m");
                    break c;
                };
                if !col_active[c] {
                    continue;
                }
                if col_count[c] != cnt {
                    heap.push(Reverse((col_count[c], c)));
                    continue;
                }
                if cnt == 0 {
                    return Err(Singular { position: c });
                }
                break c;
            };
            if col_count[pc] == 0 {
                return Err(Singular { position: pc });
            }

            // Stability: among rows of this column, max |value|.
            col_rows[pc].retain(|&r| row_active[r] && rows[r].contains_key(&pc));
            let col_max = col_rows[pc]
                .iter()
                .map(|&r| rows[r][&pc].abs())
                .fold(0.0_f64, f64::max);
            if col_max <= ABS_TINY {
                return Err(Singular { position: pc });
            }
            // Among sufficiently large entries pick the sparsest row,
            // breaking length ties toward the lowest row index so the
            // pivot sequence never depends on bookkeeping order.
            let mut pr = usize::MAX;
            let mut pr_len = usize::MAX;
            for &r in &col_rows[pc] {
                let v = rows[r][&pc].abs();
                if v >= TAU * col_max && (rows[r].len(), r) < (pr_len, pr) {
                    pr_len = rows[r].len();
                    pr = r;
                }
            }
            debug_assert_ne!(pr, usize::MAX);
            let pivot_val = rows[pr][&pc];

            // Off-pivot entries of the pivot row in ascending column
            // order: hash-map iteration order must not leak into the
            // stored factors or the update arithmetic, or identical
            // bases would factor differently across runs (different
            // rounding, different downstream simplex pivots).
            let mut pivot_row_entries: Vec<(usize, f64)> = rows[pr]
                .iter()
                .filter(|&(&c, _)| c != pc)
                .map(|(&c, &v)| (c, v))
                .collect();
            pivot_row_entries.sort_unstable_by_key(|&(c, _)| c);

            // Record the U row snapshot (pivot first for clarity).
            let mut urow: Vec<(usize, f64)> = Vec::with_capacity(pivot_row_entries.len() + 1);
            urow.push((pc, pivot_val));
            urow.extend_from_slice(&pivot_row_entries);

            // Eliminate column pc from all other active rows.
            let mut ops: Vec<(usize, f64)> = Vec::new();
            for idx in 0..col_rows[pc].len() {
                let r = col_rows[pc][idx];
                if r == pr {
                    continue;
                }
                let arc = match rows[r].get(&pc) {
                    Some(&v) => v,
                    None => continue,
                };
                let mult = arc / pivot_val;
                ops.push((r, mult));
                rows[r].remove(&pc);
                for &(c, v) in &pivot_row_entries {
                    let entry = rows[r].entry(c).or_insert(0.0);
                    let had = *entry != 0.0;
                    *entry -= mult * v;
                    if entry.abs() <= ABS_TINY {
                        rows[r].remove(&c);
                        if had {
                            col_count[c] -= 1;
                            heap.push(Reverse((col_count[c], c)));
                        }
                    } else if !had {
                        col_rows[c].push(r);
                        col_count[c] += 1;
                    }
                }
            }

            // Deactivate pivot row & column, fixing the counts of every
            // column the pivot row touched.
            row_active[pr] = false;
            col_active[pc] = false;
            for &c in rows[pr].keys() {
                if c != pc && col_active[c] {
                    col_count[c] -= 1;
                    heap.push(Reverse((col_count[c], c)));
                }
            }
            rows[pr].clear();

            pivots.push((pr, pc));
            l_ops.push(ops);
            u_rows.push(urow);
            u_diag.push(pivot_val);
        }

        Ok(Factors {
            m,
            pivots,
            l_ops,
            u_rows,
            u_diag,
            etas: Vec::new(),
        })
    }

    /// Solve `B x = b` in place: `x` enters holding `b` (indexed by row)
    /// and exits holding the solution (indexed by position).
    pub fn ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Apply L row operations in elimination order.
        for (k, ops) in self.l_ops.iter().enumerate() {
            let pivot_row = self.pivots[k].0;
            let xv = x[pivot_row];
            if xv != 0.0 {
                for &(r, mult) in ops {
                    x[r] -= mult * xv;
                }
            }
        }
        // Back-substitute U: positions in u_rows[k] other than the pivot
        // belong to later steps, whose solution values are already final.
        let mut sol = vec![0.0; self.m];
        for k in (0..self.m).rev() {
            let (pr, pc) = self.pivots[k];
            let mut val = x[pr];
            for &(p, v) in &self.u_rows[k] {
                if p != pc {
                    val -= v * sol[p];
                }
            }
            sol[pc] = val / self.u_diag[k];
        }
        x[..self.m].copy_from_slice(&sol);
        // Apply eta updates in order: x := E⁻¹ x.
        for eta in &self.etas {
            let xp = x[eta.pos] / eta.pivot;
            x[eta.pos] = xp;
            if xp != 0.0 {
                for &(i, v) in &eta.entries {
                    x[i] -= v * xp;
                }
            }
        }
    }

    /// Solve `Bᵀ y = c` in place: `y` enters holding `c` (indexed by
    /// position) and exits holding the solution (indexed by row).
    pub fn btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        // Eta-transpose updates in reverse order: c := E⁻ᵀ c.
        for eta in self.etas.iter().rev() {
            let mut acc = y[eta.pos];
            for &(i, v) in &eta.entries {
                acc -= v * y[i];
            }
            y[eta.pos] = acc / eta.pivot;
        }
        // Solve Uᵀ w = c by forward scattering over elimination steps.
        let mut w = vec![0.0; self.m];
        for (k, wk_slot) in w.iter_mut().enumerate() {
            let (_, pc) = self.pivots[k];
            let wk = y[pc] / self.u_diag[k];
            *wk_slot = wk;
            if wk != 0.0 {
                for &(p, v) in &self.u_rows[k] {
                    if p != pc {
                        y[p] -= v * wk;
                    }
                }
            }
        }
        // Solve Lᵀ: scatter w into row space, then reverse transposed ops.
        let mut sol = vec![0.0; self.m];
        for k in 0..self.m {
            sol[self.pivots[k].0] = w[k];
        }
        for k in (0..self.m).rev() {
            let pr = self.pivots[k].0;
            let mut acc = sol[pr];
            for &(r, mult) in &self.l_ops[k] {
                acc -= mult * sol[r];
            }
            sol[pr] = acc;
        }
        y[..self.m].copy_from_slice(&sol);
    }

    /// Record a basis change: position `pos` is replaced by a column whose
    /// FTRAN image is `w` (dense, indexed by position).
    ///
    /// Returns `false` (caller must refactorize) if the pivot element is too
    /// small for a stable update.
    #[must_use]
    pub fn update(&mut self, pos: usize, w: &[f64]) -> bool {
        let pivot = w[pos];
        if pivot.abs() < 1e-9 {
            return false;
        }
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            pos,
            entries,
            pivot,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_to_cols(a: &[Vec<f64>]) -> Vec<Vec<(usize, f64)>> {
        let m = a.len();
        (0..m)
            .map(|c| {
                (0..m)
                    .filter(|&r| a[r][c] != 0.0)
                    .map(|r| (r, a[r][c]))
                    .collect()
            })
            .collect()
    }

    fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, x)| r * x).sum())
            .collect()
    }

    fn mat_t_vec(a: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|c| (0..m).map(|r| a[r][c] * y[r]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn identity_roundtrip() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let f = Factors::factor(3, &dense_to_cols(&a)).expect("identity factors");
        let mut x = vec![3.0, -1.0, 2.0];
        f.ftran(&mut x);
        assert_close(&x, &[3.0, -1.0, 2.0]);
        let mut y = vec![5.0, 0.5, -2.0];
        f.btran(&mut y);
        assert_close(&y, &[5.0, 0.5, -2.0]);
    }

    #[test]
    fn general_matrix_solves() {
        let a = vec![
            vec![2.0, 1.0, 0.0, 0.0],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 4.0, 2.0],
            vec![0.0, 0.0, 1.0, 5.0],
        ];
        let f = Factors::factor(4, &dense_to_cols(&a)).expect("factors");
        let x_true = vec![1.0, -2.0, 3.0, 0.5];
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);

        let y_true = vec![0.25, -1.0, 2.0, 1.5];
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);
    }

    #[test]
    fn singular_detected() {
        let a = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![1.0, 0.0, 1.0],
        ];
        assert!(Factors::factor(3, &dense_to_cols(&a)).is_err());
    }

    #[test]
    fn zero_column_is_singular() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![2.0, 0.0, 3.0],
        ];
        let err = Factors::factor(3, &dense_to_cols(&a)).expect_err("singular");
        assert_eq!(err.position, 1);
    }

    #[test]
    fn eta_update_matches_refactor() {
        let mut a = vec![
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 4.0],
        ];
        let mut f = Factors::factor(3, &dense_to_cols(&a)).expect("factors");

        // Replace basis position 1 with a new column.
        let new_col = vec![1.0, 1.0, 2.0];
        let mut w = new_col.clone();
        f.ftran(&mut w);
        assert!(f.update(1, &w));
        for r in 0..3 {
            a[r][1] = new_col[r];
        }
        assert_eq!(f.eta_count(), 1);

        let x_true = vec![0.5, 2.0, -1.0];
        let mut b = mat_vec(&a, &x_true);
        f.ftran(&mut b);
        assert_close(&b, &x_true);

        let y_true = vec![1.0, -1.0, 0.5];
        let mut c = mat_t_vec(&a, &y_true);
        f.btran(&mut c);
        assert_close(&c, &y_true);

        // Compare against a fresh factorization.
        let f2 = Factors::factor(3, &dense_to_cols(&a)).expect("refactor");
        let mut b2 = mat_vec(&a, &x_true);
        f2.ftran(&mut b2);
        assert_close(&b2, &x_true);
    }

    #[test]
    fn random_matrices_roundtrip() {
        // Deterministic xorshift-based random sparse systems.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for trial in 0..30 {
            let m = 3 + (next() % 20) as usize;
            let mut a = vec![vec![0.0; m]; m];
            // Diagonal dominance to guarantee non-singularity.
            for (r, row) in a.iter_mut().enumerate() {
                row[r] = 4.0 + (next() % 8) as f64;
                for _ in 0..2 {
                    let c = (next() % m as u64) as usize;
                    if c != r {
                        row[c] = ((next() % 7) as f64) - 3.0;
                    }
                }
            }
            let f = Factors::factor(m, &dense_to_cols(&a))
                .unwrap_or_else(|_| panic!("trial {trial}: factorization failed"));
            let x_true: Vec<f64> = (0..m).map(|i| (i as f64) - (m as f64) / 2.0).collect();
            let mut b = mat_vec(&a, &x_true);
            f.ftran(&mut b);
            assert_close(&b, &x_true);
            let mut c = mat_t_vec(&a, &x_true);
            f.btran(&mut c);
            assert_close(&c, &x_true);
        }
    }
}
