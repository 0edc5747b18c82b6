//! Throughput-oriented numeric kernels for dense `f32` and packed
//! binary data.
//!
//! Every dense function here is the chunked counterpart of a scalar
//! reference in [`crate::dense`]. The scalar versions promote each
//! element to `f64` before multiplying, which is numerically
//! conservative but compiles to serial scalar code; the kernels keep
//! [`LANES`]-wide arrays of `f32` accumulators in the inner loop — a
//! shape LLVM autovectorizes on stable Rust without `std::simd` — and
//! fold the lanes into one `f64` at the end. The remainder tail
//! (`len % LANES` elements) is accumulated in `f64` exactly like the
//! scalar reference, so results on slices shorter than [`LANES`] are
//! bit-identical to `crate::dense`.
//!
//! # Accuracy contract
//!
//! For `n`-element inputs with entries of magnitude `M`, lane
//! accumulation rounds in `f32`, so kernel outputs may differ from the
//! `f64` references by a relative error of roughly `n · 2⁻²⁴` on
//! cancellation-free sums (`l1`, `l2_sq`, `norm`) and by an absolute
//! error of roughly `n · M² · 2⁻²⁴` for [`dot`], whose terms may
//! cancel. `tests/proptest_vec.rs` pins this envelope. Callers that
//! filter by a radius must treat the boundary as fuzzy at that scale —
//! the one-to-many kernels therefore inflate their *early-exit* bound
//! slightly and make the final accept/reject decision on the fully
//! accumulated value, so an early exit never rejects a candidate the
//! non-exiting kernel would accept.
//!
//! # Binary kernels
//!
//! The Hamming kernels ([`hamming_scan`], [`hamming_one_to_many`]) work
//! on row-major packed `u64` words. A Hamming
//! distance is an integer popcount, so they carry no accuracy envelope:
//! accepted ids, their order and every emitted distance equal the
//! per-point `hamming_words(row, q) as f64 <= r` loop bit for bit, for
//! every radius including negative, `NaN` and infinite ones. They run
//! in two passes per block of rows — popcount the XORs into a small
//! buffer (a loop LLVM vectorizes on baseline x86-64), then filter that
//! buffer on the unchanged predicate `(d as f64) <= r` (evaluated as
//! the equivalent integer compare), compacting accepted entries through
//! a stack buffer without a data-dependent branch.

use crate::binary::hamming_words;
use crate::dataset::PointId;
use crate::hit::Hit;

/// Accumulator width of every chunked kernel (8 × `f32` = one AVX2
/// register; narrower SIMD ISAs simply use two registers).
pub const LANES: usize = 8;

/// How many [`LANES`]-chunks the one-to-many kernels process between
/// early-exit checks (64 elements — folding the lanes costs a few
/// scalar adds, so checking every chunk would cost more than it saves).
const EXIT_CHECK_CHUNKS: usize = 8;

/// Folds a lane accumulator into one `f64` with a fixed pairwise tree,
/// so every kernel (and every row of [`matvec`]) reduces in the same
/// order and produces bit-identical results for identical inputs.
#[inline(always)]
fn fold(acc: [f32; LANES]) -> f64 {
    let a = (acc[0] as f64 + acc[1] as f64) + (acc[2] as f64 + acc[3] as f64);
    let b = (acc[4] as f64 + acc[5] as f64) + (acc[6] as f64 + acc[7] as f64);
    a + b
}

/// Chunked dot product. Counterpart of [`crate::dense::dot`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut sum = fold(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += (*x as f64) * (*y as f64);
    }
    sum
}

/// Chunked squared Euclidean distance. Counterpart of
/// [`crate::dense::l2_sq`].
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut sum = fold(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = (*x as f64) - (*y as f64);
        sum += d * d;
    }
    sum
}

/// Chunked Euclidean distance.
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f64 {
    l2_sq(a, b).sqrt()
}

/// Chunked Manhattan distance. Counterpart of [`crate::dense::l1`].
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += (xa[l] - xb[l]).abs();
        }
    }
    let mut sum = fold(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += ((*x as f64) - (*y as f64)).abs();
    }
    sum
}

/// Chunked L2 norm. Counterpart of [`crate::dense::norm`].
#[inline]
pub fn norm(a: &[f32]) -> f64 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in ca.by_ref() {
        for l in 0..LANES {
            acc[l] += xa[l] * xa[l];
        }
    }
    let mut sum = fold(acc);
    for x in ca.remainder() {
        sum += (*x as f64) * (*x as f64);
    }
    sum.sqrt()
}

/// Chunked cosine distance `1 − cos(a, b)` in a single pass (three lane
/// accumulator groups: `a·b`, `‖a‖²`, `‖b‖²`). Counterpart of
/// [`crate::dense::cosine_distance`], including the zero-norm → `1.0`
/// convention that keeps the function total.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut dab = [0.0f32; LANES];
    let mut daa = [0.0f32; LANES];
    let mut dbb = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            dab[l] += xa[l] * xb[l];
            daa[l] += xa[l] * xa[l];
            dbb[l] += xb[l] * xb[l];
        }
    }
    let (mut ab, mut aa, mut bb) = (fold(dab), fold(daa), fold(dbb));
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let (x, y) = (*x as f64, *y as f64);
        ab += x * y;
        aa += x * x;
        bb += y * y;
    }
    if aa == 0.0 || bb == 0.0 {
        return 1.0;
    }
    1.0 - (ab / (aa.sqrt() * bb.sqrt())).clamp(-1.0, 1.0)
}

/// Rows processed per block by the matrix–vector kernels. Four rows
/// share every load of `x`, and 4 × [`LANES`] `f32` accumulators still
/// fit the vector register file comfortably.
const ROW_BLOCK: usize = 4;

/// Dense matrix–vector product: `out[j] = row_j(mat) · x` for the
/// `mat.len() / dim` row-major rows of `mat`.
///
/// Processes `ROW_BLOCK` rows per pass so each chunk of `x` is loaded
/// once per block instead of once per row — this is the "all K
/// projections in one kernel" path used by the LSH g-functions. Every
/// row reduces with the same lane/fold schedule as [`dot`], so
/// `out[j]` is bit-identical to `dot(row_j, x)`.
///
/// # Panics
/// Panics if `mat.len()` is not a multiple of `dim`, `x.len() != dim`,
/// or `out.len()` differs from the row count.
pub fn matvec(mat: &[f32], dim: usize, x: &[f32], out: &mut [f64]) {
    assert!(dim > 0 && mat.len().is_multiple_of(dim), "matrix shape mismatch");
    assert_eq!(x.len(), dim, "vector length mismatch");
    assert_eq!(out.len(), mat.len() / dim, "output length mismatch");
    matvec_each(mat, dim, x, |j, v| out[j] = v);
}

/// Like [`matvec`] but hands each `(row_index, value)` to a callback in
/// ascending row order instead of writing a slice — the zero-allocation
/// shape used by `bucket_key` implementations that fold projections
/// into a hash key on the fly.
///
/// # Panics
/// Panics if `mat.len()` is not a multiple of `dim` or `x.len() != dim`.
pub fn matvec_each<F: FnMut(usize, f64)>(mat: &[f32], dim: usize, x: &[f32], mut f: F) {
    assert!(dim > 0 && mat.len().is_multiple_of(dim), "matrix shape mismatch");
    assert_eq!(x.len(), dim, "vector length mismatch");
    let rows = mat.len() / dim;
    let whole = dim - dim % LANES;
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let base = r * dim;
        let mut acc = [[0.0f32; LANES]; ROW_BLOCK];
        let mut i = 0;
        while i < whole {
            for (j, lane) in acc.iter_mut().enumerate() {
                let row = &mat[base + j * dim + i..base + j * dim + i + LANES];
                let xc = &x[i..i + LANES];
                for l in 0..LANES {
                    lane[l] += row[l] * xc[l];
                }
            }
            i += LANES;
        }
        for (j, lane) in acc.iter().enumerate() {
            let mut sum = fold(*lane);
            for i in whole..dim {
                sum += (mat[base + j * dim + i] as f64) * (x[i] as f64);
            }
            f(r + j, sum);
        }
        r += ROW_BLOCK;
    }
    while r < rows {
        f(r, dot(&mat[r * dim..(r + 1) * dim], x));
        r += 1;
    }
}

/// Points processed per tile by [`matmat`]. Together with `ROW_BLOCK`
/// (4) this forms a `2 × 4` register tile — 8 independent
/// lane accumulators, enough parallel FMA chains to hide the FMA
/// latency that caps [`matvec`]'s four-chain tile at ~1 FMA/cycle
/// while still fitting the accumulators, the staged point chunks and a
/// streaming row chunk in a 16-register vector file (a 4 × 4 tile's 16
/// accumulators spill and measured slower; see `BENCH_build.json`).
const POINT_BLOCK: usize = 2;

/// Dense matrix–matrix product for a *block of points*:
/// `out[p·rows + j] = row_j(mat) · point_p` for the `points.len() / dim`
/// row-major points and the `mat.len() / dim` row-major rows of `mat`.
///
/// This is the build-side dual of [`matvec`]: where a query hashes one
/// point against all `k` projections, index construction hashes a block
/// of `B` points per table in one pass. The kernel tiles `POINT_BLOCK`
/// (2) points × `ROW_BLOCK` (4) rows, staging each point's chunk
/// once per tile and streaming every row chunk across the staged
/// points, so the 8 independent accumulator chains keep the FMA pipes
/// full without reloading `mat` per point.
///
/// Every `(row, point)` pair reduces with the same lane/fold schedule
/// as [`dot`], so `out[p·rows + j]` is **bit-identical** to
/// `dot(row_j, point_p)` — and therefore to a per-point [`matvec`] —
/// which is what lets the blocked build pipeline produce byte-identical
/// bucket keys to the per-point baseline.
///
/// # Panics
/// Panics if `mat.len()` or `points.len()` is not a multiple of `dim`,
/// or `out.len() != rows · npoints`.
pub fn matmat(mat: &[f32], dim: usize, points: &[f32], out: &mut [f64]) {
    assert!(dim > 0 && mat.len().is_multiple_of(dim), "matrix shape mismatch");
    assert!(points.len().is_multiple_of(dim), "point block shape mismatch");
    let rows = mat.len() / dim;
    let npts = points.len() / dim;
    assert_eq!(out.len(), rows * npts, "output length mismatch");
    let whole = dim - dim % LANES;
    let mut p = 0;
    while p + POINT_BLOCK <= npts {
        let mut r = 0;
        while r + ROW_BLOCK <= rows {
            let mut acc = [[[0.0f32; LANES]; ROW_BLOCK]; POINT_BLOCK];
            let mut i = 0;
            while i < whole {
                // Stage each point's chunk once, then stream every row
                // chunk across all staged points: one load per row
                // chunk per tile instead of one per (row, point) pair.
                let mut xs = [[0.0f32; LANES]; POINT_BLOCK];
                for (pi, x) in xs.iter_mut().enumerate() {
                    x.copy_from_slice(&points[(p + pi) * dim + i..(p + pi) * dim + i + LANES]);
                }
                for rj in 0..ROW_BLOCK {
                    let row = &mat[(r + rj) * dim + i..(r + rj) * dim + i + LANES];
                    for (pi, tile) in acc.iter_mut().enumerate() {
                        let lane = &mut tile[rj];
                        for l in 0..LANES {
                            lane[l] += row[l] * xs[pi][l];
                        }
                    }
                }
                i += LANES;
            }
            for (pi, tile) in acc.iter().enumerate() {
                for (rj, lane) in tile.iter().enumerate() {
                    let mut sum = fold(*lane);
                    for t in whole..dim {
                        sum +=
                            (mat[(r + rj) * dim + t] as f64) * (points[(p + pi) * dim + t] as f64);
                    }
                    out[(p + pi) * rows + (r + rj)] = sum;
                }
            }
            r += ROW_BLOCK;
        }
        while r < rows {
            for pi in 0..POINT_BLOCK {
                out[(p + pi) * rows + r] =
                    dot(&mat[r * dim..(r + 1) * dim], &points[(p + pi) * dim..(p + pi + 1) * dim]);
            }
            r += 1;
        }
        p += POINT_BLOCK;
    }
    while p < npts {
        matvec(mat, dim, &points[p * dim..(p + 1) * dim], &mut out[p * rows..(p + 1) * rows]);
        p += 1;
    }
}

/// Accumulates `Σ (a_i − b_i)²` with a periodic early exit: returns
/// `None` as soon as a partial sum provably exceeds `exit_bound`,
/// `Some(total)` otherwise. Partial sums of squares are monotone, so an
/// exit is exact with respect to the kernel's own arithmetic.
#[inline]
fn l2_sq_within(a: &[f32], b: &[f32], exit_bound: f64) -> Option<f64> {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut since_check = 0usize;
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
        since_check += 1;
        if since_check == EXIT_CHECK_CHUNKS {
            since_check = 0;
            if fold(acc) > exit_bound {
                return None;
            }
        }
    }
    let mut sum = fold(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = (*x as f64) - (*y as f64);
        sum += d * d;
    }
    Some(sum)
}

/// Accumulates `Σ |a_i − b_i|` with the same early-exit scheme as
/// [`l2_sq_within`].
#[inline]
fn l1_within(a: &[f32], b: &[f32], exit_bound: f64) -> Option<f64> {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut since_check = 0usize;
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += (xa[l] - xb[l]).abs();
        }
        since_check += 1;
        if since_check == EXIT_CHECK_CHUNKS {
            since_check = 0;
            if fold(acc) > exit_bound {
                return None;
            }
        }
    }
    let mut sum = fold(acc);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        sum += ((*x as f64) - (*y as f64)).abs();
    }
    Some(sum)
}

/// Inflates a radius bound so lane rounding can only *defer* an early
/// exit, never force a rejection the full accumulation would accept.
#[inline]
fn inflate(bound: f64) -> f64 {
    bound * (1.0 + 1e-5) + f64::MIN_POSITIVE
}

/// One-to-many L2 filter in *unsquared* radius terms: appends
/// `H::new(id, l2(row, q))` for every id in `ids` whose row lies within
/// `r` of `q`, preserving the order (and any repeats) of `ids`. The
/// accept test is bit-for-bit the predicate (same chunked `l2_sq`, same
/// `sqrt`, same compare) of a per-candidate `kernels::l2(row, q) <= r`
/// loop, so a batched caller and a scalar caller can never disagree,
/// even exactly at the radius boundary or for `r < 0` (which rejects
/// everything, distances being non-negative), and the emitted distance
/// is bit-identical to a separate [`l2`] call on the same row. The
/// early exit runs on the squared partial sums. Rows are addressed as
/// `flat[id·dim .. (id+1)·dim]` — candidate verification straight out
/// of the dataset slab, no per-candidate virtual dispatch.
///
/// # Panics
/// Panics if `q.len() != dim` or an id indexes past the matrix.
pub fn l2_one_to_many<H: Hit>(
    flat: &[f32],
    dim: usize,
    ids: &[PointId],
    q: &[f32],
    r: f64,
    out: &mut Vec<H>,
) {
    assert_eq!(q.len(), dim, "query length mismatch");
    let exit_bound = inflate(r * r);
    for &id in ids {
        let start = id as usize * dim;
        let row = &flat[start..start + dim];
        if let Some(d2) = l2_sq_within(row, q, exit_bound) {
            let d = d2.sqrt();
            if d <= r {
                out.push(H::new(id, d));
            }
        }
    }
}

/// Full-scan counterpart of [`l2_one_to_many`]: accepts every row with
/// `l2(row, q) <= r`, in row order.
///
/// # Panics
/// Panics if `q.len() != dim`.
pub fn l2_scan<H: Hit>(flat: &[f32], dim: usize, q: &[f32], r: f64, out: &mut Vec<H>) {
    assert_eq!(q.len(), dim, "query length mismatch");
    let exit_bound = inflate(r * r);
    for (id, row) in flat.chunks_exact(dim).enumerate() {
        if let Some(d2) = l2_sq_within(row, q, exit_bound) {
            let d = d2.sqrt();
            if d <= r {
                out.push(H::new(id as PointId, d));
            }
        }
    }
}

/// Full-scan L1 filter; see [`l2_scan`]. Each emitted distance is
/// bit-identical to a separate [`l1`] call.
///
/// # Panics
/// Panics if `q.len() != dim`.
pub fn l1_scan<H: Hit>(flat: &[f32], dim: usize, q: &[f32], r: f64, out: &mut Vec<H>) {
    assert_eq!(q.len(), dim, "query length mismatch");
    let exit_bound = inflate(r);
    for (id, row) in flat.chunks_exact(dim).enumerate() {
        if let Some(d) = l1_within(row, q, exit_bound) {
            if d <= r {
                out.push(H::new(id as PointId, d));
            }
        }
    }
}

/// One-to-many L1 filter; see [`l2_one_to_many`].
///
/// # Panics
/// Panics if `q.len() != dim` or an id indexes past the matrix.
pub fn l1_one_to_many<H: Hit>(
    flat: &[f32],
    dim: usize,
    ids: &[PointId],
    q: &[f32],
    r: f64,
    out: &mut Vec<H>,
) {
    assert_eq!(q.len(), dim, "query length mismatch");
    let exit_bound = inflate(r);
    for &id in ids {
        let start = id as usize * dim;
        let row = &flat[start..start + dim];
        if let Some(d) = l1_within(row, q, exit_bound) {
            if d <= r {
                out.push(H::new(id, d));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Binary (Hamming) kernels — exact; see the module docs.
// ---------------------------------------------------------------------

/// Rows per block of the two-pass Hamming kernels: the distance buffer
/// (512 B) and the compaction buffer stay in L1 while a block is large
/// enough to amortise the per-block bookkeeping.
const HAMMING_BLOCK: usize = 128;

/// Pass 1 over contiguous rows: `dist[i]` = Hamming distance of row `i`
/// of `rows` to `q`. Single-word rows (64-bit fingerprints) take a
/// straight XOR-popcount loop that LLVM vectorizes.
#[inline]
fn hamming_rows(rows: &[u64], wpr: usize, q: &[u64], dist: &mut [u32]) {
    if wpr == 1 {
        let q0 = q[0];
        for (d, &w) in dist.iter_mut().zip(rows) {
            *d = (w ^ q0).count_ones();
        }
    } else {
        for (d, row) in dist.iter_mut().zip(rows.chunks_exact(wpr)) {
            *d = hamming_words(row, q);
        }
    }
}

/// Pass 1 over listed rows: `dist[i]` = Hamming distance of row
/// `ids[i]` of the slab `words` to `q`.
#[inline]
fn hamming_gather(words: &[u64], wpr: usize, ids: &[PointId], q: &[u64], dist: &mut [u32]) {
    if wpr == 1 {
        let q0 = q[0];
        for (d, &id) in dist.iter_mut().zip(ids) {
            *d = (words[id as usize] ^ q0).count_ones();
        }
    } else {
        for (d, &id) in dist.iter_mut().zip(ids) {
            let start = id as usize * wpr;
            *d = hamming_words(&words[start..start + wpr], q);
        }
    }
}

/// The accept predicate `(d as f64) <= r` over integer distances
/// `d ≤ max_d`, restated as `d < limit`: for an integer `d` and any
/// `r ≥ 0`, `d ≤ r` exactly when `d ≤ ⌊r⌋`, so `limit = ⌊min(r,
/// max_d)⌋ + 1`; a negative or `NaN` radius accepts nothing (`limit =
/// 0`), an infinite one everything. The same rows pass either form —
/// the integer compare merely skips a `u32 → f64` conversion per row.
#[inline]
fn hamming_limit(r: f64, max_d: u32) -> u32 {
    if r >= 0.0 {
        r.min(max_d as f64) as u32 + 1
    } else {
        0
    }
}

/// Pass 2: appends `emit(i, d)` for every `i` with `dist[i] < limit`
/// (see [`hamming_limit`]), in order. Every entry is written to `buf`
/// and the write cursor advances by the predicate's value, so there is
/// no branch on the data; the accepted prefix is then copied out in one
/// call.
#[inline]
fn hamming_filter<T: Copy>(
    dist: &[u32],
    limit: u32,
    buf: &mut [T; HAMMING_BLOCK],
    emit: impl Fn(usize, u32) -> T,
    out: &mut Vec<T>,
) {
    let mut k = 0;
    for (i, &d) in dist.iter().enumerate() {
        buf[k] = emit(i, d);
        k += usize::from(d < limit);
    }
    out.extend_from_slice(&buf[..k]);
}

/// Full-scan Hamming filter: appends `H::new(id, d as f64)` for every
/// row of the row-major packed slab `words` (`wpr` words per row) whose
/// Hamming distance `d` to `q` satisfies `(d as f64) <= r`, in row
/// order — the linear arm's kernel on binary data.
///
/// # Panics
/// Panics if `wpr == 0` or `q.len() != wpr`.
pub fn hamming_scan<H: Hit>(words: &[u64], wpr: usize, q: &[u64], r: f64, out: &mut Vec<H>) {
    assert!(wpr > 0, "row width must be positive");
    assert_eq!(q.len(), wpr, "query length mismatch");
    let limit = hamming_limit(r, (64 * wpr) as u32);
    let mut dist = [0u32; HAMMING_BLOCK];
    let mut buf = [H::default(); HAMMING_BLOCK];
    for (b, rows) in words.chunks(HAMMING_BLOCK * wpr).enumerate() {
        let dist = &mut dist[..rows.len() / wpr];
        hamming_rows(rows, wpr, q, dist);
        let base = (b * HAMMING_BLOCK) as PointId;
        hamming_filter(dist, limit, &mut buf, |i, d| H::new(base + i as PointId, d as f64), out);
    }
}

/// One-to-many Hamming filter: appends a hit for every id in `ids`
/// whose row of `words` lies within `r` of `q`, preserving the order
/// (and any repeats) of `ids`; see [`hamming_scan`].
///
/// # Panics
/// Panics if `wpr == 0`, `q.len() != wpr` or an id indexes past the
/// slab.
pub fn hamming_one_to_many<H: Hit>(
    words: &[u64],
    wpr: usize,
    ids: &[PointId],
    q: &[u64],
    r: f64,
    out: &mut Vec<H>,
) {
    assert!(wpr > 0, "row width must be positive");
    assert_eq!(q.len(), wpr, "query length mismatch");
    let limit = hamming_limit(r, (64 * wpr) as u32);
    let mut dist = [0u32; HAMMING_BLOCK];
    let mut buf = [H::default(); HAMMING_BLOCK];
    for block in ids.chunks(HAMMING_BLOCK) {
        let dist = &mut dist[..block.len()];
        hamming_gather(words, wpr, block, q, dist);
        hamming_filter(dist, limit, &mut buf, |i, d| H::new(block[i], d as f64), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;

    fn wave(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37 + phase).sin() * 3.0).collect()
    }

    #[test]
    fn kernels_match_scalar_on_short_slices_exactly() {
        // Below LANES elements only the f64 tail runs: bit-identical.
        for n in 0..LANES {
            let a = wave(n, 0.1);
            let b = wave(n, 1.7);
            assert_eq!(dot(&a, &b), dense::dot(&a, &b), "dot n={n}");
            assert_eq!(l2_sq(&a, &b), dense::l2_sq(&a, &b), "l2_sq n={n}");
            assert_eq!(l1(&a, &b), dense::l1(&a, &b), "l1 n={n}");
            assert_eq!(norm(&a), dense::norm(&a), "norm n={n}");
        }
    }

    #[test]
    fn kernels_match_scalar_within_epsilon() {
        for n in [8usize, 16, 63, 64, 100, 256, 960] {
            let a = wave(n, 0.0);
            let b = wave(n, 2.3);
            let eps = 1e-4 * (n as f64);
            assert!((dot(&a, &b) - dense::dot(&a, &b)).abs() < eps, "dot n={n}");
            assert!((l2_sq(&a, &b) - dense::l2_sq(&a, &b)).abs() < eps, "l2_sq n={n}");
            assert!((l1(&a, &b) - dense::l1(&a, &b)).abs() < eps, "l1 n={n}");
            assert!((norm(&a) - dense::norm(&a)).abs() < eps, "norm n={n}");
            assert!(
                (cosine_distance(&a, &b) - dense::cosine_distance(&a, &b)).abs() < 1e-5,
                "cosine n={n}"
            );
        }
    }

    #[test]
    fn chunked_cosine_keeps_zero_norm_convention() {
        // The documented total-function convention: zero-norm input (on
        // either side) yields exactly 1.0, for lengths that exercise
        // both the lane loop and the scalar tail.
        for n in [3usize, 8, 19, 64] {
            let z = vec![0.0f32; n];
            let a = wave(n, 0.4);
            assert_eq!(cosine_distance(&z, &a), 1.0, "zero lhs n={n}");
            assert_eq!(cosine_distance(&a, &z), 1.0, "zero rhs n={n}");
            assert_eq!(cosine_distance(&z, &z), 1.0, "zero both n={n}");
        }
        // And identical non-zero inputs still give ~0.
        let a = wave(40, 0.9);
        assert!(cosine_distance(&a, &a).abs() < 1e-9);
    }

    #[test]
    fn matvec_rows_match_dot_bitwise() {
        // Block path (rows 0..4) and the per-row remainder path must
        // both reduce exactly like `dot`.
        for (rows, dim) in [(1usize, 5usize), (4, 24), (6, 17), (7, 64), (9, 3)] {
            let mat = wave(rows * dim, 0.2);
            let x = wave(dim, 1.1);
            let mut out = vec![0.0f64; rows];
            matvec(&mat, dim, &x, &mut out);
            for (j, &v) in out.iter().enumerate() {
                let reference = dot(&mat[j * dim..(j + 1) * dim], &x);
                assert_eq!(v.to_bits(), reference.to_bits(), "row {j} of {rows}x{dim}");
            }
        }
    }

    #[test]
    fn matvec_each_visits_rows_in_order() {
        let (rows, dim) = (11usize, 16usize);
        let mat = wave(rows * dim, 0.0);
        let x = wave(dim, 0.5);
        let mut seen = Vec::new();
        matvec_each(&mat, dim, &x, |j, v| seen.push((j, v)));
        assert_eq!(seen.len(), rows);
        for (expect, (j, _)) in seen.iter().enumerate() {
            assert_eq!(expect, *j);
        }
        let mut out = vec![0.0f64; rows];
        matvec(&mat, dim, &x, &mut out);
        for ((_, v), o) in seen.iter().zip(&out) {
            assert_eq!(v.to_bits(), o.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn matvec_rejects_bad_vector() {
        let mut out = [0.0f64; 1];
        matvec(&[0.0; 4], 4, &[0.0; 3], &mut out);
    }

    #[test]
    fn one_to_many_filters_match_per_pair_kernels() {
        let dim = 96;
        let n = 200;
        let flat = wave(n * dim, 0.3);
        let q = wave(dim, 4.2);
        let ids: Vec<PointId> = (0..n as PointId).collect();

        // Pick radii at distance quantiles so both arms of the filter
        // (accept / early-exit reject) are exercised.
        let mut d1: Vec<f64> = (0..n).map(|i| l1(&flat[i * dim..(i + 1) * dim], &q)).collect();
        d1.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for r in [d1[10] * 1.000001, d1[n / 2], d1[n - 2]] {
            let mut got: Vec<PointId> = Vec::new();
            l1_one_to_many(&flat, dim, &ids, &q, r, &mut got);
            let expect: Vec<PointId> = ids
                .iter()
                .copied()
                .filter(|&id| l1(&flat[id as usize * dim..(id as usize + 1) * dim], &q) <= r)
                .collect();
            assert_eq!(got, expect, "l1 r={r}");
        }
    }

    #[test]
    fn one_to_many_preserves_id_order_and_duplicates() {
        let dim = 8;
        let flat = wave(4 * dim, 0.0);
        let q = flat[0..dim].to_vec();
        let ids = [2u32, 0, 0, 3];
        let mut out: Vec<PointId> = Vec::new();
        l2_one_to_many(&flat, dim, &ids, &q, 1e-9, &mut out);
        // Only row 0 matches q; both occurrences survive, in order.
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn l2_one_to_many_matches_scalar_predicate_exactly() {
        // The unsquared-radius variant must agree with a per-row
        // `l2(row, q) <= r` loop bit-for-bit — including when r is
        // EXACTLY a candidate's computed distance (boundary equality)
        // and when r is negative (reject all; distances are >= 0).
        let dim = 33;
        let n = 50;
        let flat = wave(n * dim, 0.7);
        let q = wave(dim, 3.3);
        let ids: Vec<PointId> = (0..n as PointId).collect();
        for probe in [0usize, 7, n - 1] {
            let r = l2(&flat[probe * dim..(probe + 1) * dim], &q);
            let mut got: Vec<PointId> = Vec::new();
            l2_one_to_many(&flat, dim, &ids, &q, r, &mut got);
            let expect: Vec<PointId> = ids
                .iter()
                .copied()
                .filter(|&id| l2(&flat[id as usize * dim..(id as usize + 1) * dim], &q) <= r)
                .collect();
            assert_eq!(got, expect, "boundary r from row {probe}");
            assert!(got.contains(&(probe as PointId)), "boundary row itself must be accepted");

            let mut scan: Vec<PointId> = Vec::new();
            l2_scan(&flat, dim, &q, r, &mut scan);
            assert_eq!(scan, expect);
        }
        let mut got: Vec<PointId> = Vec::new();
        l2_one_to_many(&flat, dim, &ids, &q, -1.0, &mut got);
        assert!(got.is_empty(), "negative radius must reject everything");
    }

    #[test]
    fn matmat_matches_matvec_bitwise() {
        // Tile path (2 points × 4 rows), row remainders, and point
        // remainders must all reduce exactly like the per-point matvec.
        for (npts, rows, dim) in
            [(1usize, 1usize, 3usize), (4, 4, 24), (5, 7, 64), (9, 6, 17), (11, 8, 256), (3, 4, 8)]
        {
            let mat = wave(rows * dim, 0.6);
            let pts = wave(npts * dim, 1.9);
            let mut out = vec![0.0f64; npts * rows];
            matmat(&mat, dim, &pts, &mut out);
            for p in 0..npts {
                let mut per_point = vec![0.0f64; rows];
                matvec(&mat, dim, &pts[p * dim..(p + 1) * dim], &mut per_point);
                for (j, &v) in per_point.iter().enumerate() {
                    assert_eq!(
                        out[p * rows + j].to_bits(),
                        v.to_bits(),
                        "point {p} row {j} of {npts}x{rows}x{dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmat_empty_point_block() {
        let mat = wave(8, 0.0);
        let mut out: Vec<f64> = Vec::new();
        matmat(&mat, 4, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn matmat_rejects_bad_output_len() {
        let mut out = [0.0f64; 3];
        matmat(&[0.0; 8], 4, &[0.0; 8], &mut out);
    }

    #[test]
    fn dist_variants_match_id_variants_and_emit_exact_distances() {
        let dim = 48;
        let n = 120;
        let flat = wave(n * dim, 0.8);
        let q = wave(dim, 2.9);
        let ids: Vec<PointId> = (0..n as PointId).collect();

        let mut d2s: Vec<f64> = (0..n).map(|i| l2(&flat[i * dim..(i + 1) * dim], &q)).collect();
        d2s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for r in [d2s[5], d2s[n / 2], d2s[n - 1], -1.0] {
            let mut ids_only: Vec<PointId> = Vec::new();
            l2_one_to_many(&flat, dim, &ids, &q, r, &mut ids_only);
            let mut pairs: Vec<(PointId, f64)> = Vec::new();
            l2_one_to_many(&flat, dim, &ids, &q, r, &mut pairs);
            assert_eq!(pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids_only, "r={r}");
            for &(id, d) in &pairs {
                let expect = l2(&flat[id as usize * dim..(id as usize + 1) * dim], &q);
                assert_eq!(d.to_bits(), expect.to_bits(), "l2 dist for id {id}");
            }
            let mut scan_pairs: Vec<(PointId, f64)> = Vec::new();
            l2_scan(&flat, dim, &q, r, &mut scan_pairs);
            assert_eq!(scan_pairs, pairs, "scan vs gather at r={r}");
        }

        let mut d1s: Vec<f64> = (0..n).map(|i| l1(&flat[i * dim..(i + 1) * dim], &q)).collect();
        d1s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for r in [d1s[5], d1s[n / 2], d1s[n - 1]] {
            let mut ids_only: Vec<PointId> = Vec::new();
            l1_one_to_many(&flat, dim, &ids, &q, r, &mut ids_only);
            let mut pairs: Vec<(PointId, f64)> = Vec::new();
            l1_one_to_many(&flat, dim, &ids, &q, r, &mut pairs);
            assert_eq!(pairs.iter().map(|&(id, _)| id).collect::<Vec<_>>(), ids_only, "r={r}");
            for &(id, d) in &pairs {
                let expect = l1(&flat[id as usize * dim..(id as usize + 1) * dim], &q);
                assert_eq!(d.to_bits(), expect.to_bits(), "l1 dist for id {id}");
            }
            let mut scan_pairs: Vec<(PointId, f64)> = Vec::new();
            l1_scan(&flat, dim, &q, r, &mut scan_pairs);
            assert_eq!(scan_pairs, pairs, "l1 scan vs gather at r={r}");
        }
    }

    #[test]
    fn dist_scan_with_infinite_radius_covers_every_row() {
        // The top-k exact fallback scans with r = ∞ to get every
        // distance in one kernel pass; nothing may be dropped.
        let dim = 20;
        let n = 33;
        let flat = wave(n * dim, 0.2);
        let q = wave(dim, 1.1);
        let mut pairs: Vec<(PointId, f64)> = Vec::new();
        l2_scan(&flat, dim, &q, f64::INFINITY, &mut pairs);
        assert_eq!(pairs.len(), n);
        for (i, &(id, d)) in pairs.iter().enumerate() {
            assert_eq!(id as usize, i);
            assert_eq!(d.to_bits(), l2(&flat[i * dim..(i + 1) * dim], &q).to_bits());
        }
    }

    #[test]
    fn hamming_limit_restates_the_f64_predicate() {
        for r in [-1.0, -0.0, 0.0, 0.5, 3.99, 4.0, 63.5, 64.0, 1e9, f64::INFINITY, f64::NAN] {
            let limit = hamming_limit(r, 64);
            for d in 0..=64u32 {
                assert_eq!(d < limit, (d as f64) <= r, "d {d} r {r}");
            }
        }
    }

    #[test]
    fn early_exit_never_rejects_boundary_accepts() {
        // A far row whose prefix already exceeds the radius must be
        // rejected, while an exact-boundary row survives.
        let dim = 128;
        let mut flat = vec![0.0f32; 2 * dim];
        flat[0] = 100.0; // row 0: d2 = 10_000 from origin
        flat[dim] = 3.0; // row 1: d = 3
        let q = vec![0.0f32; dim];
        let mut out: Vec<PointId> = Vec::new();
        l2_one_to_many(&flat, dim, &[0, 1], &q, 3.0, &mut out);
        assert_eq!(out, vec![1]);
    }
}
