//! Layers with hand-derived backward passes.
//!
//! The contract: every tensor a layer sees carries an explicit leading
//! batch dimension `[B, …]` (a single sample is `B = 1`), read from the
//! shape and never inferred from a length, and sample `s` of the output
//! depends only on sample `s` of the input. `forward` caches whatever
//! `backward` needs. `backward` *accumulates* each sample's parameter
//! gradient in sample order — so a batch of `B` gives the same bits as `B`
//! single-sample calls — and returns the gradient with respect to the layer
//! input. [`Layer::backward_params`] does the same minus that input
//! gradient: [`Sequential`] uses it for its lowest layer with parameters,
//! whose input gradient nothing consumes, so the skip follows from the
//! network's structure. Call [`Param::zero_grad`] (via the optimizer or
//! net) between minibatches.

use crate::init::he_uniform;
use crate::net::Sequential;
use crate::tensor::Tensor;
use crate::wide;
use rand::Rng;

/// A trainable parameter: value, accumulated gradient, and optimizer
/// scratch state (used by momentum/Adam).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// First-moment optimizer state (velocity for SGD, `m` for Adam).
    pub m: Vec<f32>,
    /// Second-moment optimizer state (`v` for Adam; unused by SGD).
    pub v: Vec<f32>,
}

impl Param {
    /// Wraps a value tensor with zeroed gradient and state.
    pub fn new(value: Tensor) -> Self {
        let n = value.len();
        let shape = value.shape().to_vec();
        Param {
            value,
            grad: Tensor::zeros(&shape),
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        for g in self.grad.as_mut_slice() {
            *g = 0.0;
        }
    }
}

/// A differentiable layer.
pub trait Layer {
    /// Computes the output, caching anything `backward` will need.
    fn forward(&mut self, input: &Tensor) -> Tensor;
    /// Accumulates parameter gradients and returns `∂L/∂input`.
    /// Must be called after `forward` with a matching gradient shape.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    /// Accumulates exactly the parameter gradients [`backward`]
    /// would, without computing `∂L/∂input`.
    ///
    /// [`backward`]: Layer::backward
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }
    /// The layer's trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
    /// Human-readable layer name.
    fn name(&self) -> &'static str;
}

/// Fully-connected layer: `y_s = W·x_s + b` for every sample of a
/// `[B, in]` batch.
pub struct Dense {
    w: Param, // [out, in]
    b: Param, // [out]
    input: Tensor,
}

impl Dense {
    /// He-initialised dense layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate dense dimensions");
        Dense {
            w: Param::new(Tensor::from_vec(
                &[out_dim, in_dim],
                he_uniform(rng, in_dim, out_dim * in_dim),
            )),
            b: Param::new(Tensor::zeros(&[out_dim])),
            input: Tensor::zeros(&[0, in_dim]),
        }
    }

    fn dims(&self) -> (usize, usize) {
        (self.w.value.shape()[0], self.w.value.shape()[1])
    }

    /// Output rows per worker block for a row-blocked pass over `W`: a
    /// whole number of forward tiles, so only the last block has a row
    /// tail.
    fn row_block(out_dim: usize) -> usize {
        out_dim
            .div_ceil(gridtuner_par::workers_for(out_dim))
            .next_multiple_of(TILE_ROWS)
    }

    /// `dW += Σ_s g_s·x_sᵀ` and `db += Σ_s g_s`, samples in order; returns
    /// the batch size. dW rows are independent, so they are row-blocked
    /// like the forward and walked in pairs by [`dw_rows`], which holds a
    /// segment of both rows in registers across the whole batch: every
    /// element still starts from its stored value and adds the samples in
    /// order, the per-sample accumulation order.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> usize {
        let (out_dim, in_dim) = self.dims();
        let batch = self.input.shape()[0];
        assert_eq!(
            grad_out.shape(),
            &[batch, out_dim],
            "dense gradient size mismatch (backward needs a matching forward)"
        );
        let g = grad_out.as_slice();
        let x = self.input.as_slice();
        let dw = self.w.grad.as_mut_slice();
        gridtuner_par::par_chunks_mut(dw, Self::row_block(out_dim) * in_dim, |base, rows| {
            wide::run(DwBlock {
                g,
                x,
                out_dim,
                in_dim,
                o: base / in_dim,
                d: rows,
            })
        });
        let db = self.b.grad.as_mut_slice();
        for gs in g.chunks_exact(out_dim) {
            for (d, go) in db.iter_mut().zip(gs) {
                *d += go;
            }
        }
        batch
    }
}

/// Dot product with four independent accumulators: breaks the serial
/// dependency chain so the compiler can keep several multiply-adds in
/// flight. Deterministic — the association depends only on the slice
/// length: lane `l` sums the products at indices `≡ l mod 4` below
/// `len − len mod 4`, in ascending order, a tail sums the rest, and the
/// result is `((l0 + l1) + (l2 + l3)) + tail`.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let body = a.len() - a.len() % 4;
    let mut acc = [0.0f32; 4];
    for (ca, cb) in a[..body].chunks_exact(4).zip(b[..body].chunks_exact(4)) {
        madd(&mut acc, ca, cb);
    }
    fold(acc, &a[body..], &b[body..])
}

/// One step of [`dot`]'s four lanes: `acc[l] += a[l]·b[l]`.
#[inline(always)]
fn madd(acc: &mut [f32; 4], a: &[f32], b: &[f32]) {
    acc[0] += a[0] * b[0];
    acc[1] += a[1] * b[1];
    acc[2] += a[2] * b[2];
    acc[3] += a[3] * b[3];
}

/// [`dot`]'s finish: the tail products in order, then the lane fold.
#[inline(always)]
fn fold(acc: [f32; 4], a: &[f32], b: &[f32]) -> f32 {
    let mut tail = 0.0f32;
    for (ra, rb) in a.iter().zip(b) {
        tail += ra * rb;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `W` rows per forward tile.
const TILE_ROWS: usize = 4;
/// `dW` columns per backward tile: two rows of 16 accumulators plus one
/// 16-wide `x` segment fill 12 of baseline x86-64's 16 vector registers.
const DW_COLS: usize = 16;

/// [`dot`]`(w[r], x[s])` for the 4 rows × 2 samples of a register tile.
/// Each of the eight pairs keeps its own four lanes and tail and the same
/// fold, so every result has `dot`'s bits; only the loads are shared —
/// each `W` segment is loaded once for both samples and each `x` segment
/// once for all four rows. Row `r`'s accumulator holds its sample-0 lanes
/// then its sample-1 lanes ([`madd2`]): two 4-float registers on
/// baseline x86-64, where the four accumulators, four `W` and two `x`
/// segments take 14 of its 16 vector registers (larger tiles spill), and
/// one 8-float register under AVX2. All six slices have one length.
#[inline(always)]
fn dot_tile(w: [&[f32]; TILE_ROWS], x: [&[f32]; 2]) -> [[f32; 2]; TILE_ROWS] {
    let body = x[0].len() - x[0].len() % 4;
    let [w0, w1, w2, w3] = w;
    let rows = (w0[..body].chunks_exact(4).zip(w1[..body].chunks_exact(4)))
        .zip(w2[..body].chunks_exact(4).zip(w3[..body].chunks_exact(4)));
    let samples = x[0][..body]
        .chunks_exact(4)
        .zip(x[1][..body].chunks_exact(4));
    let mut acc = [[0.0f32; 8]; TILE_ROWS];
    for (((w0, w1), (w2, w3)), (x0, x1)) in rows.zip(samples) {
        madd2(&mut acc[0], w0, x0, x1);
        madd2(&mut acc[1], w1, x0, x1);
        madd2(&mut acc[2], w2, x0, x1);
        madd2(&mut acc[3], w3, x0, x1);
    }
    fold_tile(acc, w, x, body)
}

/// [`dot_tile`]'s finish: [`fold`] for each pair, as a call of its own.
/// Inlined into the tile's AVX2 copy, the fold's adds lead the vectoriser
/// to regroup the loop's lanes — lane `l` of several rows in one register
/// — at the cost of shuffles in every iteration. Behind a call, each
/// accumulator keeps a register of its own, on either copy.
#[inline(never)]
fn fold_tile(
    acc: [[f32; 8]; TILE_ROWS],
    w: [&[f32]; TILE_ROWS],
    x: [&[f32]; 2],
    body: usize,
) -> [[f32; 2]; TILE_ROWS] {
    let mut out = [[0.0f32; 2]; TILE_ROWS];
    for ((ys, a), wr) in out.iter_mut().zip(acc).zip(w) {
        let lanes = [[a[0], a[1], a[2], a[3]], [a[4], a[5], a[6], a[7]]];
        for ((y, l), xs) in ys.iter_mut().zip(lanes).zip(x) {
            *y = fold(l, &wr[body..], &xs[body..]);
        }
    }
    out
}

/// [`madd`] for one `W` segment and two samples: `acc[l] += w[l]·x0[l]`
/// and `acc[4 + l] += w[l]·x1[l]`.
#[inline(always)]
fn madd2(acc: &mut [f32; 8], w: &[f32], x0: &[f32], x1: &[f32]) {
    acc[0] += w[0] * x0[0];
    acc[1] += w[1] * x0[1];
    acc[2] += w[2] * x0[2];
    acc[3] += w[3] * x0[3];
    acc[4] += w[0] * x1[0];
    acc[5] += w[1] * x1[1];
    acc[6] += w[2] * x1[2];
    acc[7] += w[3] * x1[3];
}

/// One pool task of [`Dense::forward`]: the rows of the `[out, B]`
/// transposed output `yt`, from output row `o` on, in blocks of
/// [`TILE_ROWS`] rows ([`forward_rows`]).
struct ForwardBlock<'a> {
    w: &'a [f32],
    b: &'a [f32],
    x: &'a [f32],
    o: usize,
    yt: &'a mut [f32],
}

impl wide::Kernel for ForwardBlock<'_> {
    #[inline(always)]
    fn exec(self) {
        let ForwardBlock { w, b, x, o, yt } = self;
        let batch = x.len() / (w.len() / b.len());
        for (t, tile) in yt.chunks_mut(TILE_ROWS * batch).enumerate() {
            forward_rows(w, b, x, o + t * TILE_ROWS, tile);
        }
    }
}

/// `ys[r·B + s] = b[o + r] + dot(W[o + r], x_s)` for the rows of `ys`, a
/// block of at most [`TILE_ROWS`] rows of the `[out, B]` transposed
/// output, by one [`dot_tile`] per sample pair. A short block repeats its
/// last row to fill the tile and a lone last sample fills both of the
/// tile's samples; the repeats' results are dropped.
#[inline(always)]
fn forward_rows(w: &[f32], b: &[f32], x: &[f32], o: usize, ys: &mut [f32]) {
    let in_dim = w.len() / b.len();
    let batch = x.len() / in_dim;
    let rows = ys.len() / batch;
    let row = |r: usize| &w[(o + r.min(rows - 1)) * in_dim..][..in_dim];
    let tile = [row(0), row(1), row(2), row(3)];
    for (p, xs) in x.chunks(2 * in_dim).enumerate() {
        let (x0, x1) = xs.split_at(in_dim);
        let pair = if x1.is_empty() { [x0, x0] } else { [x0, x1] };
        for (r, y) in dot_tile(tile, pair).iter().enumerate().take(rows) {
            let out = &mut ys[r * batch + 2 * p..][..xs.len() / in_dim];
            for (v, yv) in out.iter_mut().zip(y) {
                *v = b[o + r] + yv;
            }
        }
    }
}

/// One pool task of the `dW` pass: the `in_dim`-wide `dW` rows in `d`,
/// from row `o` on, in pairs ([`dw_rows`]), for the `[B, out]` output
/// gradient `g` and the `[B, in]` input `x`.
struct DwBlock<'a> {
    g: &'a [f32],
    x: &'a [f32],
    out_dim: usize,
    in_dim: usize,
    o: usize,
    d: &'a mut [f32],
}

impl wide::Kernel for DwBlock<'_> {
    #[inline(always)]
    fn exec(self) {
        let DwBlock {
            g,
            x,
            out_dim,
            in_dim,
            o,
            d,
        } = self;
        // The block's columns of `g` as rows, `gt[r·B + s] = g[s, o + r]`:
        // the sample loop then steps through `g` by one element, where
        // reading `g[s, o]` takes a multiply per sample.
        let (rows, batch) = (d.len() / in_dim, x.len() / in_dim);
        let mut gt = vec![0.0f32; rows * batch];
        for (s, gs) in g.chunks_exact(out_dim).enumerate() {
            for (r, v) in gs[o..o + rows].iter().enumerate() {
                gt[r * batch + s] = *v;
            }
        }
        for (pair, gp) in d.chunks_mut(2 * in_dim).zip(gt.chunks(2 * batch)) {
            dw_rows(pair, in_dim, gp, x);
        }
    }
}

/// `dW[r] += Σ_s g[r·B + s]·x_s` for the one or two dW rows in `d`, with
/// `g` holding each row's `B` output-gradient entries and `x` the `[B,
/// in]` input. Two rows are walked in [`DW_COLS`]-column segments held
/// in registers across the whole batch; the column tail, and a lone row,
/// go one element at a time. Either way every element starts from its
/// stored value and adds the samples in order — the per-sample
/// accumulation order.
#[inline(always)]
fn dw_rows(d: &mut [f32], in_dim: usize, g: &[f32], x: &[f32]) {
    let batch = x.len() / in_dim;
    let full = if d.len() == 2 * in_dim {
        in_dim - in_dim % DW_COLS
    } else {
        0
    };
    let (d0, d1) = d.split_at_mut(in_dim);
    let (g0, g1) = g.split_at(batch);
    let segments = d0[..full]
        .chunks_exact_mut(DW_COLS)
        .zip(d1[..full].chunks_exact_mut(DW_COLS));
    for (k, (s0, s1)) in segments.enumerate() {
        let c = k * DW_COLS;
        let (mut a0, mut a1) = ([0.0f32; DW_COLS], [0.0f32; DW_COLS]);
        a0.copy_from_slice(s0);
        a1.copy_from_slice(s1);
        for ((ga, gb), xs) in g0.iter().zip(g1).zip(x.chunks_exact(in_dim)) {
            let xs = &xs[c..c + DW_COLS];
            axpy(&mut a0, *ga, xs);
            axpy(&mut a1, *gb, xs);
        }
        s0.copy_from_slice(&a0);
        s1.copy_from_slice(&a1);
    }
    for (dr, gr) in d.chunks_mut(in_dim).zip(g.chunks_exact(batch)) {
        for (i, e) in dr.iter_mut().enumerate().skip(full) {
            let mut acc = *e;
            for (gv, xs) in gr.iter().zip(x.chunks_exact(in_dim)) {
                acc += gv * xs[i];
            }
            *e = acc;
        }
    }
}

/// `acc[j] += a·x[j]`.
#[inline(always)]
fn axpy(acc: &mut [f32; DW_COLS], a: f32, x: &[f32]) {
    for (v, xv) in acc.iter_mut().zip(x) {
        *v += a * xv;
    }
}

/// One pool task of the `dx` pass: `acc[s][i − i0] += Σ_o g[s, o]·W[o, i]`
/// over ascending `o`, for the `B` partial rows in `acc` of the column
/// block starting at `i0` (the last block may be narrower than a row).
struct DxBlock<'a> {
    g: &'a [f32],
    w: &'a [f32],
    in_dim: usize,
    i0: usize,
    acc: &'a mut [f32],
}

impl wide::Kernel for DxBlock<'_> {
    #[inline(always)]
    fn exec(self) {
        let DxBlock {
            g,
            w,
            in_dim,
            i0,
            acc,
        } = self;
        let out_dim = w.len() / in_dim;
        let cols = acc.len() / (g.len() / out_dim);
        let i1 = (i0 + cols).min(in_dim);
        for o in 0..out_dim {
            let wseg = &w[o * in_dim + i0..o * in_dim + i1];
            for (row, gs) in acc.chunks_exact_mut(cols).zip(g.chunks_exact(out_dim)) {
                let go = gs[o];
                for (a, wv) in row.iter_mut().zip(wseg) {
                    *a += go * wv;
                }
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out_dim, in_dim) = self.dims();
        let shape = input.shape();
        assert!(
            shape.len() == 2 && shape[1] == in_dim,
            "dense input size mismatch: expected [B, {in_dim}], got {shape:?}"
        );
        let batch = shape[0];
        assert!(batch > 0, "dense input has an empty batch");
        self.input = input.clone();
        let w = self.w.value.as_slice();
        let b = self.b.value.as_slice();
        let x = self.input.as_slice();
        // Row-blocked into an `[out, B]` buffer: each worker owns a
        // contiguous block of output rows and walks it in register tiles
        // of `TILE_ROWS` rows × 2 samples (`dot_tile`). Every
        // y[s, o] keeps dot()'s own association, so the result is
        // bit-identical for any worker count, batch size and tiling.
        let mut yt = vec![0.0f32; out_dim * batch];
        gridtuner_par::par_chunks_mut(&mut yt, Self::row_block(out_dim) * batch, |base, rows| {
            wide::run(ForwardBlock {
                w,
                b,
                x,
                o: base / batch,
                yt: rows,
            })
        });
        let mut y = vec![0.0f32; batch * out_dim];
        for (o, ys) in yt.chunks_exact(batch).enumerate() {
            for (s, &v) in ys.iter().enumerate() {
                y[s * out_dim + o] = v;
            }
        }
        Tensor::from_vec(&[batch, out_dim], y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = self.accumulate_param_grads(grad_out);
        let in_dim = self.dims().1;
        let g = grad_out.as_slice();
        let w = self.w.value.as_slice();
        // dx[s, i] = Σ_o g[s, o]·W[o, i], accumulated over ascending o from
        // 0.0 — the single-sample column walk's order. Column-blocked into
        // `[block][B][cols]` partial rows, so each worker reads every W
        // segment once per batch and applies it to all B samples.
        let cols = in_dim.div_ceil(gridtuner_par::workers_for(in_dim));
        let mut blocks = vec![0.0f32; in_dim.div_ceil(cols) * batch * cols];
        gridtuner_par::par_chunks_mut(&mut blocks, batch * cols, |base, acc| {
            wide::run(DxBlock {
                g,
                w,
                in_dim,
                i0: base / batch,
                acc,
            })
        });
        let mut dx = vec![0.0f32; batch * in_dim];
        for (k, block) in blocks.chunks_exact(batch * cols).enumerate() {
            let i0 = k * cols;
            let width = cols.min(in_dim - i0);
            for (dxs, row) in dx.chunks_exact_mut(in_dim).zip(block.chunks_exact(cols)) {
                dxs[i0..i0 + width].copy_from_slice(&row[..width]);
            }
        }
        Tensor::from_vec(&[batch, in_dim], dx)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// Rectified linear unit, elementwise.
#[derive(Default)]
pub struct ReLU {
    mask: Vec<bool>,
}

impl ReLU {
    /// A fresh ReLU.
    pub fn new() -> Self {
        ReLU::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.as_slice().iter().map(|&v| v > 0.0).collect();
        let data = input
            .as_slice()
            .iter()
            .map(|&v| if v > 0.0 { v } else { 0.0 })
            .collect();
        Tensor::from_vec(input.shape(), data)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "relu shape mismatch");
        let data = grad_out
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &keep)| if keep { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), data)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Flattens each sample to 1-D, `[B, d…]` → `[B, Πd]`, and restores the
/// shape on the way back.
#[derive(Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// A fresh flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert!(!shape.is_empty(), "flatten input must be [B, …]");
        self.input_shape = shape.to_vec();
        input.reshaped(&[shape[0], shape[1..].iter().product()])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshaped(&self.input_shape)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// 2-D convolution on `[B, C, H, W]` batches: square kernels, stride 1,
/// same padding (output spatial size equals input). Tap-hoisted: each
/// kernel tap's valid output range is computed once, so the inner loops
/// walk contiguous rows with no per-pixel bounds checks.
pub struct Conv2d {
    k: Param, // [oc, ic, ks, ks]
    b: Param, // [oc]
    ks: usize,
    input: Tensor,
}

impl Conv2d {
    /// He-initialised conv layer with `ks × ks` kernels (`ks` odd).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_ch: usize, out_ch: usize, ks: usize) -> Self {
        assert!(ks % 2 == 1, "kernel size must be odd for same padding");
        assert!(in_ch > 0 && out_ch > 0);
        let fan_in = in_ch * ks * ks;
        Conv2d {
            k: Param::new(Tensor::from_vec(
                &[out_ch, in_ch, ks, ks],
                he_uniform(rng, fan_in, out_ch * fan_in),
            )),
            b: Param::new(Tensor::zeros(&[out_ch])),
            ks,
            input: Tensor::zeros(&[0, in_ch, 0, 0]),
        }
    }

    fn channels(&self) -> (usize, usize) {
        (self.k.value.shape()[0], self.k.value.shape()[1])
    }

    /// `(B, H, W)` of the cached input.
    fn input_dims(&self) -> (usize, usize, usize) {
        let s = self.input.shape();
        (s[0], s[2], s[3])
    }

    /// dK and db for the whole batch; returns `(B, H, W)`. dK is
    /// per-output-channel independent: one worker per channel block, and
    /// inside a task each sample's contribution is added in sample order
    /// (taps outer, contiguous rows inner).
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) -> (usize, usize, usize) {
        let (oc, ic) = self.channels();
        let (batch, h, w) = self.input_dims();
        assert_eq!(
            grad_out.shape(),
            &[batch, oc, h, w],
            "conv gradient mismatch (backward needs a matching forward)"
        );
        let (ks, pad, hw) = (self.ks, self.ks / 2, h * w);
        let x = self.input.as_slice();
        let g = grad_out.as_slice();
        let dk = self.k.grad.as_mut_slice();
        let tap_count = ic * ks * ks;
        gridtuner_par::par_chunks_mut(dk, tap_count, |base, taps| {
            let o = base / tap_count;
            for (xs, gs) in x.chunks_exact(ic * hw).zip(g.chunks_exact(oc * hw)) {
                let gch = &gs[o * hw..(o + 1) * hw];
                for i in 0..ic {
                    let xch = &xs[i * hw..(i + 1) * hw];
                    for kr in 0..ks {
                        let (r0, r1) = tap_range(kr, pad, h);
                        for kc in 0..ks {
                            let (c0, c1) = tap_range(kc, pad, w);
                            if c0 >= c1 {
                                continue;
                            }
                            let mut acc = 0.0f32;
                            for r in r0..r1 {
                                let xrow =
                                    &x_row(xch, r + kr - pad, w)[c0 + kc - pad..c1 + kc - pad];
                                let grow = &gch[r * w + c0..r * w + c1];
                                acc += dot(grow, xrow);
                            }
                            taps[(i * ks + kr) * ks + kc] += acc;
                        }
                    }
                }
            }
        });
        let db = self.b.grad.as_mut_slice();
        for gs in g.chunks_exact(oc * hw) {
            for (d, gch) in db.iter_mut().zip(gs.chunks_exact(hw)) {
                *d += gch.iter().sum::<f32>();
            }
        }
        (batch, h, w)
    }
}

/// Valid output range for one kernel tap offset `kt` (row or column):
/// `out + kt - pad` must land in `0..dim`. Hoists the per-pixel bounds
/// checks of the naive loop out to per-tap loop limits.
fn tap_range(kt: usize, pad: usize, dim: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(kt);
    let hi = (dim + pad - kt).min(dim);
    (lo, hi.max(lo))
}

/// Row `r` of a `[H, W]` channel plane.
fn x_row(plane: &[f32], r: usize, w: usize) -> &[f32] {
    &plane[r * w..(r + 1) * w]
}

/// Mutable row `r` of a `[H, W]` channel plane.
fn x_row_mut(plane: &mut [f32], r: usize, w: usize) -> &mut [f32] {
    &mut plane[r * w..(r + 1) * w]
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (oc, ic) = self.channels();
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "conv input must be [B, C, H, W]");
        assert_eq!(shape[1], ic, "conv input channel mismatch");
        let (batch, h, w) = (shape[0], shape[2], shape[3]);
        self.input = input.clone();
        let (ks, pad, hw) = (self.ks, self.ks / 2, h * w);
        let x = input.as_slice();
        let k = self.k.value.as_slice();
        let b = self.b.value.as_slice();
        let mut out = vec![0.0f32; batch * oc * hw];
        // One task per output plane (sample s, channel o); inside a plane
        // the taps are the outer loops, so the inner loop walks contiguous
        // input and output rows with no bounds checks. Each plane is
        // produced by exactly one closure call — deterministic for any
        // worker count.
        gridtuner_par::par_chunks_mut(&mut out, hw, |base, plane| {
            let (s, o) = (base / hw / oc, base / hw % oc);
            let xs = &x[s * ic * hw..(s + 1) * ic * hw];
            plane.fill(b[o]);
            for i in 0..ic {
                let xch = &xs[i * hw..(i + 1) * hw];
                for kr in 0..ks {
                    let (r0, r1) = tap_range(kr, pad, h);
                    for kc in 0..ks {
                        let (c0, c1) = tap_range(kc, pad, w);
                        if c0 >= c1 {
                            continue;
                        }
                        let kv = k[((o * ic + i) * ks + kr) * ks + kc];
                        for r in r0..r1 {
                            let xrow = &x_row(xch, r + kr - pad, w)[c0 + kc - pad..c1 + kc - pad];
                            let orow = &mut plane[r * w + c0..r * w + c1];
                            for (ov, xv) in orow.iter_mut().zip(xrow) {
                                *ov += kv * xv;
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(&[batch, oc, h, w], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (batch, h, w) = self.accumulate_param_grads(grad_out);
        let (oc, ic) = self.channels();
        let (ks, pad, hw) = (self.ks, self.ks / 2, h * w);
        let g = grad_out.as_slice();
        let k = self.k.value.as_slice();
        // dx sums over output channels — a reduction, so workers fold
        // channel blocks into private buffers combined in block order; the
        // block boundaries depend only on `oc`, and each block adds its
        // samples' contributions in sample order.
        let os: Vec<usize> = (0..oc).collect();
        let dx = gridtuner_par::par_accumulate(&os, batch * ic * hw, |_, &o, dx| {
            for (dxs, gs) in dx.chunks_exact_mut(ic * hw).zip(g.chunks_exact(oc * hw)) {
                let gch = &gs[o * hw..(o + 1) * hw];
                for i in 0..ic {
                    let dxch = &mut dxs[i * hw..(i + 1) * hw];
                    for kr in 0..ks {
                        let (r0, r1) = tap_range(kr, pad, h);
                        for kc in 0..ks {
                            let (c0, c1) = tap_range(kc, pad, w);
                            if c0 >= c1 {
                                continue;
                            }
                            let kv = k[((o * ic + i) * ks + kr) * ks + kc];
                            for r in r0..r1 {
                                let dxrow = &mut x_row_mut(dxch, r + kr - pad, w)
                                    [c0 + kc - pad..c1 + kc - pad];
                                let grow = &gch[r * w + c0..r * w + c1];
                                for (dv, gv) in dxrow.iter_mut().zip(grow) {
                                    *dv += kv * gv;
                                }
                            }
                        }
                    }
                }
            }
        });
        Tensor::from_vec(&[batch, ic, h, w], dx)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_param_grads(grad_out);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.k, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Residual block: `y = x + f(x)` where `f` is a [`Sequential`] whose
/// output shape equals its input shape. The skeleton of DeepST's residual
/// units.
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wraps an inner network.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = self.inner.forward(input);
        assert_eq!(
            out.shape(),
            input.shape(),
            "residual inner net must preserve shape"
        );
        out.add_assign(input);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut dx = self.inner.backward(grad_out);
        dx.add_assign(grad_out);
        dx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.inner.backward_params(grad_out);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::wide::Kernel;
    use rand::{rngs::StdRng, SeedableRng};

    /// Numerically checks `∂loss/∂input` and parameter gradients of a layer
    /// against finite differences.
    fn grad_check<L: Layer>(layer: &mut L, input: &Tensor, target: &Tensor, tol: f32) {
        // Analytic pass.
        let out = layer.forward(input);
        let (_, grad) = mse_loss(&out, target);
        for p in layer.params_mut() {
            p.zero_grad();
        }
        layer.forward(input);
        let dx = layer.backward(&grad);

        // Numeric input gradient.
        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let (lp, _) = mse_loss(&layer.forward(&plus), target);
            let (lm, _) = mse_loss(&layer.forward(&minus), target);
            let num = (lp - lm) / (2.0 * eps as f64);
            let ana = dx.as_slice()[i] as f64;
            assert!(
                (num - ana).abs() < tol as f64 * (1.0 + num.abs()),
                "input grad {i}: numeric {num}, analytic {ana}"
            );
        }

        // Numeric parameter gradients (first parameter tensor only, probed
        // at a handful of indices to keep the test fast).
        layer.forward(input);
        layer.backward(&grad); // grads now hold 2× accumulation; rescale
        let n_params = layer.params_mut().len();
        for pi in 0..n_params {
            let plen = layer.params_mut()[pi].value.len();
            for idx in [0, plen / 2, plen - 1] {
                let ana = layer.params_mut()[pi].grad.as_slice()[idx] as f64 / 2.0;
                layer.params_mut()[pi].value.as_mut_slice()[idx] += eps;
                let (lp, _) = mse_loss(&layer.forward(input), target);
                layer.params_mut()[pi].value.as_mut_slice()[idx] -= 2.0 * eps;
                let (lm, _) = mse_loss(&layer.forward(input), target);
                layer.params_mut()[pi].value.as_mut_slice()[idx] += eps;
                let num = (lp - lm) / (2.0 * eps as f64);
                assert!(
                    (num - ana).abs() < tol as f64 * (1.0 + num.abs()),
                    "param {pi}[{idx}]: numeric {num}, analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(&mut rng, 2, 2);
        d.w.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        d.b.value = Tensor::vector(&[0.5, -0.5]);
        let y = d.forward(&Tensor::from_vec(&[1, 2], vec![1.0, -1.0]));
        assert_eq!(y.as_slice(), &[1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(&mut rng, 4, 3);
        let x = Tensor::from_vec(&[2, 4], vec![0.3, -0.7, 1.2, 0.05, -0.4, 0.9, 0.2, -1.1]);
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.2, -0.3, -0.2, 0.4, 0.0]);
        grad_check(&mut d, &x, &t, 1e-2);
    }

    #[test]
    fn relu_masks_forward_and_backward() {
        let mut r = ReLU::new();
        let y = r.forward(&Tensor::vector(&[1.0, -1.0, 0.0, 2.0]));
        assert_eq!(y.as_slice(), &[1.0, 0.0, 0.0, 2.0]);
        let dx = r.backward(&Tensor::vector(&[5.0, 5.0, 5.0, 5.0]));
        assert_eq!(dx.as_slice(), &[5.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 12], "the batch dimension is kept");
        let dx = f.backward(&Tensor::zeros(&[2, 12]));
        assert_eq!(dx.shape(), &[2, 3, 4]);
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 3);
        // Kernel = delta at centre.
        let mut k = vec![0.0f32; 9];
        k[4] = 1.0;
        conv.k.value = Tensor::from_vec(&[1, 1, 3, 3], k);
        conv.b.value = Tensor::vector(&[0.0]);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_same_padding_shape_and_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(&mut rng, 2, 4, 3);
        let x = Tensor::zeros(&[3, 2, 5, 6]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[3, 4, 5, 6]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(&mut rng, 2, 2, 3);
        let x = Tensor::from_vec(
            &[2, 2, 3, 3],
            (0..36).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let t = Tensor::zeros(&[2, 2, 3, 3]);
        grad_check(&mut conv, &x, &t, 2e-2);
    }

    /// Naive per-pixel conv forward of a one-sample batch — the reference
    /// the optimised kernel must match.
    fn conv_forward_naive(conv: &Conv2d, input: &Tensor) -> Vec<f32> {
        let (oc, ic) = conv.channels();
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let (ks, pad) = (conv.ks, conv.ks / 2);
        let x = input.as_slice();
        let k = conv.k.value.as_slice();
        let b = conv.b.value.as_slice();
        let mut out = vec![0.0f32; oc * h * w];
        for o in 0..oc {
            for r in 0..h {
                for c in 0..w {
                    let mut acc = b[o];
                    for i in 0..ic {
                        for kr in 0..ks {
                            for kc in 0..ks {
                                let (rr, cc) = (r + kr, c + kc);
                                if rr < pad || rr - pad >= h || cc < pad || cc - pad >= w {
                                    continue;
                                }
                                acc += k[((o * ic + i) * ks + kr) * ks + kc]
                                    * x[(i * h + rr - pad) * w + cc - pad];
                            }
                        }
                    }
                    out[(o * h + r) * w + c] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn conv_kernel_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for (ic, oc, h, w, ks) in [(1, 1, 4, 4, 3), (3, 5, 7, 6, 3), (2, 3, 9, 9, 5)] {
            let mut conv = Conv2d::new(&mut rng, ic, oc, ks);
            let x = Tensor::from_vec(
                &[1, ic, h, w],
                (0..ic * h * w).map(|i| (i as f32 * 0.731).sin()).collect(),
            );
            let want = conv_forward_naive(&conv, &x);
            let got = conv.forward(&x);
            for (a, b) in got.as_slice().iter().zip(&want) {
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                    "optimised {a} vs naive {b} (ic={ic} oc={oc} ks={ks})"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn conv_backward_matches_naive_reference() {
        // Reference: per-pixel scatter (the pre-optimisation backward).
        let mut rng = StdRng::seed_from_u64(12);
        let (ic, oc, h, w, ks) = (2, 3, 6, 5, 3);
        let pad = ks / 2;
        let mut conv = Conv2d::new(&mut rng, ic, oc, ks);
        let x = Tensor::from_vec(
            &[1, ic, h, w],
            (0..ic * h * w).map(|i| (i as f32 * 0.413).cos()).collect(),
        );
        conv.forward(&x);
        let g = Tensor::from_vec(
            &[1, oc, h, w],
            (0..oc * h * w).map(|i| (i as f32 * 0.217).sin()).collect(),
        );
        let k = conv.k.value.as_slice().to_vec();
        let mut dk_ref = vec![0.0f32; k.len()];
        let mut db_ref = vec![0.0f32; oc];
        let mut dx_ref = vec![0.0f32; ic * h * w];
        for o in 0..oc {
            for r in 0..h {
                for c in 0..w {
                    let go = g.as_slice()[(o * h + r) * w + c];
                    db_ref[o] += go;
                    for i in 0..ic {
                        for kr in 0..ks {
                            for kc in 0..ks {
                                let (rr, cc) = (r + kr, c + kc);
                                if rr < pad || rr - pad >= h || cc < pad || cc - pad >= w {
                                    continue;
                                }
                                let ki = ((o * ic + i) * ks + kr) * ks + kc;
                                let xi = (i * h + rr - pad) * w + cc - pad;
                                dk_ref[ki] += go * x.as_slice()[xi];
                                dx_ref[xi] += go * k[ki];
                            }
                        }
                    }
                }
            }
        }
        let dx = conv.backward(&g);
        for (a, b) in dx.as_slice().iter().zip(&dx_ref) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "dx {a} vs {b}");
        }
        for (a, b) in conv.k.grad.as_slice().iter().zip(&dk_ref) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "dk {a} vs {b}");
        }
        for (a, b) in conv.b.grad.as_slice().iter().zip(&db_ref) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "db {a} vs {b}");
        }
    }

    #[test]
    fn dense_kernel_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        let (in_dim, out_dim) = (37, 23);
        let mut d = Dense::new(&mut rng, in_dim, out_dim);
        let x = Tensor::from_vec(
            &[1, in_dim],
            (0..in_dim).map(|i| (i as f32 * 0.911).sin()).collect(),
        );
        let w = d.w.value.as_slice().to_vec();
        let b = d.b.value.as_slice().to_vec();
        let y = d.forward(&x);
        for o in 0..out_dim {
            let want: f32 = b[o]
                + w[o * in_dim..(o + 1) * in_dim]
                    .iter()
                    .zip(x.as_slice())
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f32>();
            let got = y.as_slice()[o];
            assert!(
                (got - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "row {o}: optimised {got} vs naive {want}"
            );
        }
    }

    /// The bits of a slice, for `to_bits` equality.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` smooth non-zero values.
    fn wave(n: usize, k: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * k).sin()).collect()
    }

    /// The bits `$kernel` leaves in `$buf`, a copy of `$init`, run
    /// directly (the build target's copy) and through `wide::run` (the
    /// AVX2 copy on an AVX2 host).
    macro_rules! both_copies {
        ($init:expr, |$buf:ident| $kernel:expr) => {{
            let init: Vec<f32> = $init;
            let (mut direct, mut dispatched) = (init.clone(), init);
            {
                let $buf = &mut direct[..];
                $kernel.exec();
            }
            {
                let $buf = &mut dispatched[..];
                wide::run($kernel);
            }
            (bits(&direct), bits(&dispatched))
        }};
    }

    #[test]
    fn dense_blocks_match_across_compilations() {
        // Batches with and without a lone last sample, out_dim with a short
        // last tile and a lone last dW row, in_dim with 4-lane and DW_COLS
        // tails, and every block start.
        for batch in [1, 3, 16] {
            for (in_dim, out_dim) in [(1, 1), (3, 5), (36, 8), (37, 23), (50, 6), (64, 9)] {
                let (w, b) = (wave(out_dim * in_dim, 0.37), wave(out_dim, 0.71));
                let (x, g) = (wave(batch * in_dim, 0.19), wave(batch * out_dim, 0.53));
                let (w, b, x, g) = (&w[..], &b[..], &x[..], &g[..]);
                let case = format!("B={batch} {in_dim}x{out_dim}");
                for o in (0..out_dim).step_by(TILE_ROWS) {
                    let yt = vec![0.0; (out_dim - o) * batch];
                    let (a, z) = both_copies!(yt, |yt| ForwardBlock { w, b, x, o, yt });
                    assert_eq!(a, z, "forward {case} o={o}");
                }
                for o in (0..out_dim).step_by(2) {
                    let d = wave((out_dim - o) * in_dim, 0.29);
                    let (a, z) = both_copies!(d, |d| DwBlock {
                        g,
                        x,
                        out_dim,
                        in_dim,
                        o,
                        d
                    });
                    assert_eq!(a, z, "dW {case} o={o}");
                }
                let cols = in_dim.div_ceil(3);
                for i0 in (0..in_dim).step_by(cols) {
                    let acc = vec![0.0; batch * cols];
                    let (a, z) = both_copies!(acc, |acc| DxBlock {
                        g,
                        w,
                        in_dim,
                        i0,
                        acc
                    });
                    assert_eq!(a, z, "dx {case} i0={i0}");
                }
            }
        }
    }

    #[test]
    fn residual_adds_skip_connection() {
        let mut rng = StdRng::seed_from_u64(5);
        let inner = Sequential::new(vec![Box::new(Dense::new(&mut rng, 3, 3))]);
        let mut res = Residual::new(inner);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = res.forward(&x);
        // y - x equals the inner dense output: check backward consistency.
        let t = Tensor::zeros(&[1, 3]);
        grad_check(&mut res, &x, &t, 1e-2);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "input size mismatch")]
    fn dense_validates_input_size() {
        let mut rng = StdRng::seed_from_u64(6);
        // Two samples' worth of values without a batch dimension: the batch
        // size is never inferred from the length.
        let unbatched = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(6);
            Dense::new(&mut rng, 3, 2).forward(&Tensor::vector(&[1.0; 6]));
        });
        let msg = unbatched.expect_err("a [6] input must not pass as [2, 3]");
        let msg = msg
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("input size mismatch"), "{msg}");
        Dense::new(&mut rng, 3, 2).forward(&Tensor::vector(&[1.0, 2.0]));
    }
}
