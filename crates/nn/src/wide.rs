//! The one run-time choice of how wide the training kernels run.
//!
//! The hot kernels — `Dense`'s forward row block, `dW` row block and `dx`
//! column block, and Adam's element update — are `#[inline(always)]`
//! bodies that each pool task runs through this module. Each body is
//! compiled twice: inlined into its caller for the build target (SSE2 on
//! baseline x86-64, 4 floats per register), and inlined into a copy
//! compiled with `#[target_feature(enable = "avx2")]` (8 floats per
//! register). Every process picks one copy, by one feature check
//! ([`avx2`]). Both copies are the same source, so they compute the same
//! bits: the association is written out (four lanes and a fixed fold,
//! samples added in order), Rust never contracts `a*b + c` into a fused
//! multiply-add, and `+ − × ÷ sqrt` round correctly at any vector width
//! (DESIGN.md §9, §10). No other module of the crate enables a target
//! feature or opts out of the compiler's safety checks.

/// Whether the kernels run their AVX2 copy: the CPU has AVX2. The
/// standard library detects the CPU's features once per process and
/// caches them.
#[cfg(target_arch = "x86_64")]
pub fn avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Whether the kernels run their AVX2 copy: never off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2() -> bool {
    false
}

/// One pool task's kernel: its arguments as fields, its work as
/// [`exec`](Kernel::exec).
pub(crate) trait Kernel {
    /// The work. Implementations are `#[inline(always)]`, which is what
    /// compiles them into both copies: a call to an `#[inline(always)]`
    /// method is inlined into the AVX2 copy, where a closure would be
    /// compiled once, for the build target, and merely called from there.
    fn exec(self);
}

/// Runs `kernel`, through its AVX2 copy when [`avx2`] says so.
#[inline(always)]
pub(crate) fn run(kernel: impl Kernel) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2_copy` is compiled for AVX2, and `avx2()` has
        // confirmed through `is_x86_feature_detected!("avx2")` that this
        // CPU executes AVX2 instructions.
        return unsafe { avx2_copy(kernel) };
    }
    kernel.exec()
}

/// `kernel.exec()` compiled for AVX2: the `#[inline(always)]` kernel is
/// inlined here and vectorised 8 floats wide. Only [`run`] calls it,
/// after [`avx2`] has returned `true`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_copy(kernel: impl Kernel) {
    kernel.exec()
}
