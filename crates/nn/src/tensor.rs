//! Dense `f32` tensors with explicit shapes.

/// A dense tensor: row-major `f32` storage plus a shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Builds a tensor from raw data. Panics unless the length matches the
    /// shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D tensor from a slice.
    pub fn vector(data: &[f32]) -> Self {
        Tensor::from_vec(&[data.len()], data.to_vec())
    }

    /// Stacks equally-shaped tensors along a new leading batch dimension:
    /// `B` tensors of shape `[d…]` become one `[B, d…]` tensor, sample `s`
    /// in row `s`. Panics on an empty list or mismatched shapes.
    pub fn stack(items: &[&Tensor]) -> Tensor {
        let first = items.first().expect("cannot stack an empty list");
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&first.shape);
        let mut data = Vec::with_capacity(items.len() * first.len());
        for t in items {
            assert_eq!(t.shape, first.shape, "shape mismatch in stack");
            data.extend_from_slice(&t.data);
        }
        Tensor { shape, data }
    }

    /// Prefixes a batch dimension of one: `[d…]` becomes `[1, d…]`. No data
    /// is copied.
    pub fn into_batch_of_one(mut self) -> Tensor {
        self.shape.insert(0, 1);
        self
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Changes the shape in place. No data is moved or copied — a reshape
    /// of a row-major tensor is pure metadata. Panics unless the element
    /// counts match.
    pub fn reshape(&mut self, shape: &[usize]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Consumes the tensor and returns it under a new shape — the move
    /// equivalent of [`reshaped`](Self::reshaped), with no data copy.
    pub fn into_reshaped(mut self, shape: &[usize]) -> Tensor {
        self.reshape(shape);
        self
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    /// Copies the data; prefer [`reshape`](Self::reshape) or
    /// [`into_reshaped`](Self::into_reshaped) on hot paths.
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        self.clone().into_reshaped(shape)
    }

    /// Element-wise in-place addition. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_validates_length() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.reshaped(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    fn in_place_and_consuming_reshape_keep_data() {
        let mut t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let ptr = t.as_slice().as_ptr();
        t.reshape(&[6]);
        assert_eq!(t.shape(), &[6]);
        assert_eq!(t.as_slice().as_ptr(), ptr, "reshape must not reallocate");
        let t = t.into_reshaped(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice().as_ptr(), ptr, "into_reshaped must not copy");
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_validates_element_count() {
        Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    fn stack_adds_a_leading_batch_dimension() {
        let a = Tensor::from_vec(&[1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[1, 2], vec![3.0, 4.0]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.shape(), &[2, 1, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let one = a.into_batch_of_one();
        assert_eq!(one.shape(), &[1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch in stack")]
    fn stack_validates_shapes() {
        Tensor::stack(&[&Tensor::zeros(&[2]), &Tensor::zeros(&[3])]);
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::vector(&[1.0, -2.0, 3.0]);
        let b = Tensor::vector(&[1.0, 1.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[2.0, -1.0, 4.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[4.0, -2.0, 8.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.max_abs(), 8.0);
    }
}
