//! Dense row-major tensors over arbitrary element types.
//!
//! Two concrete ranks are provided, matching the paper's data objects:
//! [`Tensor3`] for `N×R×C` feature maps and [`Tensor4`] for `M×N×K×K'`
//! weight tensors. Elements are generic so the same containers hold `f32`
//! master weights, `i8` quantized weights and `i16`/`i32` feature maps.

use crate::shape::{Shape3, Shape4};

/// A dense row-major 3-D tensor (feature map).
///
/// # Examples
///
/// ```
/// use abm_tensor::{Tensor3, Shape3};
/// let mut t = Tensor3::zeros(Shape3::new(2, 2, 2));
/// t[(1, 0, 1)] = 7i32;
/// assert_eq!(t[(1, 0, 1)], 7);
/// assert_eq!(t.as_slice().iter().sum::<i32>(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tensor3<T> {
    shape: Shape3,
    data: Vec<T>,
}

impl<T: Default + Clone> Tensor3<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(shape: Shape3) -> Self {
        Self {
            shape,
            data: vec![T::default(); shape.len()],
        }
    }
}

impl<T> Tensor3<T> {
    /// Creates a tensor from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape3, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor by evaluating `f(channel, row, col)` at every
    /// coordinate.
    pub fn from_fn(shape: Shape3, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for c in 0..shape.channels {
            for r in 0..shape.rows {
                for col in 0..shape.cols {
                    data.push(f(c, r, col));
                }
            }
        }
        Self { shape, data }
    }

    /// The shape of this tensor.
    #[inline]
    pub fn shape(&self) -> Shape3 {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns the element at `(channel, row, col)`, or `None` when out of
    /// range.
    #[inline]
    pub fn get(&self, channel: usize, row: usize, col: usize) -> Option<&T> {
        if channel < self.shape.channels && row < self.shape.rows && col < self.shape.cols {
            Some(&self.data[self.shape.index(channel, row, col)])
        } else {
            None
        }
    }

    /// Maps every element through `f`, producing a new tensor of the same
    /// shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Tensor3<U> {
        Tensor3 {
            shape: self.shape,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T> std::ops::Index<(usize, usize, usize)> for Tensor3<T> {
    type Output = T;
    #[inline]
    fn index(&self, (c, r, col): (usize, usize, usize)) -> &T {
        &self.data[self.shape.index(c, r, col)]
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize)> for Tensor3<T> {
    #[inline]
    fn index_mut(&mut self, (c, r, col): (usize, usize, usize)) -> &mut T {
        &mut self.data[self.shape.index(c, r, col)]
    }
}

/// A dense row-major 4-D tensor (convolution weights).
///
/// # Examples
///
/// ```
/// use abm_tensor::{Tensor4, Shape4};
/// let mut w = Tensor4::zeros(Shape4::new(2, 1, 3, 3));
/// w[(1, 0, 2, 2)] = -3i8;
/// assert_eq!(w.kernel(1)[8], -3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tensor4<T> {
    shape: Shape4,
    data: Vec<T>,
}

impl<T: Default + Clone> Tensor4<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(shape: Shape4) -> Self {
        Self {
            shape,
            data: vec![T::default(); shape.len()],
        }
    }
}

impl<T> Tensor4<T> {
    /// Creates a tensor from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor by evaluating `f(m, n, k, k')` at every coordinate.
    pub fn from_fn(shape: Shape4, mut f: impl FnMut(usize, usize, usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for m in 0..shape.out_channels {
            for n in 0..shape.in_channels {
                for k in 0..shape.kernel_rows {
                    for kp in 0..shape.kernel_cols {
                        data.push(f(m, n, k, kp));
                    }
                }
            }
        }
        Self { shape, data }
    }

    /// The shape of this tensor.
    #[inline]
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows the `m`-th kernel as a contiguous `N·K·K'` slice.
    ///
    /// # Panics
    ///
    /// Panics if `m >= out_channels`.
    #[inline]
    pub fn kernel(&self, m: usize) -> &[T] {
        let kl = self.shape.kernel_len();
        &self.data[m * kl..(m + 1) * kl]
    }

    /// Maps every element through `f`, producing a new tensor of the same
    /// shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Tensor4<U> {
        Tensor4 {
            shape: self.shape,
            data: self.data.iter().map(f).collect(),
        }
    }
}

impl<T> std::ops::Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;
    #[inline]
    fn index(&self, (m, n, k, kp): (usize, usize, usize, usize)) -> &T {
        &self.data[self.shape.index(m, n, k, kp)]
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline]
    fn index_mut(&mut self, (m, n, k, kp): (usize, usize, usize, usize)) -> &mut T {
        &mut self.data[self.shape.index(m, n, k, kp)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor3_roundtrip() {
        let s = Shape3::new(2, 3, 4);
        let t = Tensor3::from_fn(s, |c, r, col| (c * 100 + r * 10 + col) as i32);
        assert_eq!(t[(1, 2, 3)], 123);
        assert_eq!(t.get(1, 2, 3), Some(&123));
        assert_eq!(t.get(2, 0, 0), None);
        assert_eq!(t.get(0, 3, 0), None);
        assert_eq!(t.get(0, 0, 4), None);
        let t2 = Tensor3::from_vec(s, t.as_slice().to_vec());
        assert_eq!(t, t2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn tensor3_from_vec_len_mismatch() {
        let _ = Tensor3::from_vec(Shape3::new(2, 2, 2), vec![0i32; 7]);
    }

    #[test]
    fn tensor3_map() {
        let t = Tensor3::from_fn(Shape3::new(1, 2, 2), |_, r, c| (r + c) as i32);
        let d = t.map(|&x| x * 2);
        assert_eq!(d[(0, 1, 1)], 4);
    }

    #[test]
    fn tensor4_kernels_are_contiguous() {
        let s = Shape4::new(3, 2, 2, 2);
        let t = Tensor4::from_fn(s, |m, n, k, kp| (m * 1000 + n * 100 + k * 10 + kp) as i32);
        let k1 = t.kernel(1);
        assert_eq!(k1.len(), 8);
        assert_eq!(k1[0], 1000);
        assert_eq!(k1[7], 1111);
        assert_eq!(t[(2, 1, 1, 1)], 2111);
    }

    #[test]
    fn zeros_default() {
        let t = Tensor4::<i8>::zeros(Shape4::new(2, 2, 3, 3));
        assert!(t.as_slice().iter().all(|&x| x == 0));
        assert_eq!(t.len(), 36);
        assert!(!t.is_empty());
        assert!(Tensor3::<i8>::zeros(Shape3::new(0, 1, 1)).is_empty());
    }
}
