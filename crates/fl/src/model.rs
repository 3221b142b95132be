//! A dense parameter vector: the unit of aggregation.

use lifl_types::{LiflError, Result};
use serde::{Deserialize, Serialize};

/// A dense model: a flat `f32` parameter vector (the softmax-regression
/// weight matrix plus bias, stored row-major).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DenseModel {
    params: Vec<f32>,
}

impl DenseModel {
    /// A model with all parameters at zero.
    pub fn zeros(dim: usize) -> Self {
        DenseModel {
            params: vec![0.0; dim],
        }
    }

    /// Wraps an existing parameter vector.
    pub fn from_vec(params: Vec<f32>) -> Self {
        DenseModel { params }
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Whether the model has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Read-only view of the parameters.
    pub fn as_slice(&self) -> &[f32] {
        &self.params
    }

    /// Mutable view of the parameters.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Consumes the model, returning the parameter vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.params
    }

    /// Moves the model out as its headerless little-endian wire bytes — no
    /// copy: the handle *is* the parameter vector (behind
    /// [`DenseLe`](crate::kernels::DenseLe)), homed on `pool`. Dropping the
    /// last clone of the handle checks the vector in there — an
    /// aggregator's accumulator comes home, and a client's vector stays if
    /// the pool is owed a buffer and is freed otherwise. The dense
    /// counterpart of
    /// [`EncodedUpdate::into_wire`](crate::codec::EncodedUpdate::into_wire).
    pub fn into_pooled_wire(self, pool: &lifl_shmem::BufferPool) -> bytes::Bytes {
        bytes::Bytes::from_owner(crate::kernels::DenseLe::pooled(self.params, pool))
    }

    /// Euclidean norm of the parameters.
    pub fn l2_norm(&self) -> f64 {
        self.params
            .iter()
            .map(|p| (*p as f64) * (*p as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Adds `scale * other` into this model.
    ///
    /// # Errors
    /// Returns [`LiflError::DimensionMismatch`] if the dimensions differ.
    pub fn axpy(&mut self, scale: f32, other: &DenseModel) -> Result<()> {
        if self.dim() != other.dim() {
            return Err(LiflError::DimensionMismatch {
                expected: self.dim(),
                actual: other.dim(),
            });
        }
        crate::kernels::axpy(&mut self.params, &other.params, scale);
        Ok(())
    }

    /// Overwrites this model with `src`, resizing if required while reusing
    /// the existing allocation when its capacity suffices.
    pub fn copy_from_slice(&mut self, src: &[f32]) {
        self.params.clear();
        self.params.extend_from_slice(src);
    }

    /// Multiplies every parameter by `scale`.
    pub fn scale(&mut self, scale: f32) {
        for p in &mut self.params {
            *p *= scale;
        }
    }

    /// Serialized size in bytes (little-endian `f32`).
    pub fn byte_size(&self) -> u64 {
        (self.params.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_scale() {
        let mut a = DenseModel::from_vec(vec![1.0, 2.0]);
        let b = DenseModel::from_vec(vec![10.0, 20.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        assert_eq!(a.byte_size(), 8);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let mut a = DenseModel::zeros(3);
        let b = DenseModel::zeros(4);
        assert!(matches!(
            a.axpy(1.0, &b),
            Err(LiflError::DimensionMismatch {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn norm_of_zeros_is_zero() {
        assert_eq!(DenseModel::zeros(100).l2_norm(), 0.0);
        assert!(DenseModel::from_vec(vec![3.0, 4.0]).l2_norm() - 5.0 < 1e-9);
    }
}
