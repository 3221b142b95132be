use super::scalar;

pub(super) unsafe fn axpy(acc: &mut [f32], src: &[f32], w: f32) {
    scalar::axpy(acc, src, w);
}
