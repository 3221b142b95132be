mod avx2;
mod avx512;
mod scalar;

pub fn axpy(acc: &mut [f32], src: &[f32], w: f32, arm: u8) {
    match arm {
        2 => unsafe { avx512::axpy(acc, src, w) },
        1 => unsafe { avx2::axpy(acc, src, w) },
        _ => scalar::axpy(acc, src, w),
    }
}

pub fn scatter(acc: &mut [f32], idx: &[usize]) {
    scalar::scatter(acc, idx);
}
