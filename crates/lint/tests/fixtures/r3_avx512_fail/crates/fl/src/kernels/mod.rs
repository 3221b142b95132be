mod avx2;
mod avx512;
mod scalar;

pub fn encode(params: &[f32], out: &mut [u8], arm: u8) {
    match arm {
        2 => unsafe { avx512::encode(params, out) },
        1 => unsafe { avx2::encode(params, out) },
        _ => scalar::encode(params, out),
    }
}

pub fn drifted(params: &[f32], out: &mut [u8], arm: u8) {
    match arm {
        2 => unsafe { avx512::drifted(&[f64::from(params[0])], out) },
        1 => unsafe { avx2::drifted(params, out) },
        _ => scalar::drifted(params, out),
    }
}

pub fn undispatched(params: &[f32], out: &mut [u8], arm: u8) {
    match arm {
        1 => unsafe { avx2::undispatched(params, out) },
        _ => scalar::undispatched(params, out),
    }
}
