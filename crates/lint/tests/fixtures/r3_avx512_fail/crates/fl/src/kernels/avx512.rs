use super::scalar;

pub(super) unsafe fn encode(params: &[f32], out: &mut [u8]) {
    scalar::encode(params, out);
}

pub(super) unsafe fn drifted(params: &[f64], out: &mut [u8]) {
    scalar::drifted(&[params[0] as f32], out);
}

pub(super) unsafe fn undispatched(params: &[f32], out: &mut [u8]) {
    scalar::undispatched(params, out);
}

pub(super) unsafe fn extra(out: &mut [u8]) {
    out.fill(0);
}
