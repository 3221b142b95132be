use super::scalar;

pub(super) unsafe fn encode(params: &[f32], out: &mut [u8]) {
    scalar::encode(params, out);
}

pub(super) unsafe fn drifted(params: &[f32], out: &mut [u8]) {
    scalar::drifted(params, out);
}

pub(super) unsafe fn undispatched(params: &[f32], out: &mut [u8]) {
    scalar::undispatched(params, out);
}
