pub(super) fn encode(params: &[f32], out: &mut [u8]) {
    for (o, p) in out.iter_mut().zip(params) {
        *o = *p as i8 as u8;
    }
}

pub(super) fn drifted(params: &[f32], out: &mut [u8]) {
    encode(params, out);
}

pub(super) fn undispatched(params: &[f32], out: &mut [u8]) {
    encode(params, out);
}
