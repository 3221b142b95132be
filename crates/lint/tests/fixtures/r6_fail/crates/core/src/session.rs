//! Payload copies on the engine's move-only path: none may come back in
//! non-test code.

pub fn admit(store: &Store, update: &Update, encoded: &Encoded) {
    let _ = store.put_f32(update.values());
    let _ = store.put_encoded(encoded.to_bytes(), 0);
    let _ = Object::encode_f32(update.values());
    forward(update.clone());
    let _ = store.get(key).as_f32_vec();
    kernels::decode_dense_le(&mut model, store.get(key).as_slice());
}
