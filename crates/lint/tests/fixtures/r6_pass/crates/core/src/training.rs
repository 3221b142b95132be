//! Outside the move-only files the copying conveniences stay conveniences.

pub fn checkpoint(store: &Store, model: &[f32], encoded: &Encoded, update: &Update) {
    let _ = store.put_f32(model);
    let _ = encoded.to_bytes();
    let _ = update.clone();
}
