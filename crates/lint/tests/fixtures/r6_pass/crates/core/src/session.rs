//! The engine's move-only path. Prose may say `put_f32(`, `.to_bytes()` and
//! `encode_f32(`; tests may call them; a justified marker may allow one.

pub fn admit(store: &Store, update: Update, encoded: Encoded) {
    // Formerly store.put_f32(update.values()) and encoded.to_bytes().
    let _ = store.put(update.into_owner());
    let _ = store.put_encoded(encoded.into_wire(), 0);
    let _ = "update.clone() and put_f32( in a string";
}

pub fn ingest(store: &Store, update: &Update) {
    // lifl-lint: allow(no-legacy-runtime) — the borrowing public door's one copy.
    admit(store, update.clone(), Encoded::default());
}

#[cfg(test)]
mod tests {
    #[test]
    fn copies_are_fine_in_tests() {
        let key = store().put_f32(&[1.0]);
        let wire = encoded().to_bytes();
        let again = update.clone();
        let model = store().get(key).as_f32_vec();
    }
}
