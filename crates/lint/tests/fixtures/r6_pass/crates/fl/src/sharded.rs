//! Outside the engine crate the rule does not apply.

pub fn fold(chunks: &mut [Chunk]) {
    std::thread::scope(|scope| {
        for chunk in chunks.iter_mut() {
            scope.spawn(move || chunk.fold());
        }
    });
}
