//! A fold that starts its own threads inside an engine crate.

pub fn fold(chunks: &mut [Chunk]) {
    std::thread::scope(|scope| {
        for chunk in chunks.iter_mut() {
            scope.spawn(move || chunk.fold());
        }
    });
}
