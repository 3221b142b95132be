//! The station executor: the one engine module that starts threads, and
//! the one that sizes a worker set.

pub fn start(board: Board) -> JoinHandle {
    std::thread::Builder::new()
        .name("lifl-station-0".into())
        .spawn(move || board.serve())
        .ok()
}

pub fn shared(cpus: usize) -> Workers {
    Workers::with_count(cpus - 1)
}
