//! The station executor: the one engine module that starts threads.

pub fn start(board: Board) -> JoinHandle {
    std::thread::Builder::new()
        .name("lifl-station-0".into())
        .spawn(move || board.serve())
        .ok()
}
