//! Prose may say thread::scope and thread::spawn; strings and tests may too.

pub fn drive(workers: &Workers) {
    let _ = "no std::thread::spawn here";
    workers.run(4, |node| node.drive());
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_start_threads() {
        std::thread::scope(|scope| drop(scope.spawn(|| ())));
        let _ = std::thread::spawn(|| ()).join();
    }
}
