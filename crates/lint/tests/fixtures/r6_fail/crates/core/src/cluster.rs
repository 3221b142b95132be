//! Threads started outside the station executor.

pub fn drive(nodes: &[Node], builder: Builder) {
    std::thread::scope(|scope| {
        nodes.iter().for_each(|node| drop(scope.spawn(|| node.drive())));
    });
    let bare = std::thread::spawn(|| ());
    let named = std::thread::Builder::new().name("node".into()).spawn(|| ());
    let ufcs = Builder::spawn(builder, || ());
}
