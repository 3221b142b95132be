//! Outside the engine crates the rule does not apply.

pub fn config() -> LiflConfig {
    LiflConfig::default()
}

pub fn sweep(points: &mut [Point]) {
    std::thread::scope(|scope| {
        for point in points.iter_mut() {
            scope.spawn(move || point.run());
        }
    });
}
