fn main() {
    lifl_core::benchmarked();
}
