use std::collections::HashMap;

pub fn shuffle_seed(counts: &HashMap<usize, u64>) -> u64 {
    counts.values().sum()
}
