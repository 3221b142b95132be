//! A second local-SGD loop for FedProx beside the one trainer.

pub fn proximal(features: usize, classes: usize) -> FedProxTrainer {
    FedProxTrainer::new(features, classes, FedProxConfig::default())
}
