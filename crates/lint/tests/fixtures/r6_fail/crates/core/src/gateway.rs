pub struct Gateway;

impl Gateway {
    pub fn ingest_client_update(&mut self) {}
}

pub fn forward(gateway: &mut Gateway) {
    gateway.ingest_client_update();
}
