//! The gateway's one door. `ingest_client_update`, `ingest_encoded_update`,
//! `ingest_remote_encoded` and `ingest_remote_update` are gone; prose and
//! strings may still name them.

pub struct Gateway;

impl Gateway {
    // Formerly ingest_remote_update and friends.
    pub fn ingest(&mut self) -> &'static str {
        "replaces ingest_encoded_update"
    }
}
