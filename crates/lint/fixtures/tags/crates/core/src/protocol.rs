//! A message table that has drifted from its spec in all three ways
//! `spec-protocol-tags` reports.

messages! {
    /// Requests.
    pub enum Request: "req", "request" {
        /// In the spec, same byte.
        Deposit = "deposit", 0x01 {
            user: UserId,
        }
        /// In the spec under another byte.
        Predict = "predict", 0x04 {
            bot: BotId,
        }
        /// Not in the spec.
        Audit = "audit", 0x09 {
            bot: BotId,
        }
    } with {
        /// In the spec, same byte.
        Batch(items: Vec<Request>) = "batch", 0x07;
    }
}
