//! # phi-ssl
//!
//! A minimal TLS-1.2-style handshake substrate with RSA key transport —
//! the workload the PhiOpenSSL paper motivates (the RSA private-key
//! operation dominates SSL handshake cost on the server).
//!
//! What's here is the handshake *control plane* only, faithful in shape:
//!
//! * [`record`] — record-layer framing (type, version, length),
//! * [`msg`] — handshake messages (ClientHello, ServerHello, Certificate,
//!   ServerHelloDone, ClientKeyExchange, Finished) with binary
//!   encode/decode,
//! * [`handshake`] — client and server state machines: RSA-encrypted
//!   premaster secret, TLS 1.2 PRF master-secret derivation, transcript
//!   hashing and Finished verification,
//! * [`driver`] — in-memory connection driver and the multi-threaded
//!   handshake-throughput benchmark used by experiment E9.
//!
//! * [`aes`] / [`cipher`] — AES-128/256 (FIPS 197) and the TLS 1.2
//!   CBC+HMAC record protection, so established connections can exchange
//!   protected application data (the paper's measurements are
//!   handshake-bound, but the substrate is complete).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod alert;
pub mod cert;
pub mod cipher;
pub mod driver;
pub mod error;
pub mod handshake;
pub mod msg;
pub mod record;
pub mod session;

pub use alert::{Alert, AlertDescription, AlertLevel};
pub use cipher::{ConnectionKeys, RecordCipher};
pub use driver::{drive_concurrent_fleet, drive_handshake, handshake_throughput, HandshakeOutcome};
pub use error::SslError;
pub use handshake::{Client, Server};
pub use session::{Session, SessionCache};
