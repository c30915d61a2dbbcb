//! # smack-crypto
//!
//! Pure-Rust cryptographic substrates for the SMaCk reproduction:
//!
//! * [`bn`]: arbitrary-precision unsigned integers (the offline crate set
//!   has no bignum crate, so the reproduction carries its own),
//! * [`mont`]: Montgomery multiplication contexts,
//! * [`modexp`]: the three modular-exponentiation algorithms the paper's
//!   case studies revolve around — the leaky Libgcrypt-1.5.1-style binary
//!   square-and-multiply, the leaky OpenSSL-1.1.1w-style sliding-window
//!   (`BN_mod_exp_mont` without `BN_FLG_CONSTTIME`), and a constant-time
//!   Montgomery ladder used for the countermeasure discussion — plus
//!   **operation-schedule extraction**, which is the ground truth the cache
//!   attacks try to recover,
//! * [`prime`]: Miller–Rabin primality and prime generation,
//! * [`sha256`]: SHA-256 (needed by SRP),
//! * [`rsa`]: RSA keygen/encrypt/decrypt in the style of the vulnerable
//!   Libgcrypt 1.5.1 implementation, and
//! * [`srp`]: the Secure Remote Password protocol modeled on OpenSSL
//!   1.1.1w, whose `SRP_Calc_server_key` is the paper's single-trace target.
//!
//! The SRP groups are deterministic synthetic moduli of the RFC 5054 bit
//! sizes (1024/2048/4096/6144): the paper's leakage depends only on the
//! operand bit length (per-limb multiplication cost), not on the specific
//! prime, and the offline environment has no copy of the RFC constants.

pub mod bn;
pub mod modexp;
pub mod mont;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod srp;

pub use bn::Bignum;
pub use modexp::{binary_ltr_schedule, sliding_window_schedule, ModexpOp, WindowSizing};
pub use mont::MontCtx;
pub use rsa::RsaKeyPair;
pub use sha256::Sha256;
pub use srp::{SrpGroup, SrpServer};
