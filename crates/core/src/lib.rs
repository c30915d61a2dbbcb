//! # smack
//!
//! The SMaCk attack layer: everything from the paper's §4 and §5 built on
//! the `smack-uarch` simulator.
//!
//! * [`probe`]: the nine timed probe primitives of Listing 2, with the
//!   `mfence; rdtsc; op; mfence; rdtsc` measurement harness.
//! * [`oracle`]: oracle code pages (Listing 1) and L1i eviction sets.
//! * [`characterize`]: the Figure 1 timing characterization and the
//!   Figure 2 performance-counter reverse engineering.
//! * [`calibrate`](mod@calibrate): hot/cold threshold calibration for each probe class.
//! * [`session`]: the session layer — a pool of reset-and-reuse machines
//!   plus a calibration cache keyed by
//!   `(profile, probe class, cold placement, noise)`, so a campaign
//!   calibrates once per microarchitecture instead of once per trial.
//! * [`channel`]: Prime+iProbe and Flush+iReload covert channels (Table 1,
//!   Figure 3).
//! * [`rsa`]: the RSA key-recovery attack of Case Study II (Figures 4, 5).
//! * [`srp`]: the OpenSSL SRP single-trace attack of Case Study III
//!   (Figure 6, Table 2).
//! * [`ispectre`]: the ISpectre transient-execution attack of Case Study IV
//!   (Tables 3, 4).
//! * [`fingerprint`]: library-version fingerprinting and multiplication-set
//!   detection (Case Study II steps 1–2).

pub mod calibrate;
pub mod channel;
pub mod characterize;
pub mod decode;
pub mod fingerprint;
pub mod ispectre;
pub mod oracle;
pub mod probe;
pub mod rsa;
pub mod session;
pub mod srp;

pub use calibrate::{calibrate, calibrate_with_cold, CalibratedProbe};
pub use channel::{run_channel_in, ChannelFamily, ChannelReport, ChannelSpec};
pub use oracle::{EvictionSet, OraclePage};
pub use probe::Prober;
pub use session::{CalibrationCache, Scenario, Session, Sessions};
