//! AMBA AHB 2.0 system-interconnect model.
//!
//! SSDExplorer keeps the system interconnect at RTL-equivalent accuracy
//! because arbitration, burst formation and wait states directly shape the
//! internal transfer rates of the SSD. This crate models an AMBA AHB v2.0
//! bus with 16 master and 16 slave ports, INCR burst transfers with
//! per-burst arbitration and address cycles, and slave wait states. Bus
//! ownership is first come, first served in reservation order, so a
//! transfer's timing never depends on which master issues it.
//!
//! # Example
//!
//! ```
//! use ssdx_interconnect::{AhbBus, AhbConfig};
//! use ssdx_sim::SimTime;
//!
//! let mut bus = AhbBus::new(AhbConfig::default());
//! let xfer = bus.transfer(SimTime::ZERO, 0, 1, 4096);
//! assert!(xfer.end > xfer.start);
//! ```

#![warn(rust_2018_idioms)]

pub mod ahb;

pub use ahb::{AhbBus, AhbConfig, AhbError, BurstKind, Transfer};
