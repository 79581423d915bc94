//! # qsim — simulators with mid-circuit measurement and classical feedback
//!
//! The simulation substrate for the dynamic-quantum-circuit reproduction:
//! dynamic circuits interleave unitary gates with mid-circuit measurement,
//! active reset and classically controlled operations, which rules out the
//! plain "apply gates then sample" simulators available off the shelf.
//!
//! Backends:
//!
//! * [`Executor`] — shot-based statevector execution (the AER stand-in),
//!   with optional trajectory noise. Two engines behind one determinism
//!   contract: the per-shot loop, and the prefix-sharing branch-tree
//!   engine ([`prefix`]) that evolves each stochastic branch once and
//!   samples shots by walking the tree ([`Engine`], default `Auto`);
//! * [`branch::exact_distribution`] — the exact, shot-noise-free outcome
//!   distribution of a dynamic circuit: the prefix engine's branch tree,
//!   built under ideal noise without its node budget;
//! * [`DensityMatrix`] / [`density::exact_distribution_noisy`] — exact mixed
//!   state evolution under Kraus noise;
//! * [`circuit_unitary`] — the unitary of a measurement-free circuit, for
//!   verifying gate decompositions.
//!
//! # Examples
//!
//! ```
//! use qcir::{Circuit, Qubit, Clbit};
//! use qsim::{branch::exact_distribution, Executor};
//!
//! // A dynamic circuit: measure, reset, classically controlled X.
//! let mut c = Circuit::new(1, 2);
//! let q0 = Qubit::new(0);
//! c.h(q0).measure(q0, Clbit::new(0));
//! c.reset(q0);
//! c.x_if(q0, Clbit::new(0));
//! c.measure(q0, Clbit::new(1));
//!
//! // The conditioned X copies the measured bit back: outcomes 00 and 11.
//! let exact = exact_distribution(&c);
//! assert!((exact.get("11") - 0.5).abs() < 1e-12);
//! assert!((exact.get("00") - 0.5).abs() < 1e-12);
//! let counts = Executor::new().shots(512).seed(1).run(&c);
//! assert_eq!(counts.total(), 512);
//! ```

pub mod branch;
mod counts;
pub mod density;
mod executor;
pub mod fault;
pub mod noise;
pub mod pauli;
pub mod prefix;
mod statevector;
mod unitary;

pub use counts::{bitstring, Counts, Distribution};
pub use density::DensityMatrix;
pub use executor::Executor;
pub use executor::{CancelToken, DriftPolicy, Engine, RunReport, Termination};
pub use fault::{CcFault, FaultHook, FaultSite, GateFate};
pub use noise::{GateNoise, KrausChannel, NoiseError, NoiseModel};
pub use pauli::{Pauli, PauliString};
pub use statevector::StateVector;
pub use unitary::{circuit_unitary, circuits_equivalent};
