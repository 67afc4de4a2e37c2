//! Resource meters for the three big data models of the paper.
//!
//! The paper's theorems bound *passes and space* (streaming), *rounds and
//! total communication* (coordinator), and *rounds and per-machine load*
//! (MPC). Algorithms run in-process and charge each message or stored
//! item here as a plain bit count:
//!
//! * [`streaming::StreamSession`] — a re-scannable sequence with pass
//!   counting and a peak-space meter ([`streaming::SpaceMeter`]).
//! * [`coordinator::CoordMeter`] — per-round and per-direction bit
//!   metering between `k` sites and a coordinator (the model of
//!   Section 3.3).
//! * [`mpc::MpcMeter`] — per-machine per-round load metering over `k`
//!   machines (the model of Section 3.4).
//!
//! The coordinator and MPC meters hold no data: the partitions they
//! account for are held by the algorithms' per-site state, and the
//! algorithms decide what each message costs (a constraint is
//! `bit(S)` bits, 64 per coefficient; a scaled weight is 128 bits).

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod mpc;
pub mod streaming;
