//! A crate root that forbids unsafe code.

#![forbid(unsafe_code)]

pub mod model;
