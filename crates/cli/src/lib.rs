//! # pbppm-cli — the command-line toolkit
//!
//! Library half of the `pbppm` binary: argument parsing ([`args`]) and the
//! command implementations ([`commands`], [`serve`]). Models are written
//! and read with the core snapshot codec (`pbppm_core::snapshot`). The
//! binary in `main.rs` is a thin dispatcher, which keeps every command
//! testable as a plain function.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod serve;
