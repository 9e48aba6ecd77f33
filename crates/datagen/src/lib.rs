//! Seeded synthetic dataset generators (the "§8 datasets" row of
//! ARCHITECTURE.md's paper section → module map).
//!
//! The paper evaluates on LDBC SNB (SF10/SF100), IMDb/JOB, and two KONECT
//! graphs (FLICKR, WIKI). Those datasets are multi-hundred-gigabyte and/or
//! licensed, so this crate generates scale-reduced synthetic equivalents
//! that preserve the structural characteristics the paper's techniques
//! exploit — label/cardinality ratios, property sparsity, degree
//! distributions, and the categorical constants the benchmark queries
//! filter on. All generators are deterministic given their seed.

pub mod movies;
pub mod powerlaw;
pub mod social;
pub mod util;

pub use movies::{generate as generate_movies, MovieParams};
pub use powerlaw::{generate as generate_powerlaw, PowerLawParams};
pub use social::{generate as generate_social, SocialParams};
