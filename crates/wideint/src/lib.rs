//! The numeric layer of the SDLC reproduction: 256-bit products, bit-plane
//! layouts, deterministic random streams and work splitting.
//!
//! The study synthesizes multipliers up to 128×128 bits, whose products
//! are 256 bits wide — beyond every primitive integer type. [`U256`] holds
//! any such product exactly and [`I256`] is its two's-complement signed
//! view. Both carry only what the models and the error, simulation and
//! synthesis flows use: construction from and conversion to primitives,
//! correctly rounded [`U256::to_f64`], wrapping add and multiply, the
//! absolute difference (the error distance), shifts, `&`/`|`, ordering and
//! decimal `Display`.
//!
//! The other modules serve the 64-lane engines: [`bitplane`] converts
//! between lane and bit-plane layouts, [`parallel`] splits sweeps across
//! scoped threads deterministically, and [`SplitMix64`] generates the
//! reproducible operand streams.
//!
//! # Examples
//!
//! ```
//! use sdlc_wideint::U256;
//!
//! let a = U256::from_u128((1u128 << 127) - 1);
//! let b = U256::from_u64(3);
//! let p = a.wrapping_mul(&b);
//! assert_eq!(p >> 127, U256::from_u64(2));
//! assert_eq!(p.to_string(), "510423550381407695195061911147652317181");
//! ```
//!
//! # Design notes
//!
//! * `U256` is four `u64` limbs and `Copy`; no operation allocates except
//!   `Display`, which keeps exhaustive error sweeps allocation-free.
//! * The `+`/`-` operators panic on overflow in debug builds and wrap in
//!   release builds, exactly like primitives; `wrapping_add` and
//!   `wrapping_mul` always wrap modulo 2^256.

pub mod bitplane;
mod convert;
mod fmt;
mod limbs;
mod ops;
pub mod parallel;
mod rng;
mod signed;

pub use limbs::U256;
pub use rng::SplitMix64;
pub use signed::I256;
