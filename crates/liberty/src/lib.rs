//! Liberty format subset with LVF and LVF² on-chip-variation attributes.
//!
//! Implements the library-exchange story of the paper's §2.2 and §3.3:
//!
//! - a Liberty **AST** ([`ast`]) covering `library`/`cell`/`pin`/`timing`
//!   groups and lookup tables;
//! - a **writer** ([`writer::write_library`]) emitting standard `.lib` text;
//! - a **tokenizer + recursive-descent parser**
//!   ([`parser::parse_library`]) reading it back;
//! - a **model bridge** ([`model`]) between table stacks and fitted
//!   [`lvf2_stats::Lvf2`] models, including the seven new LVF² attributes
//!   (`ocv_mean_shift1_*`, `ocv_std_dev1_*`, `ocv_skewness1_*`,
//!   `ocv_weight2_*`, `ocv_mean_shift2_*`, `ocv_std_dev2_*`,
//!   `ocv_skewness2_*`) and their §3.3 default-inheritance rules, so an
//!   LVF-only library read through the LVF² path yields exactly the LVF
//!   model (Eq. 10).
//!
//! (The paper's text misspells the first attribute as `ocv_mean_shfit1`;
//! this crate uses the evidently intended spelling and also *accepts* the
//! misspelled form on input.)
//!
//! # Example
//!
//! ```
//! use lvf2_liberty::{parse_library, write_library};
//! use lvf2_liberty::ast::Library;
//!
//! # fn main() -> Result<(), lvf2_liberty::LibertyError> {
//! let lib = Library::new("demo");
//! let text = write_library(&lib);
//! let back = parse_library(&text)?;
//! assert_eq!(back.name, "demo");
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod writer;

pub use ast::{BaseKind, Library, LutTemplate, StatKind, TableKind, TimingTable};
pub use error::LibertyError;
pub use model::{Lvf2Entry, MixtureModelGrid, TimingModelGrid};
pub use parser::parse_library;
pub use writer::{write_cell, write_footer, write_header, write_library};
