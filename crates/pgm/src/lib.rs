//! Structure learning for Guardrail's sketch synthesis (§4 of the paper).
//!
//! The sketch learner views the dataset through the lens of probabilistic
//! graphical models: it learns the CPDAG of the data's Markov equivalence
//! class and hands it to the synthesizer (`guardrail-synth`). This crate
//! contains:
//!
//! * [`encode`] — tables re-encoded as dense code matrices (nulls get their
//!   own category), the input format every test consumes.
//! * [`oracle`] — conditional-independence oracles: a G²/X²-based
//!   [`oracle::DataOracle`] over encoded data and a d-separation-backed
//!   [`oracle::DagOracle`] used as ground truth in tests.
//! * [`pc`] — the PC-stable algorithm: skeleton discovery with separation
//!   sets, v-structure orientation, Meek closure → CPDAG.
//! * [`aux`] — the auxiliary distribution `P_𝕀` of Def. 4.5, sampled with the
//!   circular-shift trick (§7), which preserves the PGM (Prop. 5) while
//!   collapsing high-cardinality attributes to binary indicators.
//! * [`score`] / [`hillclimb`] — a decomposable BIC scorer and greedy
//!   score-based structure search, the ablation counterpart to PC.
//! * [`learn`] — the end-to-end entry point `learn_cpdag`, parameterized by
//!   sampler and algorithm.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aux;
pub mod encode;
pub mod hillclimb;
pub mod learn;
pub mod oracle;
pub mod pc;
pub mod score;

pub use aux::auxiliary_sample;
pub use encode::EncodedData;
pub use hillclimb::hill_climb_dag;
pub use learn::{learn_cpdag, Algorithm, LearnConfig, LearnOutcome, Sampler};
pub use oracle::{DagOracle, DataOracle, IndependenceOracle, SlowOracle, StatsCacheStats};
pub use pc::{pc_algorithm, PcConfig, PC_STAGE};
pub use score::BicScorer;
