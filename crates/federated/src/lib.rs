//! # mp-federated — vertical federated learning substrate
//!
//! The VFL environment the paper presupposes, as a single-process
//! simulation:
//!
//! * [`Party`] — a named participant holding a vertical slice keyed by an
//!   entity-id column, with its known dependencies;
//! * [`psi`] — simulated hash-based private set intersection producing the
//!   canonical row alignment that fixes the tuple index of the paper's
//!   Definitions 2.2/2.3;
//! * [`MultiPartySession`] — the setup protocol: k-way PSI, then metadata
//!   exchange under per-party [`mp_metadata::SharePolicy`] redactions, run
//!   as typed messages over a [`transport::Transport`] with retries and
//!   idempotent receipt;
//! * [`sim`] — the in-memory [`Network`] (fault-free, seeded faults or an
//!   explicit schedule), a deterministic, seed-replayable fault-injection
//!   simulator (drop / duplicate / reorder / delay / party-crash) plus the
//!   invariant harness that checks completed setups are bit-identical to
//!   the fault-free run and that redacted metadata never crosses the wire;
//! * [`check`] — exhaustive small-world model checking of the same
//!   invariants over every bounded fault schedule;
//! * [`model`] — vertically federated logistic regression by score
//!   aggregation (only partial logits and residuals cross the boundary);
//! * [`run_scenario`] — the paper's Figure 1 bank × e-commerce scenario
//!   end to end: utility (federated vs solo accuracy) side by side with
//!   the metadata synthesis attack under the chosen policy.

#![warn(missing_docs)]

mod bloom;
pub mod check;
pub mod horizontal;
pub mod model;
mod multiparty;
pub mod net;
mod party;
mod protocol;
pub mod psi;
mod scenario;
pub mod serve;
pub mod sim;
pub mod transport;

pub use bloom::{
    bloom_candidate_rows, bloom_candidate_rows_windowed, windowed_filters, BloomFilter,
};
pub use check::{
    model_check, small_world_session, CheckConfig, CheckReport, Decision, ViolationRecord,
    MAX_PARTIES,
};
pub use horizontal::{horizontal_split, permutation_baseline, schemas_compatible};
pub use model::{
    auc, holdout_split, labels_from_column, train, FeatureBlock, FederatedModel, PartyModel,
    TrainConfig,
};
pub use multiparty::{multi_align, MultiAlignment, MultiPartySession, MultiSetupOutcome};
pub use net::{
    decode_stream, encode_frame, encode_stream, AbortReason, FrameBuffer, FrameError, FramedStream,
    SessionFrame, SocketStream, MAX_FRAME_BYTES,
};
pub use party::Party;
pub use protocol::{RetryConfig, SetupError};
pub use psi::{align, PsiAlignment};
pub use scenario::{run_scenario, ScenarioOutcome};
pub use serve::{
    outcome_matches, run_client_session, BoundedQueue, ClientConfig, PartyOutcome, ServeConfig,
    ServeReport, Server, SocketListener, SocketTransport,
};
pub use sim::{
    check_invariants, simulate_setup, FaultPlan, InvariantReport, InvariantViolation, Network,
    PartyCrash, PerfectTransport, SimOutcome, TraceSummary, FAULT_PROFILES,
};
pub use transport::{
    Envelope, MsgId, PartyId, Payload, TraceEvent, Transport, TransportMetrics, WireError,
    MAX_ENVELOPE_BYTES, WIRE_VERSION,
};
