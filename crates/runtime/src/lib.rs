//! The Céu synchronous runtime: a virtual machine over the track/gate IR.
//!
//! Mirrors the reference implementation's C runtime (§4.5): a rank-ordered
//! track queue, gate vectors, a timer set with residual-delta semantics,
//! stack-policy internal events, and round-robin async execution — exposed
//! through the paper's four-function API on [`Machine`].

pub mod error;
pub mod host;
pub mod machine;
pub mod native;
mod queue;
pub mod telemetry;
pub mod trace;
pub mod value;

pub use error::{panic_message, Result, RuntimeError};
pub use host::{Host, HostResult, NullHost, RecordingHost};
pub use machine::{Machine, Status, REACTION_BUDGET};
pub use native::{NativeCtx, NativeProgram, Step};
pub use telemetry::{
    render_hot_statements, BlockProfile, ChromeTraceSink, FlightRecord, FlightRecorder, Histogram,
    JsonLinesSink, Metrics, ReactionSpan, SpanCollector, TextSink, TraceFormat, TraceSink,
    WindowMark,
};
pub use trace::{Cause, CrashKind, ReactionId, TraceEvent, TraceMask};
pub use value::{Ptr, Value};
