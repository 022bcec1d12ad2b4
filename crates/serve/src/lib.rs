#![forbid(unsafe_code)]
//! # relia-serve
//!
//! A std-only, offline HTTP/1.1 JSON service answering NBTI degradation
//! queries from the paper's temperature-aware model — the long-lived
//! counterpart of the batch engine in `relia-jobs`. [`service::route`]
//! lists the endpoints.
//!
//! ## Design
//!
//! * **No dependencies.** HTTP framing ([`http`]) and JSON
//!   ([`relia_core::json`]) are hand-rolled subsets, hardened with byte caps
//!   on every input dimension and fuzzed with proptest; the whole crate is
//!   `TcpListener` + threads.
//! * **Shared memoization.** `/v1/degrade` and `/v1/sweep` evaluate
//!   through one server-wide sharded ΔV_th cache
//!   ([`relia_jobs::ShardedCache`], the type the sweep engine uses);
//!   `relia sweep` owns a private one. Values are identical either way,
//!   because every cached value is canonical per quantized stress key, so
//!   two requests racing on one cold key compute the same bits and the
//!   second insert changes nothing.
//! * **Backpressure, not backlog.** Connections run on a bounded
//!   [`relia_jobs::TaskPool`]; a full queue sheds load with
//!   `503 + Retry-After` at accept time ([`server`]).
//! * **Deadlines end-to-end.** Socket read timeouts *and* a total
//!   per-message arrival budget map stalled or dribbling peers to `408`;
//!   a per-request [`relia_core::Deadline`] maps overlong evaluation to
//!   `504`, cancelling aging analyses cooperatively.
//! * **Overload control.** Past an in-flight high-water mark, brownout
//!   mode serves cache-hit-only answers (miss → fast `503 + Retry-After`
//!   with bounded jitter); the `Healthy → Degraded → Draining` machine
//!   behind `/healthz` reports it ([`overload`]).
//! * **Chaos-tested.** The [`fault`] module is a seeded socket-level
//!   fault injector (slow dribbles, short writes, mid-body disconnects,
//!   truncation, stalled keep-alives), and the `chaos` example drives a
//!   live server through reproducible fault mixes, asserting the
//!   invariants hold.
//! * **Byte parity.** Responses render floats with the shortest
//!   round-trip convention, so a served value is byte-identical to one
//!   computed by a direct library call — the `loadgen` example asserts
//!   exactly that, response by response.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use relia_serve::{ServeConfig, ServeState, Server};
//!
//! let state = Arc::new(ServeState::new(Duration::from_secs(5)).unwrap());
//! let server = Server::bind(ServeConfig::default(), state).unwrap();
//! println!("relia-serve listening on {}", server.local_addr());
//! server.run().unwrap();
//! ```

pub mod fault;
pub mod http;
pub mod metrics;
pub mod obs;
pub mod overload;
pub mod server;
pub mod service;

pub use fault::{ChaosPlan, ConnFault, FaultStream, Severable};
pub use http::{
    read_request, write_chunk, write_chunked_end, write_chunked_head, write_response, Limits,
    ParseError, Request, Response,
};
pub use metrics::{render_prometheus, ServeMetrics};
pub use obs::{ServeObs, SlowSink, DEFAULT_TRACE_CAPACITY};
pub use overload::{
    HealthMachine, HealthState, HealthTransition, OverloadControl, DEFAULT_BROWNOUT_HIGH_WATER,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use service::{
    degrade_body, handle, parse_degrade, parse_sweep, route, Action, DegradeQuery, FleetJob, Reply,
    ServeState, SurfaceTier, MAX_SWEEP_POINTS,
};
