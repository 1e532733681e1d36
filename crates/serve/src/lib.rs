//! `qcs-serve`: simulation-as-a-service over the batch engine.
//!
//! A multi-tenant job server on [`std::net::TcpListener`] — hand-rolled
//! HTTP/1.1 and JSON, no new dependencies — fronting
//! [`BatchSimulator`](qcs_core::batch::BatchSimulator). Clients submit
//! circuits (JSON gate list or OpenQASM 2) with
//! `(n, strategy, shots, seed, tenant)`, get a job id back, poll it,
//! and fetch results as measurement counts and Pauli expectation
//! values — never raw `2^n` amplitude dumps. A scheduler thread packs
//! compatible submissions from *independent tenants* into one batch —
//! one lowering, one worksharing region, every member's whole program
//! on one worker while its state is cache-resident (the member-major
//! schedule [`perf::predict_batched`](qcs_core::perf::predict_batched)
//! prices) — with per-tenant quotas, a result cache keyed by
//! `(circuit hash, seed, shots)`, and JSONL usage accounting in the
//! unified [`Outcome`](qcs_core::outcome::Outcome) schema.
//!
//! # Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /jobs` | submit; `202` with `{"job_id":N,"status":...}` |
//! | `GET /jobs/<id>` | poll status/batching metadata |
//! | `GET /jobs/<id>/result` | fetch counts + expectations |
//! | `GET /stats` | serving counters, per-tenant usage |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | stop accepting and drain |
//!
//! # Example
//!
//! ```
//! use qcs_serve::{client, Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let addr = server.addr();
//! let id = client::submit_job(
//!     addr,
//!     r#"{"tenant":"docs","n":2,"shots":16,"seed":1,
//!         "circuit":[{"gate":"h","q":[0]},{"gate":"cx","q":[0,1]}]}"#,
//! )
//! .unwrap();
//! assert_eq!(client::wait_for_job(addr, id).unwrap(), "done");
//! let (status, body) = client::http_request(
//!     addr, "GET", &format!("/jobs/{id}/result"), "").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"counts\""));
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod error;
pub mod http;
pub mod job;
pub mod server;

/// The wire format's JSON reader and writer: [`qcs_core::json`], under
/// the path the server's callers have always used.
pub use qcs_core::json;

pub use error::QcsError;
pub use job::JobSpec;
pub use server::{JobState, ServeConfig, Server, ServerStats, TenantUsage};
