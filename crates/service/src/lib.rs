//! # dmpb-service — the long-running campaign service
//!
//! The campaign engine (PR 5) made sweeps declarative and cached; this
//! crate keeps the cache *warm across invocations* by putting one
//! [`CampaignRunner`](dmpb_scenario::CampaignRunner) — and therefore one
//! shared [`ResultStore`](dmpb_scenario::ResultStore) and one tuning
//! cache — behind a small HTTP/1.1 daemon.  Each campaign runs at most
//! `--workers` cells at once, on threads that end with the campaign:
//!
//! * `POST /campaigns` — submit a scenario-DSL file; answers `202` with
//!   a campaign id, `400` on parse errors, `429` when the fixed-depth
//!   admission queue is full, `503` while shutting down.
//! * `GET /campaigns/<id>` — `202` with JSON status while queued or
//!   running; `200` streaming the JSONL cell report (with
//!   `x-dmpb-cells`, `x-dmpb-store-served`, `x-dmpb-digest` and
//!   `x-dmpb-wall-ms` headers) once done; `500` with the error when the
//!   campaign failed.
//! * `GET /campaigns` — JSONL status of every submission, in order.
//! * `GET /healthz` — liveness probe.
//! * `GET /metrics` — Prometheus-style text: store hit/miss counters and
//!   hit ratio, admission-queue depth, campaign lifecycle counters,
//!   cell width and utilization, and a per-cell latency histogram
//!   recorded through [`dmpb_metrics::LatencyHistogram`].
//!
//! Everything is hand-rolled over std TCP ([`http`]) — no external web
//! framework — with every input bounded, so the daemon degrades rather
//! than dies: full queues answer `429`, store persistence failures fall
//! back to in-memory operation, and panicking cells fail their campaign
//! without taking the service down.
//!
//! Two binaries ship with the crate: `campaignd` (the daemon) and
//! `campaignctl` (submit / wait / metrics / smoke client).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
mod prometheus;
mod service;

pub use service::{serve, CampaignStatus, ServiceConfig, ServiceHandle};
