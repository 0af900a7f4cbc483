//! Server-side document store and database gateway.
//!
//! The paper's prototype architecture (Figure 1) places a *database
//! gateway* between the web server and a database holding documents and
//! their structural characteristics; the *document transmitter* serves
//! prepared transmissions from it. This crate is that back end:
//!
//! * [`codec`] — a compact, dependency-free binary serialization for
//!   documents and logical indexes (length-prefixed, versioned), so the
//!   store can persist without a JSON/XML round trip;
//! * [`store`] — a concurrent in-memory [`store::DocumentStore`] keyed
//!   by URL, caching logical indexes and per-query structural
//!   characteristics with LRU eviction and hit/miss statistics ("the
//!   QIC of each organizational unit is determined every time the
//!   search engine receives a query … the computational overhead is
//!   quite low" — §3.3, and lower still when cached);
//! * [`disk`] — directory-backed persistence with atomic replace;
//! * [`gateway`] — [`gateway::Gateway`]: store + pipeline glue that
//!   prepares a ready-to-send [`mrtweb_transport::live::LiveServer`]
//!   for a `(url, query, LOD, γ)` request;
//! * [`air`] — lifts a dispersed blob into an on-air
//!   [`mrtweb_transport::broadcast::BroadcastDoc`] with zero decode or
//!   re-encode (the blob's records *are* the carousel's frames);
//! * [`edge`] — the base station's bounded, disk-backed cache of
//!   cooked blobs: a hit shares the transmission framed at admission,
//!   with zero codec work and no copy;
//! * [`evict`] — the cache's IC-aware eviction planner (trim low-IC
//!   parity first, pin hot clear-text prefixes, segmented LRU);
//! * [`migrate`] — the CRC-framed cell-to-cell migration record that
//!   lets a document roam with its user.

#![forbid(unsafe_code)]

pub mod air;
pub mod codec;
pub mod disk;
pub mod edge;
pub mod evict;
pub mod gateway;
pub mod migrate;
pub mod store;
