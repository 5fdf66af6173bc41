//! `commcsl-cluster` — the distribution layer over the verification
//! daemon.
//!
//! CommCSL verification is a pure function of content (program, specs,
//! budgets), which is what makes it *distributable*: any shard, any
//! machine, any time produces the same bytes. This crate layers three
//! pieces on the `commcsl-server` seams:
//!
//! * [`ring`] — a deterministic consistent-hash ring with virtual
//!   nodes: content keys map to shards identically in every process,
//!   and a shard's death re-routes only its own key range;
//! * [`router`] — the [`ShardPool`](router::ShardPool): N
//!   shared-nothing [`Server`](commcsl_server::Server) shards behind
//!   one TCP endpoint, requests routed on program hash (v1) or
//!   document identity (v2) so content always lands on its warm shard.
//!   Responses stay byte-identical to a single-process daemon;
//! * [`remote`] — the [`RemoteCacheClient`](remote::RemoteCacheClient):
//!   a `cache_get`/`cache_put` protocol client that slots in as the
//!   third tier of the obligation cache chain (memory → disk →
//!   remote), sccache-style, so many daemons and CI runners share one
//!   warm cache. Entries are self-validating and never-stale: the
//!   local cache re-validates everything it fetches.
//!
//! The transport itself (TCP listeners, the `Transport` trait, framing)
//! lives in `commcsl-server`; this crate only composes it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote;
pub mod ring;
pub mod router;

pub use remote::RemoteCacheClient;
pub use ring::HashRing;
pub use router::ShardPool;
