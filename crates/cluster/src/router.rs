//! The shard pool: N shared-nothing verifier workers behind one
//! consistent-hash router.
//!
//! Each shard is a full [`Server`] with its own verdict/obligation
//! cache and per-connection [`Workspace`]s — shards share *nothing*, so
//! a pool is exactly N independent daemons plus deterministic routing:
//!
//! * v1 requests (`verify`, `verify_batch`, `lint`) route on the
//!   **program content hash**, so a given program always lands on the
//!   shard whose caches are warm for it;
//! * v2 workspace ops (`open`/`update`/`close`) route on **document
//!   identity**, so a document's incremental state stays on one shard
//!   across revisions;
//! * `cache_get` asks the content-owner shard first and falls back to
//!   scattering across the remaining live shards; `cache_put` admits on
//!   the owner only.
//!
//! The pool is an [`Endpoint`] of the same wire front end as a single
//! [`Server`], so request ids, protocol negotiation, decode errors and
//! the `histograms`/`logs` views (the pool's own traffic) are one
//! implementation; `status`/`metrics` aggregate the shards. Responses
//! are byte-identical to a single-process daemon's — routing must never
//! be observable in the payload, only in the latency.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::sync::{Arc, RwLock};

use commcsl_server::daemon::Server;
use commcsl_server::json::Json;
use commcsl_server::protocol::{error_json, Request, ShardStatus, StatusInfo, VerifyItem};
use commcsl_server::wire::{self, Emit, Endpoint, Wire};
use commcsl_telemetry::MetricsSnapshot;
use commcsl_verifier::hash::StableHasher;
use commcsl_verifier::workspace::Workspace;

use crate::ring::HashRing;

/// The content key a request routes on.
fn route_key(tag: &str, parts: &[&str]) -> u128 {
    let mut h = StableHasher::new();
    h.tag(tag);
    for part in parts {
        h.write_str(part);
    }
    h.finish().0
}

/// A pool of shared-nothing verifier shards behind one endpoint.
pub struct ShardPool {
    shards: Vec<Arc<Server>>,
    ring: RwLock<HashRing>,
    wire: Wire,
}

impl ShardPool {
    /// Builds a pool over pre-constructed shards (each its own
    /// [`Server`] — typically with per-shard cache directories).
    pub fn new(shards: Vec<Arc<Server>>) -> ShardPool {
        let count = shards.len();
        ShardPool {
            shards,
            ring: RwLock::new(HashRing::new(count, 0)),
            wire: Wire::default(),
        }
    }

    /// The shards, for tests and per-shard inspection.
    pub fn shards(&self) -> &[Arc<Server>] {
        &self.shards
    }

    /// Asks the pool's session loops and accept loop to wind down.
    pub fn request_shutdown(&self) {
        self.wire.request_shutdown();
    }

    /// Marks a shard dead: the ring re-routes its key range to the
    /// clockwise successors and the shard itself winds down. Requests
    /// in flight on other shards are unaffected; re-sent programs
    /// re-verify (or re-warm) on their new owner with identical
    /// verdicts — content addressing makes failover invisible.
    pub fn kill_shard(&self, shard: usize) {
        self.ring
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .kill(shard);
        if let Some(s) = self.shards.get(shard) {
            s.request_shutdown();
        }
    }

    /// Routes a content key to its live owner shard.
    fn route(&self, key: u128) -> Option<usize> {
        self.ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .route(key)
    }

    /// The live shards, owner (if any) first — the `cache_get` probe
    /// order.
    fn probe_order(&self, key: u128) -> Vec<usize> {
        let ring = self
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let owner = ring.route(key);
        let mut order: Vec<usize> = owner.into_iter().collect();
        for shard in 0..self.shards.len() {
            if ring.is_alive(shard) && Some(shard) != owner {
                order.push(shard);
            }
        }
        order
    }

    /// The shard a request routes to, by op semantics. `None` for a
    /// request that routes to no single shard (or when every shard is
    /// dead).
    fn route_request(&self, request: &Request) -> Option<usize> {
        let key = match request {
            Request::Verify(VerifyItem { source, .. })
            | Request::Lint(VerifyItem { source, .. }) => {
                route_key("cluster.route.program", &[source])
            }
            // The batch routes as a unit (fail-fast ordering is batch
            // state); its key folds every member so identical batches
            // stay warm.
            Request::VerifyBatch { items, .. } => {
                let sources: Vec<&str> = items.iter().map(|i| i.source.as_str()).collect();
                route_key("cluster.route.batch", &sources)
            }
            Request::Open { doc, .. } | Request::Update { doc, .. } | Request::Close { doc } => {
                route_key("cluster.route.doc", &[doc])
            }
            Request::CachePut { key, .. } => route_key("cluster.route.cache", &[key]),
            _ => return None,
        };
        self.route(key)
    }

    /// `cache_get` probes the content owner first, then the remaining
    /// live shards (shards are shared-nothing; the entry may have been
    /// verified anywhere before this pool existed). First hit wins; the
    /// last miss (or a key error) answers otherwise.
    fn serve_cache_get(
        &self,
        sessions: &mut [Workspace],
        request: &Request,
        key: &str,
        emit: &mut Emit<'_>,
    ) -> io::Result<()> {
        let mut last = error_json("no live shards");
        for shard in self.probe_order(route_key("cluster.route.cache", &[key])) {
            let mut response = None;
            self.shards[shard].serve(&mut sessions[shard], request, false, &mut |json| {
                response = Some(json);
                Ok(())
            })?;
            let response = response.unwrap_or_else(|| error_json("cache_get produced no response"));
            if response.get("hit").and_then(Json::as_bool) == Some(true) {
                return emit(response);
            }
            last = response;
        }
        emit(last)
    }

    /// Serves connections on a bound TCP listener until shutdown
    /// (build one with [`Server::bind_tcp`]).
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        wire::serve_transport(self, listener)
    }
}

impl Endpoint for ShardPool {
    /// One workspace per shard; each document lives on its routed shard
    /// and the other shards' workspaces stay empty.
    type Session = Vec<Workspace>;

    fn wire(&self) -> &Wire {
        &self.wire
    }

    fn open_session(&self) -> Vec<Workspace> {
        self.shards.iter().map(|s| s.open_session()).collect()
    }

    fn release_session(&self, sessions: &Vec<Workspace>) {
        for (shard, session) in self.shards.iter().zip(sessions) {
            shard.release_session(session);
        }
    }

    fn serve(
        &self,
        sessions: &mut Vec<Workspace>,
        request: &Request,
        subscribed: bool,
        emit: &mut Emit<'_>,
    ) -> io::Result<()> {
        if let Request::CacheGet { key, .. } = request {
            return self.serve_cache_get(sessions, request, key, emit);
        }
        match self.route_request(request) {
            Some(shard) => {
                self.shards[shard].serve(&mut sessions[shard], request, subscribed, emit)
            }
            None => emit(error_json("no live shards")),
        }
    }

    /// Aggregated pool statistics: the pool's own request accounting,
    /// shard counters summed, plus the per-shard table.
    fn status(&self) -> StatusInfo {
        let ring = self
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard_statuses: Vec<StatusInfo> = self.shards.iter().map(|s| s.status()).collect();
        let sum = |f: &dyn Fn(&StatusInfo) -> u64| -> u64 { shard_statuses.iter().map(f).sum() };
        let first = shard_statuses.first().cloned().unwrap_or_default();
        StatusInfo {
            threads: first.threads,
            remote: first.remote,
            programs: sum(&|s| s.programs),
            documents: sum(&|s| s.documents),
            memory_hits: sum(&|s| s.memory_hits),
            disk_hits: sum(&|s| s.disk_hits),
            misses: sum(&|s| s.misses),
            evictions: sum(&|s| s.evictions),
            memory_entries: sum(&|s| s.memory_entries),
            obligation_hits: sum(&|s| s.obligation_hits),
            obligation_misses: sum(&|s| s.obligation_misses),
            statically_proven: sum(&|s| s.statically_proven),
            solver_checked: sum(&|s| s.solver_checked),
            shards: ring.alive_count() as u64,
            remote_hits: sum(&|s| s.remote_hits),
            remote_misses: sum(&|s| s.remote_misses),
            remote_stores: sum(&|s| s.remote_stores),
            per_shard: shard_statuses
                .iter()
                .enumerate()
                .map(|(i, s)| ShardStatus {
                    shard: i as u64,
                    alive: ring.is_alive(i),
                    documents: s.documents,
                    programs: s.programs,
                    obligation_hits: s.obligation_hits,
                    obligation_misses: s.obligation_misses,
                })
                .collect(),
            ..self.wire.status()
        }
    }

    /// Pool-wide counters: shard snapshots summed name-wise, with the
    /// pool's own traffic counters taking over the `daemon.*` ones (the
    /// shards' front ends carry no traffic).
    fn metrics(&self) -> MetricsSnapshot {
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shards {
            for (name, value) in &shard.metrics().counters {
                *summed.entry(name.clone()).or_insert(0) += *value;
            }
        }
        let alive = self
            .ring
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .alive_count() as u64;
        for (name, value) in self
            .wire
            .counters()
            .into_iter()
            .chain([("cluster.shards", alive)])
        {
            summed.insert(name.to_owned(), value);
        }
        MetricsSnapshot::from_pairs(summed)
    }
}
