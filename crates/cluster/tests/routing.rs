//! Consistent-hash routing tests: warm-shard affinity, shard-death
//! failover with unchanged verdicts, pool-vs-single byte-identity over
//! TCP and line for line over one in-memory session, the remote
//! obligation-cache tier end-to-end, and a proptest pinning the ring's
//! balance.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use commcsl_cluster::remote::RemoteCacheClient;
use commcsl_cluster::ring::HashRing;
use commcsl_cluster::router::ShardPool;
use commcsl_server::client::Client;
use commcsl_server::daemon::{Server, ServerConfig};
use commcsl_server::json::Json;
use commcsl_server::protocol::{Request, VerifyItem, MAX_MESSAGE_BYTES};
use commcsl_server::wire::{self, Connection, Endpoint};
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::report::VerifierConfig;

use proptest::prelude::*;

fn front_server(cache: CacheConfig) -> Arc<Server> {
    Arc::new(Server::new(
        ServerConfig {
            threads: 2,
            cache,
            verifier: VerifierConfig::default(),
            ..Default::default()
        },
        Box::new(|src| commcsl_front::compile(src).map_err(|e| e.to_string())),
    ))
}

fn pool(shards: usize) -> ShardPool {
    ShardPool::new(
        (0..shards)
            .map(|_| front_server(CacheConfig::memory_only(64)))
            .collect(),
    )
}

/// The bundled `.csl` corpus, sorted for determinism.
fn corpus_items() -> Vec<VerifyItem> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs");
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "csl"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| VerifyItem {
            name: path.display().to_string(),
            source: std::fs::read_to_string(&path).expect("readable fixture"),
        })
        .collect()
}

/// Serves one request line in-process on `connection` and returns the
/// final response.
fn request<E: Endpoint>(connection: &mut Connection<'_, E>, req: &Request) -> Json {
    let mut last: Option<Json> = None;
    connection
        .serve_line(Ok(&req.encode()), &mut |json| {
            last = Some(json);
            Ok(())
        })
        .expect("in-memory emit cannot fail");
    last.expect("request produced a response")
}

/// Drops → pool shutdown, so a panicking assertion can't hang the
/// accept-loop join.
struct StopOnDrop<'a>(&'a ShardPool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

#[test]
fn same_program_always_lands_on_the_same_warm_shard() {
    let pool = pool(3);
    let mut session = Connection::open(&pool);
    let item = corpus_items().remove(0);
    let req = Request::Verify(item);

    for round in 0..4 {
        let response = request(&mut session, &req);
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let cached = response.get("cached").and_then(Json::as_bool);
        assert_eq!(cached, Some(round > 0), "first round cold, rest warm");
    }

    // The warm-hit counters prove affinity: one shard saw all four
    // requests (1 miss + 3 memory hits), the others saw nothing.
    let status = pool.status();
    assert_eq!(status.shards, 3);
    assert_eq!(status.per_shard.len(), 3);
    let busy: Vec<_> = status
        .per_shard
        .iter()
        .zip(pool.shards())
        .filter(|(_, shard)| shard.status().programs > 0)
        .collect();
    assert_eq!(busy.len(), 1, "exactly one shard owns the program");
    let owner = busy[0].1.status();
    assert_eq!(owner.programs, 4);
    assert_eq!(owner.misses, 1);
    assert_eq!(owner.memory_hits, 3);
    assert_eq!(status.memory_hits, 3, "aggregate view agrees");
    assert_eq!(status.misses, 1);
}

#[test]
fn shard_death_reroutes_without_verdict_changes() {
    let pool = pool(3);
    let mut session = Connection::open(&pool);
    let items: Vec<VerifyItem> = corpus_items().into_iter().take(6).collect();

    // Cold pass: record each report and its owning shard.
    let mut cold: Vec<(String, String)> = Vec::new();
    for item in &items {
        let response =
            request(&mut session, &Request::Verify(item.clone()));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        cold.push((
            response.get("key").and_then(Json::as_str).unwrap().to_owned(),
            response.get("report").unwrap().to_string(),
        ));
    }
    let owned_before: Vec<u64> =
        pool.shards().iter().map(|s| s.status().programs).collect();
    let victim = owned_before
        .iter()
        .position(|&n| n > 0)
        .expect("some shard verified something");

    pool.kill_shard(victim);
    assert_eq!(pool.status().shards, 2);

    // Every program re-verifies (or re-warms) with byte-identical key
    // and report JSON; the dead shard receives nothing new.
    let mut session = Connection::open(&pool);
    for (item, (key, report)) in items.iter().zip(&cold) {
        let response =
            request(&mut session, &Request::Verify(item.clone()));
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(response.get("key").and_then(Json::as_str), Some(key.as_str()));
        assert_eq!(&response.get("report").unwrap().to_string(), report);
    }
    assert_eq!(
        pool.shards()[victim].status().programs,
        owned_before[victim],
        "dead shards receive no routed work"
    );
}

#[test]
fn pool_over_tcp_is_byte_identical_to_a_single_daemon() {
    let single = front_server(CacheConfig::memory_only(64));
    let pool = pool(3);
    let single_listener = Server::bind_tcp("127.0.0.1:0").unwrap();
    let pool_listener = Server::bind_tcp("127.0.0.1:0").unwrap();
    let single_addr = single_listener.local_addr().unwrap().to_string();
    let pool_addr = pool_listener.local_addr().unwrap().to_string();

    thread::scope(|scope| {
        let _stop_pool = StopOnDrop(&pool);
        let single_ref = &single;
        scope.spawn(move || single_ref.serve_tcp(&single_listener));
        scope.spawn(|| pool.serve_tcp(&pool_listener));

        let mut a = Client::connect_tcp_retry(&single_addr, Duration::from_secs(5))
            .expect("single daemon comes up");
        let mut b = Client::connect_tcp_retry(&pool_addr, Duration::from_secs(5))
            .expect("pool comes up");
        let items: Vec<VerifyItem> =
            corpus_items().into_iter().take(6).collect();

        for pass in 0..2 {
            let from_single =
                a.verify_batch(items.clone()).expect("single batch");
            let from_pool = b.verify_batch(items.clone()).expect("pool batch");
            for (s, p) in from_single.iter().zip(&from_pool) {
                let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
                assert_eq!(s.key, p.key, "pass {pass}");
                assert_eq!(
                    s.report.to_json(),
                    p.report.to_json(),
                    "report JSON must be byte-identical (pass {pass})"
                );
            }
        }

        // The pool's status reports its endpoint and shard table.
        let status = b.status().expect("pool status");
        assert_eq!(status.transport, "tcp");
        assert_eq!(status.addr, pool_addr);
        assert_eq!(status.shards, 3);
        assert_eq!(status.per_shard.len(), 3);

        single.request_shutdown();
    });
}

/// Runs `script` through one in-memory session of `endpoint` and returns
/// the response lines with every `time_ms` value masked.
fn transcript<E: Endpoint>(endpoint: &E, script: &str) -> Vec<String> {
    fn mask(json: &mut Json) {
        match json {
            Json::Obj(fields) => {
                for (name, value) in fields {
                    if name == "time_ms" {
                        *value = Json::Num(0.0);
                    } else {
                        mask(value);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(mask),
            _ => {}
        }
    }
    let mut output = Vec::new();
    wire::serve_stream(endpoint, script.as_bytes(), &mut output).expect("in-memory session");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| {
            let mut json = Json::parse(line).expect("responses are JSON");
            mask(&mut json);
            json.to_string()
        })
        .collect()
}

#[test]
fn pool_and_single_daemon_answer_a_session_line_for_line() {
    // Every op gets its own program: shards share no cache, so two ops
    // on one program (or on programs sharing a resource spec or an
    // obligation, such as the two-worker rows' loop bounds) could read
    // `cached`/`reused` differently once they land on different shards.
    let source = |file: &str| {
        let item = corpus_items()
            .into_iter()
            .find(|item| item.name.ends_with(file))
            .expect("corpus file");
        Json::str(item.source).to_string()
    };
    let script = [
        r#"{"op":"hello","protocol":1}"#.to_owned(),
        // Refused on a v1 session, then a v1 op served.
        r#"{"op":"metrics"}"#.to_owned(),
        format!(
            r#"{{"op":"verify","name":"12.csl","source":{}}}"#,
            source("12_sales_by_region.csl")
        ),
        // Three decode errors: not JSON, an unknown op, one byte over
        // the line cap.
        "this is not json".to_owned(),
        r#"{"op":"no-such-op"}"#.to_owned(),
        "x".repeat(MAX_MESSAGE_BYTES + 1),
        r#"{"op":"hello","protocol":2}"#.to_owned(),
        r#"{"op":"subscribe","events":true}"#.to_owned(),
        format!(
            r#"{{"op":"open","doc":"a.csl","source":{}}}"#,
            source("02_figure2_target_size.csl")
        ),
        format!(
            r#"{{"op":"update","doc":"a.csl","source":{}}}"#,
            source("03_count_sick_days.csl")
        ),
        format!(
            r#"{{"op":"update","doc":"missing.csl","source":{}}}"#,
            source("08_debt_sum.csl")
        ),
        format!(
            r#"{{"op":"lint","name":"05.csl","source":{}}}"#,
            source("05_mean_salary.csl")
        ),
        r#"{"op":"close","doc":"a.csl"}"#.to_owned(),
        r#"{"op":"cache_get","tier":"obligation","key":"000102030405060708090a0b0c0d0e0f"}"#
            .to_owned(),
    ]
    .join("\n")
        + "\n";

    let single = transcript(front_server(CacheConfig::memory_only(64)).as_ref(), &script);
    let pooled = transcript(&pool(2), &script);
    assert_eq!(single, pooled, "a pool must answer like one daemon");

    // The script covers the front end's refusals, decode errors and
    // request ids, and streamed events.
    let text = single.join("\n");
    assert!(single[1].contains("requires protocol v2"), "{}", single[1]);
    assert!(single[2].contains(r#""verified":true"#), "{}", single[2]);
    for (line, error) in single[3..6]
        .iter()
        .zip(["bad request", "unknown op", "longer than"])
    {
        assert!(line.starts_with(r#"{"ok":false"#) && line.contains(error), "{line}");
    }
    assert!(text.contains(r#""event":"obligation_done""#), "{text}");
    assert!(text.contains(r#""event":"lint""#), "{text}");
    assert!(text.contains("unknown document"), "{text}");
    assert!(single.last().unwrap().contains(r#""hit":false"#), "{text}");
    for (i, line) in single.iter().filter(|l| l.contains(r#""ok":"#)).enumerate() {
        assert!(
            line.ends_with(&format!(r#","request_id":"r{}"}}"#, i + 1)),
            "daemon-assigned ids count requests: {line}"
        );
    }
}

#[test]
fn remote_cache_tier_shares_obligations_across_daemons() {
    // Daemon A: serves the corpus cold over TCP, filling its
    // obligation store.
    let a = front_server(CacheConfig::memory_only(256));
    let listener = Server::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    thread::scope(|scope| {
        let a_ref = &a;
        scope.spawn(move || a_ref.serve_tcp(&listener));
        let mut warm =
            Client::connect_tcp_retry(&addr, Duration::from_secs(5))
                .expect("daemon A comes up");
        let items: Vec<VerifyItem> =
            corpus_items().into_iter().take(6).collect();
        let from_a = warm.verify_batch(items.clone()).expect("A verifies");
        assert!(a.status().obligation_misses > 0, "A filled its store");

        // Daemon B: fresh caches, A chained as its remote tier. Its
        // verification consults A for every obligation it misses
        // locally — remote hits replace solver work, verdicts stay
        // byte-identical.
        let b = front_server(CacheConfig::memory_only(256));
        b.set_remote_cache(Box::new(RemoteCacheClient::new(addr.clone())));
        let response = request(
            &mut Connection::open(b.as_ref()),
            &Request::VerifyBatch {
                items: items.clone(),
                fail_fast: false,
            },
        );
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let results = response.get("results").and_then(Json::as_arr).unwrap();
        for (result, outcome) in results.iter().zip(&from_a) {
            let a_ok = outcome.as_ref().unwrap();
            assert_eq!(
                result.get("report").unwrap().to_string(),
                a_ok.report.to_json(),
                "remote-hit path must reproduce A's bytes"
            );
        }
        let status = b.status();
        assert_eq!(status.remote, format!("tcp://{addr}"));
        assert!(
            status.remote_hits > 0,
            "B served obligations from A: {status:?}"
        );
        assert!(
            status.remote_hits
                >= 9 * (status.remote_hits + status.remote_misses) / 10,
            "a fully warm remote yields >=90% remote hits: {status:?}"
        );

        a.request_shutdown();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ring balance: with >=8 shards at the default virtual-node count,
    /// no shard's share of a large key population exceeds 2x uniform.
    #[test]
    fn ring_distribution_stays_within_2x_of_uniform(
        shards in 8usize..13,
        seed in 0u64..1000,
    ) {
        let ring = HashRing::new(shards, 0);
        let keys: u64 = 4096;
        let mut counts = vec![0u64; shards];
        for i in 0..keys {
            // Spread the key population across runs without Date/rand:
            // the seed offsets the key stream.
            let key = u128::from(seed) << 64 | u128::from(i);
            counts[ring.route(key).unwrap()] += 1;
        }
        let uniform = keys as f64 / shards as f64;
        for (shard, &n) in counts.iter().enumerate() {
            prop_assert!(
                (n as f64) <= 2.0 * uniform,
                "shard {shard} owns {n} of {keys} keys (uniform {uniform:.0})"
            );
        }
    }
}
