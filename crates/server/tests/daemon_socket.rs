//! End-to-end daemon tests over the Unix-socket transport: the real
//! `.csl` corpus, the real `commcsl-front` compiler, cold/warm/restart
//! cache behaviour, and clean shutdown.

#![cfg(unix)]

use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use commcsl_server::client::{connect_or_start, Client};
use commcsl_server::daemon::{Server, ServerConfig};
use commcsl_server::protocol::VerifyItem;
use commcsl_verifier::cache::CacheConfig;
use commcsl_verifier::report::VerifierConfig;
use commcsl_verifier::verify;

/// Drops → `request_shutdown()`: keeps a panicking assertion inside a
/// `thread::scope` from hanging the test forever (scope joins the
/// `serve_unix` thread, which otherwise only exits on a shutdown
/// request the panicked path never sent).
struct StopOnDrop<'a>(&'a Server);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn corpus_dir() -> PathBuf {
    // Tests run with CWD = crates/server.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs")
}

fn corpus_items() -> Vec<VerifyItem> {
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("examples/programs exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "csl"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 18, "the Table 1 corpus has 18 programs");
    entries
        .into_iter()
        .map(|path| VerifyItem {
            name: path.display().to_string(),
            source: fs::read_to_string(&path).expect("readable fixture"),
        })
        .collect()
}

fn front_server(cache: CacheConfig) -> Server {
    Server::new(
        ServerConfig {
            threads: 0,
            cache,
            verifier: VerifierConfig::default(),
            ..Default::default()
        },
        Box::new(|src| commcsl_front::compile(src).map_err(|e| e.to_string())),
    )
}

fn temp_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commcsl-daemon-test-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn socket_daemon_serves_corpus_twice_then_shuts_down() {
    let base = temp_base("socket");
    let socket = base.join("commcsl.sock");
    let cache_dir = base.join("cache");
    let server = front_server(CacheConfig::persistent(&cache_dir));

    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        let daemon = scope.spawn(|| server.serve_unix(&socket));

        let mut client = connect_or_start(&socket, Duration::from_secs(5), || Ok(()))
            .expect("daemon comes up");
        let items = corpus_items();

        // Cold pass: all compile, all verify, nothing cached.
        let cold = client.verify_batch(items.clone()).expect("cold batch");
        assert_eq!(cold.len(), 18);
        for outcome in &cold {
            let ok = outcome.as_ref().expect("fixture compiles");
            assert!(ok.report.verified(), "{}", ok.report);
            assert!(!ok.cached);
        }

        // Warm pass: everything served from cache, byte-identically.
        let warm = client.verify_batch(items).expect("warm batch");
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert!(w.cached);
            assert_eq!(c.key, w.key);
            assert_eq!(c.report.to_json(), w.report.to_json());
        }

        let status = client.status().expect("status");
        assert_eq!(status.programs, 36);
        assert_eq!(status.misses, 18);
        assert!(
            status.hit_rate() >= 0.5 - 1e-9,
            "second pass must be fully cached: {status:?}"
        );
        assert_eq!(status.memory_hits, 18);

        // A second concurrent session shares the same cache.
        let mut second = Client::connect(&socket).expect("second session");
        let one = corpus_items().remove(0);
        let outcome = second.verify(one.name, one.source).expect("verify");
        assert!(outcome.expect("compiles").cached);

        client.shutdown().expect("shutdown acknowledged");
        daemon.join().expect("no panic").expect("clean exit");
    });
    assert!(!socket.exists(), "socket file removed on shutdown");

    // Restart: a fresh daemon on the same cache dir serves the corpus
    // from the on-disk tier — still byte-identical to direct verification.
    let server = front_server(CacheConfig::persistent(&cache_dir));
    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        let daemon = scope.spawn(|| server.serve_unix(&socket));
        let mut client = connect_or_start(&socket, Duration::from_secs(5), || Ok(()))
            .expect("restarted daemon comes up");
        let items = corpus_items();
        let restart = client.verify_batch(items.clone()).expect("restart batch");
        for (item, outcome) in items.iter().zip(&restart) {
            let ok = outcome.as_ref().unwrap();
            assert!(ok.cached, "disk tier must survive the restart");
            let program = commcsl_front::compile(&item.source).unwrap();
            let direct = verify(&program, &VerifierConfig::default());
            assert_eq!(
                ok.report.to_json(),
                direct.to_json(),
                "cached verdict must be byte-identical to a fresh one"
            );
        }
        let status = client.status().expect("status");
        assert_eq!(status.disk_hits, 18);
        assert_eq!(status.misses, 0);
        client.shutdown().expect("shutdown");
        daemon.join().unwrap().unwrap();
    });

    fs::remove_dir_all(&base).ok();
}

#[test]
fn connect_or_start_invokes_the_launcher_when_socket_is_dead() {
    let base = temp_base("autostart");
    let socket = base.join("commcsl.sock");
    let server = front_server(CacheConfig::memory_only(16));

    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        // No daemon yet: the launcher is responsible for starting one.
        let mut client = connect_or_start(&socket, Duration::from_secs(5), || {
            scope.spawn(|| server.serve_unix(&socket));
            Ok(())
        })
        .expect("launcher brings the daemon up");
        let outcome = client
            .verify("inline", "program p;\ninput a: Int low;\noutput a;\n")
            .expect("verify");
        assert!(outcome.expect("compiles").report.verified());

        // A parse error comes back as a protocol-level Err slot, not a
        // transport failure.
        let bad = client
            .verify("bad", "program p;\noutput undeclared_resource_use(;\n")
            .expect("transport fine");
        assert!(bad.is_err());

        client.shutdown().expect("shutdown");
    });
    fs::remove_dir_all(&base).ok();
}

#[test]
fn stale_socket_left_by_a_crashed_daemon_is_replaced() {
    use std::os::unix::net::UnixListener;

    let base = temp_base("stale");
    let socket = base.join("commcsl.sock");

    // Simulate a crashed daemon: bind a socket, then drop the listener
    // without unlinking — exactly what a SIGKILL leaves behind. The file
    // exists but nothing accepts on it.
    {
        let listener = UnixListener::bind(&socket).expect("first bind");
        drop(listener);
    }
    assert!(socket.exists(), "the stale socket file is left behind");

    // A new daemon must claim the path instead of failing with AddrInUse.
    let server = front_server(CacheConfig::memory_only(16));
    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        let daemon = scope.spawn(|| server.serve_unix(&socket));
        let mut client = connect_or_start(&socket, Duration::from_secs(5), || Ok(()))
            .expect("daemon binds over the stale socket");
        let outcome = client
            .verify("inline", "program p;\ninput a: Int low;\noutput a;\n")
            .expect("verify");
        assert!(outcome.expect("compiles").report.verified());
        client.shutdown().expect("shutdown");
        daemon.join().unwrap().expect("clean exit");
    });
    assert!(!socket.exists(), "socket removed on shutdown");
    fs::remove_dir_all(&base).ok();
}

#[test]
fn concurrent_sessions_edit_different_documents_interleaved() {
    use commcsl_verifier::workspace::{Workspace, WorkspaceConfig};

    let base = temp_base("sessions");
    let socket = base.join("commcsl.sock");
    let server = front_server(CacheConfig::memory_only(256));

    let doc = |name: &str, addend: i64| {
        format!(
            "program {name};\n\
             resource ctr: Int named \"counter-add\" {{\n\
             alpha(v) = v;\n\
             shared action Add(arg: Int) = v + arg requires arg1 == arg2;\n\
             }}\n\
             input a: Int low;\n\
             share ctr = 0;\n\
             par {{ with ctr performing Add(a); }} || {{ with ctr performing Add({addend}); }}\n\
             unshare ctr into total;\n\
             output total;\n"
        )
    };

    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        let daemon = scope.spawn(|| server.serve_unix(&socket));
        let mut alice = connect_or_start(&socket, Duration::from_secs(5), || Ok(()))
            .expect("daemon up");
        let mut bob = Client::connect(&socket).expect("second session");
        assert_eq!(alice.hello_latest().expect("hello"), 2);
        assert_eq!(bob.hello_latest().expect("hello"), 2);

        // A cold in-process workspace is the ground truth for every
        // revision either client sees.
        let mut truth = Workspace::new(WorkspaceConfig::default());
        let mut pin = |outcome: commcsl_server::protocol::DocOk, source: &str| {
            let program = commcsl_front::compile(source).unwrap();
            let direct = verify(&program, truth.config());
            assert_eq!(
                outcome.report.to_json(),
                direct.to_json(),
                "daemon verdict diverges from cold verification"
            );
            let _ = truth.open_document("truth", &program);
        };

        // Interleave: the two sessions edit *different* documents against
        // the shared server cache.
        let a1 = alice.open("a.csl", doc("alice", 1)).unwrap().unwrap();
        let b1 = bob.open("b.csl", doc("bob", 2)).unwrap().unwrap();
        pin(a1, &doc("alice", 1));
        pin(b1, &doc("bob", 2));
        let a2 = alice.update("a.csl", doc("alice", 3)).unwrap().unwrap();
        let b2 = bob.update("b.csl", doc("bob", 4)).unwrap().unwrap();
        assert_eq!(a2.revision, 2);
        assert_eq!(b2.revision, 2);
        // The single-statement edits replay the untouched obligations.
        assert!(a2.reused > 0, "{a2:?}");
        assert!(b2.reused > 0, "{b2:?}");
        pin(a2, &doc("alice", 3));
        pin(b2, &doc("bob", 4));

        // Documents are session-scoped: bob cannot update alice's.
        assert!(bob
            .update("a.csl", doc("alice", 5))
            .unwrap()
            .unwrap_err()
            .contains("unknown document"));

        // ... but the cache is shared: bob opening alice's *content*
        // under his own id reuses every obligation (program tier or
        // obligation tier, depending on name).
        let shared = bob.open("mine.csl", doc("alice", 3)).unwrap().unwrap();
        assert!(shared.cached, "identical content hits the program tier");
        pin(shared, &doc("alice", 3));

        let status = alice.status().expect("status");
        assert_eq!(status.protocol_version, 2);
        assert_eq!(status.documents, 3);
        assert!(status.obligation_hits > 0, "{status:?}");

        alice.shutdown().expect("shutdown");
        daemon.join().unwrap().expect("clean exit");
    });
    fs::remove_dir_all(&base).ok();
}

#[test]
fn second_daemon_on_a_live_socket_is_refused() {
    let base = temp_base("exclusive");
    let socket = base.join("commcsl.sock");
    let server = front_server(CacheConfig::memory_only(16));

    thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        scope.spawn(|| server.serve_unix(&socket));
        let mut client = connect_or_start(&socket, Duration::from_secs(5), || Ok(()))
            .expect("daemon up");

        let rival = front_server(CacheConfig::memory_only(16));
        let err = rival.serve_unix(&socket).expect_err("socket is owned");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

        client.shutdown().expect("shutdown");
    });
    fs::remove_dir_all(&base).ok();
}
