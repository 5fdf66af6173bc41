//! Integration tests for the persistent verification service: the
//! content-addressed verdict cache must return **byte-identical**
//! verdicts for every fixture and every rejected variant — warm from
//! memory, and across a daemon restart through the on-disk tier — and
//! the daemon must serve the `.csl` corpus from cache on a second pass.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use commcsl::fixtures;
use commcsl::server::client::{connect_or_start, Client};
use commcsl::server::daemon::{Server, ServerConfig};
use commcsl::server::protocol::VerifyItem;
use commcsl::verifier::cache::CacheConfig;
use commcsl::verifier::report::VerifierConfig;
use commcsl::verifier::{program_hash, verify, AnnotatedProgram, Verifier};

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "commcsl-root-server-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The full corpus: all 18 Table 1 programs plus the rejected variants.
fn corpus() -> Vec<AnnotatedProgram> {
    fixtures::all()
        .into_iter()
        .map(|f| f.program)
        .chain(fixtures::rejected().into_iter().map(|(_, p)| p))
        .collect()
}

#[test]
fn cached_verdicts_are_byte_identical_across_tiers_and_restarts() {
    let cache_dir = temp_dir("tiers");
    let config = VerifierConfig::default();
    let programs = corpus();
    let refs: Vec<&AnnotatedProgram> = programs.iter().collect();

    // Ground truth: direct, uncached verification.
    let direct: Vec<String> = programs
        .iter()
        .map(|p| verify(p, &config).to_json())
        .collect();

    // Cold + warm within one verifier (memory tier).
    let cached = Verifier::new().with_cache(CacheConfig::persistent(&cache_dir));
    let cold = cached.verify_batch(&refs);
    let warm = cached.verify_batch(&refs);
    for ((c, w), d) in cold.iter().zip(&warm).zip(&direct) {
        assert!(c.cached == Some(false) && w.cached == Some(true));
        assert_eq!(c.report.to_json(), *d);
        assert_eq!(w.report.to_json(), *d, "memory tier altered a verdict");
    }

    // "Daemon restart": a fresh verifier over the same directory — every
    // verdict must come from disk, still byte-identical.
    let restarted = Verifier::new().with_cache(CacheConfig::persistent(&cache_dir));
    let after = restarted.verify_batch(&refs);
    for ((r, d), p) in after.iter().zip(&direct).zip(&programs) {
        assert_eq!(
            r.cached,
            Some(true),
            "disk tier must survive a restart for {}",
            p.name
        );
        assert_eq!(r.report.to_json(), *d, "disk tier altered a verdict for {}", p.name);
        assert_eq!(r.key, Some(program_hash(p, &config)));
    }
    let stats = restarted.cache_stats().expect("a cache is configured");
    assert_eq!(stats.disk_hits as usize, programs.len());
    assert_eq!(stats.misses, 0);

    fs::remove_dir_all(&cache_dir).ok();
}

#[cfg(unix)]
#[test]
fn daemon_serves_the_csl_corpus_from_cache_on_the_second_pass() {
    let base = temp_dir("daemon");
    fs::create_dir_all(&base).unwrap();
    let socket = base.join("commcsl.sock");

    let items: Vec<VerifyItem> = {
        let mut paths: Vec<PathBuf> = fs::read_dir("examples/programs")
            .expect("run from the workspace root")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "csl"))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| VerifyItem {
                name: p.display().to_string(),
                source: fs::read_to_string(&p).unwrap(),
            })
            .collect()
    };
    assert_eq!(items.len(), 18);

    let server = Server::new(
        ServerConfig {
            threads: 0,
            cache: CacheConfig::persistent(base.join("cache")),
            verifier: VerifierConfig::default(),
            ..Default::default()
        },
        Box::new(|src| commcsl::front::compile(src).map_err(|e| e.to_string())),
    );
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&server);
        let daemon = scope.spawn(|| server.serve_unix(&socket));
        let mut client =
            connect_or_start(&socket, Duration::from_secs(5), || Ok(())).unwrap();

        let cold = client.verify_batch(items.clone()).unwrap();
        let warm = client.verify_batch(items.clone()).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert!(c.report.verified());
            assert!(w.cached);
            assert_eq!(c.report.to_json(), w.report.to_json());
        }
        let status = client.status().unwrap();
        assert_eq!(status.misses, 18);
        assert_eq!(status.memory_hits, 18);

        // A second session sees the same cache.
        let mut other = Client::connect(&socket).unwrap();
        let again = other.verify_batch(items.clone()).unwrap();
        assert!(again.iter().all(|o| o.as_ref().unwrap().cached));

        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    });
    assert!(!socket.exists());
    fs::remove_dir_all(&base).ok();
}
