//! Which threads a default daemon runs: exactly one per event-loop shard
//! and one per engine worker — batching happens inline on the shards, so
//! there is no batcher thread — and none of them outlives a drain.
//!
//! Reads `/proc/self/task/*/comm` (the crate builds for Linux only), and it
//! lives in its own test binary so that no other daemon shares the process.

use preflight_serve::ServerBuilder;
use std::time::{Duration, Instant};

/// The names of every thread in this process. The kernel cuts each to 15
/// bytes, so `preflightd-loop-0` reads `preflightd-loop`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list own threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

fn count(names: &[String], prefix: &str) -> usize {
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

#[test]
fn default_daemon_runs_loops_and_engine_workers_only() {
    let config = ServerBuilder::new().bind("127.0.0.1:0").into_config();
    let (shards, workers) = (config.effective_shards(), config.engine_workers);
    let handle = ServerBuilder::from(config).serve().expect("daemon start");

    // `serve` has spawned every daemon thread, but each names itself only
    // once it runs; until then it carries this thread's name.
    let own = std::fs::read_to_string("/proc/thread-self/comm").expect("own name");
    let own = own.trim_end();
    let deadline = Instant::now() + Duration::from_secs(5);
    let names = loop {
        let names = thread_names();
        if names.iter().filter(|n| *n == own).count() == 1 || Instant::now() > deadline {
            break names;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(count(&names, "preflightd-batc"), 0, "threads: {names:?}");
    assert_eq!(
        count(&names, "preflightd-loop"),
        shards,
        "threads: {names:?}"
    );
    assert_eq!(
        count(&names, "preflightd-engi"),
        workers,
        "threads: {names:?}"
    );
    assert_eq!(
        count(&names, "preflightd-"),
        shards + workers,
        "threads: {names:?}"
    );

    handle.drain();
    let names = thread_names();
    assert_eq!(
        count(&names, "preflightd-"),
        0,
        "drain must join every daemon thread: {names:?}"
    );
}
