//! Thread-leak drill, isolated in its own test binary so no parallel
//! test's threads pollute the `/proc/self/task` count: after a full
//! fault barrage and a clean shutdown, the process must have exactly
//! the threads it started with.

#![cfg(target_os = "linux")]

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn faults_and_shutdown_leak_no_threads() {
    let before = thread_count();

    let model = DnnOccu::new(
        DnnOccuConfig {
            hidden: 8,
            ..DnnOccuConfig::fast()
        },
        3,
    );
    let registry = Arc::new(ModelRegistry::from_model(model, "in-memory.json"));
    let server = Server::start(
        ServeConfig {
            workers: 3,
            max_body_bytes: 64 * 1024,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("start");
    let addr = server.local_addr();
    assert!(thread_count() > before, "server must have spawned threads");

    // One of everything that goes wrong, plus a healthy request.
    let faults: &[&[u8]] = &[
        b"garbage\r\n\r\n",
        b"POST /predict HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
        b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"mode|",
        b"POST /predict HTTP/1.1\r\nContent-Length: 22\r\n\r\n{\"model\": \"NoSuchNet\"}",
        b"POST /reload HTTP/1.1\r\nContent-Length: 24\r\n\r\n{\"path\": \"/nope/m.json\"}",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    ];
    for payload in faults {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(payload).expect("write");
        let mut sink = String::new();
        let _ = s.read_to_string(&mut sink);
        assert!(sink.contains("HTTP/1.1 "), "no response to {payload:?}");
    }
    // An abruptly dropped connection (no bytes at all) must not pin a
    // worker either.
    drop(TcpStream::connect(addr).expect("connect"));

    server.shutdown();
    // Give the OS a moment to reap exited threads from /proc.
    let mut after = thread_count();
    for _ in 0..50 {
        if after <= before {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        after = thread_count();
    }
    assert_eq!(
        after, before,
        "thread count changed across server lifetime: {before} -> {after}"
    );
}
