//! Hostile-input drills against a live server: every fault must come
//! back as the mapped 4xx/5xx with a one-line `error:` body — no
//! panic, no hang, no thread leak (see `thread_leak.rs` for the
//! dedicated leak assertion in a quiet process).

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_serve::{ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn start_server() -> Server {
    let model = DnnOccu::new(
        DnnOccuConfig {
            hidden: 8,
            ..DnnOccuConfig::fast()
        },
        11,
    );
    let registry = Arc::new(ModelRegistry::from_model(model, "in-memory.json"));
    let cfg = ServeConfig {
        workers: 2,
        max_body_bytes: 64 * 1024,
        ..ServeConfig::default()
    };
    Server::start(cfg, registry).expect("server start")
}

/// Sends raw bytes, returns (status, body). The server must always
/// answer framing faults instead of hanging up silently.
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(payload).expect("write");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let payload = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_exchange(addr, payload.as_bytes())
}

/// The error contract: mapped status, exactly one `error:` line.
fn assert_clean_error(status: u16, body: &str, want_status: u16, needle: &str) {
    assert_eq!(status, want_status, "body: {body}");
    assert!(
        body.starts_with("error: "),
        "body must lead with 'error: ': {body:?}"
    );
    assert_eq!(body.lines().count(), 1, "body must be one line: {body:?}");
    assert!(
        body.contains(needle),
        "body {body:?} does not mention {needle:?}"
    );
    assert!(!body.contains("panicked"), "panic leaked: {body:?}");
}

#[test]
fn oversized_body_is_413() {
    let server = start_server();
    // Declared larger than max_body_bytes; the body is never sent and
    // the server must not wait for it.
    let (status, body) = raw_exchange(
        server.local_addr(),
        b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 10000000\r\n\r\n",
    );
    assert_clean_error(status, &body, 413, "exceeds limit");
    server.shutdown();
}

#[test]
fn malformed_http_is_400() {
    let server = start_server();
    let addr = server.local_addr();
    for garbage in [
        &b"this is not http\r\n\r\n"[..],
        &b"GET /\r\n\r\n"[..],
        &b"POST /predict SMTP/1.0\r\nHost: t\r\n\r\n"[..],
        &b"POST /predict HTTP/1.1\r\nbroken header line\r\n\r\n"[..],
        &b"POST /predict HTTP/1.1\r\nContent-Length: soon\r\n\r\n"[..],
    ] {
        let (status, body) = raw_exchange(addr, garbage);
        assert_clean_error(status, &body, 400, "error: ");
    }
    server.shutdown();
}

#[test]
fn truncated_graph_json_is_400() {
    let server = start_server();
    let (status, body) = post(
        server.local_addr(),
        "/predict",
        r#"{"graph": {"meta": {"model_name": "broken""#,
    );
    assert_clean_error(status, &body, 400, "invalid JSON");
    server.shutdown();
}

#[test]
fn unknown_model_is_404() {
    let server = start_server();
    let (status, body) = post(
        server.local_addr(),
        "/predict",
        r#"{"model": "SkyNet-9000"}"#,
    );
    assert_clean_error(status, &body, 404, "unknown model 'SkyNet-9000'");
    server.shutdown();
}

#[test]
fn unknown_route_and_device_and_fields() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, body) = post(addr, "/no/such/route", "{}");
    assert_clean_error(status, &body, 404, "no such endpoint");

    let (status, body) = post(addr, "/predict", r#"{"model": "LeNet", "device": "tpu"}"#);
    assert_clean_error(status, &body, 400, "unknown device 'tpu'");

    let (status, body) = post(addr, "/predict", r#"{"model": "LeNet", "detached": 1}"#);
    assert_clean_error(status, &body, 400, "unknown field 'detached'");

    let (status, body) = post(addr, "/predict", r#"{"device": "a100"}"#);
    assert_clean_error(status, &body, 400, "'model' name or an inline 'graph'");

    let (status, body) = post(addr, "/predict", "");
    assert_clean_error(status, &body, 400, "empty request body");

    let (status, body) = post(addr, "/predict", r#"{"model": "LeNet", "batch": 0}"#);
    assert_clean_error(status, &body, 422, "batch must be in");

    let stats = server.shutdown();
    assert_eq!(stats.errors, 6);
}
