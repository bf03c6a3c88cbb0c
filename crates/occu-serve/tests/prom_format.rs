//! Golden-format test: `/metrics` must parse as valid Prometheus
//! text exposition (format 0.0.4). The parser below is hand-rolled
//! and std-only — it validates metric/label names, label-value
//! escaping, sample values (including `NaN`/`+Inf`/`-Inf` literals),
//! `# TYPE` declarations, and histogram bucket monotonicity.

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_serve::{ModelRegistry, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

// ---------------------------------------------------------------
// A minimal Prometheus text-format parser.
// ---------------------------------------------------------------

#[derive(Debug, Default)]
struct Exposition {
    /// family name -> declared type.
    types: BTreeMap<String, String>,
    /// (sample name, sorted labels) -> value.
    samples: Vec<Sample>,
}

#[derive(Debug)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Unescapes a quoted label value; `\\`, `\"`, and `\n` are the only
/// legal escapes. Returns None on a bad escape or stray backslash.
fn unescape_label_value(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

fn parse_value(raw: &str) -> Option<f64> {
    match raw {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        other => other.parse().ok(),
    }
}

/// Parses `{k="v",...}`; the input starts just after the `{`.
/// Returns (labels, rest-after-closing-brace).
fn parse_labels(mut s: &str) -> Result<(BTreeMap<String, String>, &str), String> {
    let mut labels = BTreeMap::new();
    loop {
        s = s.trim_start_matches([' ', ',']);
        if let Some(rest) = s.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = s.find('=').ok_or_else(|| format!("label without '=': {s}"))?;
        let name = &s[..eq];
        if !valid_label_name(name) {
            return Err(format!("bad label name '{name}'"));
        }
        let rest = s[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label value not quoted: {s}"))?;
        // Find the closing quote, honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {s}"))?;
        let value = unescape_label_value(&rest[..end])
            .ok_or_else(|| format!("bad escape in label value: {}", &rest[..end]))?;
        labels.insert(name.to_string(), value);
        s = &rest[end + 1..];
    }
}

/// Parses a full exposition document, returning every sample and
/// every declared family, or the first format error.
fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let name = parts.next().ok_or(format!("line {ln}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("line {ln}: TYPE without kind"))?;
                if !valid_metric_name(name) {
                    return Err(format!("line {ln}: bad family name '{name}'"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {ln}: unknown metric type '{kind}'"));
                }
                if exp.types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {ln}: duplicate TYPE for '{name}'"));
                }
            }
            // HELP lines and free comments are legal and skipped.
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .ok_or(format!("line {ln}: sample without value: {line}"))?;
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!("line {ln}: bad metric name '{name}'"));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if let Some(inner) = rest.strip_prefix('{') {
            parse_labels(inner).map_err(|e| format!("line {ln}: {e}"))?
        } else {
            (BTreeMap::new(), rest)
        };
        let raw_value = rest.trim();
        // A timestamp suffix is legal; we emit none, so reject it to
        // keep the golden format tight.
        let value = parse_value(raw_value)
            .ok_or(format!("line {ln}: bad sample value '{raw_value}'"))?;
        exp.samples.push(Sample { name: name.to_string(), labels, value });
    }
    Ok(exp)
}

impl Exposition {
    /// The declared family a sample belongs to, accounting for the
    /// `_bucket`/`_sum`/`_count` suffixes of histograms/summaries.
    fn family_of(&self, sample: &str) -> Option<&str> {
        if self.types.contains_key(sample) {
            return self.types.get_key_value(sample).map(|(k, _)| k.as_str());
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample.strip_suffix(suffix) {
                if self.types.contains_key(base) {
                    return self.types.get_key_value(base).map(|(k, _)| k.as_str());
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------
// Parser self-checks (escaping, rejection of malformed docs).
// ---------------------------------------------------------------

#[test]
fn parser_handles_label_escaping_and_special_values() {
    let doc = concat!(
        "# TYPE demo gauge\n",
        "demo{path=\"a\\\\b\",msg=\"say \\\"hi\\\"\",nl=\"line1\\nline2\"} 1\n",
        "demo{v=\"nan\"} NaN\n",
        "demo{v=\"inf\"} +Inf\n",
        "demo{v=\"ninf\"} -Inf\n",
    );
    let exp = parse_exposition(doc).expect("valid doc");
    assert_eq!(exp.samples.len(), 4);
    let first = &exp.samples[0];
    assert_eq!(first.labels["path"], "a\\b");
    assert_eq!(first.labels["msg"], "say \"hi\"");
    assert_eq!(first.labels["nl"], "line1\nline2");
    assert!(exp.samples[1].value.is_nan());
    assert_eq!(exp.samples[2].value, f64::INFINITY);
    assert_eq!(exp.samples[3].value, f64::NEG_INFINITY);

    // Round-trip through the server-side escaper.
    for value in ["a\\b", "say \"hi\"", "line1\nline2", "plain"] {
        let escaped = occu_obs::prom::escape_label_value(value);
        assert_eq!(unescape_label_value(&escaped).as_deref(), Some(value), "value: {value:?}");
    }
}

#[test]
fn parser_rejects_malformed_documents() {
    for (doc, why) in [
        ("1bad_name 3\n", "name starting with a digit"),
        ("ok{l=unquoted} 3\n", "unquoted label value"),
        ("ok{l=\"open} 3\n", "unterminated label value"),
        ("ok{l=\"bad\\q\"} 3\n", "illegal escape"),
        ("ok{l=\"x\"} notanumber\n", "non-numeric value"),
        ("# TYPE ok wiggly\nok 3\n", "unknown family type"),
    ] {
        assert!(parse_exposition(doc).is_err(), "should reject: {why}");
    }
}

// ---------------------------------------------------------------
// The golden check against a live server.
// ---------------------------------------------------------------

fn get_metrics(server: &Server) -> String {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    write!(s, "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("write");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response split");
    assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
    body.to_string()
}

fn post_predict(server: &Server, body: &str) -> u16 {
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    write!(
        s,
        "POST /predict HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    raw.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("status")
}

#[test]
fn live_metrics_parse_as_prometheus_text_format() {
    let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 7);
    let registry = Arc::new(ModelRegistry::from_model(model, "in-memory.json"));
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server = Server::start(cfg, registry).expect("server start");

    // Populate counters, histograms, and the stage windows.
    assert_eq!(post_predict(&server, r#"{"model": "LeNet"}"#), 200);
    assert_eq!(post_predict(&server, r#"{"model": "LeNet"}"#), 200);

    let body = get_metrics(&server);
    let exp = parse_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));

    // Every sample belongs to a declared family.
    for sample in &exp.samples {
        assert!(
            exp.family_of(&sample.name).is_some(),
            "sample '{}' has no # TYPE declaration",
            sample.name
        );
    }

    // The core serving families are present with the right types.
    for (family, kind) in [
        ("serve_requests", "counter"),
        ("serve_request_us", "histogram"),
        ("serve_stage_us", "summary"),
        ("serve_request_total_us", "summary"),
        ("serve_queue_depth", "gauge"),
        ("serve_inflight", "gauge"),
    ] {
        assert_eq!(
            exp.types.get(family).map(String::as_str),
            Some(kind),
            "family {family}\n{body}"
        );
    }

    // Histogram buckets are cumulative (monotonic in `le`) and the
    // `+Inf` bucket equals `_count`.
    let mut buckets: Vec<(f64, f64)> = exp
        .samples
        .iter()
        .filter(|s| s.name == "serve_request_us_bucket")
        .map(|s| (parse_value(&s.labels["le"]).expect("le bound"), s.value))
        .collect();
    assert!(!buckets.is_empty(), "no request_us buckets\n{body}");
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in buckets.windows(2) {
        assert!(pair[1].1 >= pair[0].1, "buckets not cumulative: {buckets:?}");
    }
    let count = exp
        .samples
        .iter()
        .find(|s| s.name == "serve_request_us_count")
        .expect("histogram count")
        .value;
    assert_eq!(buckets.last().map(|b| b.1), Some(count), "+Inf bucket != count");

    // Per-stage summaries: every stage appears with every quantile.
    for stage in occu_serve::STAGE_NAMES {
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(
                exp.samples.iter().any(|s| s.name == "serve_stage_us"
                    && s.labels.get("stage").map(String::as_str) == Some(stage)
                    && s.labels.get("quantile").map(String::as_str) == Some(q)),
                "missing serve_stage_us{{stage=\"{stage}\",quantile=\"{q}\"}}\n{body}"
            );
        }
    }

    server.shutdown();
}
