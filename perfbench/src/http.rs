//! A minimal keep-alive HTTP/1.1 client for the in-process server, and
//! readers for its JSON answers and Prometheus `/metrics` text.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Reply {
    pub status: u16,
    pub body: String,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    request: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            request: Vec::new(),
            line: String::new(),
        })
    }

    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.request.extend_from_slice(body.as_bytes());
        self.writer.write_all(&self.request)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len: Option<usize> = None;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("headers cut short"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| bad("bad Content-Length"))?,
                    );
                }
            }
        }
        let len = len.ok_or_else(|| bad("reply without Content-Length"))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("reply body is not UTF-8"))?;
        Ok(Reply { status, body })
    }
}

/// The raw JSON token of top-level `"key":` in a flat object body:
/// a number, `true`/`false`, or a string without its quotes.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}', ']', ' ', '\n']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The served occupancy as the f32 the model computed (the server
/// widens it to f64 for JSON; narrowing back is exact).
pub fn occupancy(body: &str) -> Option<f32> {
    field(body, "predicted_occupancy")?
        .parse::<f64>()
        .ok()
        .map(|v| v as f32)
}

pub fn cached(body: &str) -> Option<bool> {
    field(body, "cached")?.parse().ok()
}

/// One parsed `/metrics` scrape.
pub struct Scrape {
    samples: Vec<(String, String, f64)>,
}

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match head.split_once('{') {
                Some((n, l)) => (n, l.trim_end_matches('}')),
                None => (head, ""),
            };
            samples.push((name.to_string(), labels.to_string(), value));
        }
        Scrape { samples }
    }

    /// The sample of `name` whose labels contain every `k="v"` in `labels`.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|(n, l, _)| {
                n == name
                    && labels
                        .iter()
                        .all(|(k, v)| l.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|s| s.2)
    }

    /// `get` with absent samples read as 0 (counters not yet touched).
    pub fn value(&self, name: &str) -> f64 {
        self.get(name, &[]).unwrap_or(0.0)
    }

    /// The `label` value of an info-style family such as `tensor_kernel_isa{isa="avx512"} 1`.
    pub fn info(&self, name: &str, label: &str) -> Option<String> {
        let (_, l, _) = self.samples.iter().find(|(n, _, _)| n == name)?;
        let pat = format!("{label}=\"");
        let at = l.find(&pat)? + pat.len();
        l[at..].split('"').next().map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_of_a_predict_answer() {
        let body = "{\"cached\":false,\"device\":\"a100\",\"fingerprint\":\"00ff\",\"model\":\"LeNet\",\"model_version\":1,\"predicted_occupancy\":0.3125,\"tenant\":\"default\"}\n";
        assert_eq!(field(body, "fingerprint"), Some("00ff"));
        assert_eq!(cached(body), Some(false));
        assert_eq!(occupancy(body), Some(0.3125));
        assert_eq!(field(body, "model_version"), Some("1"));
        assert_eq!(field(body, "absent"), None);
    }

    #[test]
    fn reads_prometheus_samples() {
        let text = "# TYPE serve_stage_us summary\nserve_stage_us{stage=\"parse\",quantile=\"0.5\"} 3.5\nserve_stage_us{stage=\"parse\",quantile=\"0.99\"} 9\nserve_cache_hits 12\ntensor_kernel_isa{isa=\"avx2\"} 1\n";
        let s = Scrape::parse(text);
        assert_eq!(
            s.get("serve_stage_us", &[("stage", "parse"), ("quantile", "0.5")]),
            Some(3.5)
        );
        assert_eq!(s.value("serve_cache_hits"), 12.0);
        assert_eq!(s.value("serve_cache_misses"), 0.0);
        assert_eq!(s.info("tensor_kernel_isa", "isa").as_deref(), Some("avx2"));
    }
}
