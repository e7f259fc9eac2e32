//! A client that behaves like `tdb_wire::Client::call` on the socket —
//! one request line per write through a `BufWriter` + `flush` — but builds
//! requests with `Request::to_json`, so `use_cache: false` reaches the
//! server, and times the codec steps separately.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use tdb_wire::{Json, Request, Response};

use crate::oracle::{Answer, Oracle};
use crate::workload::{Kind, Query};

/// The wire request of a benchmark query.
pub fn request(oracle: &Oracle, q: &Query) -> Request {
    let key = q.key;
    match q.kind {
        Kind::Threshold {
            tier,
            region,
            use_cache,
        } => Request::GetThreshold {
            raw_field: key.field.to_string(),
            derived: key.derived,
            timestep: key.timestep,
            query_box: region.query_box(),
            threshold: oracle.threshold(&key, tier),
            use_cache,
        },
        Kind::Pdf => {
            let bins = oracle.pdf_bins(&key);
            Request::GetPdf {
                raw_field: key.field.to_string(),
                derived: key.derived,
                timestep: key.timestep,
                origin: bins.origin,
                bin_width: bins.width,
                nbins: bins.nbins,
            }
        }
        Kind::TopK => Request::GetTopK {
            raw_field: key.field.to_string(),
            derived: key.derived,
            timestep: key.timestep,
            k: crate::workload::TOPK,
        },
    }
}

/// Why an answered request failed.
#[derive(Debug)]
pub enum Failure {
    /// `Error` or `Busy`, a partial answer, or the wrong response kind.
    Server(String),
    /// An answer that differs from the oracle's.
    Mismatch(String),
}

/// Checks a wire response against the oracle.
pub fn check_response(oracle: &Oracle, q: &Query, response: &Response) -> Result<(), Failure> {
    let answer = match response {
        Response::Threshold {
            points,
            degraded: None,
            ..
        }
        | Response::TopK {
            points,
            degraded: None,
        } => Answer::Points(points),
        Response::Pdf {
            counts,
            degraded: None,
            ..
        } => Answer::Counts(counts),
        Response::Error { message } => {
            return Err(Failure::Server(format!("server error: {message}")))
        }
        Response::Busy { .. } => return Err(Failure::Server("server busy".into())),
        other => {
            return Err(Failure::Server(format!(
                "unexpected or partial response {other:?}"
            )))
        }
    };
    oracle.check(q, answer).map_err(Failure::Mismatch)
}

/// Where one call's time went, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTiming {
    /// `Request::to_json` + `Json::encode`.
    pub encode_s: f64,
    /// Write + flush + reading the response line.
    pub socket_s: f64,
    /// `Json::parse` + `Response::from_json`.
    pub decode_s: f64,
    /// From the start of the request encode to the parsed response.
    pub total_s: f64,
    /// Response line length.
    pub response_bytes: usize,
}

/// A transport or protocol failure of one call.
#[derive(Debug)]
pub struct CallError(pub String);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: &Request) -> Result<(Response, CallTiming), CallError> {
        let t0 = Instant::now();
        let mut text = req.to_json().encode();
        text.push('\n');
        let t1 = Instant::now();
        let io = |e: std::io::Error| CallError(format!("transport: {e}"));
        self.writer.write_all(text.as_bytes()).map_err(io)?;
        self.writer.flush().map_err(io)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line).map_err(io)? == 0 {
            return Err(CallError("transport: server closed the connection".into()));
        }
        let t2 = Instant::now();
        let doc = Json::parse(self.line.trim_end()).map_err(|e| CallError(format!("json: {e}")))?;
        let response =
            Response::from_json(&doc).map_err(|e| CallError(format!("protocol: {e}")))?;
        let t3 = Instant::now();
        Ok((
            response,
            CallTiming {
                encode_s: (t1 - t0).as_secs_f64(),
                socket_s: (t2 - t1).as_secs_f64(),
                decode_s: (t3 - t2).as_secs_f64(),
                total_s: (t3 - t0).as_secs_f64(),
                response_bytes: self.line.len(),
            },
        ))
    }
}
