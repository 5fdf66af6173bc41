//! JSON-RPC 2.0 message model and the LSP base-protocol framing.
//!
//! The Language Server Protocol transports JSON-RPC 2.0 messages over a
//! byte stream, each prefixed with HTTP-style headers — in practice one
//! mandatory `Content-Length` and an optional `Content-Type`, terminated
//! by an empty line:
//!
//! ```text
//! Content-Length: 52\r\n
//! \r\n
//! {"jsonrpc":"2.0","id":1,"method":"shutdown"}
//! ```
//!
//! This module implements that framing over any [`BufRead`]/[`Write`]
//! pair (the server runs it over stdio) plus the minimal message model
//! the server needs: incoming [`Message`]s classified as requests or
//! notifications, and builders for responses, errors, and
//! server-initiated notifications. The JSON value type is the
//! workspace's own [`Json`] — no external dependency.

use std::io::{BufRead, Read, Write};

use commcsl_server::json::Json;
use commcsl_server::protocol::MAX_MESSAGE_BYTES;

/// JSON-RPC error code: invalid JSON was received.
pub const PARSE_ERROR: i64 = -32700;
/// JSON-RPC error code: the JSON is not a valid request object.
pub const INVALID_REQUEST: i64 = -32600;
/// JSON-RPC error code: the method does not exist.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// JSON-RPC error code: invalid method parameters.
pub const INVALID_PARAMS: i64 = -32602;
/// LSP error code: a request arrived before `initialize`.
pub const SERVER_NOT_INITIALIZED: i64 = -32002;

/// The longest header line accepted, newline included. Real headers are
/// a few dozen bytes.
const MAX_HEADER_LINE: u64 = 4096;

/// One incoming JSON-RPC message, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A request: carries an `id` the server must answer.
    Request {
        /// The request id (number or string — echoed verbatim).
        id: Json,
        /// Method name, e.g. `textDocument/hover`.
        method: String,
        /// The `params` value (`Json::Null` when absent).
        params: Json,
    },
    /// A notification: fire-and-forget, no response allowed.
    Notification {
        /// Method name, e.g. `textDocument/didOpen`.
        method: String,
        /// The `params` value (`Json::Null` when absent).
        params: Json,
    },
    /// A response to a server-initiated request. The server sends none
    /// that expect answers, so these are tolerated and ignored.
    Response {
        /// The echoed id.
        id: Json,
    },
}

impl Message {
    /// Classifies a parsed JSON value as a JSON-RPC message.
    pub fn from_json(value: &Json) -> Result<Message, String> {
        let method = value.get("method").and_then(Json::as_str);
        let id = value.get("id");
        match (method, id) {
            (Some(method), Some(id)) => Ok(Message::Request {
                id: id.clone(),
                method: method.to_owned(),
                params: value.get("params").cloned().unwrap_or(Json::Null),
            }),
            (Some(method), None) => Ok(Message::Notification {
                method: method.to_owned(),
                params: value.get("params").cloned().unwrap_or(Json::Null),
            }),
            (None, Some(id)) if value.get("result").is_some() || value.get("error").is_some() => {
                Ok(Message::Response { id: id.clone() })
            }
            _ => Err("message has neither a `method` nor a response shape".into()),
        }
    }
}

/// Builds a successful response.
pub fn response(id: Json, result: Json) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", id),
        ("result", result),
    ])
}

/// Builds an error response.
pub fn error_response(id: Json, code: i64, message: impl Into<String>) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("id", id),
        (
            "error",
            Json::obj([
                ("code", Json::Num(code as f64)),
                ("message", Json::str(message.into())),
            ]),
        ),
    ])
}

/// Builds a server-initiated notification.
pub fn notification(method: &str, params: Json) -> Json {
    Json::obj([
        ("jsonrpc", Json::str("2.0")),
        ("method", Json::str(method)),
        ("params", params),
    ])
}

/// Reads one framed message body. Returns `Ok(None)` on a clean EOF at a
/// frame boundary; a truncated frame is an error, and so is a header line
/// longer than 4 KiB or a `Content-Length` above [`MAX_MESSAGE_BYTES`]
/// (rejected before anything is allocated for the body).
pub fn read_frame(reader: &mut dyn BufRead) -> Result<Option<String>, String> {
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        let n = Read::take(&mut *reader, MAX_HEADER_LINE)
            .read_line(&mut line)
            .map_err(|e| format!("transport read error: {e}"))?;
        if n == 0 {
            return if content_length.is_none() && line.is_empty() {
                Ok(None) // clean EOF between frames
            } else {
                Err("EOF inside a frame header".into())
            };
        }
        if n as u64 == MAX_HEADER_LINE && !line.ends_with('\n') {
            return Err(format!("header line longer than {MAX_HEADER_LINE} bytes"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break; // end of headers
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(format!("malformed header line `{trimmed}`"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad Content-Length `{}`: {e}", value.trim()))?,
            );
        }
        // Other headers (Content-Type) are tolerated and ignored.
    }
    let len = content_length.ok_or("frame without Content-Length")?;
    if len > MAX_MESSAGE_BYTES {
        return Err(format!("frame of {len} bytes exceeds the {MAX_MESSAGE_BYTES}-byte limit"));
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("truncated frame body: {e}"))?;
    String::from_utf8(body).map(Some).map_err(|e| format!("non-utf8 frame body: {e}"))
}

/// Writes one framed message and flushes.
pub fn write_frame(writer: &mut dyn Write, message: &Json) -> Result<(), String> {
    let body = message.to_string();
    write!(writer, "Content-Length: {}\r\n\r\n{body}", body.len())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("transport write error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let msg = notification("$/ping", Json::obj([("n", Json::Num(1.0))]));
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("Content-Length: "), "{text}");
        assert!(text.contains("\r\n\r\n{"), "{text}");

        let mut reader = Cursor::new(buf);
        let body = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(Json::parse(&body).unwrap(), msg);
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn framing_tolerates_extra_headers_and_case() {
        let body = r#"{"jsonrpc":"2.0","method":"x"}"#;
        let input = format!(
            "content-length: {}\r\nContent-Type: application/vscode-jsonrpc; charset=utf-8\r\n\r\n{body}",
            body.len()
        );
        let mut reader = Cursor::new(input.into_bytes());
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(body));
    }

    #[test]
    fn framing_rejects_truncation_and_missing_length() {
        let mut r = Cursor::new(b"Content-Length: 99\r\n\r\n{}".to_vec());
        assert!(read_frame(&mut r).unwrap_err().contains("truncated"));
        let mut r = Cursor::new(b"Content-Type: x\r\n\r\n{}".to_vec());
        assert!(read_frame(&mut r).unwrap_err().contains("Content-Length"));
        // Oversized input is refused before the body is allocated.
        let mut r = Cursor::new(b"Content-Length: 100000000000000\r\n\r\n".to_vec());
        assert!(read_frame(&mut r).unwrap_err().contains("limit"));
        let at_cap = format!("Content-Length: {MAX_MESSAGE_BYTES}\r\n\r\n{{}}");
        let mut r = Cursor::new(at_cap.into_bytes());
        assert!(read_frame(&mut r).unwrap_err().contains("truncated"));
        let long_header = format!("X-Pad: {}\r\nContent-Length: 2\r\n\r\n{{}}", "x".repeat(5000));
        let mut r = Cursor::new(long_header.into_bytes());
        assert!(read_frame(&mut r).unwrap_err().contains("header line longer"));
    }

    #[test]
    fn messages_classify() {
        let req = Json::parse(r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#).unwrap();
        assert_eq!(
            Message::from_json(&req).unwrap(),
            Message::Request {
                id: Json::Num(3.0),
                method: "shutdown".into(),
                params: Json::Null,
            }
        );
        let note = Json::parse(r#"{"jsonrpc":"2.0","method":"exit","params":null}"#).unwrap();
        assert_eq!(
            Message::from_json(&note).unwrap(),
            Message::Notification {
                method: "exit".into(),
                params: Json::Null,
            }
        );
        let resp = Json::parse(r#"{"jsonrpc":"2.0","id":"a","result":{}}"#).unwrap();
        assert_eq!(
            Message::from_json(&resp).unwrap(),
            Message::Response { id: Json::str("a") }
        );
        assert!(Message::from_json(&Json::parse(r#"{"id":1}"#).unwrap()).is_err());
    }

    #[test]
    fn response_builders_echo_ids() {
        let ok = response(Json::str("7"), Json::Null).to_string();
        assert_eq!(ok, r#"{"jsonrpc":"2.0","id":"7","result":null}"#);
        let err = error_response(Json::Num(7.0), METHOD_NOT_FOUND, "nope").to_string();
        assert!(err.contains(r#""code":-32601"#), "{err}");
        assert!(err.contains(r#""message":"nope""#), "{err}");
    }
}
