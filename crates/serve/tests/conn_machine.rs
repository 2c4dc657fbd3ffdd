//! Property tests of the incremental request parser: the sequence of
//! parsed requests (and rejects) is a pure function of the byte stream,
//! independent of how the stream is chopped into read-sized chunks.

use arrayflex_serve::conn::{Parsed, ParsedRequest, RecvBuffer, RequestParser};
use gemm::rng::SplitMix64;
use proptest::prelude::*;

const MAX_BODY: usize = 64 * 1024;

/// Feeds `stream` to a fresh parser in one shot and collects everything
/// it produces: the reference framing.
fn parse_whole(stream: &[u8]) -> (Vec<ParsedRequest>, Option<u16>) {
    let mut parser = RequestParser::new(MAX_BODY);
    let mut buffer = RecvBuffer::new();
    buffer.extend(stream);
    drain(&mut parser, &mut buffer)
}

/// Feeds `stream` chunk by chunk, draining the parser between chunks.
fn parse_chunked(stream: &[u8], cuts: &[usize]) -> (Vec<ParsedRequest>, Option<u16>) {
    let mut parser = RequestParser::new(MAX_BODY);
    let mut buffer = RecvBuffer::new();
    let mut requests = Vec::new();
    let mut reject = None;
    let mut start = 0;
    for &cut in cuts {
        buffer.extend(&stream[start..cut]);
        start = cut;
        let (mut got, rejected) = drain(&mut parser, &mut buffer);
        requests.append(&mut got);
        reject = reject.or(rejected);
    }
    buffer.extend(&stream[start..]);
    let (mut got, rejected) = drain(&mut parser, &mut buffer);
    requests.append(&mut got);
    (requests, reject.or(rejected))
}

fn drain(parser: &mut RequestParser, buffer: &mut RecvBuffer) -> (Vec<ParsedRequest>, Option<u16>) {
    let mut requests = Vec::new();
    loop {
        match parser.next_request(buffer) {
            Parsed::Request(request) => requests.push(request),
            Parsed::Reject { response, .. } => return (requests, Some(response.status)),
            Parsed::NeedMore => return (requests, None),
        }
    }
}

/// Renders a pipelined stream of `count` well-formed requests, with some
/// header and body variety driven by `seed`.
fn request_stream(count: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut stream = Vec::new();
    for index in 0..count {
        let body_len = (rng.next_u64() % 300) as usize;
        let body: Vec<u8> = (0..body_len)
            .map(|i| b'a' + ((i as u64 + rng.next_u64()) % 26) as u8)
            .collect();
        let close = index + 1 == count && rng.next_u64() % 2 == 0;
        let mut head = format!("POST /v1/plan{index} HTTP/1.1\r\ncontent-length: {body_len}\r\n");
        if rng.next_u64() % 2 == 0 {
            head.push_str("x-filler: some header noise\r\n");
        }
        if close {
            head.push_str("connection: close\r\n");
        }
        head.push_str("\r\n");
        stream.extend_from_slice(head.as_bytes());
        stream.extend_from_slice(&body);
    }
    stream
}

/// Random sorted cut points inside `len`.
fn random_cuts(len: usize, seed: u64) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed);
    let n = (rng.next_u64() % 24) as usize;
    let mut cuts: Vec<usize> = (0..n)
        .map(|_| (rng.next_u64() % len as u64) as usize)
        .collect();
    cuts.sort_unstable();
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunking invariance on well-formed pipelined streams: every
    /// chunking yields the same requests as single-shot parsing.
    #[test]
    fn parsing_is_invariant_under_read_chunking(count in 1usize..6, seed in any::<u64>()) {
        let stream = request_stream(count, seed);
        let whole = parse_whole(&stream);
        prop_assert_eq!(whole.0.len(), count);
        prop_assert!(whole.1.is_none());
        for cut_seed in 0..4u64 {
            let cuts = random_cuts(stream.len(), seed.wrapping_add(cut_seed));
            let chunked = parse_chunked(&stream, &cuts);
            prop_assert!(whole.0 == chunked.0, "mismatch under cuts {:?}", cuts);
            prop_assert_eq!(whole.1, chunked.1);
        }
    }

    /// Byte-at-a-time parsing (the worst-case chunking) agrees too, and
    /// malformed streams reject with the same status regardless of
    /// chunking.
    #[test]
    fn malformed_streams_reject_identically(seed in any::<u64>()) {
        let mut stream = request_stream(2, seed);
        // Corrupt the stream: splice garbage into the middle.
        let at = stream.len() / 2;
        stream.splice(at..at, b"\x00\xff garbage\r\n".iter().copied());
        let whole = parse_whole(&stream);
        let cuts: Vec<usize> = (1..stream.len()).collect();
        let bytewise = parse_chunked(&stream, &cuts);
        prop_assert_eq!(&whole.0, &bytewise.0);
        prop_assert_eq!(whole.1, bytewise.1);
    }
}
