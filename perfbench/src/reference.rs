//! Expected answers and answer checks.
//!
//! The reference is a cache-off [`ServeSession`] in this process,
//! rendered by the same `write_outcome` the server uses. Server
//! replies are compared with it byte for byte after [`normalize`] strips
//! the per-connection line number and the `[cached]` marker.

use ktg_cli::commands::write_outcome;
use ktg_core::serve::{parse_request_line, ServeOptions, ServeSession};
use ktg_core::AttributedGraph;

/// The server options every workload shares apart from the cache size.
pub fn server_options(cache_entries: usize) -> ServeOptions {
    ServeOptions {
        threads: 1,
        cache_entries,
        ..ServeOptions::default()
    }
}

/// Drops the `[lineno] ` prefix and the ` [cached]` marker of a reply.
pub fn normalize(block: &str) -> String {
    let body = match block.strip_prefix('[') {
        Some(rest) => rest.split_once("] ").map_or(block, |(_, tail)| tail),
        None => block,
    };
    body.replacen(" [cached]", "", 1)
}

/// Renders the reply blocks of `lines`, replayed in order through one
/// cache-off session: every solve single-threaded, runs of queries
/// between updates spread over two threads, outcomes in line order.
pub fn replay(net: &AttributedGraph, lines: &[&str]) -> Vec<String> {
    let opts = ServeOptions {
        use_cache: false,
        threads: 2,
        ..server_options(0)
    };
    let mut session = ServeSession::new(net.clone(), opts);
    let items: Vec<_> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            parse_request_line(net, i + 1, line)
                .expect("generated request lines parse")
                .expect("generated request lines are not blank")
        })
        .collect();
    session
        .run(&items)
        .iter()
        .enumerate()
        .map(|(i, outcome)| {
            let mut block = Vec::new();
            write_outcome(&mut block, i + 1, outcome, 0).expect("render into memory");
            normalize(String::from_utf8(block).expect("utf-8 reply").trim_end())
        })
        .collect()
}
