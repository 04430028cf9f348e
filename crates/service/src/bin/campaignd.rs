//! `campaignd` — the campaign service daemon.
//!
//! ```text
//! campaignd [--addr HOST:PORT] [--store DIR] [--workers N] [--queue-depth N]
//!           [--store-shards N]
//! ```
//!
//! `--workers`, `--queue-depth` and `--store-shards` take positive
//! integers; zero is a usage error (exit code 2).
//!
//! `--store DIR` persists results in a store directory, created if
//! missing (a single-file store from an older release is migrated in
//! place).  `--store-shards N` sets the segment count of a new store
//! (default 8); an existing store keeps its own.
//!
//! Binds the address (default `127.0.0.1:7070`; port `0` picks an
//! ephemeral port), prints the bound address on stdout as
//! `campaignd: listening on <addr>`, and serves until killed.

use std::path::PathBuf;

use dmpb_service::{serve, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: campaignd [--addr HOST:PORT] [--store DIR] [--workers N] [--queue-depth N] [--store-shards N]"
    );
    std::process::exit(2);
}

/// Parses the value of a flag that takes a positive integer; zero and
/// non-numbers are usage errors.
fn positive(flag: &str, value: String) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("campaignd: {flag} needs a positive integer");
            usage()
        }
    }
}

fn main() {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7070".to_string(),
        ..ServiceConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("campaignd: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--store" => config.store_path = Some(PathBuf::from(value("--store"))),
            "--workers" => config.workers = positive("--workers", value("--workers")),
            "--queue-depth" => {
                config.queue_depth = positive("--queue-depth", value("--queue-depth"))
            }
            "--store-shards" => {
                config.store_shards = Some(positive("--store-shards", value("--store-shards")))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("campaignd: unknown flag {other}");
                usage()
            }
        }
    }

    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("campaignd: {e}");
            std::process::exit(1);
        }
    };
    println!("campaignd: listening on {}", handle.addr());

    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
