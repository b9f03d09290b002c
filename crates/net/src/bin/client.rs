//! `rbqa-client` — drive a listening `rbqa-serve` over TCP.
//!
//! Modes:
//!
//! * **Replay** (default): stream a protocol file (or stdin) through the
//!   server and print every response line to stdout — the TCP twin of
//!   `rbqa-serve FILE`, so outputs can be diffed.
//!
//!   ```sh
//!   rbqa-client 127.0.0.1:7878 fixtures/requests.rbqa
//!   ```
//!
//! * **Shutdown** (`--shutdown`): send the `shutdown` verb (the server
//!   must run with `--allow-remote-shutdown`).
//!
//! Both modes accept `--connect-retries N` (default 0): a bounded connect
//! retry with exponential backoff (50ms doubling, capped at 1s) for racing
//! a server that is still binding its listener.
//!
//! Exit codes: 0 clean, 1 when replay saw error responses, 2 on
//! transport/usage failure.

use std::io::Read;
use std::time::Duration;

use rbqa_api::WireClient;

const USAGE: &str = "usage: rbqa-client ADDR [FILE] [--connect-retries N]
       rbqa-client --shutdown ADDR [--connect-retries N]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let result = extract_connect_retries(&mut args).and_then(|retries| {
        if args.first().is_some_and(|a| a == "--shutdown") {
            shutdown(&args[1..], retries)
        } else {
            replay(&args, retries)
        }
    });
    match result {
        Ok(exit) => std::process::exit(exit),
        Err(e) => {
            eprintln!("rbqa-client: {e}");
            std::process::exit(2);
        }
    }
}

/// Pulls `--connect-retries N` out of the argument list (any position),
/// leaving the remaining arguments for the mode parsers. An absent flag
/// means 0.
fn extract_connect_retries(args: &mut Vec<String>) -> Result<u32, String> {
    let Some(at) = args.iter().position(|a| a == "--connect-retries") else {
        return Ok(0);
    };
    if at + 1 >= args.len() {
        return Err("--connect-retries expects a count".to_string());
    }
    let retries = args[at + 1]
        .parse()
        .map_err(|_| "--connect-retries expects a count".to_string())?;
    args.drain(at..=at + 1);
    Ok(retries)
}

/// Bounded connect with exponential backoff: `retries` re-attempts after
/// the first failure, sleeping 50ms, 100ms, 200ms, … capped at one
/// second. Lets a client ride out a server that is still binding its
/// listener without retrying forever against a dead address.
fn connect_with_retry(addr: &str, retries: u32) -> Result<WireClient, String> {
    let mut attempt = 0u32;
    loop {
        match WireClient::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) if attempt < retries => {
                let backoff_ms = 50u64.saturating_mul(1 << attempt.min(4)).min(1_000);
                attempt += 1;
                eprintln!(
                    "rbqa-client: connect to {addr} failed ({e}); \
                     retry {attempt}/{retries} in {backoff_ms} ms"
                );
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        }
    }
}

fn read_input(path: Option<&String>) -> Result<String, String> {
    match path {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
        }
        None => {
            let mut input = String::new();
            std::io::stdin()
                .read_to_string(&mut input)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(input)
        }
    }
}

fn replay(args: &[String], retries: u32) -> Result<i32, String> {
    let addr = args.first().ok_or(USAGE.to_string())?;
    if addr.starts_with("--") {
        return Err(format!("unknown flag `{addr}`\n{USAGE}"));
    }
    let input = read_input(args.get(1))?;
    let client = connect_with_retry(addr, retries)?;
    let responses = client
        .replay(&input)
        .map_err(|e| format!("replay against {addr} failed: {e}"))?;
    let errors = responses
        .iter()
        .filter(|line| line.contains("\"status\":\"error\""))
        .count();
    for line in &responses {
        println!("{line}");
    }
    eprintln!(
        "rbqa-client: {} responses ({errors} errors) from {addr}",
        responses.len(),
    );
    Ok(if errors > 0 { 1 } else { 0 })
}

fn shutdown(args: &[String], retries: u32) -> Result<i32, String> {
    let addr = args.first().ok_or(USAGE.to_string())?;
    let mut client = connect_with_retry(addr, retries)?;
    let response = client
        .request("shutdown")
        .map_err(|e| format!("shutdown request failed: {e}"))?;
    println!("{response}");
    Ok(if response.contains("\"shutting_down\":true") {
        0
    } else {
        1
    })
}
