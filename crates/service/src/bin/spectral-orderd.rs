//! `spectral-orderd` — the persistent ordering daemon.
//!
//! ```text
//! spectral-orderd [options]
//! ```
//!
//! `spectral-orderd --help` prints the flags (`se_service::server::DAEMON_FLAGS`);
//! `spectral-order serve` takes the same ones. The daemon prints
//! `listening on ADDR` once ready and exits after a client sends
//! `SHUTDOWN` (in-flight and queued work finishes first).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    se_service::server::run_daemon("spectral-orderd", &args)
}
