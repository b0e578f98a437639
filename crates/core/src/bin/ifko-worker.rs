//! Standalone evaluation worker: speaks the worker protocol
//! ([`ifko::worker`]) on stdin/stdout. `ifko worker` is the same loop
//! reached through the main CLI; this thin binary exists so the core
//! crate's integration tests can spawn real worker processes
//! (`CARGO_BIN_EXE_ifko-worker`) without depending on the CLI crate.

fn main() {
    ifko::flags::Command::new("ifko-worker", &[]).from_env();
    if let Err(e) = ifko::worker::serve_stdio() {
        eprintln!("ifko-worker: {e}");
        std::process::exit(1);
    }
}
