//! The `reap-serve` daemon binary.
//!
//! ```text
//! reap-serve [--addr 127.0.0.1:0] [--users 2000] [--seed 0]
//!            [--source <label>]... [--shards 16] [--max-connections 64]
//!            [--checkpoint-ring <dir>] [--ring-keep 4]
//!            [--checkpoint-every-ms <ms>] [--resume]
//! ```
//!
//! Builds the resident population from the same seeded [`Fleet`]
//! definition the simulator uses, binds the TCP daemon (port 0 by
//! default — the kernel-assigned address is printed on stdout), and
//! serves until SIGINT or an in-band `shutdown` request. Both paths
//! drain in-flight connections, write the ring's final checkpoint if
//! `--checkpoint-ring` was given, and exit 0.
//!
//! Source labels are the [`SourceKind`] names: `outdoor-solar`,
//! `indoor-pv`, `body-heat-teg`, `kinetic`. Repeat `--source` to
//! round-robin users over several; omit it for all four.
//!
//! Snapshots: `--checkpoint-ring DIR` is the daemon's one snapshot
//! location. It keeps a ring of the last `--ring-keep` snapshots in
//! `DIR`, written crash-safely on each in-band `checkpoint`, every
//! `--checkpoint-every-ms`, and once at graceful shutdown; an in-band
//! `restore` loads the newest digest-valid one. `--resume` recovers the
//! same snapshot at startup, skipping torn or corrupt files — after a
//! SIGKILL, restarting with the same flags plus `--resume` lands on the
//! last durable checkpoint. To start from a snapshot file, copy it into
//! an empty ring directory as `ckpt-0000000000.reapsnap` and pass
//! `--resume`.

use std::path::PathBuf;
use std::process::ExitCode;

use reap_harvest::SourceKind;
use reap_serve::{FleetState, Server, ServerConfig};
use reap_sim::Fleet;

/// Polling cadence of the SIGINT watcher thread.
const SIGINT_POLL: std::time::Duration = std::time::Duration::from_millis(50);

#[cfg(unix)]
mod sigint {
    //! Minimal SIGINT hook: libc `signal` via FFI (the workspace vendors
    //! no signal crate), a handler that only stores an atomic — the one
    //! async-signal-safe thing worth doing — and a poller that turns the
    //! flag into a graceful server shutdown.

    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        SIGINT_SEEN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler for SIGINT (2).
    pub fn install() {
        // reap-lint: allow(unsafe:unsafe-block) -- libc signal(2) FFI; the handler only stores an AtomicBool, which is async-signal-safe
        unsafe {
            signal(2, on_sigint);
        }
    }

    /// Whether SIGINT has arrived.
    pub fn seen() -> bool {
        SIGINT_SEEN.load(Ordering::SeqCst)
    }
}

struct Args {
    addr: String,
    users: u32,
    seed: u64,
    sources: Vec<SourceKind>,
    shards: usize,
    max_connections: usize,
    checkpoint_ring: Option<PathBuf>,
    ring_keep: usize,
    checkpoint_every_ms: Option<u64>,
    resume: bool,
}

fn parse_source(label: &str) -> Result<SourceKind, String> {
    SourceKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| {
            let known: Vec<&str> = SourceKind::ALL.iter().map(|k| k.label()).collect();
            format!("unknown source {label:?}; known: {}", known.join(", "))
        })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        users: 2000,
        seed: 0,
        sources: Vec::new(),
        shards: 16,
        max_connections: 64,
        checkpoint_ring: None,
        ring_keep: 4,
        checkpoint_every_ms: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--users" => {
                args.users = value("--users")?
                    .parse()
                    .map_err(|e| format!("--users: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--source" => args.sources.push(parse_source(&value("--source")?)?),
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--max-connections" => {
                args.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--checkpoint-ring" => {
                args.checkpoint_ring = Some(PathBuf::from(value("--checkpoint-ring")?));
            }
            "--ring-keep" => {
                args.ring_keep = value("--ring-keep")?
                    .parse()
                    .map_err(|e| format!("--ring-keep: {e}"))?;
                if args.ring_keep == 0 {
                    return Err("--ring-keep must be at least 1".into());
                }
            }
            "--checkpoint-every-ms" => {
                args.checkpoint_every_ms = Some(
                    value("--checkpoint-every-ms")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every-ms: {e}"))?,
                );
            }
            "--resume" => args.resume = true,
            "--help" | "-h" => {
                println!(
                    "usage: reap-serve [--addr A] [--users N] [--seed S] [--source L]... \
                     [--shards N] [--max-connections N] [--checkpoint-ring D] [--ring-keep N] \
                     [--checkpoint-every-ms MS] [--resume]\n\n\
                     --checkpoint-ring D is the one snapshot location: checkpoint requests\n\
                     and the periodic and exit checkpoints write there; restore requests\n\
                     and --resume load its newest valid snapshot. To start from a snapshot\n\
                     file, copy it into an empty ring as ckpt-0000000000.reapsnap and pass\n\
                     --resume."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.sources.is_empty() {
        args.sources = SourceKind::ALL.to_vec();
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let fleet = Fleet::builder(reap_device::paper_table2_operating_points())
        .users(args.users)
        .seed(args.seed)
        .sources(args.sources.clone())
        .build()
        .map_err(|e| format!("building fleet: {e}"))?;
    let state = FleetState::new(&fleet, args.shards).map_err(|e| format!("building state: {e}"))?;
    if args.resume {
        let dir = args
            .checkpoint_ring
            .as_ref()
            .ok_or("--resume needs --checkpoint-ring")?;
        let ring = reap_serve::SnapshotRing::create(dir, args.ring_keep)
            .map_err(|e| format!("opening ring {}: {e}", dir.display()))?;
        match ring
            .recover(&state)
            .map_err(|e| format!("recovering from {}: {e}", dir.display()))?
        {
            Some(r) => println!(
                "reap-serve: resumed {} users from checkpoint #{} ({}){}",
                r.users,
                r.seq,
                r.path.display(),
                if r.skipped > 0 {
                    format!(", skipped {} invalid newer snapshot(s)", r.skipped)
                } else {
                    String::new()
                }
            ),
            None => println!(
                "reap-serve: no usable snapshot in {}, starting fresh",
                dir.display()
            ),
        }
    }

    let server = Server::bind(
        args.addr.as_str(),
        state,
        ServerConfig {
            max_connections: args.max_connections,
            checkpoint_ring: args.checkpoint_ring.clone(),
            ring_keep: args.ring_keep,
            checkpoint_every: args
                .checkpoint_every_ms
                .map(std::time::Duration::from_millis),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding {}: {e}", args.addr))?;
    println!(
        "reap-serve: {} users resident over {} sources, listening on {}",
        args.users,
        args.sources.len(),
        server.local_addr()
    );

    let handle = server.handle();
    #[cfg(unix)]
    {
        sigint::install();
        let watcher_handle = handle.clone();
        std::thread::spawn(move || loop {
            if sigint::seen() {
                eprintln!("reap-serve: SIGINT, draining");
                watcher_handle.shutdown();
                return;
            }
            if watcher_handle.is_shutting_down() {
                return;
            }
            std::thread::sleep(SIGINT_POLL);
        });
    }
    let _ = &handle;

    server.serve().map_err(|e| format!("serving: {e}"))?;
    println!("reap-serve: drained, exiting");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reap-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
