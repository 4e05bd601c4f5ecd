//! The daemon front end that `v6brickd` and `repro serve` both run: the
//! one [`ServerConfig`] flag parser and the one main around [`spawn`].
//!
//! ```text
//! [--addr HOST:PORT] [--seed N] [--shards N] [--max-upload-mb N]
//! [--upload-timeout-ms N] [--read-timeout-ms N] [--loop-threads N]
//! [--drain-deadline-ms N] [--max-conns N] [--data-dir PATH]
//! [--snapshot-every N]
//! ```

use crate::signal::TermSignals;
use crate::{spawn, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// The flags [`parse_args`] accepts, one per [`ServerConfig`] field.
const FLAGS: &str = "[--addr HOST:PORT] [--seed N] [--shards N] [--max-upload-mb N] \
     [--upload-timeout-ms N] [--read-timeout-ms N] [--loop-threads N] \
     [--drain-deadline-ms N] [--max-conns N] [--data-dir PATH] [--snapshot-every N]";

/// Parse daemon flags into a [`ServerConfig`]. It listens on
/// `127.0.0.1:6468` unless `--addr` says otherwise; every other field
/// keeps its [`ServerConfig::default`] until a flag sets it. `Err`
/// carries the message to print above the usage line, empty for
/// `--help`.
fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:6468".to_string(),
        ..ServerConfig::default()
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let mut int = || {
            let v = value()?;
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs an unsigned integer, got {v:?}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?,
            "--seed" => config.campaign_seed = int()?,
            "--shards" => config.shards = int()? as usize,
            "--max-upload-mb" => config.max_upload_bytes = int()? << 20,
            "--upload-timeout-ms" => config.max_upload_time = Duration::from_millis(int()?),
            "--read-timeout-ms" => config.read_timeout = Duration::from_millis(int()?),
            "--loop-threads" => config.loop_threads = int()? as usize,
            "--drain-deadline-ms" => config.drain_deadline = Duration::from_millis(int()?),
            "--max-conns" => config.max_connections = int()? as usize,
            "--data-dir" => config.data_dir = Some(value()?.into()),
            "--snapshot-every" => config.snapshot_every = int()?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(config)
}

/// Run the daemon as `prog` over `args` (the flags after the program or
/// subcommand name) and return the process exit code. A bad flag prints
/// the usage and returns 2 before binding; a failed bind returns 1.
/// Otherwise SIGINT/SIGTERM are blocked before any server thread exists
/// (so every thread inherits the mask), the server spawns, stdout gets
/// `v6brickd listening on ADDR (...)`, and the daemon serves until a
/// wire `SHUTDOWN` or a signal drains it. The last stdout line is the
/// final STATS JSON, and the exit code is 0.
pub fn run<I: IntoIterator<Item = String>>(prog: &str, args: I) -> i32 {
    let config = match parse_args(args) {
        Ok(config) => config,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{prog}: {msg}");
            }
            eprintln!("usage: {prog} {FLAGS}");
            return 2;
        }
    };
    // Unsupported platforms run without signal-triggered drain.
    let term = TermSignals::block();
    let handle = match spawn(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{prog}: start on {}: {e}", config.addr);
            return 1;
        }
    };
    if let Ok(term) = term {
        let shutdown = handle.shutdown_handle();
        let prog = prog.to_string();
        term.watch(move |sig| {
            eprintln!("{prog}: caught signal {sig}, draining");
            shutdown.shutdown();
        });
    }
    println!(
        "v6brickd listening on {} (campaign seed {:#x}, {} shards, {} loop threads)",
        handle.addr(),
        handle.state().campaign_seed(),
        handle.state().shard_count(),
        config.loop_threads.max(1)
    );
    let state = Arc::clone(handle.state());
    handle.join();
    let stats = serde_json::to_string(&state.stats_report()).unwrap_or_else(|_| "{}".to_string());
    println!("{stats}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn no_flags_listen_on_the_daemon_port_with_default_tunables() {
        let want = ServerConfig {
            addr: "127.0.0.1:6468".to_string(),
            ..ServerConfig::default()
        };
        assert_eq!(format!("{:?}", parse(&[]).unwrap()), format!("{want:?}"));
    }

    #[test]
    fn each_flag_sets_its_field() {
        type Set = fn(&mut ServerConfig);
        let cases: [(&str, &str, Set); 11] = [
            ("--addr", "0.0.0.0:7", |c| c.addr = "0.0.0.0:7".to_string()),
            ("--seed", "77", |c| c.campaign_seed = 77),
            ("--shards", "3", |c| c.shards = 3),
            ("--max-upload-mb", "5", |c| c.max_upload_bytes = 5 << 20),
            ("--upload-timeout-ms", "1500", |c| {
                c.max_upload_time = Duration::from_millis(1500)
            }),
            ("--read-timeout-ms", "250", |c| {
                c.read_timeout = Duration::from_millis(250)
            }),
            ("--loop-threads", "2", |c| c.loop_threads = 2),
            ("--drain-deadline-ms", "900", |c| {
                c.drain_deadline = Duration::from_millis(900)
            }),
            ("--max-conns", "64", |c| c.max_connections = 64),
            ("--data-dir", "/var/v6", |c| {
                c.data_dir = Some(PathBuf::from("/var/v6"))
            }),
            ("--snapshot-every", "9", |c| c.snapshot_every = 9),
        ];
        let defaults = format!("{:?}", parse(&[]).unwrap());
        for (flag, value, set) in cases {
            let mut want = parse(&[]).unwrap();
            set(&mut want);
            let want = format!("{want:?}");
            assert_ne!(want, defaults, "{flag} {value} must move its field");
            let got = parse(&[flag, value]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_eq!(format!("{got:?}"), want, "{flag} {value}");
        }
        // Flags compose; a repeated one keeps its last value.
        let c = parse(&["--seed", "1", "--shards", "2", "--seed", "3"]).unwrap();
        assert_eq!((c.campaign_seed, c.shards), (3, 2));
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        for flag in ["--addr", "--seed", "--max-upload-mb", "--data-dir"] {
            let err = parse(&["--shards", "2", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn a_non_integer_value_is_an_error() {
        for (flag, value) in [
            ("--seed", "0x10"),
            ("--shards", "-1"),
            ("--loop-threads", "two"),
            ("--read-timeout-ms", "1.5"),
            ("--snapshot-every", ""),
        ] {
            let err = parse(&[flag, value]).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} needs an unsigned integer")),
                "{err}"
            );
        }
    }

    #[test]
    fn an_unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--seed", "1", "--no-such-flag"]).unwrap_err(),
            "unknown flag --no-such-flag"
        );
        assert_eq!(parse(&["serve"]).unwrap_err(), "unknown flag serve");
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
        assert_eq!(parse(&["-h"]).unwrap_err(), "");
    }
}
