//! `sa` — the sweep runner CLI and simulation service.
//!
//! Runs declarative experiment sweeps (see [`sa_bench::sweep`]) from JSON
//! spec files, with checkpoint/resume, and persists the results to
//! `EXPERIMENTS.json` (machine-readable, byte-deterministic) and
//! `EXPERIMENTS.md` (human-readable). Batch `sa run` and the long-lived
//! `sa serve` daemon are two clients of the same job-scheduler core
//! ([`sa_bench::jobs`]); the daemon's wire protocol is documented in
//! `docs/serve-protocol.md`. Also hosts the CI perf gate (`sa bench-diff`),
//! which compares freshly measured micro-benchmark medians against the
//! committed `BENCH_micro.json`.
//!
//! ```text
//! sa run    <spec.json> [--out DIR] [--checkpoint-every N]
//!                       [--interrupt-after-steps N] [--interrupt-units K]
//! sa resume <spec.json> [--out DIR] [--checkpoint-every N]
//! sa check  <spec.json | spec-dir>
//! sa verify <spec.json> [--out DIR]
//! sa serve    --socket PATH [--state-dir DIR] [--workers N] [--checkpoint-every N]
//!             [--keep N] [--keep-age-secs S] [--max-frame-bytes N]
//!             [--idle-timeout-secs S] [--write-timeout-secs S]
//!             [--unit-timeout-secs S] [--max-queued-units N]
//!             [--client-quota N] [--client-workers N]
//! sa submit   <spec.json> --socket PATH [--priority N] [--client NAME] [--watch]
//! sa status   [job]       --socket PATH
//! sa watch    <job|--all> --socket PATH
//! sa cancel   <job>       --socket PATH
//! sa gc       --socket PATH [--keep N] [--max-age-secs S]
//! sa drain    --socket PATH
//! sa shutdown --socket PATH
//! sa ping     --socket PATH [--wait SECS]
//! sa bench-diff <committed.json> <fresh.json> [--max-regress FRAC]
//! sa bench-record [--out BENCH_micro.json]
//! ```
//!
//! `run` starts a sweep from scratch; `resume` picks up completed unit
//! results and in-flight checkpoints from the output directory's `state/`
//! subdirectory and continues. A resumed sweep produces a byte-identical
//! `EXPERIMENTS.json` to an uninterrupted one (pinned by the CI
//! `sweep-smoke` job and `tests/checkpoint_roundtrip.rs`).
//! `--interrupt-after-steps` simulates a kill: affected units stop at a
//! step boundary after writing their checkpoint. The same guarantee holds
//! for the daemon, SIGKILL included (CI `serve-smoke`, `tests/serve.rs`).
//!
//! Runtime behavior is tuned through `SA_*` environment variables
//! (`SA_BENCH_THREADS`, `SA_FORCE_FULL_EVAL`, `SA_FORCE_CLOSURE_EVAL`,
//! `SA_FORCE_FULL_ORACLE`, `SA_VERIFY_MAX_STATES`, the `SA_SERVE_*` daemon
//! limits, `SA_NO_FSYNC`, and the `SA_IO_FAULTS` fault-injection seam) —
//! see `docs/env-vars.md` for the authoritative table.

mod benchdiff;
mod benchrecord;
mod client;
mod runner;
mod serve;
mod verify;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sa run    <spec.json> [--out DIR] [--checkpoint-every N] \
         [--interrupt-after-steps N] [--interrupt-units K]\n  sa resume <spec.json> [--out DIR] \
         [--checkpoint-every N]\n  sa check  <spec.json | spec-dir>\n  sa verify <spec.json> [--out DIR]\n  sa serve    --socket PATH \
         [--state-dir DIR] [--workers N] [--checkpoint-every N]\n              [--keep N] \
         [--keep-age-secs S] [--max-frame-bytes N]\n              [--idle-timeout-secs S] \
         [--write-timeout-secs S] [--unit-timeout-secs S]\n              [--max-queued-units N] \
         [--client-quota N] [--client-workers N]\n  sa submit   <spec.json> \
         --socket PATH [--priority N] [--client NAME] [--watch]\n  sa status   [job]       \
         --socket PATH\n  sa watch    <job|--all> --socket PATH\n  sa cancel   <job>       \
         --socket PATH\n  sa gc       --socket PATH [--keep N] [--max-age-secs S]\n  sa drain    \
         --socket PATH\n  sa shutdown --socket PATH\n  sa ping     \
         --socket PATH [--wait SECS]\n  sa bench-diff <committed.json> <fresh.json> \
         [--max-regress FRAC]\n  sa bench-record \
         [--out BENCH_micro.json]\n\nenvironment:\n  \
         SA_BENCH_THREADS, SA_FORCE_FULL_EVAL,\n  SA_FORCE_CLOSURE_EVAL, SA_FORCE_FULL_ORACLE, \
         SA_VERIFY_MAX_STATES,\n  SA_SERVE_KEEP, SA_SERVE_KEEP_AGE_SECS, SA_SERVE_MAX_FRAME_BYTES,\n  \
         SA_SERVE_IDLE_TIMEOUT_SECS, SA_SERVE_WRITE_TIMEOUT_SECS,\n  SA_SERVE_UNIT_TIMEOUT_SECS, \
         SA_SERVE_MAX_QUEUED_UNITS, SA_SERVE_CLIENT_QUOTA,\n  SA_SERVE_CLIENT_WORKERS, \
         SA_NO_FSYNC, SA_IO_FAULTS — see docs/env-vars.md"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "run" => runner::run(&args[1..], false),
        "resume" => runner::run(&args[1..], true),
        "check" => runner::check(&args[1..]),
        "verify" => verify::verify(&args[1..]),
        "serve" => serve::serve(&args[1..]),
        "submit" => client::submit(&args[1..]),
        "status" => client::status(&args[1..]),
        "watch" => client::watch(&args[1..]),
        "cancel" => client::cancel(&args[1..]),
        "gc" => client::gc(&args[1..]),
        "drain" => client::drain(&args[1..]),
        "shutdown" => client::shutdown(&args[1..]),
        "ping" => client::ping(&args[1..]),
        "bench-diff" => benchdiff::run(&args[1..]),
        "bench-record" => benchrecord::run(&args[1..]),
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown command \"{other}\"")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sa: {message}");
            ExitCode::FAILURE
        }
    }
}
