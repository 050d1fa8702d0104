//! The benchmark's single wall clock: seconds since the first reading in
//! this process, shared by every timing and every trace span.

use std::sync::OnceLock;
// devlint::allow(D002): the benchmark measures wall time; no checking result reads it
use std::time::Instant;

// devlint::allow(D002): process-wide origin of the benchmark's timeline
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Seconds since the process's first clock reading.
pub fn now_s() -> f64 {
    // devlint::allow(D002): the benchmark measures wall time; no checking result reads it
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Run `f` and return its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_s();
    let out = f();
    (out, now_s() - start)
}
