//! Std-only readers of the process counters in `/proc/self`, sampled by the
//! harness around each timed call so CPU, page-fault and context-switch
//! costs are measured from outside the program.

/// Clock ticks per second of the time fields in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User CPU time of the whole process (exited threads included), ticks.
    pub utime: u64,
    /// System CPU time of the whole process, ticks.
    pub stime: u64,
    /// Minor page faults of the whole process.
    pub minflt: u64,
    /// Peak resident set size (`VmHWM`), kB.
    pub hwm_kb: u64,
    /// Voluntary context switches of the main (harness) thread.
    pub ctx_vol: u64,
    /// Involuntary context switches of the main (harness) thread.
    pub ctx_invol: u64,
}

impl ProcSample {
    /// Reads `/proc/self/stat` and `/proc/self/status`.
    ///
    /// # Panics
    ///
    /// When either file is missing or malformed: the benchmark needs Linux.
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        let (minflt, utime, stime) = parse_stat(&stat).expect("parse /proc/self/stat");
        let (hwm_kb, ctx_vol, ctx_invol) = parse_status(&status).expect("parse /proc/self/status");
        ProcSample {
            utime,
            stime,
            minflt,
            hwm_kb,
            ctx_vol,
            ctx_invol,
        }
    }

    /// Counter growth from `earlier` to `self` (`hwm_kb` keeps the later peak).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            hwm_kb: self.hwm_kb,
            ctx_vol: self.ctx_vol.saturating_sub(earlier.ctx_vol),
            ctx_invol: self.ctx_invol.saturating_sub(earlier.ctx_invol),
        }
    }

    /// Accumulates another delta into this one.
    pub fn add(&mut self, d: &ProcSample) {
        self.utime += d.utime;
        self.stime += d.stime;
        self.minflt += d.minflt;
        self.hwm_kb = self.hwm_kb.max(d.hwm_kb);
        self.ctx_vol += d.ctx_vol;
        self.ctx_invol += d.ctx_invol;
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// System CPU seconds.
    pub fn sys_s(&self) -> f64 {
        self.stime as f64 / TICKS_PER_S
    }
}

/// Parses `(minflt, utime, stime)` — fields 10, 14 and 15 — from a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised and
/// may itself contain spaces or `)`, so fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<(u64, u64, u64)> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (the process state).
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some((field(10)?, field(14)?, field(15)?))
}

/// Parses `(VmHWM kB, voluntary, nonvoluntary context switches)` from the
/// text of `/proc/<pid>/status`.
fn parse_status(text: &str) -> Option<(u64, u64, u64)> {
    let field = |key: &str| {
        text.lines().find_map(|l| {
            l.strip_prefix(key)?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
    };
    Some((
        field("VmHWM:")?,
        field("voluntary_ctxt_switches:")?,
        field("nonvoluntary_ctxt_switches:")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (snbc (bench) x) R 1 4242 4242 0 -1 4194560 1234 0 7 0 \
                    250 31 0 0 20 0 3 0 9876 123456789 2500 18446744073709551615";
        assert_eq!(parse_stat(line), Some((1234, 250, 31)));
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("4242 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn status_reads_peak_rss_and_context_switches() {
        let text = "Name:\tsnbc-perfbench\nVmPeak:\t  400000 kB\nVmHWM:\t   51200 kB\n\
                    VmRSS:\t   40000 kB\nvoluntary_ctxt_switches:\t17\n\
                    nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status(text), Some((51200, 17, 3)));
        assert_eq!(parse_status("VmHWM:\t1 kB\n"), None);
    }

    #[test]
    fn deltas_subtract_counters_and_keep_the_later_peak() {
        let a = ProcSample {
            utime: 100,
            stime: 50,
            minflt: 10,
            hwm_kb: 900,
            ctx_vol: 4,
            ctx_invol: 1,
        };
        let b = ProcSample {
            utime: 350,
            stime: 60,
            minflt: 25,
            hwm_kb: 1000,
            ctx_vol: 9,
            ctx_invol: 1,
        };
        let d = b.since(&a);
        assert_eq!(
            d,
            ProcSample {
                utime: 250,
                stime: 10,
                minflt: 15,
                hwm_kb: 1000,
                ctx_vol: 5,
                ctx_invol: 0
            }
        );
        assert!((d.cpu_s() - 2.6).abs() < 1e-12);
        assert!((d.sys_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_live_process_reports_a_nonzero_peak() {
        let s = ProcSample::now();
        assert!(s.hwm_kb > 0);
    }
}
