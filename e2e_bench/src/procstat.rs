//! CPU time, wakeups and resident memory from Linux `/proc`, std only.
//!
//! Every reader returns `Option`: where `/proc` (or the field) is
//! unavailable the metric is reported *absent*, never as zero.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// On-CPU nanoseconds: the first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The numeric value of `key:` in a `/proc/.../status` file (the unit
/// suffix, e.g. `kB`, is dropped).
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The kernel thread id of the calling thread (`/proc/thread-self`
/// links to `<pid>/task/<tid>`).
pub fn thread_id() -> Option<u64> {
    fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// CPU nanoseconds of every live thread of this process, by thread id.
/// A thread that exits between listing and reading is left out.
pub fn task_cpu_ns() -> Option<BTreeMap<u64, u64>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        let tid = path.file_name()?.to_str()?.parse().ok()?;
        if let Ok(text) = fs::read_to_string(path.join("schedstat")) {
            out.insert(tid, parse_schedstat(&text)?);
        }
    }
    Some(out)
}

/// CPU nanoseconds that the threads outside `exclude` spent between
/// two [`task_cpu_ns`] readings (a thread born in between counts from
/// zero).
pub fn cpu_between(start: &BTreeMap<u64, u64>, end: &BTreeMap<u64, u64>, exclude: &[u64]) -> u64 {
    end.iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|(tid, ns)| ns.saturating_sub(start.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> Option<u64> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Voluntary context switches (sleeps that ended in a wakeup) summed
/// over the live threads of this process.
pub fn voluntary_switches() -> Option<u64> {
    sum_tasks(Path::new("/proc/self/task"), "status", |text| {
        parse_status_field(text, "voluntary_ctxt_switches")
    })
}

/// Resident set size (`VmRSS`) in kB.
pub fn rss_kb() -> Option<u64> {
    parse_status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

/// Sums `parse(<task>/<file>)` over every task directory under
/// `tasks`. A thread that exits between listing and reading is
/// skipped; an unreadable listing, or a task whose file does not
/// parse, makes the whole sum absent.
pub fn sum_tasks(tasks: &Path, file: &str, parse: impl Fn(&str) -> Option<u64>) -> Option<u64> {
    let mut texts = Vec::new();
    for entry in fs::read_dir(tasks).ok()? {
        if let Ok(text) = fs::read_to_string(entry.ok()?.path().join(file)) {
            texts.push(text);
        }
    }
    sum_parsed(&texts, parse)
}

/// Sums `parse` over per-thread file contents; absent if any fails.
pub fn sum_parsed(texts: &[String], parse: impl Fn(&str) -> Option<u64>) -> Option<u64> {
    texts.iter().map(|t| parse(t)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("123456789 2000 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("garbage 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let text = "Name:\tx\nVmHWM:\t  20480 kB\nvoluntary_ctxt_switches:\t42\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(text, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(text, "voluntary_ctxt_switches"),
            Some(42)
        );
        assert_eq!(
            parse_status_field(text, "nonvoluntary_ctxt_switches"),
            Some(7)
        );
        assert_eq!(parse_status_field(text, "VmRSS"), None);
    }

    #[test]
    fn missing_proc_is_absent_not_zero() {
        let nowhere = Path::new("/nonexistent-proc-root/self/task");
        assert_eq!(sum_tasks(nowhere, "status", |_| Some(1)), None);
    }

    #[test]
    fn task_sums_cover_every_thread_or_none() {
        let field = |t: &str| parse_status_field(t, "voluntary_ctxt_switches");
        let texts = [
            "voluntary_ctxt_switches:\t5\n".to_string(),
            "voluntary_ctxt_switches:\t7\n".to_string(),
        ];
        assert_eq!(sum_parsed(&texts, field), Some(12));
        let broken = [texts[0].clone(), "Name:\tx\n".to_string()];
        assert_eq!(sum_parsed(&broken, field), None);
    }

    #[test]
    fn cpu_between_skips_excluded_threads_and_counts_newborns() {
        let start = BTreeMap::from([(1, 100), (2, 50)]);
        let end = BTreeMap::from([(1, 160), (2, 90), (3, 7)]);
        assert_eq!(cpu_between(&start, &end, &[]), 60 + 40 + 7);
        assert_eq!(cpu_between(&start, &end, &[2]), 60 + 7);
    }

    #[test]
    fn live_readers_see_this_process() {
        // On a host without /proc these are absent; with it they are
        // positive for a process that has run at all.
        if Path::new("/proc/self/task").exists() {
            // The kernel folds a running thread's time into schedstat at
            // ticks and switches, so spin and yield until it shows.
            let me = thread_id().unwrap();
            let mut own = 0;
            for _ in 0..1000 {
                std::hint::black_box((0..1_000_000u64).map(std::hint::black_box).sum::<u64>());
                std::thread::yield_now();
                own = task_cpu_ns().unwrap()[&me];
                if own > 0 {
                    break;
                }
            }
            assert!(own > 0);
            assert!(thread_cpu_ns().unwrap() >= own);
            assert!(voluntary_switches().is_some());
            assert!(rss_kb().unwrap() > 0);
        }
    }
}
