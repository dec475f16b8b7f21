//! What Linux reports about this process: per-thread CPU time and context
//! switches, peak resident memory, the descriptor limit. Read from
//! `/proc` because the benchmark is `unsafe`-free and links no libc crate.

use std::fs;

/// Thread id of the calling thread.
pub fn current_tid() -> u32 {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

fn task_ids() -> Vec<u32> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// CPU time and voluntary context switches of a set of threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadUsage {
    /// Nanoseconds spent on a CPU (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Voluntary context switches: how often the threads blocked.
    pub voluntary_switches: u64,
}

impl ThreadUsage {
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

/// Usage of one thread.
pub fn thread_usage(tid: u32) -> ThreadUsage {
    // A thread may exit between the directory listing and these reads;
    // it then contributes nothing, which is what it did since.
    let cpu_ns = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    let voluntary_switches = fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .ok()
        .and_then(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .unwrap_or(0);
    ThreadUsage {
        cpu_ns,
        voluntary_switches,
    }
}

/// Summed usage of every thread of the process except `generator`: in a
/// wire workload that is the server, whatever threads it runs.
pub fn usage_except(generator: u32) -> ThreadUsage {
    task_ids()
        .into_iter()
        .filter(|&tid| tid != generator)
        .map(thread_usage)
        .fold(ThreadUsage::default(), |a, b| ThreadUsage {
            cpu_ns: a.cpu_ns + b.cpu_ns,
            voluntary_switches: a.voluntary_switches + b.voluntary_switches,
        })
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field(&status, "VmHWM:").expect("VmHWM is reported") as f64 / 1024.0
}

/// Soft limit on open descriptors.
pub fn max_open_files() -> u64 {
    fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find_map(|line| line.strip_prefix("Max open files"))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spinning_thread_shows_up_in_everyone_but_the_caller() {
        let me = current_tid();
        let before = usage_except(me);
        // Sample while the spinner is alive: an exited thread's CPU time
        // leaves `/proc/self/task` with it.
        let (spun, has_spun) = std::sync::mpsc::channel::<()>();
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let seen = std::thread::scope(|s| {
            s.spawn(move || {
                let start = std::time::Instant::now();
                while start.elapsed().as_millis() < 30 {
                    std::hint::spin_loop();
                }
                spun.send(()).expect("the sampler is waiting");
                let _ = wait.recv();
            });
            has_spun.recv().expect("the spinner reports");
            let seen = usage_except(me).since(before);
            done.send(()).expect("the spinner is waiting");
            seen
        });
        assert!(seen.cpu_ns >= 20_000_000, "saw {} ns", seen.cpu_ns);
        assert!(thread_usage(me).cpu_ns > 0);
        assert!(peak_rss_mib() > 0.0);
        assert!(max_open_files() >= 3);
    }
}
