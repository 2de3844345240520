//! What the host and the build were, recorded next to every result.

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers for the parallel rows: never more threads than cores, and no
/// more than the four the paper-scale problems can feed.
pub fn par_workers() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `L1d=32K L2=1024K …` of cpu0, from sysfs; empty when unreadable.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{}{}={}", level.trim(), suffix, size.trim()));
    }
    out.join(" ")
}

/// One line naming the host and the build.
pub fn describe() -> String {
    let flags = env!("BENCH_RUSTFLAGS");
    format!(
        "nproc={} par_workers={} caches=[{}] rustc=[{}] rustflags=[{}] target_cpu_native={}",
        nproc(),
        par_workers(),
        cache_sizes(),
        env!("BENCH_RUSTC_VERSION"),
        flags,
        flags.contains("target-cpu=native"),
    )
}
