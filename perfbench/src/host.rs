//! The run's environment: refusing ambient `BITNN_*` configuration, and
//! the host facts recorded with every result.

use bitnn::simd;

/// Names of the set environment variables that steer the library
/// (`BITNN_*`). Unknown values of these fall back silently to defaults,
/// so a benchmark run refuses to start while any is set.
pub fn ambient_knobs(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut v: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("BITNN_"))
        .collect();
    v.sort();
    v
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Host facts as one JSON object: CPU model, hardware threads, SIMD
/// dispatch level, and the GEMM and conv-lowering choices the autotuner
/// made in this process (call after the workload has warmed up).
pub fn facts_json() -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let gemm: Vec<String> = simd::gemm_choices()
        .iter()
        .map(|c| json_str(&format!("{}:{}", c.class.name(), c.variant.name())))
        .collect();
    let conv: Vec<String> = simd::conv_choices()
        .iter()
        .map(|c| {
            let g = c.geom;
            json_str(&format!(
                "c{}k{}h{}w{}s{}p{}:{}",
                g.channels, g.filters, g.h, g.w, g.stride, g.pad, c.lowering
            ))
        })
        .collect();
    format!(
        "{{\"cpu\":{},\"nproc\":{threads},\"simd\":{},\"gemm\":[{}],\"conv\":[{}]}}",
        json_str(&cpu_model()),
        json_str(simd::level().name()),
        gemm.join(","),
        conv.join(",")
    )
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time of the whole process so far (every thread, user + system), s.
/// `/proc/self/stat` counts it in ticks of 1/100 s on Linux.
pub fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("CPU time needs /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("no field {} in /proc/self/stat", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_bitnn_variable_is_reported() {
        let vars = [
            ("PATH", "/bin"),
            ("BITNN_CONV", "strem"),
            ("BITNN_SIMD", ""),
        ];
        let got = ambient_knobs(vars.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        assert_eq!(got, vec!["BITNN_CONV", "BITNN_SIMD"]);
    }

    #[test]
    fn facts_are_one_json_object() {
        let f = facts_json();
        assert!(f.starts_with("{\"cpu\":") && f.ends_with('}'));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
