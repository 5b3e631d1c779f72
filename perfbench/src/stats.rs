//! Order statistics, process counters read from `/proc`, and the small
//! hand-rolled JSON writer the result line and the span file share.

use std::fmt::Write as _;

/// The `q`-quantile of `xs` (nearest rank on the sorted sample), or
/// `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    Some(v[idx.min(v.len() - 1)])
}

/// Median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(user, system)` CPU time of this process in clock ticks, from
/// `/proc/self/stat` (fields 14 and 15).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may contain spaces; fields
    // after it are space-separated, starting with field 3 (state).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| f.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
    (get(11), get(12))
}

/// Insertion-ordered JSON object builder over `f64`, string and nested
/// object values.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quote(k));
        self.body.push_str(": ");
    }

    /// A number; non-finite values are written as `null`.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn boolean(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.body.push_str(&quote(v));
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&xs), 6.0);
        assert_eq!(quantile(&xs, 0.9), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn json_object_escapes_and_orders() {
        let s = Obj::new()
            .str("a\"b", "x\\y")
            .num("n", 1.5)
            .num("nan", f64::NAN)
            .int("i", 3)
            .obj("o", Obj::new().boolean("t", true))
            .finish();
        assert_eq!(
            s,
            r#"{"a\"b": "x\\y", "n": 1.5, "nan": null, "i": 3, "o": {"t": true}}"#
        );
    }
}
