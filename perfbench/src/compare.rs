//! The offline compare step: reads two result sets (captured standard
//! output of benchmark runs, e.g. parent and change) and reports, per
//! workload and metric, each side's median and quartiles, the share of
//! seed-paired runs the change won, and a verdict. A pairing whose
//! run-to-run spread exceeds the metric's bound is "unresolved"; sets
//! whose build or host provenance differ are reported as "different
//! host" rather than compared.

use crate::report::{metric, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Provenance fields that must agree for two sets to be comparable.
const HOST_FIELDS: [&str; 6] = ["cpu", "nproc", "rustc", "profile", "threads", "mux"];

/// One parsed record line.
#[derive(Debug)]
struct Record {
    workload: String,
    trace: u64,
    seed: u64,
    host: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

fn parse_record(line: &str) -> Option<Record> {
    let obj = mi6_grid::parse_object(line).ok()?;
    if obj.get("perfbench")?.as_str()? != "record" {
        return None;
    }
    let text = |k: &str| {
        obj.get(k).map(|v| match v {
            mi6_grid::JsonValue::Str(s) => s.clone(),
            other => other.as_f64().map_or_else(String::new, |x| x.to_string()),
        })
    };
    Some(Record {
        workload: obj.get("workload")?.as_str()?.to_string(),
        trace: obj.get("trace")?.as_u64()?,
        seed: obj.get("seed")?.as_u64()?,
        host: HOST_FIELDS
            .iter()
            .map(|k| text(k).unwrap_or_default())
            .collect(),
        metrics: obj
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("m.")?.to_string(), v.as_f64()?)))
            .collect(),
    })
}

/// Every record line in `path` (a file, or a directory of files).
fn load(path: &Path) -> std::io::Result<Vec<Record>> {
    let mut files = Vec::new();
    if path.is_dir() {
        for e in std::fs::read_dir(path)? {
            files.push(e?.path());
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut records = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f)?;
        records.extend(text.lines().filter_map(parse_record));
    }
    Ok(records)
}

/// `statistics.quantiles(values, n=4)` (Python's default, exclusive
/// method): the three quartile cut points. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0;
    }
    Some(out)
}

/// One metric's comparison on one workload.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// Pairs (same seed in both sets) the change won, and pairs made.
    pub won: usize,
    pub pairs: usize,
    pub verdict: &'static str,
}

/// Compares one metric's per-seed values: `a` is the base (parent), `b`
/// the change.
pub fn compare_metric(
    a: &BTreeMap<u64, f64>,
    b: &BTreeMap<u64, f64>,
    better: Better,
    bound: Option<f64>,
) -> Option<Row> {
    let qa = quartiles(&a.values().copied().collect::<Vec<_>>())?;
    let qb = quartiles(&b.values().copied().collect::<Vec<_>>())?;
    let improves = |from: f64, to: f64| match better {
        Better::Lower => to < from,
        Better::Higher => to > from,
    };
    let mut won = 0;
    let mut pairs = 0;
    for (seed, va) in a {
        if let Some(vb) = b.get(seed) {
            pairs += 1;
            if improves(*va, *vb) {
                won += 1;
            }
        }
    }
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs();
    // Worsening of the change's median, as a share of the base median.
    let worse = match better {
        Better::Lower => (qb[1] - qa[1]) / qa[1].abs(),
        Better::Higher => (qa[1] - qb[1]) / qa[1].abs(),
    };
    let all_better = a.values().all(|va| b.values().all(|vb| improves(*va, *vb)));
    let verdict = match bound {
        _ if qa == qb => "same",
        Some(bound) if spread(&qa) > bound || spread(&qb) > bound => {
            if all_better {
                "better"
            } else {
                "unresolved"
            }
        }
        Some(bound) if worse > bound => "regression",
        _ if pairs > 0 && won * 10 >= pairs * 9 && (qb[1] - qa[1]).abs() > qa[2] - qa[0] => "gain",
        Some(_) => "within bound",
        None => "changed",
    };
    Some(Row {
        a: qa,
        b: qb,
        won,
        pairs,
        verdict,
    })
}

/// `perfbench compare BASE CHANGE`: prints the comparison report and
/// returns the process exit code (0 = no regression found, 1 = at least
/// one regression, 2 = bad input).
pub fn main(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare BASE_RESULTS CHANGE_RESULTS (files or directories)");
        return 2;
    };
    let (sa, sb) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(sa), Ok(sb)) if !sa.is_empty() && !sb.is_empty() => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("compare: a result set holds no record lines");
            return 2;
        }
    };
    let (text, regressions) = report(&sa, &sb);
    print!("{text}");
    i32::from(regressions > 0)
}

type Series = BTreeMap<(String, u64, String), BTreeMap<u64, f64>>;

fn series(records: &[Record]) -> Series {
    let mut out: Series = BTreeMap::new();
    for r in records {
        for (name, v) in &r.metrics {
            out.entry((r.workload.clone(), r.trace, name.clone()))
                .or_default()
                .insert(r.seed, *v);
        }
    }
    out
}

fn report(sa: &[Record], sb: &[Record]) -> (String, usize) {
    let mut out = String::new();
    let hosts = |s: &[Record]| {
        let mut h: Vec<&Vec<String>> = s.iter().map(|r| &r.host).collect();
        h.sort();
        h.dedup();
        h.into_iter().cloned().collect::<Vec<_>>()
    };
    let (ha, hb) = (hosts(sa), hosts(sb));
    if ha != hb || ha.len() != 1 {
        let _ = writeln!(
            out,
            "different host: the sets' build or host provenance differ ({}), \
             so no regression or gain is reported",
            HOST_FIELDS.join(", ")
        );
        for (side, h) in [("base", &ha), ("change", &hb)] {
            for fields in h {
                let _ = writeln!(out, "  {side}: {}", fields.join(" | "));
            }
        }
        return (out, 0);
    }
    let (a, b) = (series(sa), series(sb));
    let _ = writeln!(
        out,
        "{:<20} {:<26} {:>36} {:>36} {:>9} {:>10}  verdict",
        "workload",
        "metric",
        "base q1 / median / q3",
        "change q1 / median / q3",
        "won",
        "change/base"
    );
    let mut regressions = 0;
    for ((workload, trace, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), *trace, name.clone())) else {
            continue;
        };
        let Some(m) = metric(name) else { continue };
        let Some(row) = compare_metric(va, vb, m.better, m.bound) else {
            continue;
        };
        regressions += usize::from(row.verdict == "regression");
        let q = |q: [f64; 3]| format!("{} / {} / {}", sig(q[0]), sig(q[1]), sig(q[2]));
        let _ = writeln!(
            out,
            "{workload:<20} {:<26} {:>36} {:>36} {:>4}/{:<4} {:>10}  {} (base median {} {}, {} is better)",
            name,
            q(row.a),
            q(row.b),
            row.won,
            row.pairs,
            if row.a[1] == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", row.b[1] / row.a[1])
            },
            row.verdict,
            sig(row.a[1]),
            m.unit,
            m.better.name(),
        );
    }
    (out, regressions)
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (4 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_seed(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn values_print_with_five_significant_digits() {
        assert_eq!(sig(0.0012684), "0.0012684");
        assert_eq!(sig(2.74631), "2.7463");
        assert_eq!(sig(130.49224), "130.49");
        assert_eq!(sig(17315158.0), "17315158");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn verdicts() {
        let base = by_seed(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        let faster: Vec<f64> = base.values().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.values().map(|v| v * 1.3).collect();
        let row = compare_metric(&base, &by_seed(&faster), Better::Lower, Some(0.1)).unwrap();
        assert_eq!((row.verdict, row.won, row.pairs), ("gain", 10, 10));
        let row = compare_metric(&base, &by_seed(&slower), Better::Lower, Some(0.1)).unwrap();
        assert_eq!(row.verdict, "regression");
        let noisy = by_seed(&[5.0, 15.0, 10.0, 4.0, 16.0, 10.0, 9.0, 11.0, 3.0, 17.0]);
        let row = compare_metric(&base, &noisy, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(row.verdict, "unresolved");
        let row = compare_metric(&base, &base, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(row.verdict, "same");
    }

    #[test]
    fn records_round_trip_and_hosts_must_match() {
        let line = |cpu: &str, seed: u64, wall: f64| {
            format!(
                "{{\"perfbench\":\"record\",\"workload\":\"fig13-cold\",\"trace\":0,\"seed\":{seed},\
                 \"cpu\":\"{cpu}\",\"nproc\":2,\"rustc\":\"r\",\"profile\":\"p\",\"threads\":2,\"mux\":2,\
                 \"m.wall_s\":{wall}}}"
            )
        };
        let r = parse_record(&line("x", 3, 1.5)).unwrap();
        assert_eq!((r.seed, r.metrics["wall_s"]), (3, 1.5));
        let a: Vec<Record> = (0..3)
            .map(|s| parse_record(&line("x", s, 1.0)).unwrap())
            .collect();
        let b: Vec<Record> = (0..3)
            .map(|s| parse_record(&line("y", s, 9.0)).unwrap())
            .collect();
        let (text, regressions) = report(&a, &b);
        assert!(text.starts_with("different host"));
        assert_eq!(regressions, 0);
        let b: Vec<Record> = (0..3)
            .map(|s| parse_record(&line("x", s, 9.0)).unwrap())
            .collect();
        let (text, regressions) = report(&a, &b);
        assert_eq!(regressions, 1, "{text}");
    }
}
