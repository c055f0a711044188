//! The workload file format: JSONL with a header line echoing the generator
//! config, then one flat object per request. Replayable (`sia batch`
//! tells it from a file of request lines by its header) and diffable
//! across PRs.
//!
//! Every value is a string or a number — the workspace's hand-rolled JSON
//! parser (`sia_obs::parse_object`) knows no other shapes, on purpose.

use sia_expr::Pred;
use sia_obs::{json_number, json_string, parse_object, JsonValue};
use sia_sql::parse_predicate;

use crate::config::GenConfig;
use crate::generate::GenRequest;

/// Format version stamped into the header line.
pub const WORKLOAD_VERSION: f64 = 1.0;

/// A parsed workload file: the config that produced it plus the requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Generator config echoed from the header.
    pub config: GenConfig,
    /// The requests, in file order.
    pub requests: Vec<GenRequest>,
}

/// Render one request as a flat JSON line.
fn request_line(r: &GenRequest) -> String {
    let mut s = String::from("{");
    let push = |s: &mut String, k: &str, v: String| {
        if s.len() > 1 {
            s.push(',');
        }
        s.push_str(&json_string(k));
        s.push(':');
        s.push_str(&v);
    };
    push(&mut s, "id", json_string(&r.id));
    push(&mut s, "table", json_string(&r.table));
    push(&mut s, "predicate", json_string(&r.predicate.to_string()));
    push(&mut s, "cols", json_string(&r.cols.join(",")));
    if let Some(sel) = r.est_selectivity {
        push(&mut s, "selectivity", json_number(sel));
    }
    if let Some(t) = r.template {
        push(&mut s, "template", json_number(t as f64));
    }
    s.push('}');
    s
}

/// Serialize a workload: header line first, one request per line after.
pub fn to_string(config: &GenConfig, requests: &[GenRequest]) -> String {
    let mut out = String::new();
    // The header is the config object plus a version marker.
    let cfg = config.to_json();
    out.push_str(&format!(
        "{{\"sia_workload\":{},{}",
        json_number(WORKLOAD_VERSION),
        &cfg[1..]
    ));
    out.push('\n');
    for r in requests {
        out.push_str(&request_line(r));
        out.push('\n');
    }
    out
}

fn parse_request_line(line: &str, lineno: usize) -> Result<GenRequest, String> {
    let pairs = parse_object(line).map_err(|e| format!("workload line {lineno}: {e}"))?;
    let mut id = None;
    let mut table = None;
    let mut predicate: Option<Pred> = None;
    let mut cols: Vec<String> = Vec::new();
    let mut est_selectivity = None;
    let mut template = None;
    for (k, v) in pairs {
        match (k.as_str(), &v) {
            ("id", JsonValue::Str(s)) => id = Some(s.clone()),
            ("table", JsonValue::Str(s)) => table = Some(s.clone()),
            ("predicate", JsonValue::Str(s)) => {
                predicate = Some(
                    parse_predicate(s)
                        .map_err(|e| format!("workload line {lineno}: bad predicate: {e}"))?,
                );
            }
            ("cols", JsonValue::Str(s)) => {
                cols = s
                    .split(',')
                    .map(str::trim)
                    .filter(|c| !c.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            ("selectivity", JsonValue::Num(n)) => est_selectivity = Some(*n),
            ("template", JsonValue::Num(n)) => template = Some(*n as usize),
            _ => {}
        }
    }
    Ok(GenRequest {
        id: id.ok_or_else(|| format!("workload line {lineno}: missing id"))?,
        table: table.unwrap_or_else(|| "lineitem".to_string()),
        predicate: predicate.ok_or_else(|| format!("workload line {lineno}: missing predicate"))?,
        cols,
        est_selectivity,
        template,
    })
}

/// Parse a workload file's full contents (header + request lines). Blank
/// lines are ignored.
pub fn from_str(text: &str) -> Result<Workload, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or_else(|| "empty workload file".to_string())?;
    let pairs = parse_object(header).map_err(|e| format!("workload header: {e}"))?;
    let version = pairs
        .iter()
        .find_map(|(k, v)| (k == "sia_workload").then(|| v.as_num()).flatten());
    match version {
        Some(v) if v == WORKLOAD_VERSION => {}
        Some(v) => return Err(format!("unsupported workload version {v}")),
        None => return Err("missing sia_workload header (is this a workload file?)".to_string()),
    }
    let config = GenConfig::from_json(header)?;
    let mut requests = Vec::new();
    for (i, line) in lines {
        requests.push(parse_request_line(line, i + 1)?);
    }
    Ok(Workload { config, requests })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn round_trips_a_generated_workload() {
        let cfg = GenConfig {
            count: 12,
            repeat_rate: 0.4,
            target_selectivity: Some(0.3),
            ..GenConfig::default()
        };
        let reqs = generate(&cfg).unwrap();
        let text = to_string(&cfg, &reqs);
        let back = from_str(&text).unwrap();
        assert_eq!(back.config, cfg);
        assert_eq!(back.requests.len(), reqs.len());
        for (a, b) in back.requests.iter().zip(&reqs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.table, b.table);
            // The predicate survives Display → parse.
            assert_eq!(a.predicate.to_string(), b.predicate.to_string());
            assert_eq!(a.cols, b.cols);
            assert_eq!(a.template, b.template);
        }
    }

    #[test]
    fn rejects_non_workload_input() {
        assert!(from_str("").is_err());
        assert!(from_str("{\"id\":\"q0\"}").is_err());
        assert!(from_str("not json").is_err());
    }
}
