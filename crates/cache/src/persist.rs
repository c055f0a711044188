//! Crash-safe persistence for the predicate cache.
//!
//! Each record is one line: an 8-hex-digit CRC32 (hand-rolled, IEEE
//! polynomial) over the JSON payload, a space, then the payload itself —
//! `c0a1b2d3 {"key":"…","pred":"…","optimal":1}`. The `pred` field is the
//! cached predicate rendered in canonical column space; it round-trips
//! through `sia_sql::parse_predicate` on load (canonical names `c0`/`p0`
//! are ordinary SQL identifiers).
//!
//! The checksum makes torn writes detectable: a process killed mid-write
//! leaves a truncated or garbled tail record whose CRC cannot match, so
//! recovery drops exactly the damaged records and keeps everything before
//! them instead of failing startup (the counts come back as a
//! [`LoadReport`]). A line without a CRC prefix is a damaged
//! record like any other: there is no unchecksummed format.

use std::io::{BufRead, Write};

use sia_obs::{json_string, parse_object, JsonValue};
use sia_sql::parse_predicate;

use crate::CachedResult;

/// What a snapshot load recovered and what it had to drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records recovered: CRC verified and payload parsed.
    pub recovered: usize,
    /// Records dropped: CRC mismatch, truncated tail, or unparseable.
    pub dropped: usize,
}

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The standard CRC32 checksum (same parameters as zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for b in bytes {
        c = CRC_TABLE[((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Render one cache entry as its JSON payload (no CRC, no newline).
pub(crate) fn entry_to_json(key: &str, value: &CachedResult) -> String {
    format!(
        "{{\"key\":{},\"pred\":{},\"optimal\":{}}}",
        json_string(key),
        json_string(&value.predicate.to_string()),
        u8::from(value.optimal)
    )
}

/// Render one cache entry as a checksummed record line (no newline).
pub(crate) fn entry_to_line(key: &str, value: &CachedResult) -> String {
    let json = entry_to_json(key, value);
    format!("{:08x} {json}", crc32(json.as_bytes()))
}

/// Parse one JSON payload back into a `(key, value)` pair.
fn json_to_entry(json: &str) -> Option<(String, CachedResult)> {
    let fields = parse_object(json).ok()?;
    let mut key = None;
    let mut pred = None;
    let mut optimal = false;
    for (name, value) in fields {
        match (name.as_str(), value) {
            ("key", JsonValue::Str(s)) => key = Some(s),
            ("pred", JsonValue::Str(s)) => pred = Some(parse_predicate(&s).ok()?),
            ("optimal", JsonValue::Num(n)) => optimal = n != 0.0,
            _ => {}
        }
    }
    Some((
        key?,
        CachedResult {
            predicate: pred?,
            optimal,
            clean_lint: None,
        },
    ))
}

/// Parse one record line: verify the CRC, then parse the payload.
pub(crate) fn line_to_entry(line: &str) -> Option<(String, CachedResult)> {
    let (crc_hex, json) = line.split_once(' ')?;
    let stored = u32::from_str_radix(crc_hex, 16).ok()?;
    if crc_hex.len() != 8 || crc32(json.as_bytes()) != stored {
        return None;
    }
    json_to_entry(json)
}

/// Write entries to `w`, one checksummed record line each, sorted by key
/// so the file is deterministic for a given cache state.
pub(crate) fn save<'a, W: Write>(
    w: &mut W,
    entries: impl Iterator<Item = (&'a str, &'a CachedResult)>,
) -> std::io::Result<usize> {
    let mut lines: Vec<String> = entries.map(|(k, v)| entry_to_line(k, v)).collect();
    lines.sort();
    for line in &lines {
        writeln!(w, "{line}")?;
    }
    Ok(lines.len())
}

/// Read entries from `r`. Blank lines are ignored; records that fail the
/// CRC check or do not parse are dropped (counted in the report) rather
/// than failing the load — a crash mid-write damages only the tail.
pub(crate) fn load<R: BufRead>(r: R) -> std::io::Result<(Vec<(String, CachedResult)>, LoadReport)> {
    let mut out = Vec::new();
    let mut report = LoadReport::default();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(entry) = line_to_entry(&line) {
            report.recovered += 1;
            out.push(entry);
        } else {
            report.dropped += 1;
        }
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for "123456789" and a couple of basics.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn line_round_trips() {
        let value = CachedResult {
            predicate: parse_predicate("c0 < DATE '1995-03-15' AND c1 >= 7").unwrap(),
            optimal: true,
            clean_lint: None,
        };
        let line = entry_to_line("k1", &value);
        let (key, back) = line_to_entry(&line).unwrap();
        assert_eq!(key, "k1");
        assert_eq!(back.predicate, value.predicate);
        assert!(back.optimal);
    }

    #[test]
    fn corrupted_records_fail_the_crc() {
        let value = CachedResult {
            predicate: parse_predicate("c0 < 1").unwrap(),
            optimal: false,
            clean_lint: None,
        };
        let line = entry_to_line("k", &value);
        // Flip one payload byte: CRC must reject it.
        let mut garbled = line.clone().into_bytes();
        let last = garbled.len() - 2;
        garbled[last] = garbled[last].wrapping_add(1);
        assert!(line_to_entry(std::str::from_utf8(&garbled).unwrap()).is_none());
        // Truncate mid-payload: also rejected.
        assert!(line_to_entry(&line[..line.len() - 4]).is_none());
    }

    #[test]
    fn line_without_crc_is_dropped_and_counted() {
        // A record whose checksum prefix was stripped or torn off must not
        // load unverified.
        let data = "{\"key\":\"a\",\"pred\":\"c0 < 1\",\"optimal\":0}\n";
        let (entries, report) = load(data.as_bytes()).unwrap();
        assert!(entries.is_empty());
        assert_eq!(
            report,
            LoadReport {
                recovered: 0,
                dropped: 1
            }
        );
    }

    #[test]
    fn damaged_tail_is_dropped_and_counted() {
        let good = CachedResult {
            predicate: parse_predicate("c0 < 1").unwrap(),
            optimal: false,
            clean_lint: None,
        };
        let l0 = entry_to_line("a", &good);
        let l1 = entry_to_line("b", &good);
        // Simulate a crash mid-write: the last record is cut in half.
        let torn = &l1[..l1.len() / 2];
        let data = format!("{l0}\n{torn}\nnot a record\n");
        let (entries, report) = load(data.as_bytes()).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "a");
        assert_eq!(
            report,
            LoadReport {
                recovered: 1,
                dropped: 2
            }
        );
    }
}
