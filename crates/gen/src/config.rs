//! Generator configuration: the knobs, plus a flat JSON round-trip so a
//! workload file can echo the exact config that produced it.

use sia_obs::{json_number, json_string, parse_object, JsonValue};

/// Zone-fragment eligibility policy for generated atoms.
///
/// The static derivation tier (difference-bound matrices) can discharge a
/// request without touching the SVM/solver only when every atom is a
/// unit-coefficient bound (`c ⋈ k`) or difference (`c - d ⋈ k`). The policy
/// controls whether generated predicates stay inside that fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ZonePolicy {
    /// No constraint: mostly eligible atoms with an occasional ineligible one.
    #[default]
    Any,
    /// Every atom is zone-eligible (static derivation can fire).
    Eligible,
    /// At least one ineligible atom per request (static derivation cannot
    /// produce an exact result, so the SVM/solver path is exercised).
    Ineligible,
}

impl ZonePolicy {
    /// Stable lower-case name used in config files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ZonePolicy::Any => "any",
            ZonePolicy::Eligible => "eligible",
            ZonePolicy::Ineligible => "ineligible",
        }
    }

    /// Parse a policy name.
    pub fn parse(s: &str) -> Result<ZonePolicy, String> {
        match s {
            "any" => Ok(ZonePolicy::Any),
            "eligible" => Ok(ZonePolicy::Eligible),
            "ineligible" => Ok(ZonePolicy::Ineligible),
            other => Err(format!(
                "unknown zone policy {other:?} (expected any|eligible|ineligible)"
            )),
        }
    }
}

/// All generator knobs. `Default` is a moderate CNF-leaning workload over
/// `lineitem` with no selectivity target and no repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Target table (must exist in the schema registry).
    pub table: String,
    /// Number of requests to generate.
    pub count: usize,
    /// RNG seed; same seed + config → identical workload.
    pub seed: u64,
    /// Minimum top-level term count.
    pub min_terms: usize,
    /// Maximum top-level term count.
    pub max_terms: usize,
    /// Probability the top level is a conjunction (CNF-leaning) rather than
    /// a disjunction (DNF-leaning).
    pub cnf_weight: f64,
    /// Probability a top-level term is a nested two/three-atom group of the
    /// opposite connective rather than a single atom.
    pub nest_rate: f64,
    /// Probability an atom over a dictionary column becomes an IN-list
    /// (encoded as a disjunction of equalities).
    pub in_list_rate: f64,
    /// Probability a range atom widens into a BETWEEN (two-sided bound).
    pub between_rate: f64,
    /// Probability an atom uses divisibility-style integer division
    /// (`c / k ⋈ q`) when the policy allows ineligible atoms.
    pub div_rate: f64,
    /// Probability column picks prefer nullable columns (NULL-heavy
    /// workloads stress three-valued logic paths).
    pub null_weight: f64,
    /// Zone-fragment eligibility policy.
    pub zone: ZonePolicy,
    /// Target whole-predicate selectivity on sampled rows, if any.
    pub target_selectivity: Option<f64>,
    /// Acceptable absolute deviation from the target.
    pub selectivity_tolerance: f64,
    /// Probability a request repeats an earlier template (the cache-hit
    /// knob): identical predicate modulo optional parameter drift.
    pub repeat_rate: f64,
    /// Probability a repeated template drifts its constants (near-miss
    /// traffic: same shape, different parameters → cache miss).
    pub drift_rate: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            table: "lineitem".to_string(),
            count: 100,
            seed: 0x51A_6E11,
            min_terms: 2,
            max_terms: 5,
            cnf_weight: 0.75,
            nest_rate: 0.25,
            in_list_rate: 0.15,
            between_rate: 0.2,
            div_rate: 0.3,
            null_weight: 0.0,
            zone: ZonePolicy::Any,
            target_selectivity: None,
            selectivity_tolerance: 0.1,
            repeat_rate: 0.0,
            drift_rate: 0.0,
        }
    }
}

impl GenConfig {
    /// Serialize as one flat JSON object (strings and numbers only, so the
    /// workspace's hand-rolled JSONL parser can read it back).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let push = |s: &mut String, k: &str, v: String| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push_str(&json_string(k));
            s.push(':');
            s.push_str(&v);
        };
        push(&mut s, "table", json_string(&self.table));
        push(&mut s, "count", json_number(self.count as f64));
        // u64 seeds above 2^53 don't survive an f64 round-trip; ship as text.
        push(&mut s, "seed", json_string(&self.seed.to_string()));
        push(&mut s, "min_terms", json_number(self.min_terms as f64));
        push(&mut s, "max_terms", json_number(self.max_terms as f64));
        push(&mut s, "cnf_weight", json_number(self.cnf_weight));
        push(&mut s, "nest_rate", json_number(self.nest_rate));
        push(&mut s, "in_list_rate", json_number(self.in_list_rate));
        push(&mut s, "between_rate", json_number(self.between_rate));
        push(&mut s, "div_rate", json_number(self.div_rate));
        push(&mut s, "null_weight", json_number(self.null_weight));
        push(&mut s, "zone", json_string(self.zone.name()));
        if let Some(t) = self.target_selectivity {
            push(&mut s, "target_selectivity", json_number(t));
        }
        push(
            &mut s,
            "selectivity_tolerance",
            json_number(self.selectivity_tolerance),
        );
        push(&mut s, "repeat_rate", json_number(self.repeat_rate));
        push(&mut s, "drift_rate", json_number(self.drift_rate));
        s.push('}');
        s
    }

    /// Parse a config from the flat JSON emitted by [`GenConfig::to_json`].
    /// Unknown keys are ignored (forward compatibility); missing keys keep
    /// their defaults.
    pub fn from_json(line: &str) -> Result<GenConfig, String> {
        let pairs = parse_object(line)?;
        let mut cfg = GenConfig::default();
        for (k, v) in pairs {
            match (k.as_str(), &v) {
                ("table", JsonValue::Str(s)) => cfg.table.clone_from(s),
                ("count", JsonValue::Num(n)) => cfg.count = *n as usize,
                ("seed", JsonValue::Str(s)) => {
                    cfg.seed = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
                }
                ("seed", JsonValue::Num(n)) => cfg.seed = *n as u64,
                ("min_terms", JsonValue::Num(n)) => cfg.min_terms = *n as usize,
                ("max_terms", JsonValue::Num(n)) => cfg.max_terms = *n as usize,
                ("cnf_weight", JsonValue::Num(n)) => cfg.cnf_weight = *n,
                ("nest_rate", JsonValue::Num(n)) => cfg.nest_rate = *n,
                ("in_list_rate", JsonValue::Num(n)) => cfg.in_list_rate = *n,
                ("between_rate", JsonValue::Num(n)) => cfg.between_rate = *n,
                ("div_rate", JsonValue::Num(n)) => cfg.div_rate = *n,
                ("null_weight", JsonValue::Num(n)) => cfg.null_weight = *n,
                ("zone", JsonValue::Str(s)) => cfg.zone = ZonePolicy::parse(s)?,
                ("target_selectivity", JsonValue::Num(n)) => cfg.target_selectivity = Some(*n),
                ("selectivity_tolerance", JsonValue::Num(n)) => cfg.selectivity_tolerance = *n,
                ("repeat_rate", JsonValue::Num(n)) => cfg.repeat_rate = *n,
                ("drift_rate", JsonValue::Num(n)) => cfg.drift_rate = *n,
                _ => {}
            }
        }
        if cfg.min_terms == 0 || cfg.max_terms < cfg.min_terms {
            return Err(format!(
                "invalid term bounds {}..={}",
                cfg.min_terms, cfg.max_terms
            ));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut cfg = GenConfig {
            table: "wide".to_string(),
            seed: u64::MAX - 3,
            zone: ZonePolicy::Ineligible,
            target_selectivity: Some(0.25),
            repeat_rate: 0.5,
            ..GenConfig::default()
        };
        cfg.count = 42;
        let back = GenConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
        // A header written when the IN-list cap, sample size and retry
        // budget were settings still parses: the keys are ignored.
        let old = cfg.to_json().replacen(
            '{',
            "{\"max_in_list\":5,\"sample_rows\":256,\"max_retries\":16,",
            1,
        );
        assert_eq!(GenConfig::from_json(&old).unwrap(), cfg);
    }

    #[test]
    fn missing_target_stays_none() {
        let cfg = GenConfig::default();
        assert!(cfg.target_selectivity.is_none());
        let back = GenConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.target_selectivity, None);
    }

    #[test]
    fn zone_parse_rejects_unknown() {
        assert!(ZonePolicy::parse("sometimes").is_err());
        assert_eq!(ZonePolicy::parse("eligible").unwrap(), ZonePolicy::Eligible);
    }
}
