//! Output digests and the committed goldens they are checked against.
//!
//! A golden file has one entry a line, `<kind> <key> <value> <scope>`:
//! `kind` is `unit` (value: the unit's output digest) or `count` (value: an
//! exact simulated count); `scope` is `any` when the value holds for every
//! seed, or the one seed it was recorded at. `#` starts a comment.

use std::collections::BTreeMap;

/// FNV-1a, 64-bit: stable across Rust releases, unlike `DefaultHasher`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Any,
    Seed(u64),
}

impl Scope {
    fn holds_for(self, seed: u64) -> bool {
        match self {
            Scope::Any => true,
            Scope::Seed(s) => s == seed,
        }
    }
}

/// What one check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Match,
    /// No golden applies to this seed; the value is only printed.
    Unchecked,
    Mismatch,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Match => "match",
            Verdict::Unchecked => "unchecked",
            Verdict::Mismatch => "mismatch",
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Goldens {
    /// `(kind, key)` → (value, scope).
    entries: BTreeMap<(String, String), (String, Scope)>,
}

impl Goldens {
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [kind, key, value, scope] = fields[..] else {
                return Err(format!("golden line {}: expected 4 fields", n + 1));
            };
            if kind != "unit" && kind != "count" {
                return Err(format!("golden line {}: unknown kind {kind:?}", n + 1));
            }
            let scope = match scope {
                "any" => Scope::Any,
                s => Scope::Seed(
                    s.parse()
                        .map_err(|_| format!("golden line {}: bad scope {s:?}", n + 1))?,
                ),
            };
            entries.insert(
                (kind.to_string(), key.to_string()),
                (value.to_string(), scope),
            );
        }
        Ok(Goldens { entries })
    }

    /// Loads `<dir>/<name>.txt`; a missing file is an error, not an empty
    /// golden set, so a checkout without goldens cannot pass as correct.
    pub fn load(dir: &str, name: &str) -> Result<Goldens, String> {
        let path = format!("{dir}/{name}.txt");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Goldens::parse(&text)
    }

    /// Checks `value` against the golden of `(kind, key)` for `seed`.
    pub fn check(&self, kind: &str, key: &str, seed: u64, value: &str) -> Verdict {
        match self.entries.get(&(kind.to_string(), key.to_string())) {
            Some((want, scope)) if scope.holds_for(seed) => {
                if want == value {
                    Verdict::Match
                } else {
                    Verdict::Mismatch
                }
            }
            _ => Verdict::Unchecked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    const GOLDEN: &str = "# recorded at seed 42\n\
                          unit fig03 0123456789abcdef any\n\
                          unit serve_latency fedcba9876543210 42\n\
                          count iterations 1234 42\n";

    #[test]
    fn scopes_select_which_seeds_are_checked() {
        let g = Goldens::parse(GOLDEN).unwrap();
        assert_eq!(
            g.check("unit", "fig03", 7, "0123456789abcdef"),
            Verdict::Match
        );
        assert_eq!(
            g.check("unit", "serve_latency", 42, "fedcba9876543210"),
            Verdict::Match
        );
        assert_eq!(g.check("unit", "serve_latency", 7, "x"), Verdict::Unchecked);
        assert_eq!(g.check("unit", "absent", 42, "x"), Verdict::Unchecked);
        assert_eq!(g.check("count", "iterations", 42, "1234"), Verdict::Match);
    }

    #[test]
    fn a_perturbed_golden_is_detected() {
        let perturbed = GOLDEN.replace("0123456789abcdef", "0123456789abcdee");
        let g = Goldens::parse(&perturbed).unwrap();
        assert_eq!(
            g.check("unit", "fig03", 42, "0123456789abcdef"),
            Verdict::Mismatch
        );
        let drifted = GOLDEN.replace("1234", "1235");
        let g = Goldens::parse(&drifted).unwrap();
        assert_eq!(
            g.check("count", "iterations", 42, "1234"),
            Verdict::Mismatch
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Goldens::parse("unit fig03 abc").is_err());
        assert!(Goldens::parse("blob fig03 abc any").is_err());
        assert!(Goldens::parse("unit fig03 abc seven").is_err());
    }
}
