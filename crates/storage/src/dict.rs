//! Dictionary-encoded string columns.

use std::sync::Arc;

/// A dictionary-encoded string column.
///
/// Low-cardinality string columns (e.g. `l_returnflag`, `l_shipmode`,
/// `p_type`) are stored as a `u32` code per row plus a sorted-by-insertion
/// dictionary of distinct strings. String predicates are evaluated **once per
/// dictionary entry** producing a small code-set, after which the per-row
/// work is an integer membership test — this is how the hand-coded
/// implementations in the paper convert string matching (e.g. Q14's
/// `p_type like 'PROMO%'`) into "a lookup in a small hash table computed on
/// the fly".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DictColumn {
    codes: Vec<u32>,
    /// Shared with every result keyed by this column, so a result carries
    /// the dictionary without copying its strings.
    values: Arc<Vec<String>>,
}

impl DictColumn {
    /// Create an empty column.
    pub fn new() -> DictColumn {
        DictColumn::default()
    }

    /// Build from parts. Panics if any code is out of range for the
    /// dictionary.
    pub fn from_parts(codes: Vec<u32>, values: Vec<String>) -> DictColumn {
        let n = values.len() as u32;
        assert!(codes.iter().all(|&c| c < n), "dictionary code out of range");
        DictColumn {
            codes,
            values: Arc::new(values),
        }
    }

    /// Encode a slice of strings, building the dictionary in first-seen
    /// order.
    pub fn encode<S: AsRef<str>>(rows: &[S]) -> DictColumn {
        let mut col = DictColumn::new();
        for r in rows {
            col.push(r.as_ref());
        }
        col
    }

    /// Append one row, interning its string.
    pub fn push(&mut self, value: &str) {
        // Linear scan: dictionaries are tiny by construction (low
        // cardinality), and encoding happens once at load time.
        let code = match self.values.iter().position(|v| v == value) {
            Some(i) => i as u32,
            None => {
                let values = Arc::make_mut(&mut self.values);
                values.push(value.to_owned());
                (values.len() - 1) as u32
            }
        };
        self.codes.push(code);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// The code stored for row `i`.
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// The decoded string for row `i`.
    pub fn value(&self, i: usize) -> &str {
        &self.values[self.codes[i] as usize]
    }

    /// Borrow the per-row code array (the thing kernels scan).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Borrow the dictionary.
    pub fn dictionary(&self) -> &[String] {
        &self.values
    }

    /// The dictionary itself, shared: what a result keyed by this column
    /// decodes its codes with.
    pub fn shared_dictionary(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.values)
    }

    /// Look up the code of a string, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.values
            .iter()
            .position(|v| v == value)
            .map(|i| i as u32)
    }

    /// Evaluate an arbitrary string predicate once per **dictionary entry**
    /// and return the set of matching codes as a boolean lookup table indexed
    /// by code.
    ///
    /// Per-row evaluation then reduces to `table[code]`, converting expensive
    /// string matching into a sequential integer scan — the transformation
    /// the paper applies to every string predicate in TPC-H.
    pub fn matching_codes<F: Fn(&str) -> bool>(&self, pred: F) -> Vec<bool> {
        self.values.iter().map(|v| pred(v)).collect()
    }
}

/// SQL `LIKE` matcher supporting `%` (any run, including empty) and `_`
/// (exactly one character). Operates on bytes; TPC-H strings are ASCII.
///
/// Used for the string predicates of Q13 (`not like '%special%requests%'`),
/// Q14 (`like 'PROMO%'`) and the generated comment columns.
pub fn like_match(pattern: &str, value: &str) -> bool {
    like_bytes(pattern.as_bytes(), value.as_bytes())
}

fn like_bytes(pat: &[u8], val: &[u8]) -> bool {
    // Iterative two-pointer algorithm with backtracking to the last `%`.
    let (mut p, mut v) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while v < val.len() {
        if p < pat.len() && (pat[p] == b'_' || pat[p] == val[v]) {
            p += 1;
            v += 1;
        } else if p < pat.len() && pat[p] == b'%' {
            star = Some((p, v));
            p += 1;
        } else if let Some((sp, sv)) = star {
            // Backtrack: let the last `%` absorb one more character.
            p = sp + 1;
            v = sv + 1;
            star = Some((sp, sv + 1));
        } else {
            return false;
        }
    }
    while p < pat.len() && pat[p] == b'%' {
        p += 1;
    }
    p == pat.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_interns_values() {
        let col = DictColumn::encode(&["AIR", "MAIL", "AIR", "SHIP", "AIR"]);
        assert_eq!(col.len(), 5);
        assert_eq!(col.cardinality(), 3);
        assert_eq!(col.value(0), "AIR");
        assert_eq!(col.value(2), "AIR");
        assert_eq!(col.code(0), col.code(2));
        assert_ne!(col.code(0), col.code(1));
    }

    #[test]
    fn code_of_finds_existing_only() {
        let col = DictColumn::encode(&["a", "b"]);
        assert_eq!(col.code_of("a"), Some(0));
        assert_eq!(col.code_of("b"), Some(1));
        assert_eq!(col.code_of("c"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_validates_codes() {
        DictColumn::from_parts(vec![1], vec!["only".into()]);
    }

    #[test]
    fn matching_codes_is_indexed_by_code() {
        let col = DictColumn::encode(&["PROMO BRUSHED", "STANDARD", "PROMO ANODIZED"]);
        let m = col.matching_codes(|s| s.starts_with("PROMO"));
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn like_literal() {
        assert!(like_match("PROMO", "PROMO"));
        assert!(!like_match("PROMO", "PROMO X"));
        assert!(!like_match("PROMO", "PROM"));
    }

    #[test]
    fn like_prefix_suffix_infix() {
        assert!(like_match("PROMO%", "PROMO BRUSHED"));
        assert!(!like_match("PROMO%", "STANDARD"));
        assert!(like_match("%requests%", "many requests here"));
        assert!(like_match("%requests", "special requests"));
        assert!(!like_match("%requests", "requests denied"));
    }

    #[test]
    fn like_q13_pattern() {
        // Q13: o_comment not like '%special%requests%'
        let p = "%special%requests%";
        assert!(like_match(p, "xx special yy requests zz"));
        assert!(like_match(p, "specialrequests"));
        assert!(!like_match(p, "requests then special")); // order matters
        assert!(!like_match(p, "nothing interesting"));
    }

    #[test]
    fn like_underscore() {
        assert!(like_match("c_t", "cat"));
        assert!(like_match("c_t", "cut"));
        assert!(!like_match("c_t", "cart"));
        assert!(like_match("_%", "x"));
        assert!(!like_match("_%", ""));
    }

    #[test]
    fn like_empty_cases() {
        assert!(like_match("", ""));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("", "x"));
    }

    #[test]
    fn like_backtracking_stress() {
        assert!(like_match("%a%b%a%", "xxaxxbxxaxx"));
        assert!(!like_match("%a%b%a%", "xxaxxbxx"));
        assert!(like_match("%aab%", "aaab"));
    }
}
