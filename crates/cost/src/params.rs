//! Primitive access-cost parameters.

/// Primitive per-tuple access costs, in CPU cycles.
///
/// `read_seq` and `read_cond` are the paper's sequential / conditional
/// access costs (refs \[6\], \[7\]); the hash-structure costs are priced by
/// which cache level the structure fits in, since "a lookup in a large hash
/// table with uniformly distributed values will almost certainly result in a
/// cache miss" (§ IV-B).
///
/// Defaults are representative of a modern x86-64 server; run
/// [`crate::calibrate::calibrate`] (or the `calibrate` binary) to measure
/// the host instead.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Cycles per value read in a pure sequential scan (prefetcher-friendly).
    pub read_seq: f64,
    /// Cycles per conditional (selection-vector driven or branch-guarded)
    /// value access at intermediate selectivities: branch-misprediction +
    /// broken prefetch.
    pub read_cond: f64,
    /// Cycles to access the throwaway (NULL-key) hash-table entry: it is
    /// touched constantly when the predicate often fails, so it stays in L1.
    pub ht_null: f64,
    /// Cache capacities in bytes, smallest first (L1, L2, L3).
    pub cache_bytes: [usize; 3],
    /// Hash-table lookup cost (cycles) when the table fits in L1, L2, L3,
    /// or only DRAM, respectively.
    pub ht_lookup_by_level: [f64; 4],
    /// Multiplier on the lookup cost for inserts (probe + write + occasional
    /// growth amortization).
    pub ht_insert_factor: f64,
    /// Multiplier on the lookup cost for deletes (probe + backward shift).
    pub ht_delete_factor: f64,
    /// Fixed cycles to spawn + join one morsel worker (thread start, stack
    /// setup, scheduling). Charged once per extra thread.
    pub par_task_cycles: f64,
    /// Cycles per hash-table group merged from a thread-local accumulator
    /// into the global one. Charged `(threads - 1) * groups` times.
    pub par_merge_cycles_per_group: f64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            read_seq: 1.0,
            read_cond: 8.0,
            ht_null: 2.0,
            // 32 KB L1d, 512 KB L2, 16 MB L3 — ballpark for the paper's
            // E5-2660 v2 class and most contemporary parts.
            cache_bytes: [32 << 10, 512 << 10, 16 << 20],
            ht_lookup_by_level: [4.0, 12.0, 40.0, 150.0],
            ht_insert_factor: 1.5,
            ht_delete_factor: 2.0,
            // ~10 µs at 4 GHz per spawned worker; merge touches one cache
            // line per group, priced like an L2 access.
            par_task_cycles: 40_000.0,
            par_merge_cycles_per_group: 12.0,
        }
    }
}

impl CostParams {
    /// Cycles for one lookup in a hash structure occupying `table_bytes`.
    pub fn ht_lookup(&self, table_bytes: usize) -> f64 {
        let level = self
            .cache_bytes
            .iter()
            .position(|&cap| table_bytes <= cap)
            .unwrap_or(3);
        self.ht_lookup_by_level[level]
    }

    /// Cycles for one upsert into a dense group array of `table_bytes`
    /// (indexed by the key, no probe): the array's cache tier, but never
    /// below the L2 tier. Consecutive upserts into the few hot slots of a
    /// small domain form a chain through store-to-load forwarding, so an
    /// L1-resident array is no cheaper than an L2-resident one.
    pub fn dense_upsert(&self, table_bytes: usize) -> f64 {
        self.ht_lookup(table_bytes).max(self.ht_lookup_by_level[1])
    }

    /// Cycles for one insert into a structure of `table_bytes`.
    pub fn ht_insert(&self, table_bytes: usize) -> f64 {
        self.ht_lookup(table_bytes) * self.ht_insert_factor
    }

    /// Cycles for one delete from a structure of `table_bytes`.
    pub fn ht_delete(&self, table_bytes: usize) -> f64 {
        self.ht_lookup(table_bytes) * self.ht_delete_factor
    }

    /// Rough payload size of an aggregation hash table with `n_keys` groups
    /// and `n_aggs` 64-bit states per group (matches `swole-ht`'s layout:
    /// 50 % max load factor, key + states + flag per slot).
    pub fn agg_table_bytes(n_keys: usize, n_aggs: usize) -> usize {
        let slots = (n_keys.max(4) * 2).next_power_of_two();
        slots * (8 + 8 * n_aggs + 1)
    }

    /// Cycles of pure parallelism overhead for running a query on `threads`
    /// workers whose thread-local accumulators hold `n_groups` groups each:
    /// worker spawn/join plus the sequential merge of every extra
    /// accumulator. Zero when `threads <= 1`.
    pub fn parallel_overhead(&self, threads: usize, n_groups: usize) -> f64 {
        let extra = threads.saturating_sub(1) as f64;
        extra * (self.par_task_cycles + self.par_merge_cycles_per_group * n_groups as f64)
    }

    /// Serialize as pretty-printed JSON (offline replacement for the serde
    /// derive this struct used to carry; field set must match [`from_json`]).
    ///
    /// [`from_json`]: CostParams::from_json
    pub fn to_json_pretty(&self) -> String {
        format!(
            "{{\n  \"read_seq\": {},\n  \"read_cond\": {},\n  \"ht_null\": {},\n  \
             \"cache_bytes\": [{}, {}, {}],\n  \
             \"ht_lookup_by_level\": [{}, {}, {}, {}],\n  \
             \"ht_insert_factor\": {},\n  \"ht_delete_factor\": {},\n  \
             \"par_task_cycles\": {},\n  \"par_merge_cycles_per_group\": {}\n}}",
            self.read_seq,
            self.read_cond,
            self.ht_null,
            self.cache_bytes[0],
            self.cache_bytes[1],
            self.cache_bytes[2],
            self.ht_lookup_by_level[0],
            self.ht_lookup_by_level[1],
            self.ht_lookup_by_level[2],
            self.ht_lookup_by_level[3],
            self.ht_insert_factor,
            self.ht_delete_factor,
            self.par_task_cycles,
            self.par_merge_cycles_per_group,
        )
    }

    /// Parse the JSON produced by [`to_json_pretty`]. Unknown fields are
    /// errors; missing parallel-overhead fields fall back to defaults so
    /// params files calibrated before the parallel executor still load.
    ///
    /// [`to_json_pretty`]: CostParams::to_json_pretty
    pub fn from_json(text: &str) -> Result<CostParams, String> {
        let mut p = CostParams::default();
        let mut seen_core = 0usize;
        for (key, values) in json::parse_flat_object(text)? {
            let one = |v: &[f64]| -> Result<f64, String> {
                match v {
                    [x] => Ok(*x),
                    _ => Err(format!("field `{key}` expects a single number")),
                }
            };
            match key.as_str() {
                "read_seq" => p.read_seq = one(&values)?,
                "read_cond" => p.read_cond = one(&values)?,
                "ht_null" => p.ht_null = one(&values)?,
                "cache_bytes" => {
                    if values.len() != 3 {
                        return Err("cache_bytes expects 3 numbers".into());
                    }
                    for (dst, v) in p.cache_bytes.iter_mut().zip(&values) {
                        *dst = *v as usize;
                    }
                }
                "ht_lookup_by_level" => {
                    if values.len() != 4 {
                        return Err("ht_lookup_by_level expects 4 numbers".into());
                    }
                    for (dst, v) in p.ht_lookup_by_level.iter_mut().zip(&values) {
                        *dst = *v;
                    }
                }
                "ht_insert_factor" => p.ht_insert_factor = one(&values)?,
                "ht_delete_factor" => p.ht_delete_factor = one(&values)?,
                "par_task_cycles" => {
                    p.par_task_cycles = one(&values)?;
                    continue;
                }
                "par_merge_cycles_per_group" => {
                    p.par_merge_cycles_per_group = one(&values)?;
                    continue;
                }
                other => return Err(format!("unknown CostParams field `{other}`")),
            }
            seen_core += 1;
        }
        if seen_core != 7 {
            return Err(format!(
                "CostParams JSON missing fields: saw {seen_core} of 7 required"
            ));
        }
        Ok(p)
    }
}

/// Minimal JSON reader for the flat `{key: number | [numbers]}` shape
/// [`CostParams`] serializes to. Not a general JSON parser.
mod json {
    /// Split `{"k": v, "k2": [v, v]}` into `(key, numbers)` pairs.
    pub fn parse_flat_object(text: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
        let body = text.trim();
        let body = body
            .strip_prefix('{')
            .and_then(|b| b.strip_suffix('}'))
            .ok_or("expected a JSON object")?;
        let mut out = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let (key, after_key) = parse_string(rest)?;
            let after_colon = after_key
                .trim_start()
                .strip_prefix(':')
                .ok_or("expected `:` after key")?
                .trim_start();
            let (values, after_val) = if let Some(arr) = after_colon.strip_prefix('[') {
                let end = arr.find(']').ok_or("unterminated array")?;
                let nums = arr[..end]
                    .split(',')
                    .map(parse_number)
                    .collect::<Result<Vec<f64>, String>>()?;
                (nums, &arr[end + 1..])
            } else {
                let end = after_colon.find([',', '}']).unwrap_or(after_colon.len());
                (
                    vec![parse_number(&after_colon[..end])?],
                    &after_colon[end..],
                )
            };
            out.push((key, values));
            rest = after_val.trim_start();
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }
        Ok(out)
    }

    fn parse_string(s: &str) -> Result<(String, &str), String> {
        let inner = s
            .trim_start()
            .strip_prefix('"')
            .ok_or("expected a string key")?;
        let end = inner.find('"').ok_or("unterminated string")?;
        Ok((inner[..end].to_string(), &inner[end + 1..]))
    }

    fn parse_number(s: &str) -> Result<f64, String> {
        s.trim()
            .parse::<f64>()
            .map_err(|e| format!("bad number `{}`: {e}", s.trim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_cost_increases_with_table_size() {
        let p = CostParams::default();
        let l1 = p.ht_lookup(1 << 10);
        let l2 = p.ht_lookup(100 << 10);
        let l3 = p.ht_lookup(4 << 20);
        let dram = p.ht_lookup(1 << 30);
        assert!(l1 < l2 && l2 < l3 && l3 < dram);
    }

    #[test]
    fn boundaries_are_inclusive() {
        let p = CostParams::default();
        assert_eq!(p.ht_lookup(32 << 10), p.ht_lookup_by_level[0]);
        assert_eq!(p.ht_lookup((32 << 10) + 1), p.ht_lookup_by_level[1]);
    }

    #[test]
    fn insert_and_delete_scale_lookup() {
        let p = CostParams::default();
        assert!(p.ht_insert(1 << 30) > p.ht_lookup(1 << 30));
        assert!(p.ht_delete(1 << 30) > p.ht_lookup(1 << 30));
    }

    #[test]
    fn agg_table_bytes_tracks_keys_and_aggs() {
        let small = CostParams::agg_table_bytes(10, 1);
        let more_keys = CostParams::agg_table_bytes(10_000, 1);
        let more_aggs = CostParams::agg_table_bytes(10, 8);
        assert!(more_keys > small);
        assert!(more_aggs > small);
    }

    #[test]
    fn json_round_trip() {
        let p = CostParams {
            read_seq: 1.25,
            read_cond: 9.5,
            ..CostParams::default()
        };
        let json = p.to_json_pretty();
        let back = CostParams::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn json_without_parallel_fields_uses_defaults() {
        let legacy = r#"{
          "read_seq": 2.0, "read_cond": 8.0, "ht_null": 2.0,
          "cache_bytes": [32768, 524288, 16777216],
          "ht_lookup_by_level": [4.0, 12.0, 40.0, 150.0],
          "ht_insert_factor": 1.5, "ht_delete_factor": 2.0
        }"#;
        let p = CostParams::from_json(legacy).unwrap();
        assert_eq!(p.read_seq, 2.0);
        assert_eq!(p.par_task_cycles, CostParams::default().par_task_cycles);
    }

    #[test]
    fn json_rejects_unknown_and_missing_fields() {
        assert!(CostParams::from_json("{\"bogus\": 1}").is_err());
        assert!(CostParams::from_json("{\"read_seq\": 1.0}").is_err());
        assert!(CostParams::from_json("not json").is_err());
    }

    #[test]
    fn parallel_overhead_zero_on_one_thread() {
        let p = CostParams::default();
        assert_eq!(p.parallel_overhead(1, 1 << 20), 0.0);
        assert!(p.parallel_overhead(2, 0) > 0.0);
        assert!(p.parallel_overhead(8, 1000) > p.parallel_overhead(2, 1000));
    }
}
