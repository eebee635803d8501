//! Build sides: each join edge's membership structure, written from the
//! tile loop that evaluates its parent's filter — a tile's mask packed into
//! bitmap words, or its selection set bit by bit (§ III-D's variants (1)
//! and (2)) or inserted into the key set. A parent small enough for a byte
//! map ([`crate::physical::byte_map_fits`]) gets one byte per row instead:
//! the mask copied as it is, or the selection's bytes set. Nothing larger
//! than the structure is materialized; morsels are whole tiles, so no word
//! or byte has two writers.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use super::{BoundEdge, ExecOpts};
use crate::error::PlanError;
use crate::metrics::OpMetrics;
use crate::physical::JoinEdge;
use crate::tile::Regs;
use swole_bitmap::PositionalBitmap;
use swole_cost::{BitmapBuild, SemiJoinStrategy};
use swole_ht::{GroupTable, KeySet};
use swole_kernels::{selvec, tiles_in, TILE};
use swole_runtime::{charge_or_panic, ExecCtx};
use swole_verify::ir::{Access, AccessSig};

/// The semijoin build side, shared read-only across probe workers.
pub(super) enum BuildSide {
    Set(KeySet),
    Bitmap(PositionalBitmap),
    /// One 0/1 byte per parent row.
    Bytes(Vec<u8>),
}

/// What a build's workers write into: the bitmap's words or the byte map,
/// each worker those of its own morsels, or the key set, locked once per
/// tile.
enum Target {
    Words(Vec<AtomicU64>),
    Bytes(Vec<AtomicU8>),
    Set(Mutex<KeySet>),
}

/// Run `$body` with `$hit` bound to `$side`'s membership test, `pos` →
/// 0 | 1, chosen once for a tile's loop rather than per lane.
macro_rules! with_hit {
    ($side:expr, |$hit:ident| $body:expr) => {
        match $side {
            BuildSide::Set(set) => {
                let $hit = |pos: usize| u8::from(set.contains(pos as i64));
                $body
            }
            BuildSide::Bitmap(bm) => {
                let bits = bm.bits();
                let $hit = |pos: usize| bits.get_bit(pos) as u8;
                $body
            }
            BuildSide::Bytes(bytes) => {
                let $hit = |pos: usize| bytes[pos];
                $body
            }
        }
    };
}

impl BuildSide {
    /// Narrow the first `k` tile-local offsets of `idx` to the rows whose FK
    /// position (`fk`, the tile's slice) hits this structure, compacting in
    /// place (the write cursor trails the read cursor, so no unread slot is
    /// overwritten). Returns the survivors.
    pub(super) fn narrow(&self, idx: &mut [u32], k: usize, fk: &[u32]) -> usize {
        with_hit!(self, |hit| {
            let mut kk = 0usize;
            for t in 0..k {
                let j = idx[t];
                idx[kk] = j;
                kk += usize::from(hit(fk[j as usize] as usize));
            }
            kk
        })
    }

    /// AND each lane's membership, at its FK position (`fk`), into `cmp`.
    fn and_into(&self, cmp: &mut [u8], fk: &[u32]) {
        with_hit!(self, |hit| {
            for (c, &pos) in cmp.iter_mut().zip(fk) {
                *c &= hit(pos as usize);
            }
        })
    }

    /// The rows of `ht` whose key — a position of this structure's parent —
    /// qualifies: eager aggregation's result (§ III-E), the hit passed as
    /// the emission's filter.
    pub(super) fn emit_hits(&self, ht: &impl GroupTable) -> Vec<i64> {
        with_hit!(self, |hit| ht.emit(|key| hit(key as usize)))
    }

    /// 1 when build position `pos` qualifies.
    #[inline]
    pub(super) fn hit(&self, pos: usize) -> usize {
        match self {
            BuildSide::Set(set) => set.contains(pos as i64) as usize,
            BuildSide::Bitmap(bm) => bm.get_bit(pos) as usize,
            BuildSide::Bytes(bytes) => bytes[pos] as usize,
        }
    }

    /// Record the qualifying positions on the build's op and, for a direct
    /// edge, the structure's footprint (a chain edge's is always a bitmap).
    fn describe(&self, op: &mut OpMetrics, chain: bool) {
        match self {
            BuildSide::Set(set) => {
                (op.access.rows_out, op.ht.inserts) = (set.len() as u64, set.len() as u64);
                op.ht.bytes_allocated = set.size_bytes() as u64;
            }
            BuildSide::Bitmap(bm) if chain => op.access.rows_out = bm.count_ones() as u64,
            BuildSide::Bitmap(bm) => {
                op.access.rows_out = bm.count_ones() as u64;
                op.bitmap_bits_set = op.access.rows_out;
                op.bitmap_words = bm.word_count() as u64;
            }
            BuildSide::Bytes(bytes) => {
                op.access.rows_out = bytes.iter().map(|&b| u64::from(b)).sum();
                if !chain {
                    op.bitmap_bits_set = op.access.rows_out;
                    op.byte_map_bytes = bytes.len() as u64;
                }
            }
        }
    }
}

/// How a build under `strategy` reads its parent and writes its structure:
/// the filter in order, then the key set's hashed placement (a gather), each
/// tile's mask packed in order, or the bits of its selection alone.
pub(crate) fn build_access(strategy: SemiJoinStrategy) -> AccessSig {
    AccessSig {
        predicate: Some(Access::Sequential),
        agg_input: None,
        group_key: None,
        structure: Some(match strategy {
            SemiJoinStrategy::Hash => Access::Gather,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional) => Access::Sequential,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector) => Access::Conditional,
        }),
    }
}

/// Build edge `e`'s planned membership structure on morsel workers (a
/// positional one for a `chain` edge). Each tile runs the parent's filter,
/// ANDs every chain edge's bit or byte in through its FK (built first, as
/// the masked probe does), then packs the mask or copies it into the byte
/// map (`Unconditional`), sets the bits or bytes of its selection
/// (`SelectionVector`) or inserts the selection (`Hash`). Charges the
/// structure when it is allocated and the key set's growth after. Adds this
/// edge's `multijoin-build(<parent>)` op, then its chain edges', to `ops`;
/// each op's wall is its own loop's.
pub(super) fn build_edge_side(
    e: &BoundEdge<'_>,
    chain: bool,
    opts: ExecOpts<'_>,
    ctx: &Arc<ExecCtx>,
    ops: &mut Vec<OpMetrics>,
) -> Result<BuildSide, PlanError> {
    let (at, mut chains) = (ops.len(), Vec::with_capacity(e.children.len()));
    for c in &e.children {
        let side = build_edge_side(c, true, opts, ctx, ops)?;
        chains.push((side, c.fk.clone()));
    }
    let t0 = opts.level.timing().then(Instant::now);
    let n = e.parent_t.len();
    let strategy = e.edge.strategy;
    let (target, bytes) = match strategy {
        SemiJoinStrategy::Hash => {
            let set = KeySet::for_build(n);
            let bytes = set.size_bytes();
            (Target::Set(Mutex::new(set)), bytes)
        }
        SemiJoinStrategy::PositionalBitmap(_) if e.edge.bytes => {
            let bytes = (0..n).map(|_| AtomicU8::new(0)).collect();
            (Target::Bytes(bytes), n)
        }
        SemiJoinStrategy::PositionalBitmap(_) => {
            let words = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
            (Target::Words(words), PositionalBitmap::bytes_for(n))
        }
    };
    let unconditional = strategy == SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional);
    ctx.gauge.try_charge(bytes)?;
    let program = &e.edge.parent_program;
    let shared = Arc::new((program.bind(&e.parent_t)?, chains, target));
    let init = {
        let (ctx, program) = (Arc::clone(ctx), Arc::clone(program));
        move || {
            charge_or_panic(&ctx.gauge, program.scratch_bytes());
            Regs::new(&program)
        }
    };
    let body = {
        let shared = Arc::clone(&shared);
        move |regs: &mut Regs, m_start: usize, m_len: usize| {
            let (bound, chains, target) = &*shared;
            for (start, len) in tiles_in(m_start, m_len) {
                bound.run(regs, start, len);
                let cmp = bound.filter_mut(regs, len);
                for (side, fk) in chains {
                    side.and_into(cmp, &fk.slice()[start..start + len]);
                }
                let words = match target {
                    Target::Words(words) => &words[start / 64..],
                    Target::Bytes(bytes) if unconditional => {
                        for (b, &c) in bytes[start..start + len].iter().zip(&*cmp) {
                            b.store(c, Relaxed);
                        }
                        continue;
                    }
                    Target::Bytes(bytes) => {
                        let k = bound.select(regs, len);
                        for &j in &regs.idx[..k] {
                            bytes[start + j as usize].store(1, Relaxed);
                        }
                        continue;
                    }
                    Target::Set(set) => {
                        let k = bound.select(regs, len);
                        let mut set = set.lock().expect("no build worker panicked inserting");
                        for &j in &regs.idx[..k] {
                            set.insert((start + j as usize) as i64);
                        }
                        continue;
                    }
                };
                if unconditional {
                    for (w, lanes) in words.iter().zip(cmp.chunks(64)) {
                        w.store(selvec::mask_word(lanes), Relaxed);
                    }
                } else {
                    let (k, mut tile) = (bound.select(regs, len), [0u64; TILE / 64]);
                    for &j in &regs.idx[..k] {
                        tile[j as usize / 64] |= 1 << (j % 64);
                    }
                    for (w, &bits) in words.iter().zip(&tile[..len.div_ceil(64)]) {
                        w.store(bits, Relaxed);
                    }
                }
            }
        }
    };
    // `Relaxed` stores: the words and bytes are read once every worker is
    // done (joined, or its pool stage waited out), and `into_inner` acquires
    // the last `Arc`.
    opts.executor
        .run_morsels(ctx, n, opts.morsel_rows, init, body)?;
    let (_, _, target) = Arc::into_inner(shared).expect("the morsel workers are done");
    let side = match target {
        Target::Words(words) => {
            let words = words.into_iter().map(AtomicU64::into_inner).collect();
            BuildSide::Bitmap(PositionalBitmap::from_words(n, words))
        }
        Target::Bytes(bytes) => {
            BuildSide::Bytes(bytes.into_iter().map(AtomicU8::into_inner).collect())
        }
        Target::Set(set) => {
            let set = set
                .into_inner()
                .expect("no build worker panicked inserting");
            ctx.gauge.try_charge(set.size_bytes() - bytes)?;
            BuildSide::Set(set)
        }
    };
    if opts.level.counting() {
        let mut op = OpMetrics::named(JoinEdge::build_op(&e.edge.parent));
        op.access.rows_in = n as u64;
        op.access.predicate_evals = if program.has_filter() { n as u64 } else { 0 };
        side.describe(&mut op, chain);
        op.wall_nanos = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        ops.insert(at, op);
    }
    Ok(side)
}
