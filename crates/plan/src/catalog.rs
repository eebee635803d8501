//! The catalog: named tables plus registered foreign-key indexes.

use std::ops::Deref;
use std::sync::Arc;

use crate::engine::Engine;
use crate::error::PlanError;
use crate::stats;
use swole_storage::{FkIndex, Table};

/// An in-memory database: tables and the foreign-key (positional) indexes
/// built for referential integrity — the indexes § III-D's positional
/// bitmaps probe through.
///
/// Tables and indexes are `Arc`-owned: execution pins the ones a query
/// touches, so shared-pool workers (whose closures outlive the submitting
/// call stack) read immutable snapshots even if another session reloads a
/// table mid-flight.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Arc<Table>>,
    fks: Vec<FkEntry>,
    /// Bumped whenever the set of registered FK indexes changes: the
    /// planner reads it (a positional bitmap needs the index), so a cached
    /// plan with a join edge is only as current as this epoch.
    fk_epoch: u64,
}

#[derive(Debug)]
struct FkEntry {
    child: String,
    fk_col: String,
    parent: String,
    index: Arc<FkIndex>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register a table. Panics on duplicate names (a programming error).
    pub fn add_table(&mut self, table: Table) -> &mut Self {
        assert!(
            self.table(table.name()).is_err(),
            "duplicate table {}",
            table.name()
        );
        self.tables.push(Arc::new(table));
        self
    }

    /// Register the foreign-key index for `child.fk_col → parent`, where
    /// the parent's primary key is its dense row id (the convention used by
    /// every generated table in this repo). The FK column must be `U32`
    /// positions into the parent.
    pub fn add_fk(
        &mut self,
        child: &str,
        fk_col: &str,
        parent: &str,
    ) -> Result<&mut Self, PlanError> {
        let parent_len = self.table(parent)?.len();
        let child_t = self.table(child)?;
        let col = child_t
            .column(fk_col)
            .ok_or_else(|| PlanError::UnknownColumn {
                table: child.to_string(),
                column: fk_col.to_string(),
            })?;
        let positions = col
            .as_u32()
            .ok_or_else(|| {
                PlanError::InvalidExpr(format!(
                    "FK column {child}.{fk_col} must be U32 parent positions"
                ))
            })?
            .to_vec();
        assert!(
            positions.iter().all(|&p| (p as usize) < parent_len),
            "referential integrity violated: {child}.{fk_col} → {parent}"
        );
        self.fks.push(FkEntry {
            child: child.to_string(),
            fk_col: fk_col.to_string(),
            parent: parent.to_string(),
            index: Arc::new(FkIndex::from_dense(positions, parent_len)),
        });
        self.fk_epoch += 1;
        Ok(self)
    }

    /// Load (or reload) a table, bumping its generation counter.
    ///
    /// If a table with the same name exists its contents are replaced and
    /// the new contents take `old generation + 1`; otherwise the table is
    /// added fresh at generation 0. Reloading drops every registered FK
    /// index that involves the table (the positional index was built from
    /// the old contents) — re-register with [`Database::add_fk`] after the
    /// load. Returns the table's new generation.
    pub fn load_table(&mut self, mut table: Table) -> u64 {
        let name = table.name().to_string();
        match self.tables.iter_mut().find(|t| t.name() == name) {
            Some(slot) => {
                table.set_generation(slot.generation() + 1);
                let generation = table.generation();
                // Replace the Arc, never the pointee: in-flight queries
                // (and pool workers) keep reading their pinned snapshot.
                *slot = Arc::new(table);
                let registered = self.fks.len();
                self.fks.retain(|f| f.child != name && f.parent != name);
                if self.fks.len() < registered {
                    self.fk_epoch += 1;
                }
                generation
            }
            None => {
                table.set_generation(0);
                self.tables.push(Arc::new(table));
                0
            }
        }
    }

    /// The generation counter of a named table, if it exists. Starts at 0
    /// and is bumped by every [`Database::load_table`] replacement.
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .map(|t| t.generation())
    }

    /// How many times the set of registered FK indexes has changed
    /// ([`Database::add_fk`], or a reload dropping an index).
    pub(crate) fn fk_epoch(&self) -> u64 {
        self.fk_epoch
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, PlanError> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .map(|t| t.as_ref())
            .ok_or_else(|| PlanError::UnknownTable(name.to_string()))
    }

    /// Look up a table as a shared, immutable snapshot. Execution pins the
    /// snapshot for a query's lifetime; [`Database::load_table`] swaps the
    /// slot without touching outstanding pins.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>, PlanError> {
        self.tables
            .iter()
            .find(|t| t.name() == name)
            .cloned()
            .ok_or_else(|| PlanError::UnknownTable(name.to_string()))
    }

    /// Look up the FK index for `child.fk_col`, verifying it targets
    /// `parent`.
    pub fn fk_index(&self, child: &str, fk_col: &str, parent: &str) -> Option<&FkIndex> {
        self.fks
            .iter()
            .find(|f| f.child == child && f.fk_col == fk_col && f.parent == parent)
            .map(|f| f.index.as_ref())
    }

    /// [`Database::fk_index`] as a shared snapshot, for execution to pin.
    pub(crate) fn fk_index_arc(
        &self,
        child: &str,
        fk_col: &str,
        parent: &str,
    ) -> Option<Arc<FkIndex>> {
        self.fks
            .iter()
            .find(|f| f.child == child && f.fk_col == fk_col && f.parent == parent)
            .map(|f| Arc::clone(&f.index))
    }

    /// All table names.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.name())
    }
}

/// The catalog doors of an [`Engine`]: reads under the shared lock, reloads
/// and FK registrations under the exclusive one.
impl Engine {
    /// Read access to the underlying database. The guard holds a shared
    /// lock: queries from other engine clones proceed concurrently, but
    /// [`Engine::load_table`] blocks until the guard drops.
    pub fn database(&self) -> impl Deref<Target = Database> + '_ {
        self.inner.read_db()
    }

    /// Load (or reload) a table through [`Database::load_table`], bumping
    /// its generation counter — which invalidates every cached plan that
    /// reads the table. Returns the new generation. In-flight queries keep
    /// reading the snapshot they pinned at execution start.
    pub fn load_table(&self, table: Table) -> u64 {
        let (name, inner) = (table.name().to_string(), &self.inner);
        let mut db = inner.db.write().unwrap_or_else(|e| e.into_inner());
        let generation = db.load_table(table);
        inner.stats.reload(db.table(&name).expect("just loaded"));
        generation
    }

    /// The session's statistics snapshot for `table`: row count, per-column
    /// min/max/NDV, dictionary cardinalities, and — under
    /// [`stats::StatsMode::Adaptive`] — the most recent observed filter
    /// selectivity. Refreshes lazily when the table's generation counter
    /// moved since collection. Errors with [`PlanError::UnknownTable`] for
    /// unregistered tables; returns `None` under [`stats::StatsMode::Off`].
    pub fn table_stats(&self, table: &str) -> Result<Option<stats::TableStats>, PlanError> {
        let db = self.inner.read_db();
        db.table(table)?;
        Ok(self.inner.stats.for_table(&db, table).map(|s| (*s).clone()))
    }

    /// How this session collects and maintains catalog statistics.
    pub fn stats_mode(&self) -> stats::StatsMode {
        self.inner.stats.mode()
    }

    /// Register a foreign-key index through [`Database::add_fk`] (needed
    /// again after [`Engine::load_table`] replaced either side's table). It
    /// invalidates every cached plan with a join edge: the index changes
    /// which strategies the planner may pick.
    pub fn register_fk(&self, child: &str, fk_col: &str, parent: &str) -> Result<(), PlanError> {
        let mut db = self.inner.db.write().unwrap_or_else(|e| e.into_inner());
        db.add_fk(child, fk_col, parent).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swole_storage::ColumnData;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_table(Table::new("s").with_column("x", ColumnData::I32(vec![1, 2, 3])));
        db.add_table(
            Table::new("r")
                .with_column("fk", ColumnData::U32(vec![0, 2, 1, 0]))
                .with_column("a", ColumnData::I32(vec![5, 6, 7, 8])),
        );
        db
    }

    #[test]
    fn register_and_lookup_fk() {
        let mut db = db();
        db.add_fk("r", "fk", "s").unwrap();
        let idx = db.fk_index("r", "fk", "s").unwrap();
        assert_eq!(idx.positions(), &[0, 2, 1, 0]);
        assert_eq!(idx.parent_len(), 3);
        assert!(db.fk_index("r", "fk", "other").is_none());
    }

    #[test]
    fn fk_requires_u32_column() {
        let mut db = db();
        assert!(matches!(
            db.add_fk("r", "a", "s"),
            Err(PlanError::InvalidExpr(_))
        ));
        assert!(matches!(
            db.add_fk("r", "nope", "s"),
            Err(PlanError::UnknownColumn { .. })
        ));
        assert!(matches!(
            db.add_fk("r", "fk", "nope"),
            Err(PlanError::UnknownTable(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_panics() {
        let mut db = db();
        db.add_table(Table::new("r"));
    }
}
