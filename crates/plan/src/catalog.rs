//! The catalog: named tables plus registered foreign keys.

use std::ops::Deref;
use std::sync::Arc;

use crate::engine::Engine;
use crate::error::PlanError;
use crate::stats;
use swole_storage::Table;

/// An in-memory database: tables and the foreign keys registered on them.
///
/// A registered foreign key is a validated constraint on the child's `U32`
/// column, not a second buffer: the column *is* the positional index
/// § III-D's bitmaps probe through, so referential integrity costs one scan
/// at registration and no bytes.
///
/// Tables are `Arc`-owned: execution pins the ones a query touches (FK
/// columns included), so shared-pool workers (whose closures outlive the
/// submitting call stack) read immutable snapshots even if another session
/// reloads a table mid-flight.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Arc<Table>>,
    fks: Vec<FkEntry>,
    /// Bumped whenever the set of registered FKs changes: the planner reads
    /// it (a positional bitmap needs a registered FK), so a cached plan with
    /// a join edge is only as current as this epoch.
    fk_epoch: u64,
}

/// A registered FK: every value of `child.fk_col` is below `parent_rows`,
/// the parent's row count when the column was checked.
#[derive(Debug)]
struct FkEntry {
    child: String,
    fk_col: String,
    parent: String,
    parent_rows: usize,
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

    /// Register the foreign key `child.fk_col → parent`, where the parent's
    /// primary key is its dense row id (the convention used by every
    /// generated table in this repo). The FK column must be `U32` positions
    /// into the parent; one whose value is not a parent row fails with
    /// [`PlanError::ReferentialIntegrity`] and registers nothing.
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
        let positions = col.as_u32().ok_or_else(|| {
            PlanError::InvalidExpr(format!(
                "FK column {child}.{fk_col} must be U32 parent positions"
            ))
        })?;
        if positions.iter().any(|&p| p as usize >= parent_len) {
            return Err(PlanError::ReferentialIntegrity {
                child: child.to_string(),
                fk_column: fk_col.to_string(),
                parent: parent.to_string(),
            });
        }
        self.fks.push(FkEntry {
            child: child.to_string(),
            fk_col: fk_col.to_string(),
            parent: parent.to_string(),
            parent_rows: parent_len,
        });
        self.fk_epoch += 1;
        Ok(self)
    }

    /// Load (or reload) a table, bumping its generation counter.
    ///
    /// If a table with the same name exists its contents are replaced and
    /// the new contents take `old generation + 1`; otherwise the table is
    /// added fresh at generation 0. Reloading drops every registered FK
    /// that involves the table (it was validated against the old contents)
    /// — re-register with [`Database::add_fk`] after the load. Returns the
    /// table's new generation.
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

    /// How many times the set of registered FKs has changed
    /// ([`Database::add_fk`], or a reload dropping one).
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

    /// The parent's row count if `child.fk_col → parent` is registered:
    /// every value of the child's FK column is then a position below it.
    pub fn fk_parent_rows(&self, child: &str, fk_col: &str, parent: &str) -> Option<usize> {
        self.fks
            .iter()
            .find(|f| f.child == child && f.fk_col == fk_col && f.parent == parent)
            .map(|f| f.parent_rows)
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

    /// Register a foreign key through [`Database::add_fk`] (needed again
    /// after [`Engine::load_table`] replaced either side's table). It
    /// invalidates every cached plan with a join edge: a registered FK
    /// changes which strategies the planner may pick.
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
        assert_eq!(db.fk_parent_rows("r", "fk", "s"), Some(3));
        assert_eq!(db.fk_parent_rows("r", "fk", "other"), None);
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

    /// An FK value that is not a parent row is a typed error, not a panic
    /// under the engine's write lock: nothing registers, and the engine
    /// goes on registering valid FKs and answering joins through them.
    #[test]
    fn integrity_violation_is_an_error() {
        let mut db = db();
        db.add_table(Table::new("t").with_column("fk", ColumnData::U32(vec![0, 3])));
        let engine = Engine::builder(db).build();
        assert_eq!(
            engine.register_fk("t", "fk", "s"),
            Err(PlanError::ReferentialIntegrity {
                child: "t".into(),
                fk_column: "fk".into(),
                parent: "s".into(),
            })
        );
        assert_eq!(engine.database().fk_parent_rows("t", "fk", "s"), None);
        engine
            .register_fk("r", "fk", "s")
            .expect("a valid FK registers");
        let sql = "select sum(r.a) as s from r, s where r.fk = s.rowid and s.x > 1";
        let res = engine.session().query_sql(sql, &crate::Params::new());
        assert_eq!(res.and_then(|r| r.try_scalar("s")), Ok(6 + 7));
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_panics() {
        let mut db = db();
        db.add_table(Table::new("r"));
    }
}
