//! Expose the TPC-H tables to the declarative engine.
//!
//! Hand-coded strategies borrow the column vectors directly; the engine
//! needs a [`swole_storage::Table`] catalog. This module builds one
//! (sharing no data mutation concerns — columns are cloned at registration,
//! which for the engine-facing demos is a one-time cost).

use crate::TpchDb;
use swole_storage::{ColumnData, Table};

/// Build an engine-ready catalog holding the TPC-H tables with their
/// standard column names (`l_*`, `o_*`, `c_*`, `p_*`, `s_*`).
///
/// Foreign keys registered (all dense positional keys):
/// `lineitem.l_orderkey → orders`, `lineitem.l_partkey → part`,
/// `lineitem.l_suppkey → supplier`, `orders.o_custkey → customer`.
pub fn to_database(db: &TpchDb) -> swole_plan::Database {
    let mut out = swole_plan::Database::new();
    let l = &db.lineitem;
    out.add_table(
        Table::new("lineitem")
            .with_column("l_orderkey", ColumnData::U32(l.order_key.clone()))
            .with_column("l_partkey", ColumnData::U32(l.part_key.clone()))
            .with_column("l_suppkey", ColumnData::U32(l.supp_key.clone()))
            .with_column("l_quantity", ColumnData::I8(l.quantity.clone()))
            .with_column("l_extendedprice", ColumnData::I64(l.extended_price.clone()))
            .with_column("l_discount", ColumnData::I8(l.discount.clone()))
            .with_column("l_tax", ColumnData::I8(l.tax.clone()))
            .with_column("l_returnflag", ColumnData::Dict(l.return_flag.clone()))
            .with_column("l_linestatus", ColumnData::Dict(l.line_status.clone()))
            .with_column("l_shipdate", ColumnData::I32(l.ship_date.clone()))
            .with_column("l_commitdate", ColumnData::I32(l.commit_date.clone()))
            .with_column("l_receiptdate", ColumnData::I32(l.receipt_date.clone()))
            .with_column("l_shipinstruct", ColumnData::Dict(l.ship_instruct.clone()))
            .with_column("l_shipmode", ColumnData::Dict(l.ship_mode.clone())),
    );
    let o = &db.orders;
    out.add_table(
        Table::new("orders")
            .with_column("o_custkey", ColumnData::U32(o.cust_key.clone()))
            .with_column("o_orderdate", ColumnData::I32(o.order_date.clone()))
            .with_column(
                "o_orderpriority",
                ColumnData::Dict(o.order_priority.clone()),
            ),
    );
    out.add_table(
        Table::new("customer")
            .with_column(
                "c_mktsegment",
                ColumnData::Dict(db.customer.mktsegment.clone()),
            )
            .with_column(
                "c_nationkey",
                ColumnData::U32(db.customer.nation_key.clone()),
            ),
    );
    out.add_table(
        Table::new("part")
            .with_column("p_brand", ColumnData::Dict(db.part.brand.clone()))
            .with_column("p_type", ColumnData::Dict(db.part.type_.clone()))
            .with_column("p_container", ColumnData::Dict(db.part.container.clone()))
            .with_column("p_size", ColumnData::I8(db.part.size.clone())),
    );
    out.add_table(Table::new("supplier").with_column(
        "s_nationkey",
        ColumnData::U32(db.supplier.nation_key.clone()),
    ));
    out.add_fk("lineitem", "l_orderkey", "orders")
        .expect("generator guarantees referential integrity");
    out.add_fk("lineitem", "l_partkey", "part")
        .expect("generator guarantees referential integrity");
    out.add_fk("lineitem", "l_suppkey", "supplier")
        .expect("generator guarantees referential integrity");
    out.add_fk("orders", "o_custkey", "customer")
        .expect("generator guarantees referential integrity");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn catalog_registers_tables_and_fks() {
        let db = generate(0.002, 55);
        let catalog = to_database(&db);
        let names: Vec<&str> = catalog.table_names().collect();
        for t in ["lineitem", "orders", "customer", "part", "supplier"] {
            assert!(names.contains(&t), "{t} missing");
        }
        assert_eq!(
            catalog.fk_parent_rows("lineitem", "l_orderkey", "orders"),
            Some(db.orders.len())
        );
        assert_eq!(
            catalog.fk_parent_rows("orders", "o_custkey", "customer"),
            Some(db.customer.len())
        );
        assert_eq!(catalog.table("lineitem").unwrap().len(), db.lineitem.len());
    }
}
