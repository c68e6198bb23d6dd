//! Hash join.
//!
//! The canonical *stateful* operator of the paper: its hash table is
//! operator state that must be migrated when tuples are repartitioned
//! across nodes (response type R1).

use gridq_common::{Result, Schema, Tuple, Value};

use super::{BoxedOperator, Operator};
use crate::join_table::JoinTable;

/// An equi hash join. The build side is consumed eagerly on the first call
/// to `next`; the probe side streams.
pub struct HashJoin {
    build: Option<BoxedOperator>,
    probe: BoxedOperator,
    build_key: usize,
    probe_key: usize,
    table: JoinTable,
    /// Pending outputs for the current probe tuple (a probe tuple can match
    /// several build tuples).
    pending: Vec<Tuple>,
    schema: Schema,
}

impl HashJoin {
    /// Creates a hash join of `build ⋈ probe` on
    /// `build[build_key] = probe[probe_key]`. Output schema is
    /// build columns followed by probe columns.
    pub fn new(
        build: BoxedOperator,
        probe: BoxedOperator,
        build_key: usize,
        probe_key: usize,
    ) -> Self {
        let schema = build.schema().join(probe.schema());
        HashJoin {
            build: Some(build),
            probe,
            build_key,
            probe_key,
            table: JoinTable::new(build_key),
            pending: Vec::new(),
            schema,
        }
    }

    fn build_phase(&mut self) -> Result<()> {
        if let Some(mut build) = self.build.take() {
            while let Some(t) = build.next()? {
                let hash = t.value(self.build_key).stable_hash();
                self.table.insert(hash, t);
            }
        }
        Ok(())
    }

    /// Number of build tuples currently held (operator state size).
    pub fn state_size(&self) -> usize {
        self.table.len()
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.build_phase()?;
        loop {
            if let Some(t) = self.pending.pop() {
                return Ok(Some(t));
            }
            let probe = match self.probe.next()? {
                Some(t) => t,
                None => return Ok(None),
            };
            let key: &Value = probe.value(self.probe_key);
            for b in self.table.probe(key.stable_hash(), key) {
                self.pending.push(Tuple::joined(b, &probe, b.seq()));
            }
        }
    }

    fn name(&self) -> &'static str {
        "hash_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{collect, TableScan};
    use crate::table::Table;
    use gridq_common::{DataType, Field};
    use std::sync::Arc;

    fn table(name: &str, col: &str, keys: &[&str]) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
        let rows = keys
            .iter()
            .map(|k| Tuple::new(vec![Value::str(k)]))
            .collect();
        Arc::new(Table::new(name, schema, rows).unwrap())
    }

    #[test]
    fn joins_matching_keys() {
        let build = Box::new(TableScan::new(table("p", "orf", &["a", "b", "c"])));
        let probe = Box::new(TableScan::new(table("i", "orf1", &["b", "c", "c", "z"])));
        let mut join = HashJoin::new(build, probe, 0, 0);
        let out = collect(&mut join).unwrap();
        assert_eq!(out.len(), 3); // b, c, c
        for t in &out {
            assert_eq!(t.value(0), t.value(1));
        }
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let build = Box::new(TableScan::new(table("p", "k", &["a", "a"])));
        let probe = Box::new(TableScan::new(table("i", "k", &["a"])));
        let mut join = HashJoin::new(build, probe, 0, 0);
        assert_eq!(collect(&mut join).unwrap().len(), 2);
    }

    #[test]
    fn null_keys_do_not_join() {
        let schema = Schema::new(vec![Field::new("k", DataType::Str)]);
        let build_rows = vec![Tuple::new(vec![Value::Null])];
        let build_table = Arc::new(Table::new("b", schema.clone(), build_rows).unwrap());
        let probe_rows = vec![Tuple::new(vec![Value::Null])];
        let probe_table = Arc::new(Table::new("p", schema, probe_rows).unwrap());
        let mut join = HashJoin::new(
            Box::new(TableScan::new(build_table)),
            Box::new(TableScan::new(probe_table)),
            0,
            0,
        );
        assert!(collect(&mut join).unwrap().is_empty());
    }

    #[test]
    fn output_schema_concatenates() {
        let build = Box::new(TableScan::new(table("p", "orf", &[])));
        let probe = Box::new(TableScan::new(table("i", "orf1", &[])));
        let join = HashJoin::new(build, probe, 0, 0);
        assert_eq!(join.schema().len(), 2);
        assert_eq!(join.schema().field(0).name, "orf");
        assert_eq!(join.schema().field(1).name, "orf1");
    }

    #[test]
    fn state_size_reflects_build() {
        let build = Box::new(TableScan::new(table("p", "orf", &["a", "b"])));
        let probe = Box::new(TableScan::new(table("i", "orf1", &["a"])));
        let mut join = HashJoin::new(build, probe, 0, 0);
        let _ = collect(&mut join).unwrap();
        assert_eq!(join.state_size(), 2);
    }
}
