//! Table schemas and a catalog of tables, so predicates can be type-checked
//! and column ownership (which table does a column belong to?) resolved —
//! the input the optimizer needs to decide push-down eligibility.

use crate::types::DataType;
use std::fmt;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unqualified).
    pub name: String,
    /// Data type.
    pub ty: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl ColumnDef {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema from column definitions.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|d| d.name == c.name),
                "duplicate column {:?}",
                c.name
            );
        }
        Schema { columns }
    }

    /// The column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Definition of a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// A named table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns.
    pub schema: Schema,
}

/// A catalog: the set of tables a query may reference.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableSchema>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table.
    ///
    /// # Panics
    /// Panics if a table with the same name already exists.
    pub fn add_table(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into();
        assert!(self.table(&name).is_none(), "duplicate table {name:?}");
        self.tables.push(TableSchema { name, schema });
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// All tables.
    pub fn tables(&self) -> &[TableSchema] {
        &self.tables
    }

    /// Resolve a (possibly qualified) column name to `(table, column)`.
    ///
    /// `"t.c"` resolves against table `t`; a bare `"c"` resolves if exactly
    /// one table defines it.
    pub fn resolve(&self, name: &str) -> Result<(&TableSchema, &ColumnDef), String> {
        if let Some((t, c)) = name.split_once('.') {
            let table = self
                .table(t)
                .ok_or_else(|| format!("unknown table {t:?}"))?;
            let col = table
                .schema
                .column(c)
                .ok_or_else(|| format!("unknown column {c:?} in table {t:?}"))?;
            return Ok((table, col));
        }
        let mut hits = Vec::new();
        for t in &self.tables {
            if let Some(c) = t.schema.column(name) {
                hits.push((t, c));
            }
        }
        match hits.len() {
            0 => Err(format!("unknown column {name:?}")),
            1 => Ok(hits.pop().unwrap()),
            _ => Err(format!("ambiguous column {name:?}")),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{} {}", c.name, c.ty)?;
            if c.nullable {
                f.write_str(" NULL")?;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("o_orderkey", DataType::Integer),
                ColumnDef::new("o_orderdate", DataType::Date),
            ]),
        );
        cat.add_table(
            "lineitem",
            Schema::new(vec![
                ColumnDef::new("l_orderkey", DataType::Integer),
                ColumnDef::nullable("l_shipdate", DataType::Date),
            ]),
        );
        cat
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("b", DataType::Double),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.column("a").unwrap().ty, DataType::Integer);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        let _ = Schema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("a", DataType::Double),
        ]);
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let cat = catalog();
        let (t, c) = cat.resolve("orders.o_orderdate").unwrap();
        assert_eq!(t.name, "orders");
        assert_eq!(c.ty, DataType::Date);
        let (t, _) = cat.resolve("l_shipdate").unwrap();
        assert_eq!(t.name, "lineitem");
        assert!(cat.resolve("nope").is_err());
        assert!(cat.resolve("orders.nope").is_err());
        assert!(cat.resolve("nope.o_orderdate").is_err());
    }

    #[test]
    fn resolve_ambiguity() {
        let mut cat = catalog();
        cat.add_table(
            "other",
            Schema::new(vec![ColumnDef::new("l_shipdate", DataType::Date)]),
        );
        let err = cat.resolve("l_shipdate").unwrap_err();
        assert!(err.contains("ambiguous"), "{err}");
    }

    #[test]
    fn column_type_helper() {
        let cat = catalog();
        assert_eq!(cat.resolve("o_orderdate").unwrap().1.ty, DataType::Date);
        assert!(cat.resolve("zzz").is_err());
    }

    #[test]
    fn display() {
        let s = Schema::new(vec![
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::nullable("b", DataType::Date),
        ]);
        assert_eq!(s.to_string(), "(a INTEGER, b DATE NULL)");
    }
}
