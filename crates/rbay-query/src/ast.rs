//! Query AST: the SQL subset of the paper's Fig. 6.

use crate::value::{AttrValue, CmpOp};
use core::fmt;

/// Which sites a query searches (`FROM *` or an explicit site list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromClause {
    /// `FROM *` — all federated sites.
    AllSites,
    /// `FROM "Virginia", "Tokyo"` — the named sites only.
    Sites(Vec<String>),
}

/// One conjunct of the WHERE clause: `attr op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The attribute name, e.g. `CPU_model`.
    pub attr: String,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal to compare against.
    pub value: AttrValue,
}

impl Predicate {
    /// Whether a node's attribute value satisfies this predicate
    /// (`None` — attribute absent — never matches).
    pub fn matches(&self, actual: Option<&AttrValue>) -> bool {
        match actual {
            Some(v) => self.op.eval(v, &self.value),
            None => false,
        }
    }

    /// Whether this predicate can anchor tree selection: equality
    /// predicates correspond directly to `attr=value` aggregation trees.
    fn is_anchor(&self) -> bool {
        self.op == CmpOp::Eq
    }

    /// The textual tree name for an anchor predicate (`attr=value`), used
    /// as the Scribe topic name.
    pub fn tree_name(&self) -> String {
        format!("{}={}", self.attr, self.value.canonical())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            AttrValue::Str(s) => write!(f, "{} {} \"{}\"", self.attr, self.op, s),
            other => write!(f, "{} {} {}", self.attr, self.op, other.canonical()),
        }
    }
}

/// Sort direction of the GROUPBY clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A parsed query:
/// `SELECT k FROM ... WHERE p1 AND p2 ... [GROUPBY attr [ASC|DESC]];`
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// How many candidate nodes to return.
    pub k: u32,
    /// Site selection.
    pub from: FromClause,
    /// Conjunction of predicates.
    pub predicates: Vec<Predicate>,
    /// Optional ordering of the results.
    pub order_by: Option<(String, SortDir)>,
}

impl Query {
    /// Whether a node (given its attribute lookup function) satisfies every
    /// predicate.
    pub fn matches_all<'a>(&self, mut get: impl FnMut(&str) -> Option<&'a AttrValue>) -> bool {
        self.predicates.iter().all(|p| p.matches(get(&p.attr)))
    }

    /// The anchor (equality) predicates, each naming a candidate tree.
    pub fn anchors(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| p.is_anchor())
    }

    /// The residual predicates that must be checked node-locally during the
    /// anycast walk (query protocol step 4-i).
    pub fn residuals(&self) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(|p| !p.is_anchor())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {} FROM ", self.k)?;
        match &self.from {
            FromClause::AllSites => write!(f, "*")?,
            FromClause::Sites(sites) => {
                let quoted: Vec<String> = sites.iter().map(|s| format!("\"{s}\"")).collect();
                write!(f, "{}", quoted.join(", "))?;
            }
        }
        if !self.predicates.is_empty() {
            write!(f, " WHERE ")?;
            let parts: Vec<String> = self.predicates.iter().map(|p| p.to_string()).collect();
            write!(f, "{}", parts.join(" AND "))?;
        }
        if let Some((attr, dir)) = &self.order_by {
            let d = match dir {
                SortDir::Asc => "ASC",
                SortDir::Desc => "DESC",
            };
            write!(f, " GROUPBY {attr} {d}")?;
        }
        write!(f, ";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Query {
        Query {
            k: 3,
            from: FromClause::AllSites,
            predicates: vec![
                Predicate {
                    attr: "CPU_model".into(),
                    op: CmpOp::Eq,
                    value: AttrValue::str("Intel Core i7"),
                },
                Predicate {
                    attr: "CPU_utilization".into(),
                    op: CmpOp::Lt,
                    value: AttrValue::Num(10.0),
                },
            ],
            order_by: Some(("CPU_utilization".into(), SortDir::Desc)),
        }
    }

    #[test]
    fn anchor_and_residual_split() {
        let q = q();
        let anchors: Vec<String> = q.anchors().map(|p| p.tree_name()).collect();
        assert_eq!(anchors, vec!["CPU_model=Intel Core i7"]);
        assert_eq!(q.residuals().count(), 1);
    }

    #[test]
    fn matches_all_requires_every_predicate() {
        let q = q();
        let model = AttrValue::str("Intel Core i7");
        let low = AttrValue::Num(5.0);
        let high = AttrValue::Num(50.0);
        assert!(q.matches_all(|a| match a {
            "CPU_model" => Some(&model),
            "CPU_utilization" => Some(&low),
            _ => None,
        }));
        assert!(!q.matches_all(|a| match a {
            "CPU_model" => Some(&model),
            "CPU_utilization" => Some(&high),
            _ => None,
        }));
        assert!(!q.matches_all(|a| match a {
            "CPU_model" => Some(&model),
            _ => None, // missing attribute
        }));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(
            q().to_string(),
            "SELECT 3 FROM * WHERE CPU_model = \"Intel Core i7\" AND CPU_utilization < 10 GROUPBY CPU_utilization DESC;"
        );
    }
}
