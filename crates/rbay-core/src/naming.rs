//! The hybrid flexible naming scheme (paper §III.C).
//!
//! Creating an independent aggregation tree for every device property
//! would flood the platform with overlapping trees (`Intel CPU` and
//! `AMD CPU` both nest under `CPU`) and force all sites to learn every new
//! property name. Instead, admins *link* minor properties to an existing
//! **major tree**: posts and queries on the linked attribute are routed to
//! the major tree, and the minor property is checked as a residual
//! predicate during the anycast walk.

use rbay_query::{AttrValue, Predicate};
use std::collections::BTreeMap;

/// Per-node table of attribute → major-tree links.
///
/// ```
/// use rbay_core::HybridNaming;
/// use rbay_query::AttrValue;
///
/// let mut naming = HybridNaming::new();
/// naming.link("GPU_model", "GPU=true");
/// // Posts and queries on the minor attribute land in the major tree:
/// assert_eq!(
///     naming.tree_for_post("GPU_model", &AttrValue::str("K80")),
///     "GPU=true"
/// );
/// // Unlinked attributes keep their own `attr=value` trees:
/// assert_eq!(
///     naming.tree_for_post("Matlab", &AttrValue::str("9.0")),
///     "Matlab=9.0"
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct HybridNaming {
    links: BTreeMap<String, String>,
}

impl HybridNaming {
    /// An empty table (every attribute gets its own `attr=value` tree).
    pub fn new() -> Self {
        HybridNaming::default()
    }

    /// Links `attr` to `major_tree`: future posts and queries on `attr`
    /// use the major tree instead of creating a new one.
    pub fn link(&mut self, attr: &str, major_tree: &str) {
        self.links.insert(attr.to_owned(), major_tree.to_owned());
    }

    /// The tree an anchor predicate routes to: its major tree if linked,
    /// else the canonical `attr=value` tree.
    pub fn tree_for(&self, pred: &Predicate) -> String {
        match self.links.get(&pred.attr) {
            Some(major) => major.clone(),
            None => pred.tree_name(),
        }
    }

    /// The tree a resource post subscribes to.
    pub fn tree_for_post(&self, attr: &str, value: &AttrValue) -> String {
        match self.links.get(attr) {
            Some(major) => major.clone(),
            None => format!("{attr}={}", value.canonical()),
        }
    }

    /// Number of links installed.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links exist.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbay_query::CmpOp;

    fn pred(attr: &str, value: &str) -> Predicate {
        Predicate {
            attr: attr.into(),
            op: CmpOp::Eq,
            value: AttrValue::str(value),
        }
    }

    #[test]
    fn unlinked_attributes_get_their_own_tree() {
        let n = HybridNaming::new();
        assert_eq!(n.tree_for(&pred("GPU_model", "K80")), "GPU_model=K80");
        assert_eq!(
            n.tree_for_post("GPU_model", &AttrValue::str("K80")),
            "GPU_model=K80"
        );
    }

    #[test]
    fn linked_attributes_share_the_major_tree() {
        let mut n = HybridNaming::new();
        n.link("GPU_model", "GPU=true");
        n.link("GPU_core_size", "GPU=true");
        assert_eq!(n.tree_for(&pred("GPU_model", "K80")), "GPU=true");
        assert_eq!(
            n.tree_for_post("GPU_core_size", &AttrValue::Num(2496.0)),
            "GPU=true"
        );
        assert_eq!(n.len(), 2);
    }
}
