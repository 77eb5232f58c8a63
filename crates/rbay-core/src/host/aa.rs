//! The active-attribute runtime of a host: vetting and installing AA
//! scripts, the `onGet` access check, and the periodic `onTimer` /
//! dynamic-membership round (paper Table I).

use super::{InstallError, LintPolicy, Op, RbayHost};
use aascript::analysis::{has_errors, Diagnostic, LintOptions};
use aascript::{AaInstance, Script, Value};
use rbay_query::AttrValue;
use rbay_store::WalRecord;

impl RbayHost {
    /// Extends an AA instance with RBAY's runtime primitives — currently
    /// `sha1hex(s)`, which enables the public/private-key authentication
    /// the paper sketches in §III.B: the AA stores `PubKey =
    /// sha1hex(secret)` and the query authenticates by presenting the
    /// secret.
    fn add_runtime_natives(inst: &AaInstance) {
        let f: aascript::NativeFn = std::rc::Rc::new(|args: &[Value]| {
            let s = match args.first() {
                Some(Value::Str(s)) => s.to_string(),
                other => aascript::display_value(other.unwrap_or(&Value::Nil)),
            };
            let digest = pastry::sha1::sha1(s.as_bytes());
            let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
            Ok(Value::str(hex))
        });
        inst.set_global("sha1hex", Value::Native("sha1hex", f));
    }

    /// Lints a compiled script under this host's policy, replacing the
    /// diagnostics [`Self::lint_reports`] holds under `label` (a clean
    /// script clears them). Returns the
    /// error diagnostics the installer must refuse on (empty unless the
    /// policy is [`LintPolicy::Deny`]).
    fn lint_script(&mut self, label: &str, script: &Script) -> Vec<Diagnostic> {
        if self.cfg.lint_policy == LintPolicy::Off {
            return Vec::new();
        }
        let mut externs: Vec<String> = ["now_ms", "attrs", "sha1hex"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        externs.extend(self.cfg.lint_externs.iter().cloned());
        let opts = LintOptions {
            budget: Some(self.cfg.aa_budget),
            externs,
        };
        let diags = script.analyze(&opts);
        if self.cfg.lint_policy == LintPolicy::Deny && has_errors(&diags) {
            return diags;
        }
        if diags.is_empty() {
            self.lint_reports.remove(label);
        } else {
            self.lint_reports.insert(label.to_owned(), diags);
        }
        Vec::new()
    }

    /// Compiles, lints, and instantiates one AA script.
    pub(super) fn build_aa(&mut self, label: &str, src: &str) -> Result<AaInstance, InstallError> {
        let script = Script::compile(src)?;
        let rejected = self.lint_script(label, &script);
        if !rejected.is_empty() {
            return Err(InstallError::Lint(rejected));
        }
        let inst = script.instantiate(&self.sandbox, self.cfg.aa_budget)?;
        Self::add_runtime_natives(&inst);
        Ok(inst)
    }

    /// Installs the node-level policy AA from source. The script is vetted
    /// by the `aalint` static analysis first, per
    /// [`RbayConfig::lint_policy`](super::RbayConfig::lint_policy).
    ///
    /// # Errors
    ///
    /// Compile errors, lint rejections (under [`LintPolicy::Deny`]), or
    /// instantiation-time runtime errors.
    pub fn install_node_aa(&mut self, src: &str) -> Result<(), InstallError> {
        let inst = self.build_aa("node", src)?;
        self.persist(WalRecord::NodeAaInstall {
            source: src.to_owned(),
        });
        self.node_aa = Some(inst);
        Ok(())
    }

    /// Installs a per-attribute AA from source. The script is vetted by
    /// the `aalint` static analysis first, per [`RbayConfig::lint_policy`](super::RbayConfig::lint_policy).
    ///
    /// # Errors
    ///
    /// Compile errors, lint rejections (under [`LintPolicy::Deny`]), or
    /// instantiation-time runtime errors.
    pub fn install_attr_aa(&mut self, attr: &str, src: &str) -> Result<(), InstallError> {
        let inst = self.build_aa(attr, src)?;
        self.persist(WalRecord::AttrAaInstall {
            attr: attr.to_owned(),
            source: src.to_owned(),
        });
        self.attr_aas.insert(attr.to_owned(), inst);
        Ok(())
    }

    /// The AA consulted for a query anchored at `attr`: the attribute's own
    /// AA if present, else the node AA.
    fn aa_for(&self, attr: Option<&str>) -> Option<&AaInstance> {
        attr.and_then(|a| self.attr_aas.get(a))
            .or(self.node_aa.as_ref())
    }

    /// Refreshes the runtime globals handlers may read: `now_ms` (virtual
    /// time) enables time-window policies like the paper's "available
    /// after 10:00 PM" example, and the node's current attribute map is
    /// exposed as the `attrs` table.
    fn refresh_aa_env(&self, aa: &AaInstance) {
        aa.set_global("now_ms", Value::Num(self.now.as_millis_f64()));
        let table = Value::table();
        if let Value::Table(t) = &table {
            let mut t = t.borrow_mut();
            for (k, v) in &self.attrs {
                t.set(
                    aascript::Key::Str(k.as_str().into()),
                    Self::attr_to_script(v),
                );
            }
        }
        aa.set_global("attrs", table);
    }

    /// Invokes `onGet` (paper Table I): returns whether access is granted.
    /// A missing handler grants by default; a runtime error denies.
    pub fn check_on_get(
        &mut self,
        anchor_attr: Option<&str>,
        caller: &str,
        password: Option<&str>,
    ) -> bool {
        let budget = self.cfg.aa_budget;
        let Some(aa) = self.aa_for(anchor_attr) else {
            return true;
        };
        if !aa.has_handler("onGet") {
            return true;
        }
        self.refresh_aa_env(aa);
        let args = [
            Value::str(caller),
            password.map(Value::str).unwrap_or(Value::Nil),
        ];
        match aa.invoke("onGet", &args, budget) {
            Ok(v) if v.truthy() => true,
            Ok(_) => {
                self.aa_denials += 1;
                false
            }
            Err(_) => {
                self.aa_errors += 1;
                false
            }
        }
    }

    /// Invokes `onDeliver` (paper Table I) for an admin command on `attr`:
    /// the handler may transform the delivered value before it lands in
    /// the key-value map. Returns the value to store — the delivered one
    /// unchanged when no handler is installed, none when the handler
    /// returns nil or fails.
    pub(super) fn on_deliver(&mut self, attr: &str, delivered: &AttrValue) -> Option<AttrValue> {
        let budget = self.cfg.aa_budget;
        match self.aa_for(Some(attr)) {
            Some(aa) if aa.has_handler("onDeliver") => {
                self.refresh_aa_env(aa);
                match aa.invoke(
                    "onDeliver",
                    &[Value::Nil, Self::attr_to_script(delivered)],
                    budget,
                ) {
                    Ok(v) => Self::script_to_attr(&v),
                    Err(_) => {
                        self.aa_errors += 1;
                        None
                    }
                }
            }
            _ => Some(delivered.clone()),
        }
    }

    /// Converts an [`AttrValue`] into a script value.
    fn attr_to_script(v: &AttrValue) -> Value {
        match v {
            AttrValue::Bool(b) => Value::Bool(*b),
            AttrValue::Num(n) => Value::Num(*n),
            AttrValue::Str(s) => Value::str(s),
        }
    }

    /// Converts a script value back into an [`AttrValue`] (functions and
    /// tables are stringified).
    fn script_to_attr(v: &Value) -> Option<AttrValue> {
        match v {
            Value::Nil => None,
            Value::Bool(b) => Some(AttrValue::Bool(*b)),
            Value::Num(n) => Some(AttrValue::Num(*n)),
            other => Some(AttrValue::Str(aascript::display_value(other))),
        }
    }

    /// Runs the periodic AA maintenance (paper Table I `onTimer`,
    /// `onSubscribe`, `onUnsubscribe`): fires `onTimer`, then lets the
    /// node AA decide membership of each dynamic tree.
    pub fn maintenance(&mut self) {
        let budget = self.cfg.aa_budget;
        // onTimer on every installed AA.
        if let Some(aa) = &self.node_aa {
            self.refresh_aa_env(aa);
            if aa.has_handler("onTimer") {
                let _ = aa.invoke("onTimer", &[], budget);
            }
        }
        for aa in self.attr_aas.values() {
            self.refresh_aa_env(aa);
            if aa.has_handler("onTimer") {
                let _ = aa.invoke("onTimer", &[], budget);
            }
        }
        // Membership checks for dynamic trees.
        let trees: Vec<String> = self.dynamic_trees.clone();
        for tree in trees {
            let topic = self.tree_topic(&tree, self.site);
            let (mut join, mut leave) = (false, false);
            if let Some(aa) = &self.node_aa {
                if aa.has_handler("onSubscribe") {
                    match aa.invoke("onSubscribe", &[Value::Nil, Value::str(&tree)], budget) {
                        Ok(v) => join = v.truthy(),
                        Err(_) => self.aa_errors += 1,
                    }
                }
                if aa.has_handler("onUnsubscribe") {
                    match aa.invoke("onUnsubscribe", &[Value::Nil, Value::str(&tree)], budget) {
                        Ok(v) => leave = v.truthy(),
                        Err(_) => self.aa_errors += 1,
                    }
                }
            }
            if join && !leave {
                let scope = self.routing_scope(self.site);
                // Deduped by the host's journal after the first round.
                self.persist(WalRecord::SubAdd { topic, scope });
                self.sub_requested.entry(topic).or_insert(self.now);
                self.ops.push_back(Op::Subscribe { topic, scope });
            } else if leave {
                self.persist(WalRecord::SubRemove { topic });
                self.ops.push_back(Op::Unsubscribe { topic });
            }
        }
    }

    /// Total memory attributable to active attributes on this node
    /// (Fig. 8c accounting).
    pub fn aa_bytes(&self) -> usize {
        self.attr_aas
            .values()
            .map(|a| a.size_bytes())
            .sum::<usize>()
            + self.node_aa.as_ref().map(|a| a.size_bytes()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::testkit::host;

    #[test]
    fn dynamic_tree_membership_follows_on_subscribe() {
        let mut h = host();
        h.dynamic_trees.push("CPU_utilization<10".into());
        h.update_attr("CPU_utilization", AttrValue::Num(5.0));
        h.install_node_aa(
            r#"
            function onSubscribe(caller, topic)
                return utilization < 10
            end
            function onUnsubscribe(caller, topic)
                return utilization >= 10
            end
        "#,
        )
        .unwrap();
        // Expose the live reading to the script.
        h.node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", Value::Num(5.0));
        h.maintenance();
        assert!(matches!(h.ops.back(), Some(Op::Subscribe { .. })));
        h.ops.clear();
        h.node_aa
            .as_ref()
            .unwrap()
            .set_global("utilization", Value::Num(50.0));
        h.maintenance();
        assert!(matches!(h.ops.back(), Some(Op::Unsubscribe { .. })));
    }

    #[test]
    fn aa_bytes_counts_installed_handlers() {
        let mut h = host();
        assert_eq!(h.aa_bytes(), 0);
        h.install_attr_aa("a", "AA = {Password = \"x\"}").unwrap();
        let one = h.aa_bytes();
        assert!(one > 0);
        h.install_attr_aa("b", "AA = {Password = \"y\"}").unwrap();
        assert!(h.aa_bytes() > one);
    }
}

#[cfg(test)]
mod lint_tests {
    use super::*;
    use crate::host::testkit::{host_with, host_with_policy};
    use crate::host::RbayConfig;
    use aascript::analysis::LintId;

    #[test]
    fn deny_refuses_unknown_handler_name() {
        let mut h = host_with_policy(LintPolicy::Deny);
        let err = h
            .install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::UnknownHandler));
                // Spanned: the diagnostic points into the source.
                assert!(diags.iter().all(|d| d.pos.line >= 1));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
        assert!(h.node_aa.is_none(), "rejected script must not be installed");
    }

    #[test]
    fn deny_refuses_undefined_global_read() {
        let mut h = host_with_policy(LintPolicy::Deny);
        let src = "AA = { onGet = function(q) return threshhold < 10 end }";
        let err = h.install_attr_aa("GPU", src).unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::UndefinedGlobal));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
        assert!(h.attr_aas.is_empty());
    }

    #[test]
    fn deny_refuses_over_budget_handler() {
        let cfg = RbayConfig {
            lint_policy: LintPolicy::Deny,
            aa_budget: 50,
            ..RbayConfig::default()
        };
        let mut h = host_with(cfg);
        let src = "AA = { onGet = function(q)\n\
                   local s = 0\n\
                   for i = 1, 1000 do s = s + i end\n\
                   return s > 0 end }";
        let err = h.install_node_aa(src).unwrap_err();
        match err {
            InstallError::Lint(diags) => {
                assert!(diags.iter().any(|d| d.id == LintId::CostExceedsBudget));
            }
            other => panic!("expected lint rejection, got {other}"),
        }
    }

    #[test]
    fn warn_installs_and_surfaces_diagnostics() {
        let mut h = host_with_policy(LintPolicy::Warn);
        h.install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap();
        assert!(h.node_aa.is_some(), "Warn policy still installs");
        assert_eq!(h.lint_reports.len(), 1);
        let diags = &h.lint_reports["node"];
        assert!(diags.iter().any(|d| d.id == LintId::UnknownHandler));
    }

    /// Re-installing keeps one report per label: a dirty re-install
    /// replaces it, a clean one clears it.
    #[test]
    fn reinstalls_keep_only_the_latest_report() {
        let mut h = host_with_policy(LintPolicy::Warn);
        let dirty = "AA = { onGte = function(q) return true end }";
        for _ in 0..3 {
            h.install_node_aa(dirty).unwrap();
        }
        assert_eq!(h.lint_reports.len(), 1);
        h.install_node_aa("AA = { onGet = function(q) return true end }")
            .unwrap();
        assert!(h.lint_reports.is_empty(), "clean re-install clears it");
    }

    #[test]
    fn off_skips_analysis_entirely() {
        let mut h = host_with_policy(LintPolicy::Off);
        h.install_node_aa("AA = { onGte = function(q) return true end }")
            .unwrap();
        assert!(h.node_aa.is_some());
        assert!(h.lint_reports.is_empty());
    }

    #[test]
    fn clean_script_installs_under_deny_with_host_externs() {
        let mut h = host_with_policy(LintPolicy::Deny);
        // Reads now_ms (host-injected) and sha1hex (runtime native):
        // both are linted as externs, so Deny accepts this.
        let src = "AA = { onGet = function(q)\n\
                   if now_ms < 0 then return false end\n\
                   return sha1hex(\"x\") ~= \"\" end }";
        h.install_node_aa(src).unwrap();
        assert!(h.node_aa.is_some());
        assert!(h.lint_reports.is_empty(), "clean script: nothing to report");
    }

    #[test]
    fn deploy_specific_externs_suppress_undefined_global() {
        let cfg = RbayConfig {
            lint_policy: LintPolicy::Deny,
            lint_externs: vec!["utilization".into()],
            ..RbayConfig::default()
        };
        let mut h = host_with(cfg);
        let src = "AA = { onGet = function(q) return utilization < 90 end }";
        h.install_node_aa(src).unwrap();
        assert!(h.node_aa.is_some());
    }

    #[test]
    fn compile_errors_are_typed() {
        let mut h = host_with_policy(LintPolicy::Warn);
        let err = h.install_node_aa("AA = {").unwrap_err();
        assert!(matches!(err, InstallError::Compile(_)));
    }
}
