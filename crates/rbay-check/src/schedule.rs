//! The `.schedule` counterexample format: a plain-text, line-oriented
//! serialization of everything needed to reproduce a violating run —
//! the scenario spec plus the decision trace's divergences from the
//! default earliest-event order.
//!
//! ```text
//! # rbay-check schedule v1
//! scenario subscribe-fail-repair
//! nodes 3
//! seed 7
//! rounds 10
//! max-drops 2
//! max-crashes 1
//! horizon-ms 700
//! violation lost-query
//! step 12 drop seq=345
//! step 23 crash node=2
//! step 30 fire seq=401
//! ```
//!
//! Only divergences are recorded: at every unlisted step the replayer
//! fires the earliest ready event, which is exactly what the original
//! run did. Determinism of the engine (same decision prefix ⇒ same
//! event sequence numbers) makes the `seq=` references stable.
//!
//! A bench scenario records its experiment's parameters in place of a
//! fault budget and has no steps: `churn-frac-pct` and `epochs` for
//! `bench:churn`; `queries` for `bench:fig8`, plus `keys` when the
//! queries go to that many keys in equal shares (fig8b) rather than one
//! key each (fig8a).

use crate::scenario::{CheckSpec, ChurnParams, Fig8Params, Probes, Scenario, ScenarioKind};
use simnet::{Choice, NodeAddr, SimDuration};

/// A parsed (or to-be-written) schedule file.
#[derive(Debug, Clone)]
pub struct ScheduleFile {
    /// The scenario to rebuild.
    pub spec: Scenario,
    /// The violation kind the run exhibited (matched during shrinking).
    pub violation: Option<String>,
    /// Divergent decisions, by step.
    pub directives: Vec<(usize, Choice)>,
}

impl ScheduleFile {
    /// Renders the schedule to its text form.
    pub fn render(&self) -> String {
        let (name, nodes, seed) = self.spec.identity();
        let mut out =
            format!("# rbay-check schedule v1\nscenario {name}\nnodes {nodes}\nseed {seed}\n");
        match &self.spec {
            Scenario::Explored(s) => {
                out.push_str(&format!("rounds {}\n", s.rounds));
                out.push_str(&format!("max-drops {}\n", s.max_drops));
                out.push_str(&format!("max-crashes {}\n", s.max_crashes));
                out.push_str(&format!("horizon-ms {}\n", s.horizon.as_micros() / 1_000));
                if s.strict_recall {
                    out.push_str("strict-recall true\n");
                }
            }
            Scenario::Churn(p) => {
                out.push_str(&format!(
                    "churn-frac-pct {}\n",
                    (p.frac * 100.0).round() as u64
                ));
                out.push_str(&format!("epochs {}\n", p.epochs));
            }
            Scenario::Fig8(p) => {
                if let Probes::PerKey { keys, .. } = p.probes {
                    out.push_str(&format!("keys {keys}\n"));
                }
                out.push_str(&format!("queries {}\n", p.expected()));
            }
        }
        if let Some(v) = &self.violation {
            out.push_str(&format!("violation {v}\n"));
        }
        for (step, c) in &self.directives {
            match c {
                Choice::Fire(seq) => out.push_str(&format!("step {step} fire seq={seq}\n")),
                Choice::Drop(seq) => out.push_str(&format!("step {step} drop seq={seq}\n")),
                Choice::Crash(n) => out.push_str(&format!("step {step} crash node={}\n", n.0)),
            }
        }
        out
    }

    /// Parses the text form. Unknown keys are rejected so stale files
    /// fail loudly instead of replaying something else; a key the named
    /// scenario does not read (the fault budget of a bench scenario, as
    /// older files spell it) is accepted and ignored.
    pub fn parse(text: &str) -> Result<ScheduleFile, String> {
        let mut name = None;
        let mut nodes = 3usize;
        let mut seed = 0u64;
        let mut rounds = 10u32;
        let mut max_drops = 0usize;
        let mut max_crashes = 0usize;
        let mut horizon_ms = 0u64;
        let mut strict_recall = false;
        let mut churn_frac = 0.0f64;
        let mut epochs = 0u32;
        let mut queries = 0usize;
        let mut keys = None;
        let mut violation = None;
        let mut directives = Vec::new();

        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let key = it.next().unwrap_or_default();
            let err = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
            let mut val = || it.next().ok_or_else(|| err("missing value"));
            match key {
                "scenario" => name = Some(val()?.to_owned()),
                "nodes" => nodes = val()?.parse().map_err(|_| err("bad nodes"))?,
                "seed" => seed = val()?.parse().map_err(|_| err("bad seed"))?,
                "rounds" => rounds = val()?.parse().map_err(|_| err("bad rounds"))?,
                "max-drops" => max_drops = val()?.parse().map_err(|_| err("bad max-drops"))?,
                "max-crashes" => {
                    max_crashes = val()?.parse().map_err(|_| err("bad max-crashes"))?
                }
                "horizon-ms" => horizon_ms = val()?.parse().map_err(|_| err("bad horizon-ms"))?,
                "strict-recall" => strict_recall = val()? == "true",
                "churn-frac-pct" => {
                    let pct: u64 = val()?.parse().map_err(|_| err("bad churn-frac-pct"))?;
                    churn_frac = pct as f64 / 100.0;
                }
                "epochs" => epochs = val()?.parse().map_err(|_| err("bad epochs"))?,
                "queries" => queries = val()?.parse().map_err(|_| err("bad queries"))?,
                "keys" => keys = Some(val()?.parse().map_err(|_| err("bad keys"))?),
                "violation" => violation = Some(val()?.to_string()),
                "step" => {
                    let step: usize = val()?.parse().map_err(|_| err("bad step"))?;
                    let action = it.next().ok_or_else(|| err("missing action"))?;
                    let operand = it.next().ok_or_else(|| err("missing operand"))?;
                    let choice = match action {
                        "fire" | "drop" => {
                            let seq: u64 = operand
                                .strip_prefix("seq=")
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err("bad seq operand"))?;
                            if action == "fire" {
                                Choice::Fire(seq)
                            } else {
                                Choice::Drop(seq)
                            }
                        }
                        "crash" => {
                            let n: u32 = operand
                                .strip_prefix("node=")
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err("bad node operand"))?;
                            Choice::Crash(NodeAddr(n))
                        }
                        _ => return Err(err("unknown action")),
                    };
                    directives.push((step, choice));
                }
                _ => return Err(err("unknown key")),
            }
        }

        let name = name.ok_or_else(|| "missing `scenario` line".to_string())?;
        let spec = match name.as_str() {
            "bench:churn" => Scenario::Churn(ChurnParams {
                nodes,
                frac: churn_frac,
                epochs,
                seed,
            }),
            "bench:fig8" => Scenario::Fig8(Fig8Params {
                nodes,
                seed,
                probes: match keys {
                    None => Probes::Unique(queries),
                    Some(keys) if keys > 0 && queries.is_multiple_of(keys) => Probes::PerKey {
                        keys,
                        per_key: queries / keys,
                    },
                    Some(keys) => return Err(format!("{queries} queries over {keys} keys")),
                },
            }),
            _ => Scenario::Explored(CheckSpec {
                kind: ScenarioKind::parse(&name)
                    .ok_or_else(|| format!("unknown scenario {name:?}"))?,
                nodes,
                seed,
                rounds,
                max_drops,
                max_crashes,
                horizon: SimDuration::from_millis(horizon_ms),
                strict_recall,
            }),
        };
        Ok(ScheduleFile {
            spec,
            violation,
            directives,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut spec = CheckSpec::subscribe_fail_repair(3, 7);
        spec.strict_recall = true;
        let sf = ScheduleFile {
            spec: Scenario::Explored(spec),
            violation: Some("lost-query".into()),
            directives: vec![
                (12, Choice::Drop(345)),
                (23, Choice::Crash(NodeAddr(2))),
                (30, Choice::Fire(401)),
            ],
        };
        let text = sf.render();
        let back = ScheduleFile::parse(&text).unwrap();
        let Scenario::Explored(spec) = &back.spec else {
            panic!("{:?}", back.spec)
        };
        assert_eq!(spec.nodes, 3);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.max_drops, 2);
        assert!(spec.strict_recall);
        assert_eq!(back.violation.as_deref(), Some("lost-query"));
        assert_eq!(back.directives, sf.directives);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(ScheduleFile::parse("scenario subscribe-fail-repair\nbogus 1\n").is_err());
        assert!(
            ScheduleFile::parse("step 3 fire seq=nope\nscenario subscribe-fail-repair\n").is_err()
        );
        assert!(ScheduleFile::parse("nodes 3\n").is_err());
        assert!(ScheduleFile::parse("scenario bench:nope\n").is_err());
        assert!(ScheduleFile::parse("scenario bench:fig8\nkeys 3\nqueries 10\n").is_err());
    }

    #[test]
    fn bench_scenarios_round_trip() {
        let churn = ChurnParams {
            nodes: 30,
            frac: 0.10,
            epochs: 4,
            seed: 42,
        };
        let fig8 = |probes| Fig8Params {
            nodes: 100,
            probes,
            seed: 42,
        };
        for spec in [
            Scenario::Churn(churn),
            Scenario::Fig8(fig8(Probes::Unique(100))),
            Scenario::Fig8(fig8(Probes::PerKey {
                keys: 10,
                per_key: 10,
            })),
        ] {
            let sf = ScheduleFile {
                spec,
                violation: Some("orphaned-subscriber".into()),
                directives: Vec::new(),
            };
            let text = sf.render();
            let back = ScheduleFile::parse(&text).unwrap();
            assert_eq!(back.render(), text);
            assert_eq!(back.spec, sf.spec);
        }
    }
}
