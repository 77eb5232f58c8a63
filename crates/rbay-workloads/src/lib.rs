//! # rbay-workloads — evaluation workload generators
//!
//! Reproduces the workload of the paper's §IV: Amazon EC2's instance-type
//! family as aggregation trees (23 types per site, Gaussian tree sizes),
//! per-node attribute inventories, password-checking `onGet` policies, and
//! the composite query mix (three attributes focused on one instance type,
//! with a location predicate spanning 1–8 sites).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rbay_core::Federation;
use rbay_query::AttrValue;
use simnet::{NodeAddr, SiteId};

/// The 23 EC2 instance types of the paper's footnote 1 (§IV.A).
pub const EC2_INSTANCE_TYPES: [&str; 23] = [
    "t2.micro",
    "t2.small",
    "t2.medium",
    "m3.medium",
    "m3.large",
    "m3.xlarge",
    "m3.2xlarge",
    "c3.large",
    "c3.xlarge",
    "c3.2xlarge",
    "c3.4xlarge",
    "c3.8xlarge",
    "g2.2xlarge",
    "r3.large",
    "r3.xlarge",
    "r3.2xlarge",
    "r3.4xlarge",
    "r3.8xlarge",
    "i2.xlarge",
    "i2.2xlarge",
    "i2.4xlarge",
    "i2.8xlarge",
    "hs1.8xlarge",
];

/// The password every workload AA checks (the evaluation invokes `onGet`
/// per query, "only checking if the password matches or not", §IV.A).
pub const WORKLOAD_PASSWORD: &str = "3053482032";

/// The Fig. 5-style password policy installed on workload nodes.
pub fn password_aa_script() -> String {
    format!(
        r#"
        AA = {{Password = "{WORKLOAD_PASSWORD}"}}
        function onGet(caller, password)
            if password == AA.Password then
                return true
            end
            return nil
        end
    "#
    )
}

/// A weighted mix over instance types. "The tree size follows a Gaussian
/// distribution — the center tree of c3.8xlarge has more members than the
/// edge tree of t2.micro or hs1.8xlarge" (§IV.A).
#[derive(Debug, Clone)]
pub struct InstanceMix {
    cumulative: Vec<f64>,
}

impl InstanceMix {
    /// The paper's Gaussian mix: weight peaks at the middle of the type
    /// list (`c3.8xlarge`, index 11) and decays toward both ends.
    fn gaussian() -> Self {
        let n = EC2_INSTANCE_TYPES.len();
        let center = 11.0; // c3.8xlarge
        let sigma = 4.5;
        let weights: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - center) / sigma;
                (-0.5 * d * d).exp()
            })
            .collect();
        Self::from_weights(&weights)
    }

    /// A uniform mix (each type equally likely).
    pub fn uniform() -> Self {
        Self::from_weights(&vec![1.0; EC2_INSTANCE_TYPES.len()])
    }

    /// Builds a mix from raw weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not one non-negative weight per instance
    /// type with a positive sum.
    fn from_weights(weights: &[f64]) -> Self {
        assert_eq!(weights.len(), EC2_INSTANCE_TYPES.len());
        assert!(weights.iter().all(|w| *w >= 0.0));
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0);
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        InstanceMix { cumulative }
    }

    /// Samples an instance type.
    pub fn sample(&self, rng: &mut SmallRng) -> &'static str {
        let u: f64 = rng.gen();
        let idx = self
            .cumulative
            .iter()
            .position(|c| u <= *c)
            .unwrap_or(EC2_INSTANCE_TYPES.len() - 1);
        EC2_INSTANCE_TYPES[idx]
    }

    /// The probability mass of type `i`.
    fn weight(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }
}

/// Scenario knobs for populating a federation.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Instance-type mix.
    pub mix: InstanceMix,
    /// Extra passive attributes per node (the paper runs 1,000/node; the
    /// default here is smaller to keep tests fast — benches raise it).
    pub extra_attrs_per_node: usize,
    /// Install the password `onGet` policy on every node.
    pub password_policy: bool,
    /// Give every node a CPU_utilization reading in [0, 100).
    pub utilization: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            mix: InstanceMix::gaussian(),
            extra_attrs_per_node: 10,
            password_policy: true,
            utilization: true,
        }
    }
}

/// Populates `fed` with the EC2 evaluation workload: every node gets an
/// instance type (joining that site-scoped tree), a utilization reading,
/// `extra_attrs_per_node` passive attributes, and optionally the password
/// policy. Returns the instance type assigned to each node.
pub fn populate_ec2_federation(
    fed: &mut Federation,
    seed: u64,
    cfg: &ScenarioConfig,
) -> Vec<&'static str> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = fed.sim().topology().node_count();
    let script = password_aa_script();
    let mut assigned = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let node = NodeAddr(i);
        let itype = cfg.mix.sample(&mut rng);
        assigned.push(itype);
        fed.post_resource(node, "instance", AttrValue::str(itype));
        if cfg.utilization {
            let util = rng.gen_range(0.0..100.0);
            fed.update_attr(node, "CPU_utilization", AttrValue::Num(util));
        }
        for a in 0..cfg.extra_attrs_per_node {
            fed.update_attr(node, &format!("attr{a}"), AttrValue::Num((a % 100) as f64));
        }
        if cfg.password_policy {
            fed.install_node_aa(node, &script);
        }
    }
    fed.settle();
    assigned
}

/// Generates the composite query mix of §IV.C: each query focuses on one
/// instance type, adds two residual attribute predicates, and varies its
/// location predicate over `n_sites` sites starting near the querier.
#[derive(Debug)]
pub struct QueryGen {
    rng: SmallRng,
    mix: InstanceMix,
    site_names: Vec<String>,
    extra_attrs: usize,
    /// Only query instance types in this index band (the Gaussian's
    /// center) — customers ask for the types that actually exist at the
    /// deployed scale. `None` samples the full mix.
    focus_band: Option<(usize, usize)>,
}

impl QueryGen {
    /// Creates a generator for a federation with the given site names.
    pub fn new(seed: u64, site_names: Vec<String>, extra_attrs: usize) -> Self {
        QueryGen {
            rng: SmallRng::seed_from_u64(seed),
            mix: InstanceMix::gaussian(),
            site_names,
            extra_attrs,
            focus_band: None,
        }
    }

    /// Restricts generated queries to instance types with indices in
    /// `lo..=hi` (the popular center of the Gaussian), re-normalized.
    pub fn focus_popular(mut self, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi < EC2_INSTANCE_TYPES.len());
        self.focus_band = Some((lo, hi));
        self
    }

    fn sample_type(&mut self) -> &'static str {
        match self.focus_band {
            None => self.mix.sample(&mut self.rng),
            Some((lo, hi)) => loop {
                let t = self.mix.sample(&mut self.rng);
                let idx = EC2_INSTANCE_TYPES
                    .iter()
                    .position(|x| *x == t)
                    .expect("sampled type exists");
                if (lo..=hi).contains(&idx) {
                    return t;
                }
            },
        }
    }

    /// One composite query: `SELECT k FROM <n_sites sites> WHERE instance =
    /// <type> AND attr_i >= 0 AND CPU_utilization < 100`. The residuals
    /// always pass, matching the paper's setup where queries succeed and
    /// latency is the measured quantity.
    pub fn composite(&mut self, home_site: SiteId, n_sites: usize, k: u32) -> String {
        let itype = self.sample_type();
        let total = self.site_names.len();
        let n_sites = n_sites.clamp(1, total);
        // The site list starts at the querier's home site and wraps.
        let sites: Vec<String> = (0..n_sites)
            .map(|off| {
                let idx = (home_site.0 as usize + off) % total;
                format!("\"{}\"", self.site_names[idx])
            })
            .collect();
        let from = if n_sites == total {
            "*".to_owned()
        } else {
            sites.join(", ")
        };
        let extra = if self.extra_attrs > 0 {
            let a = self.rng.gen_range(0..self.extra_attrs);
            format!(" AND attr{a} >= 0")
        } else {
            String::new()
        };
        format!(
            "SELECT {k} FROM {from} WHERE instance = \"{itype}\"{extra} AND CPU_utilization < 100"
        )
    }

    /// An atomic query for a single unique attribute (the Fig. 8a
    /// microbenchmark: "each of which randomly chooses to ask for one
    /// unique resource attribute").
    pub fn atomic(&mut self, attr_space: usize, k: u32) -> String {
        let a = self.rng.gen_range(0..attr_space.max(1));
        format!("SELECT {k} FROM * WHERE shared{a} = true")
    }
}

/// A Zipf(s) popularity distribution over ranks `0..n`, sampled by
/// inverse CDF. Rank 0 is the most popular item; `s = 0` degenerates to
/// uniform, `s ≈ 1` is the classic web-request skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .iter()
            .position(|c| u <= *c)
            .unwrap_or(self.cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn population(&self) -> usize {
        self.cdf.len()
    }
}

/// One step of the closed-loop front-door workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadOp {
    /// Issue this Zql query (popularity-ranked: hot queries repeat often
    /// under Zipf skew, which is what makes a result cache pay off).
    Query(String),
    /// Update `attr` to `value` on some resource holder — the write path
    /// that triggers invalidation multicasts.
    Update {
        /// Attribute to overwrite.
        attr: String,
        /// New value (monotone counter, so every write is a real change).
        value: AttrValue,
    },
}

/// Closed-loop, popularity-skewed read/write workload for the query
/// front door (§tentpole of the front-door evaluation): reads draw a
/// query from a fixed population by Zipf rank, writes touch attributes
/// that cached queries depend on.
#[derive(Debug)]
pub struct ZipfWorkload {
    rng: SmallRng,
    zipf: Zipf,
    queries: Vec<String>,
    read_ratio: f64,
    write_attrs: Vec<String>,
    write_seq: u64,
}

impl ZipfWorkload {
    /// Builds the workload over a popularity-ranked query population
    /// (`queries[0]` is the hottest). `skew` is the Zipf exponent;
    /// `read_ratio` in `[0, 1]` is the fraction of ops that are queries;
    /// writes cycle over `write_attrs` (may be empty when
    /// `read_ratio == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, `read_ratio` is outside `[0, 1]`,
    /// or writes are possible with no attributes to write.
    pub fn new(
        seed: u64,
        queries: Vec<String>,
        skew: f64,
        read_ratio: f64,
        write_attrs: Vec<String>,
    ) -> Self {
        assert!(!queries.is_empty(), "need at least one query");
        assert!((0.0..=1.0).contains(&read_ratio));
        assert!(
            read_ratio >= 1.0 || !write_attrs.is_empty(),
            "writes need target attributes"
        );
        let zipf = Zipf::new(queries.len(), skew);
        ZipfWorkload {
            rng: SmallRng::seed_from_u64(seed),
            zipf,
            queries,
            read_ratio,
            write_attrs,
            write_seq: 0,
        }
    }

    /// The next operation of the closed loop.
    pub fn next_op(&mut self) -> WorkloadOp {
        if self.rng.gen::<f64>() < self.read_ratio {
            let rank = self.zipf.sample(&mut self.rng);
            WorkloadOp::Query(self.queries[rank].clone())
        } else {
            let i = self.rng.gen_range(0..self.write_attrs.len());
            self.write_seq += 1;
            WorkloadOp::Update {
                attr: self.write_attrs[i].clone(),
                value: AttrValue::Num(self.write_seq as f64),
            }
        }
    }

    /// Size of the query population.
    pub fn population(&self) -> usize {
        self.queries.len()
    }

    /// The popularity distribution.
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }
}

/// A popularity-ranked query population over the EC2 workload: `n`
/// distinct queries asking for the Gaussian-popular instance types first,
/// varying `k` and the residual attribute so every rank is a distinct
/// cache key.
pub fn instance_query_population(n: usize, extra_attrs: usize) -> Vec<String> {
    let mix = InstanceMix::gaussian();
    // Instance types by descending popularity in the Gaussian mix.
    let mut by_pop: Vec<usize> = (0..EC2_INSTANCE_TYPES.len()).collect();
    by_pop.sort_by(|a, b| mix.weight(*b).total_cmp(&mix.weight(*a)));
    (0..n)
        .map(|rank| {
            let itype = EC2_INSTANCE_TYPES[by_pop[rank % by_pop.len()]];
            let k = 1 + (rank / by_pop.len()) as u32;
            let extra = if extra_attrs > 0 {
                format!(" AND attr{} >= 0", rank % extra_attrs)
            } else {
                String::new()
            };
            format!("SELECT {k} FROM * WHERE instance = \"{itype}\"{extra}")
        })
        .collect()
}

/// Convenience: the Table II site names (re-exported from simnet's preset).
pub fn aws8_site_names() -> Vec<String> {
    simnet::topology::AWS8_SITE_NAMES
        .iter()
        .map(|s| (*s).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Topology;

    #[test]
    fn gaussian_mix_peaks_at_center() {
        let mix = InstanceMix::gaussian();
        let center = mix.weight(11);
        let edge = mix.weight(0);
        assert!(center > edge * 3.0, "center {center} vs edge {edge}");
        let total: f64 = (0..23).map(|i| mix.weight(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_weights_roughly() {
        let mix = InstanceMix::gaussian();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0u32; 23];
        for _ in 0..20_000 {
            let t = mix.sample(&mut rng);
            let idx = EC2_INSTANCE_TYPES.iter().position(|x| *x == t).unwrap();
            counts[idx] += 1;
        }
        assert!(counts[11] > counts[0] * 2, "{counts:?}");
        assert!(counts[11] > counts[22] * 2);
    }

    #[test]
    fn populate_builds_instance_trees() {
        let mut fed = Federation::new(Topology::single_site(40, 0.5), 7);
        let cfg = ScenarioConfig {
            extra_attrs_per_node: 3,
            password_policy: false,
            ..ScenarioConfig::default()
        };
        let assigned = populate_ec2_federation(&mut fed, 9, &cfg);
        assert_eq!(assigned.len(), 40);
        // Every node has its instance attr and extra attrs.
        for i in 0..40u32 {
            let host = &fed.node(NodeAddr(i)).host;
            assert_eq!(
                host.attrs.get("instance"),
                Some(&AttrValue::str(assigned[i as usize]))
            );
            assert!(host.attrs.contains_key("attr0"));
            assert!(host.attrs.contains_key("CPU_utilization"));
        }
    }

    #[test]
    fn populated_federation_answers_instance_queries() {
        let mut fed = Federation::new(Topology::single_site(60, 0.5), 8);
        let cfg = ScenarioConfig {
            extra_attrs_per_node: 2,
            ..ScenarioConfig::default()
        };
        let assigned = populate_ec2_federation(&mut fed, 10, &cfg);
        fed.run_maintenance(4, simnet::SimDuration::from_millis(200));
        fed.settle();
        // Query for some assigned type with the right password.
        let target = assigned[0];
        let expected = assigned.iter().filter(|t| **t == target).count();
        let q = fed
            .issue_query(
                NodeAddr(30),
                &format!("SELECT 1 FROM * WHERE instance = \"{target}\""),
                Some(WORKLOAD_PASSWORD),
            )
            .unwrap();
        fed.settle();
        let rec = fed.query_record(NodeAddr(30), q).unwrap();
        assert!(
            rec.satisfied,
            "type {target} has {expected} holders: {rec:?}"
        );
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        // The probability mass of `rank`.
        let weight =
            |z: &Zipf, rank: usize| z.cdf[rank] - if rank == 0 { 0.0 } else { z.cdf[rank - 1] };
        let z = Zipf::new(100, 1.0);
        assert!(weight(&z, 0) > weight(&z, 10) * 5.0);
        assert!((z.cdf[99] - 1.0).abs() < 1e-9);
        // s = 0 is uniform.
        let u = Zipf::new(10, 0.0);
        assert!((weight(&u, 0) - weight(&u, 9)).abs() < 1e-12);
    }

    #[test]
    fn zipf_workload_respects_ratio_and_skew() {
        let queries = instance_query_population(50, 10);
        assert_eq!(queries.len(), 50);
        for q in &queries {
            rbay_query::parse_query(q).expect(q);
        }
        // Distinct cache keys per rank.
        let distinct: std::collections::BTreeSet<&String> = queries.iter().collect();
        assert_eq!(distinct.len(), 50);

        let mut wl = ZipfWorkload::new(
            9,
            queries.clone(),
            1.0,
            0.9,
            vec!["attr0".into(), "attr1".into()],
        );
        let mut reads = 0u32;
        let mut writes = 0u32;
        let mut top = 0u32;
        for _ in 0..10_000 {
            match wl.next_op() {
                WorkloadOp::Query(q) => {
                    reads += 1;
                    if q == queries[0] {
                        top += 1;
                    }
                }
                WorkloadOp::Update { attr, .. } => {
                    writes += 1;
                    assert!(attr.starts_with("attr"));
                }
            }
        }
        let ratio = f64::from(reads) / f64::from(reads + writes);
        assert!((0.85..=0.95).contains(&ratio), "read ratio {ratio}");
        // Under Zipf(1) over 50 ranks, the hottest query is >15% of reads.
        assert!(f64::from(top) / f64::from(reads) > 0.15, "top share");
    }

    #[test]
    fn zipf_workload_is_deterministic_per_seed() {
        let queries = instance_query_population(10, 4);
        let mut a = ZipfWorkload::new(3, queries.clone(), 0.8, 0.7, vec!["attr0".into()]);
        let mut b = ZipfWorkload::new(3, queries, 0.8, 0.7, vec!["attr0".into()]);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn query_gen_produces_parseable_queries() {
        let mut qg = QueryGen::new(3, aws8_site_names(), 10);
        for n_sites in 1..=8 {
            let q = qg.composite(SiteId(2), n_sites, 3);
            let parsed = rbay_query::parse_query(&q).expect(&q);
            assert_eq!(parsed.k, 3);
            assert_eq!(parsed.predicates.len(), 3, "{q}");
            match parsed.from {
                rbay_query::FromClause::AllSites => assert_eq!(n_sites, 8),
                rbay_query::FromClause::Sites(s) => assert_eq!(s.len(), n_sites),
            }
        }
        let a = qg.atomic(100, 1);
        assert!(rbay_query::parse_query(&a).is_ok(), "{a}");
    }
}
