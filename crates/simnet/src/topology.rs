//! Network topology: sites, nodes, and pairwise latency.
//!
//! A [`Topology`] assigns every node to a *site* (a datacenter) and derives
//! one-way message latencies from a site-to-site round-trip-time matrix plus
//! per-site jitter. The preset [`Topology::aws_ec2_8_sites`] reproduces the
//! eight-region Amazon EC2 deployment from Table II of the RBAY paper.

use crate::time::SimDuration;
use rand::Rng;

/// Identifies a site (datacenter) in the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

/// Identifies a simulated node (a transport endpoint).
///
/// Addresses are dense indices assigned by [`Topology`] construction, which
/// makes them usable as `Vec` indices throughout the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The dense index behind this address.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Static description of one site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Human-readable name, e.g. `"Virginia"`.
    pub name: String,
    /// Number of nodes hosted at this site.
    pub nodes: usize,
    /// Multiplier on latency jitter; `1.0` is a stable network. The RBAY
    /// evaluation observed fluctuating delivery latencies for the Asia and
    /// South-America sites (Fig. 11), which we model with factors > 1.
    pub instability: f64,
}

/// Sites, node placement, and the latency model.
#[derive(Debug, Clone)]
pub struct Topology {
    sites: Vec<SiteSpec>,
    /// Symmetric site-to-site RTT in milliseconds; `rtt_ms[i][i]` is the
    /// intra-site RTT.
    rtt_ms: Vec<Vec<f64>>,
    /// `node_site[node] == site` for every node address.
    node_site: Vec<SiteId>,
    /// Fraction of the mean one-way latency used as the jitter scale.
    jitter_frac: f64,
    /// Probability that any message is silently dropped in flight.
    loss_prob: f64,
}

impl Topology {
    /// Builds a topology from per-site specs and a symmetric RTT matrix
    /// (milliseconds). Node addresses are assigned densely, site by site.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square with one row per site, or if any
    /// RTT is negative.
    pub fn new(sites: Vec<SiteSpec>, rtt_ms: Vec<Vec<f64>>) -> Self {
        assert_eq!(rtt_ms.len(), sites.len(), "one RTT row per site");
        for row in &rtt_ms {
            assert_eq!(row.len(), sites.len(), "RTT matrix must be square");
            assert!(row.iter().all(|&v| v >= 0.0), "RTTs must be non-negative");
        }
        let mut node_site = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            node_site.extend(std::iter::repeat_n(SiteId(i as u16), site.nodes));
        }
        Topology {
            sites,
            rtt_ms,
            node_site,
            jitter_frac: 0.05,
            loss_prob: 0.0,
        }
    }

    /// A single site of `nodes` nodes with the given intra-site RTT.
    pub fn single_site(nodes: usize, intra_rtt_ms: f64) -> Self {
        Topology::new(
            vec![SiteSpec {
                name: "local".to_owned(),
                nodes,
                instability: 1.0,
            }],
            vec![vec![intra_rtt_ms]],
        )
    }

    /// The eight-region Amazon EC2 deployment of the RBAY evaluation, with
    /// the measured round-trip latencies of Table II and `nodes_per_site`
    /// nodes in each region.
    ///
    /// Site order: Virginia, Oregon, California, Ireland, Singapore, Tokyo,
    /// Sydney, São Paulo.
    pub fn aws_ec2_8_sites(nodes_per_site: usize) -> Self {
        let names = [
            "Virginia",
            "Oregon",
            "California",
            "Ireland",
            "Singapore",
            "Tokyo",
            "Sydney",
            "SaoPaulo",
        ];
        // Paper Table II: the Asia-Pacific and South-America regions showed
        // unstable delivery latencies in Fig. 11; give them higher jitter.
        let instability = [1.0, 1.0, 1.0, 1.0, 3.0, 2.5, 2.5, 3.5];
        let sites = names
            .iter()
            .zip(instability)
            .map(|(name, inst)| SiteSpec {
                name: (*name).to_owned(),
                nodes: nodes_per_site,
                instability: inst,
            })
            .collect();
        Topology::new(sites, table2_rtt_matrix())
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total number of node addresses.
    pub fn node_count(&self) -> usize {
        self.node_site.len()
    }

    /// The spec for `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn site(&self, site: SiteId) -> &SiteSpec {
        &self.sites[site.0 as usize]
    }

    /// The site hosting `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn site_of(&self, node: NodeAddr) -> SiteId {
        self.node_site[node.index()]
    }

    /// All node addresses belonging to `site`.
    pub fn nodes_of_site(&self, site: SiteId) -> Vec<NodeAddr> {
        (0..self.node_count() as u32)
            .map(NodeAddr)
            .filter(|&n| self.site_of(n) == site)
            .collect()
    }

    /// The symmetric RTT between two sites, in milliseconds.
    pub fn rtt_ms(&self, a: SiteId, b: SiteId) -> f64 {
        let (i, j) = (a.0 as usize, b.0 as usize);
        if i <= j {
            self.rtt_ms[i][j]
        } else {
            self.rtt_ms[j][i]
        }
    }

    /// Sets the probability that any message is lost in flight (fault
    /// injection; protocols must recover through timeouts and retries).
    pub fn set_loss_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss_prob = p;
    }

    /// The configured message-loss probability.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Samples the one-way latency for a message from `from` to `to`.
    ///
    /// Mean-preserving model: the expected one-way latency is exactly half
    /// the site-pair RTT (so measured RTTs reproduce Table II), with an
    /// exponential (heavy-ish-tailed) jitter component whose magnitude is
    /// scaled by the less stable endpoint's instability factor.
    pub fn sample_latency<R: Rng + ?Sized>(
        &self,
        from: NodeAddr,
        to: NodeAddr,
        rng: &mut R,
    ) -> SimDuration {
        let (sa, sb) = (self.site_of(from), self.site_of(to));
        let mean_ms = self.rtt_ms(sa, sb) / 2.0;
        let inst = self.site(sa).instability.max(self.site(sb).instability);
        // Jitter ~ Exp(mean j) shifted by -j so E[latency] == mean_ms;
        // the jitter scale is capped below the mean to keep latency > 0.
        let j = (self.jitter_frac * inst).min(0.8) * mean_ms;
        let u: f64 = rng.gen_range(1e-9..1.0);
        let jitter_ms = -(u.ln()) * j - j;
        SimDuration::from_millis_f64((mean_ms + jitter_ms).max(mean_ms * 0.2))
    }
}

/// The raw Table II RTT matrix (milliseconds), upper-triangular measurements
/// mirrored to a full symmetric matrix. Order: Virginia, Oregon, California,
/// Ireland, Singapore, Tokyo, Sydney, São Paulo.
pub fn table2_rtt_matrix() -> Vec<Vec<f64>> {
    let upper: [[f64; 8]; 8] = [
        [
            0.559, 60.018, 83.407, 87.407, 275.549, 191.601, 239.897, 123.966,
        ],
        [
            0.0, 0.576, 20.441, 166.223, 200.296, 133.825, 190.985, 205.493,
        ],
        [0.0, 0.0, 0.489, 163.944, 174.701, 132.695, 186.027, 195.109],
        [0.0, 0.0, 0.0, 0.513, 194.371, 274.962, 322.284, 325.274],
        [0.0, 0.0, 0.0, 0.0, 0.540, 92.850, 184.894, 396.856],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.435, 127.156, 374.363],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.565, 323.613],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.436],
    ];
    let mut m = vec![vec![0.0; 8]; 8];
    for i in 0..8 {
        for j in 0..8 {
            m[i][j] = if i <= j { upper[i][j] } else { upper[j][i] };
        }
    }
    m
}

/// Names of the eight Table II sites, in matrix order.
pub const AWS8_SITE_NAMES: [&str; 8] = [
    "Virginia",
    "Oregon",
    "California",
    "Ireland",
    "Singapore",
    "Tokyo",
    "Sydney",
    "SaoPaulo",
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dense_address_assignment() {
        let topo = Topology::aws_ec2_8_sites(20);
        assert_eq!(topo.node_count(), 160);
        assert_eq!(topo.site_count(), 8);
        assert_eq!(topo.site_of(NodeAddr(0)), SiteId(0));
        assert_eq!(topo.site_of(NodeAddr(19)), SiteId(0));
        assert_eq!(topo.site_of(NodeAddr(20)), SiteId(1));
        assert_eq!(topo.site_of(NodeAddr(159)), SiteId(7));
    }

    #[test]
    fn rtt_matrix_is_symmetric() {
        let topo = Topology::aws_ec2_8_sites(1);
        for i in 0..8u16 {
            for j in 0..8u16 {
                assert_eq!(
                    topo.rtt_ms(SiteId(i), SiteId(j)),
                    topo.rtt_ms(SiteId(j), SiteId(i))
                );
            }
        }
        // Spot-check values from Table II.
        assert_eq!(topo.rtt_ms(SiteId(0), SiteId(4)), 275.549); // Virginia-Singapore
        assert_eq!(topo.rtt_ms(SiteId(5), SiteId(7)), 374.363); // Tokyo-SaoPaulo
        assert_eq!(topo.rtt_ms(SiteId(3), SiteId(3)), 0.513); // Ireland local
    }

    #[test]
    fn latency_is_at_least_half_rtt() {
        let topo = Topology::aws_ec2_8_sites(10);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        let n = 2_000;
        for _ in 0..n {
            // Virginia (site 0) -> Ireland (site 3, nodes 30-39).
            let lat = topo.sample_latency(NodeAddr(0), NodeAddr(35), &mut rng);
            // Virginia-Ireland RTT is 87.407ms; one-way stays near half.
            assert!(lat.as_millis_f64() >= 87.407 / 2.0 * 0.2 - 1e-6, "{lat}");
            assert!(lat.as_millis_f64() < 87.407 * 5.0, "{lat}");
            sum += lat.as_millis_f64();
        }
        // Mean-preserving: the average one-way latency is ~RTT/2.
        let mean = sum / n as f64;
        assert!((mean - 87.407 / 2.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn intra_site_latency_is_sub_millisecond() {
        let topo = Topology::aws_ec2_8_sites(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let lat = topo.sample_latency(NodeAddr(0), NodeAddr(1), &mut rng);
        assert!(lat.as_millis_f64() < 2.0, "{lat}");
    }

    #[test]
    fn nodes_of_site_partition() {
        let topo = Topology::aws_ec2_8_sites(3);
        let mut seen = 0;
        for s in 0..8u16 {
            let nodes = topo.nodes_of_site(SiteId(s));
            assert_eq!(nodes.len(), 3);
            seen += nodes.len();
        }
        assert_eq!(seen, topo.node_count());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn bad_matrix_rejected() {
        Topology::new(
            vec![SiteSpec {
                name: "a".into(),
                nodes: 1,
                instability: 1.0,
            }],
            vec![vec![1.0, 2.0]],
        );
    }

    #[test]
    fn unstable_sites_have_larger_jitter_spread() {
        let topo = Topology::aws_ec2_8_sites(20);
        let mut rng = SmallRng::seed_from_u64(11);
        let spread = |a: NodeAddr, b: NodeAddr, rng: &mut SmallRng| {
            let xs: Vec<f64> = (0..500)
                .map(|_| topo.sample_latency(a, b, rng).as_millis_f64())
                .collect();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(0.0f64, f64::max);
            max - min
        };
        // Virginia->Oregon (stable) vs Singapore->SaoPaulo (unstable); scale
        // by mean so the comparison is relative.
        let stable = spread(NodeAddr(0), NodeAddr(20), &mut rng) / 30.0;
        let unstable = spread(NodeAddr(80), NodeAddr(140), &mut rng) / 198.0;
        assert!(unstable > stable, "unstable={unstable} stable={stable}");
    }
}
