//! vet-path: crates/sim-cluster/src/fixture.rs
//!
//! Seeded cluster-engine violations under the Engine profile: the
//! interconnect cost model gained a field (`migration_bytes_per_atom`) the
//! `cache_token()` encoding never mentions; recovery time is charged
//! through the fault session instead of accumulated observably; and a
//! literal latency is folded straight into a sim-time accumulator outside a
//! cost-model module.

pub struct FixtureInterconnect {
    pub latency_s: f64,
    pub bandwidth_bytes_per_s: f64,
    pub migration_bytes_per_atom: f64, // vet-expect(cache-token)
}

pub struct FixtureClusterKind {
    pub nodes: usize,
}

impl FixtureClusterKind {
    pub fn cache_token(&self) -> String {
        let net: FixtureInterconnect = fixture_net();
        format!(
            "cluster:nodes={},latency_s={},bandwidth_bytes_per_s={}",
            self.nodes, net.latency_s, net.bandwidth_bytes_per_s
        )
    }

    pub fn exchange_halo(&self, session: &mut FixtureSession) -> f64 {
        session.charge(5.0e-6); // vet-expect(observer-purity)
        let mut sim_seconds = 0.0;
        sim_seconds += 1.0e-6; // vet-expect(sim-time-units)
        sim_seconds
    }
}
