//! E12 — §II / Fig. 2: delivery-cycle time is O(lg n) for fixed payload,
//! measured on the bit-serial machine simulator.

use crate::tables::{f, Table};
use ft_core::{FatTree, Message};
use ft_sim::{simulate_cycle, ChannelUtilization, SimConfig, SwitchKind};
use ft_workloads::random_permutation;

/// Run E12.
pub fn run() -> Vec<Table> {
    let mut rng = super::rng();
    let payload = 64u32;
    let mut t = Table::new(
        format!("E12 — bit-serial cycle time (payload = {payload} bits, ideal switches)"),
        &[
            "n",
            "lg n",
            "cycle ticks",
            "2(2lgn−1)+payload",
            "delivered",
            "peak util",
        ],
    );
    for &lgn in &[4u32, 6, 8, 10] {
        let n = 1u32 << lgn;
        let ft = FatTree::new(n, ft_core::CapacityProfile::FullDoubling);
        let msgs: Vec<Message> = random_permutation(n, &mut rng).into_vec();
        let cfg = SimConfig {
            payload_bits: payload,
            switch: SwitchKind::Ideal,
            ..Default::default()
        };
        let rep = simulate_cycle(&ft, &msgs, &cfg);
        let util = ChannelUtilization::of_cycle(&ft, &rep.channel_use);
        t.row(vec![
            n.to_string(),
            lgn.to_string(),
            rep.ticks.to_string(),
            (2 * (2 * lgn - 1) + payload).to_string(),
            format!("{}/{}", rep.delivered.len(), msgs.len()),
            f(util.peak()),
        ]);
    }
    t.note("Measured ticks equal the model exactly when some message crosses the root:");
    t.note("2 ticks per node (M bit + address bit) over 2·lg n − 1 nodes, then the payload");
    t.note("streams behind the established path. Time is O(lg n) — §II's claim.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_ticks_match_model() {
        let t = super::run();
        crate::experiments::assert_committed(&t);
        for row in &t[0].rows {
            let ticks: u32 = row[2].parse().unwrap();
            let model: u32 = row[3].parse().unwrap();
            assert!(ticks <= model, "cycle slower than the model: {row:?}");
            assert!(ticks + 8 >= model, "cycle implausibly fast: {row:?}");
        }
    }
}
