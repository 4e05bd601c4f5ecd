//! Diagnostic: run the full six-experiment suite and print the headline
//! counts against their paper targets.
use v6brick_experiments::suite::ExperimentSuite;
use v6brick_net::ipv6::{AddressKind, Ipv6AddrExt};

fn main() {
    let t = std::time::Instant::now();
    let suite = ExperimentSuite::run_all();
    println!("suite: {:?}", t.elapsed());

    let ids: Vec<String> = suite.device_ids().map(|s| s.to_string()).collect();
    let count = |f: &dyn Fn(&str) -> bool| ids.iter().filter(|id| f(id)).count();

    // Table 3 (IPv6-only union).
    println!("--- Table 3 (targets: ndp 59, addr 51, gua 27, aaaa6 22, pos 19, data 19, func 8)");
    println!(
        "ndp={} addr={} gua={} aaaa6={} pos={} data={} func={}",
        count(&|id| suite.v6only_observation(id).ndp_traffic),
        count(&|id| suite.v6only_observation(id).has_v6_addr()),
        count(&|id| suite
            .v6only_observation(id)
            .active_v6
            .iter()
            .any(|a| a.is_global_unicast())),
        count(&|id| !suite.v6only_observation(id).aaaa_q_v6.is_empty()),
        count(&|id| !suite.v6only_observation(id).aaaa_pos_v6.is_empty()),
        count(&|id| suite.v6only_observation(id).v6_internet_data()),
        count(&|id| suite.functional_v6only(id)),
    );

    // Table 5 (IPv6-only ∪ dual-stack).
    println!("--- Table 5 (targets: addr 54, stateful 12, gua 31, ula 23, lla 50, eui 31,");
    println!("    dns6 22, aonly 19, aaaa-any 37, aaaa-v4only 15, pos 31, stateless 16,");
    println!("    trans 29, internet 23, local 21)");
    let u = |id: &str| suite.v6_and_dual_observation(id);
    println!(
        "addr={} stateful={} gua={} ula={} lla={} eui={}",
        count(&|id| u(id).has_v6_addr()),
        count(&|id| u(id).dhcpv6_stateful),
        count(&|id| u(id).active_v6.iter().any(|a| a.is_global_unicast())),
        count(&|id| u(id).all_addrs().iter().any(|a| a.is_unique_local())),
        count(&|id| u(id).all_addrs().iter().any(|a| a.is_link_local())),
        count(&|id| {
            let o = u(id);
            o.all_addrs()
                .iter()
                .any(|a| a.is_link_local() && a.is_eui64())
                || o.active_v6
                    .iter()
                    .any(|a| !a.is_link_local() && a.is_eui64())
        }),
    );
    println!(
        "dns6={} aonly={} aaaa_any={} aaaa_v4only={} pos={} stateless={} trans={} internet={} local={}",
        count(&|id| u(id).dns_over_v6()),
        count(&|id| !u(id).a_only_v6_names().is_empty()),
        count(&|id| !u(id).aaaa_q_any().is_empty()),
        count(&|id| {
            let o = u(id);
            !o.aaaa_q_v4.is_empty() && o.aaaa_q_v4.difference(&o.aaaa_q_v6).next().is_some()
        }),
        count(&|id| !u(id).aaaa_pos_any().is_empty()),
        count(&|id| u(id).dhcpv6_stateless),
        count(&|id| u(id).v6_internet_bytes + u(id).v6_local_bytes > 0),
        count(&|id| u(id).v6_internet_data()),
        count(&|id| u(id).v6_local_bytes > 0),
    );

    // Fig. 5 funnel (targets: assign 33, use 15, dns 8, data 5).
    let assign = count(&|id| {
        u(id)
            .all_addrs()
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    let use_any = count(&|id| {
        u(id)
            .active_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    let use_dns = count(&|id| {
        u(id)
            .dns_src_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    let use_data = count(&|id| {
        u(id)
            .data_src_v6
            .iter()
            .any(|a| a.is_global_unicast() && a.is_eui64())
    });
    println!("--- Fig 5 (targets 33/15/8/5): assign={assign} use={use_any} dns={use_dns} data={use_data}");

    // Table 4 deltas (dual minus v6only).
    println!("--- Table 4 deltas (targets: ndp -1, addr +2, gua +3, aaaa +15, pos +12, data +3)");
    let d = |f: &dyn Fn(&v6brick_core::DeviceObservation) -> bool| {
        let dual = ids
            .iter()
            .filter(|id| f(suite.dual_observation(id)))
            .count() as i64;
        let v6 = ids
            .iter()
            .filter(|id| f(suite.v6only_observation(id)))
            .count() as i64;
        dual - v6
    };
    println!(
        "ndp={:+} addr={:+} gua={:+} aaaa={:+} pos={:+} data={:+}",
        d(&|o| o.ndp_traffic),
        d(&|o| o.has_v6_addr()),
        d(&|o| o.active_v6.iter().any(|a| a.is_global_unicast())),
        d(&|o| !o.aaaa_q_any().is_empty()),
        d(&|o| !o.aaaa_pos_any().is_empty()),
        d(&|o| o.v6_internet_data()),
    );

    // Address counts (Table 6 targets: 684 addrs / 456 GUA / 169 ULA / 59 LLA).
    let mut tot = (0usize, 0usize, 0usize, 0usize);
    for id in &ids {
        let o = u(id);
        let addrs = o.all_addrs();
        tot.0 += addrs.len();
        tot.1 += addrs
            .iter()
            .filter(|a| a.kind() == AddressKind::Global)
            .count();
        tot.2 += addrs
            .iter()
            .filter(|a| a.kind() == AddressKind::UniqueLocal)
            .count();
        tot.3 += addrs
            .iter()
            .filter(|a| a.kind() == AddressKind::LinkLocal)
            .count();
    }
    println!("--- Table 6 addrs (targets 684/456/169/59): {tot:?}");

    // AAAA query-name counts (Table 6 targets: 1077 req / 114 a-only / 334 v4-only / 531 res).
    let mut q = (0usize, 0usize, 0usize, 0usize);
    for id in &ids {
        let o = u(id);
        q.0 += o.aaaa_q_any().len();
        q.1 += o.a_only_v6_names().len();
        q.2 += o.aaaa_q_v4.difference(&o.aaaa_q_v6).count();
        q.3 += o.aaaa_pos_any().len();
    }
    println!("--- Table 6 dns (targets 1077/114/334/531): {q:?}");

    // Fig 4: v6 fraction in dual-stack.
    println!("--- Fig 4 (3 devices >80%, nest hubs <20%)");
    let mut fracs: Vec<(String, f64)> = ids
        .iter()
        .map(|id| (id.clone(), suite.dual_observation(id).v6_volume_fraction()))
        .filter(|(_, f)| *f > 0.0)
        .collect();
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (id, f) in &fracs {
        println!("  {id:<22} {:.1}%", f * 100.0);
    }
}
