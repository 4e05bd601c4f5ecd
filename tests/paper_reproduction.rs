//! The flagship integration test: run the full six-experiment suite over
//! all 93 devices and assert the paper's headline numbers, measured
//! purely from the captures.
//!
//! Exact-match targets (the paper's Table 3 / Table 5 totals, the Fig. 5
//! funnel); shape targets elsewhere (documented tolerances).

use v6brick::experiments::{
    active_dns, figures, scenario, tables, tracking, ExperimentSuite, NetworkConfig,
};

/// One shared suite for all assertions (the run dominates test time).
fn suite() -> &'static ExperimentSuite {
    use std::sync::OnceLock;
    static SUITE: OnceLock<ExperimentSuite> = OnceLock::new();
    SUITE.get_or_init(ExperimentSuite::run_all)
}

/// FNV-1a over rendered bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// (artifact, rendered bytes, FNV-1a) of every report that reads a
/// device predicate, the Table 3 funnel or a device's destination
/// names, over the shared suite. Tables 7 and 9 read the active DNS
/// experiment over the suite's observed domains.
const PINNED_ARTIFACTS: [(&str, usize, u64); 13] = [
    ("table3", 1719, 0x7f04_4fea_3ce8_e2fd),
    ("table4", 932, 0x1778_dcf0_ee25_f7ea),
    ("table5", 1925, 0xd362_18a9_f9d8_f812),
    ("table7", 2322, 0x5f31_a291_d911_9f2f),
    ("table8", 3633, 0x753f_4f83_b5c7_76c2),
    ("table9", 626, 0x9e92_1ac8_106e_6663),
    ("table10", 7724, 0xf9fa_6e20_06d8_d1bf),
    ("table12", 714, 0xa472_7c90_72a6_3dd6),
    ("table13", 1706, 0x4779_3dd4_1050_1456),
    ("tracking", 472, 0x9f20_ce0a_834c_52a0),
    ("figure2", 432, 0x27d7_7619_311a_2d20),
    ("figure5", 546, 0x53a3_34a3_e63d_7f8b),
    ("headline", 360, 0xc081_2700_50ca_3d64),
];

#[test]
fn rendered_artifacts_are_pinned() {
    let s = suite();
    let active = active_dns::probe(s.observed_domains(), scenario::build_zones(&s.profiles));
    let render = |name: &str| match name {
        "table3" => tables::table3(s).to_string(),
        "table4" => tables::table4(s).to_string(),
        "table5" => tables::table5(s).to_string(),
        "table7" => tables::table7(s, &active).to_string(),
        "table8" => tables::table8(s).to_string(),
        "table9" => tables::table9(s, &active).to_string(),
        "table10" => tables::table10(s).to_string(),
        "table12" => tables::table12(s).to_string(),
        "table13" => tables::table13(s).to_string(),
        "tracking" => tracking::tracking_table(s).to_string(),
        "figure2" => figures::figure2(s).to_string(),
        "figure5" => figures::figure5(s).to_string(),
        "headline" => serde_json::to_string(&tables::headline_numbers(s)).unwrap(),
        other => unreachable!("no artifact {other}"),
    };
    let changed: Vec<String> = PINNED_ARTIFACTS
        .iter()
        .filter_map(|&(name, len, digest)| {
            let text = render(name);
            let got = (text.len(), fnv1a(text.as_bytes()));
            (got != (len, digest))
                .then(|| format!("(\"{name}\", {}, {:#018x}),\n{text}", got.0, got.1))
        })
        .collect();
    assert!(
        changed.is_empty(),
        "rendered bytes changed:\n{}",
        changed.join("\n")
    );
}

#[test]
fn phones_verify_every_configuration() {
    for run in suite().runs() {
        assert!(
            run.phones_ok,
            "{:?}: the verification phones must confirm the network works",
            run.config
        );
    }
}

#[test]
fn table3_exact_totals() {
    let m = tables::headline_numbers(suite());
    assert_eq!(m["t3_ndp"], 59, "59 devices generate NDP traffic");
    assert_eq!(m["t3_addr"], 51, "51 devices assign an IPv6 address");
    assert_eq!(m["t3_gua"], 27, "27 devices use a global unicast address");
    assert_eq!(m["t3_aaaa_v6"], 22, "22 devices send AAAA queries over v6");
    assert_eq!(m["t3_aaaa_pos"], 19, "19 devices get positive AAAA answers");
    assert_eq!(
        m["t3_data"], 19,
        "19 devices transmit Internet data over v6"
    );
    assert_eq!(m["t3_functional"], 8, "8 devices remain functional");
}

#[test]
fn table3_category_breakdown() {
    let s = suite();
    let o = |id: &str| s.v6only_observation(id);
    assert_eq!(
        tables::count_by_category(s, |id| o(id).ndp_traffic),
        vec![3, 5, 6, 11, 2, 16, 16]
    );
    assert_eq!(
        tables::count_by_category(s, |id| o(id).has_v6_addr()),
        vec![2, 5, 6, 11, 0, 11, 16]
    );
    assert_eq!(
        tables::count_by_category(s, |id| o(id).active_gua()),
        vec![1, 2, 6, 5, 0, 3, 10]
    );
    assert_eq!(
        tables::count_by_category(s, |id| !o(id).aaaa_q_v6.is_empty()),
        vec![1, 2, 6, 3, 0, 0, 10]
    );
    assert_eq!(
        tables::count_by_category(s, |id| !o(id).aaaa_pos_v6.is_empty()),
        vec![1, 2, 6, 0, 0, 0, 10]
    );
    assert_eq!(
        tables::count_by_category(s, |id| o(id).v6_internet_data()),
        vec![1, 2, 5, 2, 0, 0, 9]
    );
    assert_eq!(
        tables::count_by_category(s, |id| s.functional_v6only(id)),
        vec![0, 0, 3, 0, 0, 0, 5]
    );
}

#[test]
fn table5_exact_totals() {
    let m = tables::headline_numbers(suite());
    assert_eq!(m["t5_addr"], 54);
    assert_eq!(m["t5_stateful"], 12);
    assert_eq!(m["t5_gua"], 31);
    assert_eq!(m["t5_ula"], 23);
    assert_eq!(m["t5_lla"], 50, "the paper's LLA column sums to 50");
    assert_eq!(m["t5_eui64"], 31);
    assert_eq!(m["t5_dns6"], 22);
    assert_eq!(m["t5_a_only"], 19);
    assert_eq!(m["t5_aaaa_any"], 37);
    assert_eq!(m["t5_aaaa_v4only"], 33);
    assert_eq!(m["t5_aaaa_pos"], 31);
    assert_eq!(m["t5_stateless"], 16);
    assert_eq!(m["t5_trans"], 29);
    assert_eq!(m["t5_internet"], 23);
    assert_eq!(m["t5_local"], 21);
}

#[test]
fn table4_deltas() {
    let s = suite();
    let ids: Vec<&str> = s.device_ids().collect();
    let delta = |f: &dyn Fn(&v6brick::core::DeviceObservation) -> bool| {
        let dual = ids.iter().filter(|id| f(s.dual_observation(id))).count() as i64;
        let v6 = ids.iter().filter(|id| f(s.v6only_observation(id))).count() as i64;
        dual - v6
    };
    assert_eq!(
        delta(&|o| o.ndp_traffic),
        -1,
        "ThirdReality skips v6 in dual-stack"
    );
    assert_eq!(delta(&|o| o.has_v6_addr()), 2);
    assert_eq!(delta(&|o| o.active_gua()), 3);
    assert_eq!(delta(&|o| !o.aaaa_q_any().is_empty()), 15);
    assert_eq!(delta(&|o| !o.aaaa_pos_any().is_empty()), 12);
    // The paper prints +3 but its own union arithmetic requires +4
    // (gateway Internet data goes 2 -> 3 while the union keeps all of
    // Fire TV, the two Echo Dots, and the Aeotec hub); see EXPERIMENTS.md.
    assert_eq!(delta(&|o| o.v6_internet_data()), 4);
}

#[test]
fn fig5_funnel_exact() {
    let f = figures::eui64_funnel(suite());
    assert_eq!(f.assign, 33, "33 devices assign EUI-64 GUAs");
    assert_eq!(f.use_any, 15, "15 use them");
    assert_eq!(f.use_dns, 8, "8 expose them through DNS");
    assert_eq!(f.use_internet_data, 5, "5 transmit Internet data from them");
    // Exposed-domain party mix: first-party dominates, trackers present.
    assert!(f.data_domains_by_party.first > f.data_domains_by_party.third);
    assert!(f.data_domains_by_party.total() > 0);
}

#[test]
fn table6_address_and_query_volumes_in_range() {
    // Shape targets: within 15% of the paper's totals
    // (684 addresses / 456 GUA / 169 ULA / 59 LLA; 1077 AAAA names,
    // 114 A-only, 334 v4-only, 531 positive).
    let s = suite();
    let within =
        |measured: i64, target: i64, pct: i64| (measured - target).abs() * 100 <= target * pct;
    let mut addrs = (0i64, 0i64, 0i64, 0i64);
    let mut dns = (0i64, 0i64, 0i64, 0i64);
    for id in s.device_ids() {
        use v6brick::net::ipv6::{AddressKind, Ipv6AddrExt};
        let o = s.v6_and_dual_observation(id);
        let a = o.all_addrs();
        addrs.0 += a.len() as i64;
        addrs.1 += a.iter().filter(|x| x.kind() == AddressKind::Global).count() as i64;
        addrs.2 += a
            .iter()
            .filter(|x| x.kind() == AddressKind::UniqueLocal)
            .count() as i64;
        addrs.3 += a
            .iter()
            .filter(|x| x.kind() == AddressKind::LinkLocal)
            .count() as i64;
        dns.0 += o.aaaa_q_any().len() as i64;
        dns.1 += o.a_only_v6_names().len() as i64;
        dns.2 += o.aaaa_q_v4.difference(&o.aaaa_q_v6).count() as i64;
        dns.3 += o.aaaa_pos_any().len() as i64;
    }
    assert!(within(addrs.0, 684, 15), "total addresses {}", addrs.0);
    assert!(within(addrs.1, 456, 15), "GUAs {}", addrs.1);
    assert!(within(addrs.2, 169, 15), "ULAs {}", addrs.2);
    assert!(within(addrs.3, 59, 15), "LLAs {}", addrs.3);
    assert!(within(dns.0, 1077, 15), "AAAA names {}", dns.0);
    assert!(within(dns.1, 114, 15), "A-only names {}", dns.1);
    assert!(within(dns.2, 334, 15), "v4-only AAAA names {}", dns.2);
    assert!(within(dns.3, 531, 15), "positive AAAA names {}", dns.3);
}

#[test]
fn fig4_volume_shape() {
    let s = suite();
    let fracs: Vec<(String, f64)> = s
        .device_ids()
        .map(|id| (id.to_string(), s.dual_observation(id).v6_volume_fraction()))
        .filter(|(_, f)| *f > 0.0)
        .collect();
    assert_eq!(fracs.len(), 23, "23 devices carry IPv6 Internet volume");
    let over80 = fracs.iter().filter(|(_, f)| *f > 0.80).count();
    assert_eq!(over80, 3, "three devices transmit >80% over IPv6");
    let under20 = fracs.iter().filter(|(_, f)| *f < 0.20).count();
    assert!(
        under20 * 2 > fracs.len(),
        "more than half stay below 20% ({under20}/{})",
        fracs.len()
    );
    // Paper-named cases: the Nest Camera exceeds 80% despite being
    // non-functional; the Nest Hubs stay under 20% despite being
    // functional.
    let get = |id: &str| {
        fracs
            .iter()
            .find(|(d, _)| d == id)
            .map(|(_, f)| *f)
            .unwrap()
    };
    assert!(get("nest_camera") > 0.80);
    assert!(!s.functional_v6only("nest_camera"));
    assert!(get("nest_hub") < 0.20);
    assert!(s.functional_v6only("nest_hub"));
}

#[test]
fn table6_category_volume_fractions() {
    // TV/Ent. and Speaker carry substantial IPv6 fractions; Gateway,
    // Health, and Home Automation stay negligible (Table 6 bottom row).
    let fr = figures::category_volume_fractions(suite());
    assert!(fr["TV/Ent."] > 0.25, "TV fraction {:.3}", fr["TV/Ent."]);
    assert!(
        fr["Speaker"] > 0.10,
        "Speaker fraction {:.3}",
        fr["Speaker"]
    );
    assert!(fr["Home Auto"] < 0.05);
    assert!(fr["Health"] < 0.05);
    assert!(fr["TV/Ent."] > fr["Speaker"]);
    assert!(fr["Speaker"] > fr["Camera"] || fr["Camera"] < 0.2);
}

#[test]
fn dad_noncompliance_counts() {
    let (skip_some, never) = tables::dad_counts(suite());
    assert_eq!(
        never, 4,
        "2 Aqara hubs + 2 home-automation devices never DAD"
    );
    // The paper counts 18 devices skipping DAD for >=1 address; our
    // temporaries put the measurement at 16 (±2 of the paper).
    assert!(
        (16..=20).contains(&skip_some),
        "devices skipping DAD: {skip_some}"
    );
}

#[test]
fn rdnss_only_experiment_isolates_vizio() {
    // §5.2.1: only the Vizio TV loses IPv6 DNS when stateless DHCPv6 is
    // removed and RDNSS is the only DNS channel.
    let s = suite();
    let baseline = s.run(NetworkConfig::Ipv6Only);
    let rdnss_only = s.run(NetworkConfig::Ipv6OnlyRdnssOnly);
    let lost: Vec<&str> = s
        .device_ids()
        .filter(|id| {
            let b = baseline
                .analysis
                .device(id)
                .map(|o| o.dns_over_v6())
                .unwrap_or(false);
            let r = rdnss_only
                .analysis
                .device(id)
                .map(|o| o.dns_over_v6())
                .unwrap_or(false);
            b && !r
        })
        .collect();
    assert_eq!(lost, vec!["vizio_tv"]);
}

#[test]
fn stateful_dhcpv6_usage() {
    // Table 5 / §5.2.1: 12 devices solicit stateful DHCPv6; only 4 ever
    // source traffic from the assigned address.
    let s = suite();
    let solicited = s
        .device_ids()
        .filter(|id| s.v6_and_dual_observation(id).dhcpv6_stateful)
        .count();
    assert_eq!(solicited, 12);
    let mut using: Vec<&str> = s
        .device_ids()
        .filter(|id| {
            let o = s.v6_and_dual_observation(id);
            o.dhcpv6_addrs.iter().any(|a| o.active_v6.contains(a))
        })
        .collect();
    using.sort();
    assert_eq!(
        using,
        vec![
            "aeotec_hub",
            "homepod_mini",
            "samsung_fridge",
            "smartthings_hub"
        ]
    );
}

#[test]
fn functional_set_is_the_papers() {
    let s = suite();
    let mut functional: Vec<&str> = s
        .device_ids()
        .filter(|id| s.functional_v6only(id))
        .collect();
    functional.sort();
    assert_eq!(
        functional,
        vec![
            "apple_tv",
            "google_home_mini",
            "google_nest_mini",
            "google_tv",
            "meta_portal_mini",
            "nest_hub",
            "nest_hub_max",
            "tivo_stream",
        ]
    );
}

#[test]
fn every_device_functional_on_ipv4() {
    // §4.1: all devices pass the functionality test over IPv4.
    let s = suite();
    let run = s.run(NetworkConfig::Ipv4Only);
    for (id, ok) in &run.functional {
        assert!(ok, "{id} must be functional in the IPv4-only network");
    }
}

#[test]
fn tracking_domains_disappear_in_v6only() {
    // §5.4.3: the functional devices lose third-party/tracking SLDs when
    // IPv4 goes away.
    let r = v6brick::experiments::tracking::tracking_report(suite());
    assert!(
        !r.third_party_slds.is_empty(),
        "some trackers must be v4-only"
    );
    assert!(r.v4_only_domains.len() >= 50);
    // The paper-named trackers are among them.
    let slds: Vec<String> = r.third_party_slds.iter().map(|s| s.to_string()).collect();
    assert!(slds.iter().any(|s| s == "app-measurement.com"), "{slds:?}");
}

#[test]
fn determinism_same_suite_twice() {
    // Two independently-run IPv6-only experiments produce identical
    // captures (the reproducibility guarantee).
    use v6brick::experiments::scenario::run_with_profiles;
    let profiles = v6brick::devices::registry::shared();
    let a = run_with_profiles(NetworkConfig::Ipv6Only, profiles);
    let b = run_with_profiles(NetworkConfig::Ipv6Only, profiles);
    assert_eq!(a.frames, b.frames);
    assert_eq!(a.functional, b.functional);
    let sa = serde_json::to_string(&a.analysis.devices).unwrap();
    let sb = serde_json::to_string(&b.analysis.devices).unwrap();
    assert_eq!(sa, sb);
}

#[test]
fn verdicts_are_seed_invariant() {
    // Different RNG seeds change boot jitter and temporary addresses but
    // never the measured feature set or the functionality verdicts.
    use v6brick::core::analysis::PassId;
    use v6brick::experiments::scenario::{run_scoped, EXPERIMENT_DURATION};
    let profiles = v6brick::devices::registry::build();
    let a = run_scoped(
        NetworkConfig::Ipv6Only,
        &profiles,
        0x1111_0000,
        EXPERIMENT_DURATION,
        &PassId::ALL,
    );
    let b = run_scoped(
        NetworkConfig::Ipv6Only,
        &profiles,
        0x2222_0000,
        EXPERIMENT_DURATION,
        &PassId::ALL,
    );
    assert_eq!(
        a.functional, b.functional,
        "functionality is a device property"
    );
    for (id, oa) in &a.analysis.devices {
        let ob = &b.analysis.devices[id];
        assert_eq!(oa.ndp_traffic, ob.ndp_traffic, "{id}");
        assert_eq!(oa.has_v6_addr(), ob.has_v6_addr(), "{id}");
        assert_eq!(oa.dns_over_v6(), ob.dns_over_v6(), "{id}");
        assert_eq!(oa.v6_internet_data(), ob.v6_internet_data(), "{id}");
        assert_eq!(oa.aaaa_q_v6, ob.aaaa_q_v6, "{id}: same names queried");
    }
}
