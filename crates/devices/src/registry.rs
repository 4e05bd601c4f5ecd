//! The 93-device registry: Table 10 transcribed row by row, augmented with
//! every per-device fact §5 reports, and compiled into full
//! [`DeviceProfile`]s.
//!
//! The raw table carries the six Table 10 feature flags verbatim
//! (functional-in-IPv6-only, NDP traffic, IPv6 address, GUA, DNS over
//! IPv6, global data). Auxiliary ID sets encode the named findings (ULA
//! users, DHCPv6 modes, EUI-64 sets, DAD offenders, the Table 4 delta
//! devices, ...). `build()` merges everything; the `checks` test module
//! pins each paper marginal so the transcription cannot drift.

use crate::domains;
use crate::profile::*;
use v6brick_net::Mac;

/// One row of Table 10 plus identity columns.
#[derive(Debug, Clone, Copy)]
pub struct RawDevice {
    /// Stable snake_case identifier.
    pub id: &'static str,
    /// Device name as printed in Table 10.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Manufacturer.
    pub manufacturer: &'static str,
    /// Year.
    pub year: u16,
    /// Os.
    pub os: Os,
    /// Table 10 column "Funtionability IPv6-only".
    pub functional_v6only: bool,
    /// Table 10 column "IPv6 NDP Traffic".
    pub ndp: bool,
    /// Table 10 column "IPv6 Address".
    pub addr: bool,
    /// Table 10 column "GUA".
    pub gua: bool,
    /// Table 10 column "DNS over IPv6".
    pub dns6: bool,
    /// Table 10 column "Global Data Comm".
    pub data6: bool,
}

use Category::*;
use Os::*;

macro_rules! raw {
    ($id:literal, $name:literal, $cat:expr, $man:literal, $year:literal, $os:expr,
     $func:literal, $ndp:literal, $addr:literal, $gua:literal, $dns6:literal, $data6:literal) => {
        RawDevice {
            id: $id,
            name: $name,
            category: $cat,
            manufacturer: $man,
            year: $year,
            os: $os,
            functional_v6only: $func,
            ndp: $ndp,
            addr: $addr,
            gua: $gua,
            dns6: $dns6,
            data6: $data6,
        }
    };
}

/// Table 10, verbatim. Order follows the paper's listing.
pub const RAW: [RawDevice; 93] = [
    // Appliances (7)
    raw!(
        "behmor_brewer",
        "Behmor Brewer",
        Appliance,
        "Behmor",
        2017,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "smarter_ikettle",
        "Smarter IKettle",
        Appliance,
        "Smarter",
        2017,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "ge_microwave",
        "GE Microwave",
        Appliance,
        "GE",
        2018,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "miele_dishwasher",
        "Miele Dishwasher",
        Appliance,
        "Miele",
        2021,
        EmbeddedLinux,
        false,
        true,
        false,
        false,
        false,
        false
    ),
    raw!(
        "samsung_fridge",
        "Samsung Fridge",
        Appliance,
        "SmartThings/Samsung",
        2022,
        Tizen,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "xiaomi_induction",
        "Xiaomi Induction",
        Appliance,
        "Xiaomi",
        2019,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "xiaomi_ricecooker",
        "Xiaomi Ricecooker",
        Appliance,
        "Xiaomi",
        2018,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    // Cameras (18)
    raw!(
        "amcrest_cam",
        "Amcrest Cam",
        Camera,
        "Amcrest",
        2018,
        EmbeddedLinux,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "arlo_q_cam",
        "Arlo Q Cam",
        Camera,
        "Arlo",
        2018,
        EmbeddedLinux,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "blink_doorbell",
        "Blink Doorbell",
        Camera,
        "Blink",
        2021,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "blink_security",
        "Blink Security",
        Camera,
        "Blink",
        2021,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "dlink_camera",
        "D-Link Camera",
        Camera,
        "D-Link",
        2017,
        EmbeddedLinux,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "icsee_doorbell",
        "ICSee Doorbell",
        Camera,
        "ICSee",
        2019,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "lefun_cam",
        "Lefun Cam",
        Camera,
        "Lefun",
        2018,
        EmbeddedLinux,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "microseven_cam",
        "Microseven Cam",
        Camera,
        "Microseven",
        2018,
        EmbeddedLinux,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "nest_camera",
        "Nest Camera",
        Camera,
        "Google",
        2021,
        EmbeddedLinux,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "nest_doorbell",
        "Nest Doorbell",
        Camera,
        "Google",
        2021,
        EmbeddedLinux,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "ring_camera",
        "Ring Camera",
        Camera,
        "Ring",
        2019,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "ring_doorbell",
        "Ring Doorbell",
        Camera,
        "Ring",
        2018,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "ring_wired_cam",
        "Ring Wired Cam",
        Camera,
        "Ring",
        2021,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "ring_indoor_cam",
        "Ring Indoor Cam",
        Camera,
        "Ring",
        2024,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tplink_camera",
        "TP-Link Camera",
        Camera,
        "TP-Link",
        2021,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tuya_camera",
        "Tuya Camera",
        Camera,
        "Tuya",
        2022,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "wyze_cam", "Wyze Cam", Camera, "Wyze", 2019, Embedded, false, false, false, false, false,
        false
    ),
    raw!(
        "yi_camera",
        "Yi Camera",
        Camera,
        "Yi",
        2018,
        EmbeddedLinux,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    // TV / Entertainment (8)
    raw!(
        "nintendo_switch",
        "Nintendo Switch",
        TvEntertainment,
        "Nintendo",
        2019,
        Unknown,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "apple_tv",
        "Apple TV",
        TvEntertainment,
        "Apple",
        2021,
        IosTvos,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "google_tv",
        "Google TV",
        TvEntertainment,
        "Google",
        2021,
        AndroidBased,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "fire_tv",
        "Fire TV",
        TvEntertainment,
        "Amazon",
        2021,
        FireOs,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "roku_tv",
        "Roku TV",
        TvEntertainment,
        "Roku",
        2021,
        Unknown,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "samsung_tv",
        "Samsung TV",
        TvEntertainment,
        "SmartThings/Samsung",
        2021,
        Tizen,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "tivo_stream",
        "TiVo Stream",
        TvEntertainment,
        "TiVo",
        2021,
        AndroidBased,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "vizio_tv",
        "Vizio TV",
        TvEntertainment,
        "Vizio",
        2021,
        Unknown,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    // Gateways (12)
    raw!(
        "aeotec_hub",
        "Aeotec Hub",
        Gateway,
        "SmartThings/Samsung",
        2024,
        EmbeddedLinux,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "aqara_hub",
        "Aqara Hub",
        Gateway,
        "Aqara",
        2021,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "aqara_hub_m2",
        "Aqara Hub M2",
        Gateway,
        "Aqara",
        2022,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "eufy_hub", "Eufy Hub", Gateway, "Eufy", 2021, Embedded, false, true, true, false, false,
        false
    ),
    raw!(
        "ikea_gateway",
        "IKEA Gateway",
        Gateway,
        "IKEA",
        2021,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        true
    ),
    raw!(
        "sengled_hub",
        "Sengled Hub",
        Gateway,
        "Sengled",
        2018,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "smartthings_hub",
        "SmartThings Hub",
        Gateway,
        "SmartThings/Samsung",
        2021,
        EmbeddedLinux,
        false,
        true,
        true,
        true,
        true,
        false
    ),
    raw!(
        "switchbot_hub",
        "SwitchBot Hub",
        Gateway,
        "SwitchBot",
        2022,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "hue_hub",
        "Philips Hue Hub",
        Gateway,
        "Philips",
        2018,
        EmbeddedLinux,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "switchbot_hub_2",
        "SwitchBot Hub 2",
        Gateway,
        "SwitchBot",
        2023,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "thirdreality_bridge",
        "ThirdReality Bridge",
        Gateway,
        "ThirdReality",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "smartlife_hub",
        "SmartLife Hub",
        Gateway,
        "Tuya",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    // Health (6)
    raw!(
        "blueair_purifier",
        "Blueair Purifier",
        Health,
        "Blueair",
        2018,
        Embedded,
        false,
        true,
        false,
        false,
        false,
        false
    ),
    raw!(
        "keyco_air",
        "Keyco Air",
        Health,
        "Keyco",
        2023,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "thermopro_sensor",
        "ThermoPro Sensor",
        Health,
        "ThermoPro",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "withings_bpm",
        "Withings BPM",
        Health,
        "Withings",
        2022,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "withings_sleep",
        "Withings Sleep",
        Health,
        "Withings",
        2023,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "withings_thermo",
        "Withings Thermo",
        Health,
        "Withings",
        2023,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    // Home automation (26)
    raw!(
        "amazon_plug",
        "Amazon Plug",
        HomeAuto,
        "Amazon",
        2024,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "consciot_matter_bulb",
        "Consciot Matter Bulb",
        HomeAuto,
        "Aidot",
        2023,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "gosund_bulb",
        "Gosund Bulb",
        HomeAuto,
        "Tuya",
        2021,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "govee_strip",
        "Govee Strip",
        HomeAuto,
        "Govee",
        2021,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "govee_matter_strip",
        "Govee Matter Strip",
        HomeAuto,
        "Govee",
        2023,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "meross_dooropener",
        "Meross Dooropener",
        HomeAuto,
        "Meross",
        2022,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "meross_matter_plug",
        "Meross Matter Plug",
        HomeAuto,
        "Meross",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "magichome_strip",
        "MagicHome Strip",
        HomeAuto,
        "Tuya",
        2018,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "meross_plug",
        "Meross Plug",
        HomeAuto,
        "Meross",
        2022,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "nest_thermostat",
        "Nest Thermostat",
        HomeAuto,
        "Google",
        2022,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "orein_matter_bulb",
        "Orein Matter Bulb",
        HomeAuto,
        "Aidot",
        2023,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "ring_chime",
        "Ring Chime",
        HomeAuto,
        "Ring",
        2024,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "sengled_bulb",
        "Sengled Bulb",
        HomeAuto,
        "Sengled",
        2022,
        Embedded,
        false,
        true,
        false,
        false,
        false,
        false
    ),
    raw!(
        "smartlife_remote",
        "SmartLife Remote",
        HomeAuto,
        "Tuya",
        2022,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "wemo_plug",
        "Wemo Plug",
        HomeAuto,
        "Wemo",
        2017,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tplink_kasa_bulb",
        "TP-Link Kasa Bulb",
        HomeAuto,
        "TP-Link",
        2018,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tplink_kasa_plug",
        "TP-Link Kasa Plug",
        HomeAuto,
        "TP-Link",
        2017,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tplink_tapo_plug",
        "TP-Link Tapo Plug",
        HomeAuto,
        "TP-Link",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "wiz_bulb", "Wiz Bulb", HomeAuto, "Wiz", 2022, Embedded, false, true, false, false, false,
        false
    ),
    raw!(
        "yeelight_bulb",
        "Yeelight Bulb",
        HomeAuto,
        "Yeelight",
        2019,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "tuya_matter_plug",
        "Tuya Matter Plug",
        HomeAuto,
        "Tuya",
        2023,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "tapo_matter_bulb",
        "Tapo Matter Bulb",
        HomeAuto,
        "TP-Link",
        2023,
        Embedded,
        false,
        true,
        true,
        true,
        false,
        false
    ),
    raw!(
        "linkind_matter_plug",
        "Linkind Matter Plug",
        HomeAuto,
        "Aidot",
        2024,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "leviton_matter_plug",
        "Leviton Matter Plug",
        HomeAuto,
        "Leviton",
        2024,
        Embedded,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "august_lock",
        "August Lock",
        HomeAuto,
        "August",
        2024,
        Embedded,
        false,
        false,
        false,
        false,
        false,
        false
    ),
    raw!(
        "cync_matter_plug",
        "Cync Matter Plug",
        HomeAuto,
        "Cync",
        2024,
        Embedded,
        false,
        true,
        false,
        false,
        false,
        false
    ),
    // Speakers (16)
    raw!(
        "echo_dot_2",
        "Echo Dot 2nd gen",
        Speaker,
        "Amazon",
        2017,
        FireOs,
        false,
        true,
        true,
        true,
        false,
        true
    ),
    raw!(
        "echo_dot_3",
        "Echo Dot 3rd gen",
        Speaker,
        "Amazon",
        2018,
        FireOs,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "echo_dot_4",
        "Echo Dot 4th gen",
        Speaker,
        "Amazon",
        2021,
        FireOs,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "echo_dot_5",
        "Echo Dot 5th gen",
        Speaker,
        "Amazon",
        2023,
        FireOs,
        false,
        true,
        true,
        true,
        false,
        true
    ),
    raw!(
        "echo_flex",
        "Echo Flex",
        Speaker,
        "Amazon",
        2021,
        FireOs,
        false,
        true,
        true,
        false,
        false,
        false
    ),
    raw!(
        "echo_plus",
        "Echo Plus",
        Speaker,
        "Amazon",
        2017,
        FireOs,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "echo_pop", "Echo Pop", Speaker, "Amazon", 2023, FireOs, false, true, true, false, false,
        false
    ),
    raw!(
        "echo_show_5",
        "Echo Show 5",
        Speaker,
        "Amazon",
        2022,
        FireOs,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "echo_show_8",
        "Echo Show 8",
        Speaker,
        "Amazon",
        2022,
        FireOs,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "echo_spot",
        "Echo Spot",
        Speaker,
        "Amazon",
        2017,
        FireOs,
        false,
        true,
        true,
        true,
        true,
        false
    ),
    raw!(
        "meta_portal_mini",
        "Meta Portal Mini",
        Speaker,
        "Meta",
        2018,
        AndroidBased,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "google_home_mini",
        "Google Home Mini",
        Speaker,
        "Google",
        2018,
        AndroidBased,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "google_nest_mini",
        "Google Nest Mini",
        Speaker,
        "Google",
        2022,
        AndroidBased,
        true,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "homepod_mini",
        "HomePod Mini",
        Speaker,
        "Apple",
        2022,
        IosTvos,
        false,
        true,
        true,
        true,
        true,
        true
    ),
    raw!(
        "nest_hub", "Nest Hub", Speaker, "Google", 2021, Fuchsia, true, true, true, true, true,
        true
    ),
    raw!(
        "nest_hub_max",
        "Nest Hub Max",
        Speaker,
        "Google",
        2021,
        Fuchsia,
        true,
        true,
        true,
        true,
        true,
        true
    ),
];

// ---------------------------------------------------------------------------
// Auxiliary fact sets (§5 findings). Membership is by device id.
// ---------------------------------------------------------------------------

/// Devices that self-assign a ULA (Matter / HomeKit fabrics) — 23 devices,
/// Table 5 row "ULA", per-category (1,2,2,5,1,5,7).
pub const ULA: &[&str] = &[
    "samsung_fridge",
    "nest_camera",
    "nest_doorbell",
    "apple_tv",
    "google_tv",
    "aeotec_hub",
    "smartthings_hub",
    "smartlife_hub",
    "aqara_hub_m2",
    "thirdreality_bridge",
    "thermopro_sensor",
    "meross_matter_plug",
    "tapo_matter_bulb",
    "tuya_matter_plug",
    "linkind_matter_plug",
    "leviton_matter_plug",
    "homepod_mini",
    "nest_hub",
    "nest_hub_max",
    "google_home_mini",
    "google_nest_mini",
    "meta_portal_mini",
    "echo_plus",
];

/// Devices with addresses but no LLA ("use only their GUAs and ULAs").
pub const NO_LLA: &[&str] = &[
    "thirdreality_bridge",
    "thermopro_sensor",
    "tuya_matter_plug",
    "linkind_matter_plug",
];

/// Stateful DHCPv6 support — 12 devices, Table 5 (1,0,2,2,0,6,1).
pub const DHCPV6_STATEFUL: &[&str] = &[
    "samsung_fridge",
    "apple_tv",
    "samsung_tv",
    "smartthings_hub",
    "aeotec_hub",
    "tplink_tapo_plug",
    "tapo_matter_bulb",
    "meross_matter_plug",
    "leviton_matter_plug",
    "linkind_matter_plug",
    "tuya_matter_plug",
    "homepod_mini",
];

/// The 4 devices that actually *use* their stateful address (§5.2.1).
pub const DHCPV6_STATEFUL_USE: &[&str] = &[
    "smartthings_hub",
    "homepod_mini",
    "aeotec_hub",
    "samsung_fridge",
];

/// Stateless DHCPv6 support — 16 devices, Table 5 (1,0,3,3,0,6,3).
pub const DHCPV6_STATELESS: &[&str] = &[
    "samsung_fridge",
    "apple_tv",
    "samsung_tv",
    "vizio_tv",
    "smartthings_hub",
    "aeotec_hub",
    "smartlife_hub",
    "meross_matter_plug",
    "tplink_tapo_plug",
    "tapo_matter_bulb",
    "leviton_matter_plug",
    "linkind_matter_plug",
    "tuya_matter_plug",
    "homepod_mini",
    "nest_hub",
    "nest_hub_max",
];

/// Cannot configure DNS from RDNSS (needs DHCPv6) — the Vizio TV finding.
pub const NO_RDNSS: &[&str] = &["vizio_tv"];

/// Configure IPv6 addresses only when IPv4 is also present (Table 4's
/// "+2 addresses in dual-stack"; ThermoPro also accounts for "+1 GUA").
pub const ADDR_REQUIRES_V4: &[&str] = &["thermopro_sensor", "gosund_bulb", "meross_plug"];

/// Skips IPv6 entirely when IPv4 is available (Table 4's "−1 NDP").
pub const SKIP_V6_IF_V4: &[&str] = &["thirdreality_bridge"];

/// SLAAC GUA only when IPv4 present (Echo Dot 2nd/5th gen — the speaker
/// "+2 GUA" and "+2 Internet data" deltas of Table 4).
pub const GUA_REQUIRES_V4: &[&str] = &["echo_dot_2", "echo_dot_5"];

/// NDP from `::` but never complete an address in any configuration.
pub const ADDRESSLESS: &[&str] = &[
    "miele_dishwasher",
    "blueair_purifier",
    "sengled_bulb",
    "wiz_bulb",
    "cync_matter_plug",
];

/// Never perform DAD for any address (2 Aqara hubs + 2 home-automation
/// devices, all EUI-64 — §5.2.1).
pub const DAD_NEVER: &[&str] = &[
    "aqara_hub",
    "aqara_hub_m2",
    "consciot_matter_bulb",
    "orein_matter_bulb",
];

/// DAD only for the LLA; global addresses skip it (with [`DAD_NEVER`],
/// 18 devices skip DAD for at least one address).
pub const DAD_LLA_ONLY: &[&str] = &[
    "ge_microwave",
    "amcrest_cam",
    "blink_security",
    "lefun_cam",
    "eufy_hub",
    "sengled_hub",
    "hue_hub",
    "switchbot_hub_2",
    "smartlife_hub",
    "echo_dot_3",
    "echo_dot_4",
    "echo_flex",
    "echo_pop",
    "echo_spot",
];

/// Rotate their link-local address during the experiment (§5.2.1).
pub const ROTATES_LLA: &[&str] = &["samsung_fridge", "samsung_tv", "homepod_mini", "apple_tv"];

/// The 10 churny devices producing ~80% of GUAs and ~90% of ULAs (Fig. 3),
/// with their extra-regeneration counts (tuned to Table 6's address
/// volumes: 456 GUAs / 169 ULAs / 59 LLAs across the testbed).
pub const ADDR_CHURN: &[(&str, u8)] = &[
    ("nest_hub", 9),
    ("nest_hub_max", 8),
    ("google_home_mini", 8),
    ("homepod_mini", 7),
    ("google_nest_mini", 6),
    ("samsung_fridge", 4),
    ("samsung_tv", 6),
    ("smartthings_hub", 6),
    ("aeotec_hub", 5),
    ("apple_tv", 6),
];

/// Active EUI-64 link-local IIDs — 31 devices, Table 5 (1,2,3,7,0,8,10).
pub const LLA_EUI64: &[&str] = &[
    "samsung_fridge",
    "nest_camera",
    "nest_doorbell",
    "fire_tv",
    "samsung_tv",
    "vizio_tv",
    "aeotec_hub",
    "smartthings_hub",
    "smartlife_hub",
    "ikea_gateway",
    "thirdreality_bridge",
    "aqara_hub",
    "aqara_hub_m2",
    "consciot_matter_bulb",
    "orein_matter_bulb",
    "gosund_bulb",
    "govee_matter_strip",
    "meross_plug",
    "smartlife_remote",
    "tuya_matter_plug",
    "tplink_tapo_plug",
    "echo_dot_2",
    "echo_dot_3",
    "echo_dot_4",
    "echo_dot_5",
    "echo_flex",
    "echo_pop",
    "echo_plus",
    "echo_show_5",
    "echo_show_8",
    "echo_spot",
];

/// Active EUI-64 GUAs (the 15 "users" of Fig. 5 / §5.4.1).
pub const GUA_EUI64: &[&str] = &[
    "samsung_fridge",
    "nest_camera",
    "fire_tv",
    "samsung_tv",
    "vizio_tv",
    "aeotec_hub",
    "smartthings_hub",
    "smartlife_hub",
    "ikea_gateway",
    "thirdreality_bridge",
    "gosund_bulb",
    "tplink_tapo_plug",
    "echo_plus",
    "echo_show_5",
    "echo_show_8",
];

/// Assign an EUI-64 GUA they never source traffic from (15 privacy-GUA
/// devices + Nest Doorbell + the 2 Aqara hubs = 18; with the 15 users,
/// Fig. 5's 33 assigners).
pub const UNUSED_EUI64_GUA: &[&str] = &[
    "apple_tv",
    "google_tv",
    "tivo_stream",
    "thermopro_sensor",
    "meross_matter_plug",
    "tapo_matter_bulb",
    "echo_dot_2",
    "echo_dot_5",
    "echo_spot",
    "meta_portal_mini",
    "google_home_mini",
    "google_nest_mini",
    "homepod_mini",
    "nest_hub",
    "nest_hub_max",
    "nest_doorbell",
    "aqara_hub",
    "aqara_hub_m2",
];

/// EUI-64 GUA formers whose DNS/data nonetheless come from a privacy GUA
/// (their EUI-64 address only sources NTP).
pub const PRIVACY_GUA_FOR_TRAFFIC: &[&str] = &["samsung_tv", "vizio_tv", "ikea_gateway"];

/// Data (but not DNS) from a privacy GUA. The Aeotec hub joins the
/// SmartLife hub here: both keep their EUI-64 GUA as a DNS-only source,
/// which is what caps Fig. 5's EUI-64 internet transmitters at five.
pub const DATA_FROM_PRIVACY_GUA: &[&str] = &["smartlife_hub", "aeotec_hub"];

/// DNS and data from the stateful DHCPv6 address.
pub const TRAFFIC_FROM_STATEFUL: &[&str] = &["samsung_fridge"];

/// Send ICMPv6 echo connectivity probes from their GUA. The seven EUI-64
/// members are the "misc" users completing Fig. 5's funnel (15 users =
/// 5 internet + 3 DNS-only + 7 probe-only); the three privacy-GUA members
/// are the devices whose GUA is active without any DNS or data use
/// (keeping Table 5's GUA count at 31).
pub const V6_ECHO_PROBE: &[&str] = &[
    "samsung_fridge",
    "samsung_tv",
    "vizio_tv",
    "ikea_gateway",
    "thirdreality_bridge",
    "gosund_bulb",
    "tplink_tapo_plug",
    "thermopro_sensor",
    "meross_matter_plug",
    "tapo_matter_bulb",
];

/// Query some destinations A-only even over IPv6 transport — 19 devices,
/// Table 5 (1,1,5,3,0,0,9).
pub const A_ONLY_IN_V6: &[&str] = &[
    "samsung_fridge",
    "nest_camera",
    "apple_tv",
    "google_tv",
    "fire_tv",
    "samsung_tv",
    "vizio_tv",
    "aeotec_hub",
    "smartthings_hub",
    "smartlife_hub",
    "echo_plus",
    "echo_show_5",
    "echo_show_8",
    "echo_spot",
    "meta_portal_mini",
    "google_home_mini",
    "google_nest_mini",
    "homepod_mini",
    "nest_hub",
];

/// Query AAAA records exclusively over IPv4 transport — the 15 devices of
/// Table 4's "+15 AAAA requests in dual-stack".
pub const AAAA_V4_ONLY: &[&str] = &[
    "arlo_q_cam",
    "blink_security",
    "blink_doorbell",
    "wyze_cam",
    "ring_camera",
    "roku_tv",
    "eufy_hub",
    "hue_hub",
    "switchbot_hub_2",
    "nest_thermostat",
    "echo_dot_2",
    "echo_dot_3",
    "echo_dot_4",
    "echo_dot_5",
    "echo_pop",
];

/// Of [`AAAA_V4_ONLY`], those whose queried names actually have AAAA
/// records (the +12 AAAA responses of Table 4, minus the two gateways).
pub const AAAA_V4_ONLY_READY: &[&str] = &[
    "arlo_q_cam",
    "blink_security",
    "wyze_cam",
    "roku_tv",
    "nest_thermostat",
    "echo_dot_2",
    "echo_dot_3",
    "echo_dot_4",
    "echo_dot_5",
    "echo_pop",
];

/// Gateways that retry AAAA over IPv4 in dual-stack for names their
/// IPv6-transport queries could not resolve (Aeotec, SmartLife).
pub const DUAL_V4_DNS_EXTRA: &[&str] = &["aeotec_hub", "smartlife_hub"];

/// Query HTTPS resource records (HTTP/3 probing — Android/iOS/tvOS).
pub const HTTPS_RECORDS: &[&str] = &[
    "apple_tv",
    "homepod_mini",
    "google_tv",
    "tivo_stream",
    "meta_portal_mini",
];

/// Query SVCB records (the two Apple devices).
pub const SVCB_RECORDS: &[&str] = &["apple_tv", "homepod_mini"];

/// Connect to a hard-coded IPv6 endpoint without DNS (IKEA gateway) or as
/// a fallback when AAAA resolution fails (SmartLife hub's Tuya IP list).
pub const HARDCODED_V6: &[(&str, &str)] = &[
    ("ikea_gateway", "fw.ota.ikea.example"),
    ("smartlife_hub", "m2a.tuyaus.example"),
];

/// Emit IPv6 *local* data traffic (mDNS / Matter exchanges) — 21 devices,
/// Table 5 "Local Trans" (1,2,5,5,0,3,5).
pub const LOCAL_IPV6: &[&str] = &[
    "samsung_fridge",
    "nest_camera",
    "nest_doorbell",
    "apple_tv",
    "google_tv",
    "samsung_tv",
    "tivo_stream",
    "vizio_tv",
    "aeotec_hub",
    "smartthings_hub",
    "smartlife_hub",
    "aqara_hub_m2",
    "thirdreality_bridge",
    "meross_matter_plug",
    "tuya_matter_plug",
    "leviton_matter_plug",
    "homepod_mini",
    "google_home_mini",
    "google_nest_mini",
    "nest_hub",
    "nest_hub_max",
];

/// Telemetry gated on required-destination rendezvous (Fire TV).
pub const DATA_REQUIRES_REQUIRED: &[&str] = &["fire_tv"];

/// TCP client v4-bound despite IPv6 DNS (Echo Spot).
pub const NO_V6_DATA: &[&str] = &["echo_spot"];

/// Firmware versions of select devices (the paper's Table 11, appendix C;
/// versions current at the April 2024 experiment window).
pub const FIRMWARE: &[(&str, &str)] = &[
    ("homepod_mini", "17.4"),
    ("apple_tv", "tvOS 17.4"),
    ("google_home_mini", "2.57.375114"),
    ("google_nest_mini", "2.57.375114"),
    ("nest_hub", "12.20230611.1.67-16.20231130.3.59"),
    ("nest_hub_max", "12.20230611.1.67-16.20231130.3.59"),
    ("roku_tv", "OS 12"),
    ("google_tv", "STTK.230808.004-STTE.240315.002"),
    ("aeotec_hub", "0.52.11"),
    ("smartthings_hub", "0.52.11"),
    ("ring_chime", "6.1.10+"),
    ("ring_doorbell", "15.0.13+"),
    ("ring_camera", "15.0.13+"),
    ("ring_wired_cam", "15.0.13+"),
    ("ring_indoor_cam", "15.0.8+"),
    ("hue_hub", "1963171020"),
    ("ikea_gateway", "1.20.65"),
    ("wyze_cam", "4.36.11.8391"),
    ("blink_security", "4.5.20"),
    ("blink_doorbell", "12.67"),
    ("arlo_q_cam", "1.13.0.0_95_a58d08a_db3500"),
    ("amcrest_cam", "V2.400.AC02.15.R"),
];

/// Firmware version for a device, if Table 11 records one.
pub fn firmware(id: &str) -> Option<&'static str> {
    FIRMWARE.iter().find(|(d, _)| *d == id).map(|(_, v)| *v)
}

/// Devices that assign at least one address they never use (25 of 54).
pub const ASSIGNS_UNUSED_ADDR: &[&str] = &[
    "samsung_fridge",
    "samsung_tv",
    "smartthings_hub",
    "aeotec_hub",
    "apple_tv",
    "nest_hub",
    "nest_hub_max",
    "google_home_mini",
    "google_nest_mini",
    "homepod_mini",
    "nest_camera",
    "nest_doorbell",
    "google_tv",
    "tivo_stream",
    "meta_portal_mini",
    "fire_tv",
    "vizio_tv",
    "echo_plus",
    "echo_show_5",
    "echo_show_8",
    "echo_spot",
    "smartlife_hub",
    "ikea_gateway",
    "thirdreality_bridge",
    "thermopro_sensor",
];

// ---------------------------------------------------------------------------
// Profile construction
// ---------------------------------------------------------------------------

fn in_set(set: &[&str], id: &str) -> bool {
    set.contains(&id)
}

/// Deterministic MAC for device number `n`: locally-administered unicast
/// with a per-manufacturer OUI byte so EUI-64 leaks expose a "vendor".
fn mac_for(n: usize, manufacturer: &str) -> Mac {
    let mut h: u32 = 0x811c_9dc5;
    for b in manufacturer.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    Mac::new(0x02, (h >> 8) as u8, h as u8, 0x10, 0, n as u8)
}

/// The compiled registry, built once per process. Every consumer —
/// `shared`, `build`, `subsample_refs`, the lookups — reads through this
/// cache, so the ~90 `String`-heavy profiles and their destination
/// lists exist exactly once no matter how many homes a campaign
/// synthesizes.
static REGISTRY: std::sync::OnceLock<Vec<DeviceProfile>> = std::sync::OnceLock::new();

/// The shared compiled registry: all 93 profiles in Table 10 order,
/// compiled on first use and interned for the life of the process.
/// Fleet-scale callers should hold `&'static DeviceProfile` handles
/// from here (via [`subsample_refs`]/[`lookup`]) instead of cloning.
pub fn shared() -> &'static [DeviceProfile] {
    REGISTRY.get_or_init(compile)
}

/// Compile the full registry as an owned vector. Prefer [`shared`] —
/// this clones every profile out of the interned cache and exists for
/// callers that genuinely need owned profiles (mutation, tests).
pub fn build() -> Vec<DeviceProfile> {
    shared().to_vec()
}

fn compile() -> Vec<DeviceProfile> {
    RAW.iter()
        .enumerate()
        .map(|(n, raw)| {
            let id = raw.id;
            let ipv6 = Ipv6Caps {
                ndp: raw.ndp,
                addr_requires_v4: in_set(ADDR_REQUIRES_V4, id),
                skip_v6_if_v4: in_set(SKIP_V6_IF_V4, id),
                addressless: in_set(ADDRESSLESS, id),
                lla: raw.addr && !in_set(NO_LLA, id) && !in_set(ADDRESSLESS, id),
                slaac_gua: raw.gua,
                gua_requires_v4: in_set(GUA_REQUIRES_V4, id),
                lla_eui64: in_set(LLA_EUI64, id),
                gua_eui64: in_set(GUA_EUI64, id),
                unused_eui64_gua: in_set(UNUSED_EUI64_GUA, id),
                privacy_gua_for_traffic: in_set(PRIVACY_GUA_FOR_TRAFFIC, id),
                data_from_privacy_gua: in_set(DATA_FROM_PRIVACY_GUA, id),
                traffic_from_stateful: in_set(TRAFFIC_FROM_STATEFUL, id),
                v6_echo_probe: in_set(V6_ECHO_PROBE, id),
                ula: in_set(ULA, id),
                dad: if in_set(DAD_NEVER, id) {
                    DadBehavior::Never
                } else if in_set(DAD_LLA_ONLY, id) {
                    DadBehavior::LinkLocalOnly
                } else {
                    DadBehavior::Full
                },
                dhcpv6_stateful: in_set(DHCPV6_STATEFUL, id),
                dhcpv6_stateful_use: in_set(DHCPV6_STATEFUL_USE, id),
                dhcpv6_stateless: in_set(DHCPV6_STATELESS, id),
                rdnss: raw.addr && !in_set(NO_RDNSS, id),
                rotates_lla: in_set(ROTATES_LLA, id),
                addr_churn: ADDR_CHURN
                    .iter()
                    .find(|(d, _)| *d == id)
                    .map(|(_, c)| *c)
                    .unwrap_or(0),
                assigns_unused_addr: in_set(ASSIGNS_UNUSED_ADDR, id),
            };
            let dns = DnsCaps {
                aaaa: if raw.dns6 {
                    AaaaTransport::V6Capable
                } else if in_set(AAAA_V4_ONLY, id) {
                    AaaaTransport::V4Only
                } else {
                    AaaaTransport::None
                },
                v6_transport: raw.dns6,
                https_records: in_set(HTTPS_RECORDS, id),
                svcb_records: in_set(SVCB_RECORDS, id),
                dual_v4_extra: in_set(DUAL_V4_DNS_EXTRA, id),
            };
            let app = domains::app_caps_for(raw, &dns);
            DeviceProfile {
                id: id.to_string(),
                name: raw.name.to_string(),
                category: raw.category,
                manufacturer: raw.manufacturer.to_string(),
                os: raw.os,
                purchase_year: raw.year,
                mac: mac_for(n, raw.manufacturer),
                ipv6,
                dns,
                app,
                expect_functional_v6only: raw.functional_v6only,
            }
        })
        .collect()
}

/// Deterministically subsample `count` profiles from the registry for a
/// synthetic home: a seeded partial Fisher–Yates draw over the registry
/// indices ([`subsample_indices`]), returned as `&'static` handles into
/// the interned registry, in registry order (stable host/MAC ordering
/// for the simulator). Depends only on `(count, seed)` — the same home
/// always gets the same devices regardless of how many other homes a
/// campaign simulates. `count >= 93` returns the full registry.
pub fn subsample_refs(count: usize, seed: u64) -> Vec<&'static DeviceProfile> {
    let all = shared();
    subsample_indices(count, seed)
        .into_iter()
        .map(|i| &all[i])
        .collect()
}

/// The registry indices a `(count, seed)` subsample selects, sorted in
/// registry order. The draw is a seeded partial Fisher–Yates over a
/// `Vec<usize>` — no profile is touched, let alone cloned, until a
/// caller dereferences a handle.
pub fn subsample_indices(count: usize, seed: u64) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let total = shared().len();
    if count >= total {
        return (0..total).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..total).collect();
    for i in 0..count {
        let j = rng.gen_range(i..total);
        indices.swap(i, j);
    }
    let mut chosen = indices;
    chosen.truncate(count);
    chosen.sort_unstable();
    chosen
}

/// Look up one profile by id (panics on unknown id — registry ids are
/// compile-time constants; user-facing code should prefer [`find`]).
pub fn by_id(id: &str) -> DeviceProfile {
    find(id).unwrap_or_else(|| panic!("unknown device id {id}"))
}

/// Look up one profile by id, returning `None` for unknown ids.
pub fn find(id: &str) -> Option<DeviceProfile> {
    lookup(id).cloned()
}

/// Clone-free [`find`]: a `&'static` handle into the interned registry.
pub fn lookup(id: &str) -> Option<&'static DeviceProfile> {
    shared().iter().find(|p| p.id == id)
}

#[cfg(test)]
mod checks {
    //! Pin every paper marginal the registry must reproduce. If a future
    //! edit unbalances the transcription, these fail loudly.
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn count<F: Fn(&RawDevice) -> bool>(f: F) -> usize {
        RAW.iter().filter(|r| f(r)).count()
    }

    fn per_category<F: Fn(&RawDevice) -> bool>(f: F) -> Vec<usize> {
        Category::ALL
            .iter()
            .map(|c| RAW.iter().filter(|r| r.category == *c && f(r)).count())
            .collect()
    }

    #[test]
    fn ninety_three_distinct_devices() {
        assert_eq!(RAW.len(), 93);
        let ids: HashSet<&str> = RAW.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 93, "duplicate device ids");
        let macs: HashSet<Mac> = build().iter().map(|p| p.mac).collect();
        assert_eq!(macs.len(), 93, "duplicate MACs");
    }

    #[test]
    fn subsample_is_deterministic_and_ordered() {
        let a = subsample_refs(10, 42);
        let b = subsample_refs(10, 42);
        assert_eq!(a.len(), 10);
        let ids = |ps: &[&DeviceProfile]| ps.iter().map(|p| p.id.clone()).collect::<Vec<_>>();
        assert_eq!(
            ids(&a),
            ids(&b),
            "same (count, seed) must pick the same devices"
        );
        assert_ne!(
            ids(&a),
            ids(&subsample_refs(10, 43)),
            "different seeds should pick different devices"
        );
        // Registry order is preserved: positions in the full build are
        // strictly increasing.
        let all_ids: Vec<String> = shared().iter().map(|p| p.id.clone()).collect();
        let positions: Vec<usize> = a
            .iter()
            .map(|p| all_ids.iter().position(|i| *i == p.id).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        // Distinct devices, and the full-registry request passes through.
        let distinct: HashSet<String> = ids(&a).into_iter().collect();
        assert_eq!(distinct.len(), 10);
        assert_eq!(subsample_refs(200, 1).len(), 93);
    }

    #[test]
    fn subsample_refs_are_interned_handles_to_the_same_selection() {
        // The registry compiles exactly once per process...
        assert!(std::ptr::eq(shared(), shared()));
        // ...and the two subsample entry points agree: indices name
        // the selection, and refs are handles straight into the shared
        // slice at those indices.
        for (count, seed) in [(1usize, 0u64), (10, 42), (93, 7), (200, 1)] {
            let indices = subsample_indices(count, seed);
            let refs = subsample_refs(count, seed);
            assert_eq!(indices.len(), refs.len());
            for (i, r) in indices.iter().zip(&refs) {
                assert!(std::ptr::eq(*r, &shared()[*i]));
            }
        }
    }

    #[test]
    fn table3_category_sizes() {
        assert_eq!(per_category(|_| true), vec![7, 18, 8, 12, 6, 26, 16]);
    }

    #[test]
    fn table10_functional_devices() {
        // 8 functional: 5 speakers + 3 TVs (Table 3 row 6).
        assert_eq!(count(|r| r.functional_v6only), 8);
        assert_eq!(
            per_category(|r| r.functional_v6only),
            vec![0, 0, 3, 0, 0, 0, 5]
        );
    }

    #[test]
    fn table10_ndp_59() {
        // Table 3 row 2: 59 devices emit NDP (union; identical in
        // IPv6-only since SKIP_V6_IF_V4 devices still run v6 there).
        assert_eq!(count(|r| r.ndp), 59);
        assert_eq!(per_category(|r| r.ndp), vec![3, 5, 6, 11, 2, 16, 16]);
    }

    #[test]
    fn table5_addr_54() {
        assert_eq!(count(|r| r.addr), 54);
        assert_eq!(per_category(|r| r.addr), vec![2, 5, 6, 11, 1, 13, 16]);
    }

    #[test]
    fn table5_gua_31() {
        assert_eq!(count(|r| r.gua), 31);
        assert_eq!(per_category(|r| r.gua), vec![1, 2, 6, 5, 1, 4, 12]);
    }

    #[test]
    fn table5_dns6_22() {
        assert_eq!(count(|r| r.dns6), 22);
        assert_eq!(per_category(|r| r.dns6), vec![1, 2, 6, 3, 0, 0, 10]);
    }

    #[test]
    fn table5_internet_data_23() {
        assert_eq!(count(|r| r.data6), 23);
        assert_eq!(per_category(|r| r.data6), vec![1, 2, 6, 3, 0, 0, 11]);
    }

    #[test]
    fn table3_ipv6_only_derivations() {
        // Addresses in IPv6-only: addr minus the three ADDR_REQUIRES_V4
        // devices = 51 (Table 3 row 3).
        let v6only_addr = count(|r| r.addr && !in_set(ADDR_REQUIRES_V4, r.id));
        assert_eq!(v6only_addr, 51);
        // GUAs in IPv6-only: 31 − ThermoPro − Gosund − Dot2 − Dot5 = 27.
        let v6only_gua =
            count(|r| r.gua && !in_set(ADDR_REQUIRES_V4, r.id) && !in_set(GUA_REQUIRES_V4, r.id));
        assert_eq!(v6only_gua, 27);
        // "NDP traffic but no address" in IPv6-only = 8 (Table 3).
        let no_addr = count(|r| r.ndp && (!r.addr || in_set(ADDR_REQUIRES_V4, r.id)));
        assert_eq!(no_addr, 8);
    }

    #[test]
    fn table4_deltas() {
        // +15 AAAA requesters in dual-stack.
        assert_eq!(AAAA_V4_ONLY.len(), 15);
        // Their per-category split (Table 4 row 4): +5 camera, +1 TV,
        // +3 gateway, +1 home-auto, +5 speaker.
        let mut split = HashMap::new();
        for id in AAAA_V4_ONLY {
            let raw = RAW.iter().find(|r| r.id == *id).unwrap();
            *split.entry(raw.category).or_insert(0) += 1;
        }
        assert_eq!(split[&Category::Camera], 5);
        assert_eq!(split[&Category::TvEntertainment], 1);
        assert_eq!(split[&Category::Gateway], 3);
        assert_eq!(split[&Category::HomeAuto], 1);
        assert_eq!(split[&Category::Speaker], 5);
        // +12 AAAA responses: 10 ready v4-only requesters + 2 dual-v4
        // gateways.
        assert_eq!(AAAA_V4_ONLY_READY.len() + DUAL_V4_DNS_EXTRA.len(), 12);
        // AAAA requesters overall: 22 v6 + 15 v4-only = 37 (Table 5).
        assert_eq!(count(|r| r.dns6) + AAAA_V4_ONLY.len(), 37);
    }

    #[test]
    fn table5_ula_23() {
        assert_eq!(ULA.len(), 23);
        let mut per_cat = vec![0usize; 7];
        for id in ULA {
            let raw = RAW.iter().find(|r| r.id == *id).expect("ULA id exists");
            assert!(raw.addr, "{id} must have an address to hold a ULA");
            let idx = Category::ALL
                .iter()
                .position(|c| *c == raw.category)
                .unwrap();
            per_cat[idx] += 1;
        }
        assert_eq!(per_cat, vec![1, 2, 2, 5, 1, 5, 7]);
    }

    #[test]
    fn table5_lla_counts() {
        let profiles = build();
        let lla = profiles.iter().filter(|p| p.ipv6.lla).count();
        // 54 addressed devices − 4 NO_LLA = 50 (the paper's LLA column
        // sums to 50; its printed total of 51 does not match its own
        // per-category row).
        assert_eq!(lla, 50);
        for id in NO_LLA {
            let p = profiles.iter().find(|p| p.id == *id).unwrap();
            assert!(
                p.ipv6.slaac_gua || p.ipv6.ula,
                "{id} without LLA must still hold a GUA or ULA"
            );
        }
    }

    #[test]
    fn table5_dhcpv6_marginals() {
        assert_eq!(DHCPV6_STATEFUL.len(), 12);
        assert_eq!(DHCPV6_STATEFUL_USE.len(), 4);
        for id in DHCPV6_STATEFUL_USE {
            assert!(in_set(DHCPV6_STATEFUL, id), "{id} must support stateful");
        }
        assert_eq!(DHCPV6_STATELESS.len(), 16);
        // Category splits from Table 5.
        let cat_of = |id: &str| RAW.iter().find(|r| r.id == id).unwrap().category;
        let split = |set: &[&str]| {
            Category::ALL
                .iter()
                .map(|c| set.iter().filter(|id| cat_of(id) == *c).count())
                .collect::<Vec<_>>()
        };
        assert_eq!(split(DHCPV6_STATEFUL), vec![1, 0, 2, 2, 0, 6, 1]);
        assert_eq!(split(DHCPV6_STATELESS), vec![1, 0, 3, 3, 0, 6, 3]);
    }

    #[test]
    fn fig5_eui64_funnel() {
        // 31 devices with an active EUI-64 address (Table 5 row).
        assert_eq!(LLA_EUI64.len(), 31);
        let cat_of = |id: &str| RAW.iter().find(|r| r.id == id).unwrap().category;
        let split: Vec<usize> = Category::ALL
            .iter()
            .map(|c| LLA_EUI64.iter().filter(|id| cat_of(id) == *c).count())
            .collect();
        assert_eq!(split, vec![1, 2, 3, 7, 0, 8, 10]);

        // 15 devices *use* an EUI-64 GUA.
        assert_eq!(GUA_EUI64.len(), 15);
        for id in GUA_EUI64 {
            assert!(in_set(LLA_EUI64, id), "{id}: EUI GUA implies EUI LLA IIDs");
            let raw = RAW.iter().find(|r| r.id == *id).unwrap();
            assert!(raw.gua, "{id} must have a GUA");
        }
        // 18 assign-but-never-use; 33 assigners in total.
        assert_eq!(UNUSED_EUI64_GUA.len(), 18);
        for id in UNUSED_EUI64_GUA {
            assert!(!in_set(GUA_EUI64, id), "{id} cannot both use and not use");
        }
        assert_eq!(GUA_EUI64.len() + UNUSED_EUI64_GUA.len(), 33);

        // The 15 users split 5 internet / 3 DNS-only / 7 NTP-misc.
        let internet: Vec<&&str> = GUA_EUI64
            .iter()
            .filter(|id| {
                let raw = RAW.iter().find(|r| r.id == **id).unwrap();
                raw.data6
                    && !in_set(PRIVACY_GUA_FOR_TRAFFIC, id)
                    && !in_set(DATA_FROM_PRIVACY_GUA, id)
                    && !in_set(TRAFFIC_FROM_STATEFUL, id)
            })
            .collect();
        assert_eq!(
            internet.len(),
            5,
            "EUI-64 internet transmitters: {internet:?}"
        );
        let dns_users: Vec<&&str> = GUA_EUI64
            .iter()
            .filter(|id| {
                let raw = RAW.iter().find(|r| r.id == **id).unwrap();
                raw.dns6
                    && !in_set(PRIVACY_GUA_FOR_TRAFFIC, id)
                    && !in_set(TRAFFIC_FROM_STATEFUL, id)
            })
            .collect();
        assert_eq!(
            dns_users.len(),
            8,
            "8 devices use EUI-64 GUAs for DNS (5 also for data): {dns_users:?}"
        );
        let eui_probers = V6_ECHO_PROBE
            .iter()
            .filter(|id| in_set(GUA_EUI64, id))
            .count();
        assert_eq!(eui_probers, 7, "7 probe-only EUI-64 users");
        // Every GUA holder must use its GUA somehow (Table 5's 31 counts
        // active GUAs): dns6, data, echo probe, or the dual-stack deltas.
        for r in RAW.iter().filter(|r| r.gua) {
            assert!(
                r.dns6 || r.data6 || in_set(V6_ECHO_PROBE, r.id) || in_set(GUA_REQUIRES_V4, r.id),
                "{}: GUA would never be active",
                r.id
            );
        }
    }

    #[test]
    fn dad_offenders() {
        assert_eq!(DAD_NEVER.len(), 4);
        assert_eq!(DAD_NEVER.len() + DAD_LLA_ONLY.len(), 18);
        for id in DAD_NEVER.iter().chain(DAD_LLA_ONLY) {
            let raw = RAW.iter().find(|r| r.id == *id).unwrap();
            assert!(raw.addr, "{id} must have addresses to skip DAD on");
        }
        // The four full skippers are all EUI-64 (the paper's observation).
        for id in DAD_NEVER {
            assert!(in_set(LLA_EUI64, id), "{id} must be EUI-64");
        }
    }

    #[test]
    fn a_only_and_local_sets() {
        assert_eq!(A_ONLY_IN_V6.len(), 19);
        for id in A_ONLY_IN_V6 {
            let raw = RAW.iter().find(|r| r.id == *id).unwrap();
            assert!(raw.dns6, "{id}: A-only-over-v6 implies v6 DNS transport");
        }
        assert_eq!(LOCAL_IPV6.len(), 21);
        let cat_of = |id: &str| RAW.iter().find(|r| r.id == id).unwrap().category;
        let split: Vec<usize> = Category::ALL
            .iter()
            .map(|c| LOCAL_IPV6.iter().filter(|id| cat_of(id) == *c).count())
            .collect();
        assert_eq!(split, vec![1, 2, 5, 5, 0, 3, 5]);
        // Internet ∪ local = 29 (Table 5 "IPv6 TCP/UDP Trans").
        let internet: HashSet<&str> = RAW.iter().filter(|r| r.data6).map(|r| r.id).collect();
        let local: HashSet<&str> = LOCAL_IPV6.iter().copied().collect();
        assert_eq!(internet.union(&local).count(), 29);
    }

    #[test]
    fn purchase_year_marginals() {
        // Table 12 columns.
        let mut years = HashMap::new();
        for r in RAW.iter() {
            *years.entry(r.year).or_insert(0usize) += 1;
        }
        assert_eq!(years[&2017], 8);
        assert_eq!(years[&2018], 16);
        assert_eq!(years[&2019], 6);
        assert_eq!(years[&2021], 24);
        assert_eq!(years[&2022], 15);
        assert_eq!(years[&2023], 16);
        assert_eq!(years[&2024], 8);
        // Functional-by-year: 2018:2, 2021:5, 2022:1 (Table 12 bottom row).
        let func_years: Vec<u16> = RAW
            .iter()
            .filter(|r| r.functional_v6only)
            .map(|r| r.year)
            .collect();
        assert_eq!(func_years.iter().filter(|y| **y == 2018).count(), 2);
        assert_eq!(func_years.iter().filter(|y| **y == 2021).count(), 5);
        assert_eq!(func_years.iter().filter(|y| **y == 2022).count(), 1);
    }

    #[test]
    fn os_marginals() {
        // Table 8 OS columns.
        let os_count = |os: Os| RAW.iter().filter(|r| r.os == os).count();
        assert_eq!(os_count(Os::Tizen), 2);
        assert_eq!(os_count(Os::FireOs), 11);
        assert_eq!(os_count(Os::AndroidBased), 5);
        assert_eq!(os_count(Os::Fuchsia), 2);
        assert_eq!(os_count(Os::IosTvos), 2);
        // All five Android-based devices are functional; both Fuchsia.
        assert!(RAW
            .iter()
            .filter(|r| r.os == Os::AndroidBased)
            .all(|r| r.functional_v6only));
        assert!(RAW
            .iter()
            .filter(|r| r.os == Os::Fuchsia)
            .all(|r| r.functional_v6only));
    }

    #[test]
    fn manufacturer_marginals() {
        let man = |m: &str| RAW.iter().filter(|r| r.manufacturer == m).count();
        assert_eq!(man("Google"), 8);
        assert_eq!(man("SmartThings/Samsung"), 4);
        assert_eq!(man("Ring"), 5);
        assert_eq!(man("Tuya"), 6);
        assert_eq!(man("TP-Link"), 5);
        assert_eq!(man("Aidot"), 3);
        assert_eq!(man("Meross"), 3);
        assert_eq!(man("Withings"), 3);
        assert!(man("Amazon") >= 12);
    }

    #[test]
    fn aux_sets_reference_valid_ids() {
        let ids: HashSet<&str> = RAW.iter().map(|r| r.id).collect();
        let all_sets: Vec<&[&str]> = vec![
            ULA,
            NO_LLA,
            DHCPV6_STATEFUL,
            DHCPV6_STATEFUL_USE,
            DHCPV6_STATELESS,
            NO_RDNSS,
            ADDR_REQUIRES_V4,
            SKIP_V6_IF_V4,
            ADDRESSLESS,
            DAD_NEVER,
            DAD_LLA_ONLY,
            ROTATES_LLA,
            LLA_EUI64,
            GUA_EUI64,
            UNUSED_EUI64_GUA,
            PRIVACY_GUA_FOR_TRAFFIC,
            DATA_FROM_PRIVACY_GUA,
            TRAFFIC_FROM_STATEFUL,
            V6_ECHO_PROBE,
            A_ONLY_IN_V6,
            AAAA_V4_ONLY,
            AAAA_V4_ONLY_READY,
            DUAL_V4_DNS_EXTRA,
            HTTPS_RECORDS,
            SVCB_RECORDS,
            LOCAL_IPV6,
            DATA_REQUIRES_REQUIRED,
            ASSIGNS_UNUSED_ADDR,
        ];
        for set in all_sets {
            for id in set {
                assert!(ids.contains(id), "unknown id in aux set: {id}");
            }
        }
        for (id, _) in ADDR_CHURN {
            assert!(ids.contains(id), "unknown id in ADDR_CHURN: {id}");
        }
        for (id, _) in HARDCODED_V6 {
            assert!(ids.contains(id), "unknown id in HARDCODED_V6: {id}");
        }
        for (id, _) in FIRMWARE {
            assert!(ids.contains(id), "unknown id in FIRMWARE: {id}");
        }
    }

    #[test]
    fn profiles_build_consistently() {
        let profiles = build();
        assert_eq!(profiles.len(), 93);
        for p in &profiles {
            // A device with traffic must have destinations.
            assert!(
                !p.app.destinations.is_empty(),
                "{} needs destinations",
                p.id
            );
            // Every device has at least one required destination.
            assert!(
                p.required_destinations().count() >= 1,
                "{} needs a required destination",
                p.id
            );
            // Functional devices must have every required destination
            // AAAA-ready and resolvable over v6.
            if p.expect_functional_v6only {
                for d in p.required_destinations() {
                    assert!(
                        d.aaaa_ready && !d.a_only && d.wants_aaaa,
                        "{}: required {} must be v6-reachable",
                        p.id,
                        d.domain
                    );
                }
                assert!(p.dns.v6_transport, "{} must do DNS over v6", p.id);
            } else {
                // Non-functional devices must have at least one required
                // destination unreachable over v6 (AAAA-less, A-only, or
                // AAAA never requested).
                assert!(
                    p.required_destinations()
                        .any(|d| !d.aaaa_ready || d.a_only || !d.wants_aaaa)
                        || !p.dns.v6_transport,
                    "{} must have a v6-unreachable required destination",
                    p.id
                );
            }
        }
    }
}
