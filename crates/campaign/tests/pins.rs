//! Pins the identities that result stores and run ledgers are keyed by:
//! the scenario hash of each workload's all-default spec, of the
//! checked-in smoke specs and of the `example-spec` template, and the
//! store key of each smoke spec's first grid point. A change to how specs
//! are read or validated must leave all of them bit-identical, or every
//! store written before it stops restoring.

use std::path::Path;
use std::process::Command;

use fnpr_campaign::memo::ScenarioHasher;
use fnpr_campaign::{Campaign, CampaignSpec, GridWorkload, Workload};

fn hash(campaign: &Campaign) -> String {
    format!("{:016x}", campaign.scenario_hash())
}

fn example(name: &str) -> Campaign {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/{name}"));
    CampaignSpec::load_validated(&path).expect("smoke spec validates")
}

/// The store key of `params`' first grid point, built the way the runner
/// builds every point key.
fn first_key<W: GridWorkload>(params: &W, seed: u64) -> String {
    let point = params.grid()[0];
    let template = params.template(ScenarioHasher::new(W::KEY_TAG).word(seed));
    format!("{:032x}", params.point_key(point, template).finish128())
}

fn first_point_key(campaign: &Campaign) -> String {
    let seed = campaign.seed;
    match &campaign.workload {
        Workload::Acceptance(p) => first_key(p, seed),
        Workload::Soundness(p) => first_key(p, seed),
        Workload::Multicore(p) => first_key(p, seed),
        Workload::Cfg(p) => first_key(p, seed),
    }
}

#[test]
fn default_spec_hashes_are_pinned() {
    for (kind, expected) in [
        ("acceptance", "9333690d56e67914"),
        ("soundness", "4d18b032a0604895"),
        ("multicore", "7ce0a528231ad056"),
        ("cfg", "317f1f0d156b346c"),
    ] {
        let spec = CampaignSpec::parse(&format!("workload = \"{kind}\"\n")).unwrap();
        assert_eq!(hash(&spec.validate().unwrap()), expected, "{kind}");
    }
    // A JSON `null` means the default, like an absent key.
    let spec = CampaignSpec::parse(r#"{"acceptance": {"q_scale": null}}"#).unwrap();
    assert_eq!(hash(&spec.validate().unwrap()), "9333690d56e67914");
}

#[test]
fn smoke_spec_hashes_and_first_keys_are_pinned() {
    for (name, scenario, key) in [
        (
            "campaign_smoke.toml",
            "59ef3a68c946026a",
            "34a55c0148b13d8484f851140fd63870",
        ),
        (
            "multicore_smoke.toml",
            "aa3081a0584a31a9",
            "2c7603c60fb041f9f079705860bf88af",
        ),
        (
            "cfg_smoke.toml",
            "3b11b0298eeca2d7",
            "5490a8b0541537a74181ff5147a3e5c3",
        ),
    ] {
        let campaign = example(name);
        assert_eq!(hash(&campaign), scenario, "{name}");
        assert_eq!(first_point_key(&campaign), key, "{name}");
    }
}

#[test]
fn example_spec_template_hash_is_pinned() {
    let output = Command::new(env!("CARGO_BIN_EXE_fnpr-campaign"))
        .arg("example-spec")
        .output()
        .expect("fnpr-campaign starts");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).expect("utf-8 template");
    let campaign = CampaignSpec::parse(&text).unwrap().validate().unwrap();
    assert_eq!(hash(&campaign), "7fde6e45dc0d28bd");
    assert_eq!(
        first_point_key(&campaign),
        "a8ad0da361735a4ef62488e3c3d15cf9"
    );
}
