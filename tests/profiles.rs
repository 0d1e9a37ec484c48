//! Canned-profile + preset-dictionary battery (issue 10).
//!
//! Covers the one-pass canned encode path end to end:
//!
//! 1. **Roundtrip**: every shipped content class, every framing, small
//!    (1–16 KiB) payloads — the traffic canned profiles target — decode
//!    byte-identically through our inflate; gzip-framed streams (which
//!    never carry a dictionary) also decode through the system
//!    `gzip -dc` referee when available.
//! 2. **FDICT semantics**: zlib streams from a dictionary-bearing
//!    profile demand the dictionary (typed `DictionaryRequired` without
//!    it) and decode with it — both one-shot and through a scratch
//!    session's transparent dictionary injection.
//! 3. **Session plumbing**: async queue, parallel shards and the
//!    multi-tenant service all honour a selected profile, reported as
//!    the `software-canned` config; an id the registry does not hold
//!    degrades to the ladder and counts a profile miss.
//! 4. **Registry wire format**: golden header, roundtrip, corruption
//!    and truncation rejection.
//! 5. **Property tests**: arbitrary payloads against freshly derived
//!    dictionary profiles roundtrip in all three framings.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;

use nx_core::parallel::ParallelOptions;
use nx_core::service::{QosClass, ServiceConfig, TenantSpec};
use nx_core::{
    profiles, software, CompressOptions, Format, Nx, Profile, ProfileId, ProfileRegistry,
};
use nx_corpus::CorpusKind;
use nx_telemetry::{MetricValue, MetricsRegistry, TelemetrySink};
use proptest::prelude::*;

/// Decompresses a gzip member with the system `gzip -dc`, returning
/// `None` when the binary is unavailable so the battery degrades to
/// our-decoder-only instead of failing on minimal containers.
fn gzip_dc(gz: &[u8]) -> Option<Vec<u8>> {
    let mut child = Command::new("gzip")
        .arg("-dc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut stdin = child.stdin.take().expect("stdin piped");
    let payload = gz.to_vec();
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&payload);
    });
    let out = child.wait_with_output().ok()?;
    writer.join().ok()?;
    if !out.status.success() {
        panic!("gzip -dc rejected a stream we produced");
    }
    Some(out.stdout)
}

/// Decodes a canned stream produced with `profile` under `format`,
/// honouring each framing's dictionary mode.
fn decode_canned(bytes: &[u8], format: Format, profile: &Profile) -> Vec<u8> {
    match format {
        Format::Gzip => software::decompress(bytes, format).expect("gzip canned decode"),
        // An empty profile dictionary means plain framing (no FDICT).
        Format::Zlib if profile.dict().is_empty() => {
            software::decompress(bytes, format).expect("plain zlib canned decode")
        }
        _ => software::decompress_with_dict(bytes, format, profile.dict()).expect("dict decode"),
    }
}

#[test]
fn canned_streams_roundtrip_every_class_and_format() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    for kind in profiles::DEFAULT_CLASSES {
        let (id, profile) = reg.by_name(kind.name()).expect("shipped class");
        let opts = CompressOptions::new().with_profile(id);
        for (seed, len) in [(1u64, 1 << 10), (2, 4 << 10), (3, 16 << 10)] {
            let data = kind.generate(seed, len);
            for format in [Format::RawDeflate, Format::Zlib, Format::Gzip] {
                let out = nx.compress_with(&data, format, opts).expect("compress");
                assert_eq!(out.report.config_name, "software-canned");
                assert_eq!(
                    decode_canned(&out.bytes, format, profile),
                    data,
                    "{} {format:?} seed {seed} len {len}",
                    kind.name(),
                );
                if format == Format::Gzip {
                    if let Some(theirs) = gzip_dc(&out.bytes) {
                        assert_eq!(theirs, data, "gzip(1) rejected canned {}", kind.name());
                    }
                }
            }
        }
    }
}

#[test]
fn zlib_fdict_streams_demand_their_dictionary() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    let (id, profile) = reg.by_name("json").expect("json profile");
    assert!(!profile.dict().is_empty(), "json profile must carry a dict");
    let data = CorpusKind::Json.generate(11, 2 << 10);
    let out = nx
        .compress_with(&data, Format::Zlib, CompressOptions::new().with_profile(id))
        .expect("compress");
    // Without the dictionary the stream must fail typed, not misdecode.
    assert!(
        software::decompress(&out.bytes, Format::Zlib).is_err(),
        "FDICT stream decoded without its dictionary"
    );
    // The wrong dictionary fails the DICTID check.
    assert!(
        software::decompress_with_dict(&out.bytes, Format::Zlib, b"not the dictionary").is_err(),
        "FDICT stream accepted a mismatched dictionary"
    );
    assert_eq!(
        software::decompress_with_dict(&out.bytes, Format::Zlib, profile.dict()).unwrap(),
        data
    );
}

#[test]
fn scratch_session_injects_the_profile_dictionary_on_decode() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    let (id, profile) = reg.by_name("logs").expect("logs profile");
    let opts = CompressOptions::new().with_profile(id);
    let mut sess = nx.scratch_session_with(opts);
    assert!(sess.profile().is_some());
    let mut out = Vec::new();
    let mut back = Vec::new();
    for seed in 0..6u64 {
        let data = CorpusKind::Logs.generate(seed, 3 << 10);
        for format in [Format::RawDeflate, Format::Zlib, Format::Gzip] {
            out.clear();
            back.clear();
            sess.compress_into(&data, format, &mut out)
                .expect("compress");
            if format == Format::RawDeflate {
                // Raw framing has no in-band dictionary agreement; decode
                // one-shot with the profile dict.
                assert_eq!(
                    software::decompress_with_dict(&out, format, profile.dict()).unwrap(),
                    data
                );
            } else {
                // Zlib FDICT streams decode through the same session —
                // the dictionary is supplied transparently.
                sess.decompress_into(&out, format, &mut back)
                    .expect("decompress");
                assert_eq!(back, data, "{format:?} seed {seed}");
            }
        }
    }
}

#[test]
fn async_session_reports_the_canned_config() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    let (id, profile) = reg.by_name("text").expect("text profile");
    let sess = nx.async_session();
    let data = CorpusKind::Text.generate(21, 6 << 10);
    let h = sess
        .submit_with(
            data.clone(),
            Format::Zlib,
            CompressOptions::new().with_profile(id),
        )
        .expect("submit");
    let done = h.wait().expect("wait");
    assert_eq!(done.report.config_name, "software-canned");
    assert_eq!(
        software::decompress_with_dict(&done.bytes, Format::Zlib, profile.dict()).unwrap(),
        data
    );
}

#[test]
fn parallel_session_routes_small_payloads_through_the_canned_path() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    let (id, profile) = reg.by_name("code").expect("code profile");
    let sess = nx.parallel_session_with(
        ParallelOptions {
            workers: 4,
            chunk_size: 32 << 10,
        },
        CompressOptions::new().with_profile(id),
    );
    // Single-shard payload: one-pass canned bytes, identical to the
    // one-shot canned path.
    let small = CorpusKind::Code.generate(5, 8 << 10);
    let out = sess.compress(&small, Format::Zlib).expect("small");
    assert_eq!(
        out,
        software::compress_with_profile(&small, nx_deflate::Engine::Auto, profile, Format::Zlib)
    );
    assert_eq!(
        software::decompress_with_dict(&out, Format::Zlib, profile.dict()).unwrap(),
        small
    );
    // Multi-shard payload: the regular sharded ladder — decodable
    // without any dictionary.
    let large = CorpusKind::Code.generate(6, 200 << 10);
    let out = sess.compress(&large, Format::Gzip).expect("large");
    assert_eq!(sess.decompress(&out, Format::Gzip).unwrap(), large);
}

#[test]
fn service_tenants_bind_profiles_at_window_open() {
    let nx = Nx::power9();
    let reg = profiles::default_registry();
    let (id, profile) = reg.by_name("json").expect("json profile");
    let svc = nx.service(ServiceConfig::default());
    let canned = svc.open_window_with(
        TenantSpec::new("rpc", QosClass::Latency, 8),
        CompressOptions::new().with_profile(id),
    );
    let plain = svc.open_window(TenantSpec::new("bulk", QosClass::Throughput, 8));
    assert_eq!(canned.default_options().profile(), Some(id));
    assert_eq!(plain.default_options(), CompressOptions::default());
    let data = CorpusKind::Json.generate(31, 2 << 10);
    let a = canned
        .submit(data.clone(), Format::Zlib)
        .expect("admit")
        .wait()
        .expect("serve");
    assert_eq!(a.compressed.report.config_name, "software-canned");
    assert_eq!(
        software::decompress_with_dict(&a.compressed.bytes, Format::Zlib, profile.dict()).unwrap(),
        data
    );
    // The plain tenant's streams stay dictionary-free.
    let b = plain
        .submit(data.clone(), Format::Zlib)
        .expect("admit")
        .wait()
        .expect("serve");
    assert_eq!(
        software::decompress(&b.compressed.bytes, Format::Zlib).unwrap(),
        data
    );
    // A per-request override beats the window default.
    let c = canned
        .submit_with(data.clone(), Format::Zlib, CompressOptions::new())
        .expect("admit")
        .wait()
        .expect("serve");
    assert_eq!(
        software::decompress(&c.compressed.bytes, Format::Zlib).unwrap(),
        data
    );
    svc.close();
}

#[test]
fn unknown_profile_degrades_to_the_ladder_and_counts_a_miss() {
    let nx = Nx::power9();
    let before = nx_deflate::profile_counters().profile_misses;
    let data = CorpusKind::Text.generate(41, 4 << 10);
    let out = nx
        .compress_with(
            &data,
            Format::Gzip,
            CompressOptions::new().with_profile(ProfileId::new(u16::MAX)),
        )
        .expect("compress");
    // A miss degrades to a rung the caller's options name — the ladder,
    // not a fallback: no accelerator job was lost.
    assert_eq!(out.report.config_name, "software-ladder");
    assert_eq!(nx.stats().software_fallbacks(), 0);
    assert_eq!(
        software::decompress(&out.bytes, Format::Gzip).unwrap(),
        data
    );
    assert!(
        nx_deflate::profile_counters().profile_misses > before,
        "a miss must be counted"
    );
}

#[test]
fn profile_metrics_export_through_the_registry() {
    let nx = Nx::power9().with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));
    let reg = profiles::default_registry();
    let (id, _) = reg.by_name("xmlish").expect("xmlish profile");
    let data = CorpusKind::Xmlish.generate(51, 4 << 10);
    nx.compress_with(&data, Format::Gzip, CompressOptions::new().with_profile(id))
        .expect("compress");
    let snapshot = nx
        .telemetry()
        .registry()
        .expect("registry attached")
        .snapshot();
    let get = |name: &str| {
        snapshot
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"))
            .1
            .clone()
    };
    match get("nx_profile_canned_requests_total") {
        MetricValue::Counter(v) => assert!(v >= 1, "canned request must be counted"),
        other => panic!("unexpected metric shape: {other:?}"),
    }
    for name in [
        "nx_profile_canned_blocks_total",
        "nx_profile_fallback_blocks_total",
        "nx_profile_dict_encodes_total",
        "nx_profile_misses_total",
        "nx_profile_canned_bp",
    ] {
        let _ = get(name);
    }
}

#[test]
fn registry_wire_format_golden() {
    let reg = profiles::default_registry();
    let bytes = reg.to_bytes();
    // Golden header: magic "NXPR", version 1 LE, profile count LE.
    assert_eq!(&bytes[..4], b"NXPR");
    assert_eq!(&bytes[4..6], &1u16.to_le_bytes());
    assert_eq!(
        u16::from_le_bytes([bytes[6], bytes[7]]) as usize,
        profiles::DEFAULT_CLASSES.len()
    );
    let back = ProfileRegistry::from_bytes(&bytes).expect("roundtrip");
    assert_eq!(back.to_bytes(), bytes);
    // Corruption: bad magic and unknown version both fail typed.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(ProfileRegistry::from_bytes(&bad).is_err());
    let mut bad = bytes.clone();
    bad[4] = 0xEE;
    assert!(ProfileRegistry::from_bytes(&bad).is_err());
    // Truncation at every byte short of the full length fails, never
    // panics (sampled stride keeps the test quick).
    for cut in (0..bytes.len()).step_by(97) {
        assert!(ProfileRegistry::from_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn explicit_registry_overrides_the_default() {
    let kind = CorpusKind::Sensor;
    let samples: Vec<Vec<u8>> = (0..8u64)
        .map(|s| kind.generate(9_000 + s, 4 << 10))
        .collect();
    let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
    let profile = Profile::derive(
        "sensor",
        &refs,
        nx_deflate::CompressionLevel::new(6).unwrap(),
        nx_deflate::profile::DEFAULT_DICT_CAP,
    )
    .expect("derive");
    let mut reg = ProfileRegistry::new();
    let id = reg.push(profile);
    let nx = Nx::power9().with_profiles(Arc::new(reg));
    let profile = nx.profile_registry().get(id).unwrap().clone();
    let data = kind.generate(1, 4 << 10);
    let out = nx
        .compress_with(&data, Format::Zlib, CompressOptions::new().with_profile(id))
        .expect("compress");
    assert_eq!(out.report.config_name, "software-canned");
    assert_eq!(decode_canned(&out.bytes, Format::Zlib, &profile), data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary payloads against a freshly derived dictionary profile
    /// roundtrip in all three framings — the preset-dictionary analogue
    /// of the encode differential battery.
    #[test]
    fn derived_profiles_roundtrip_arbitrary_payloads(
        seed in any::<u64>(),
        len in 1usize..(16 << 10),
        class_ix in 0usize..4,
    ) {
        let class = [
            CorpusKind::Json,
            CorpusKind::Logs,
            CorpusKind::Text,
            CorpusKind::Code,
        ][class_ix];
        let samples: Vec<Vec<u8>> = (0..4u64)
            .map(|s| class.generate(seed ^ (0xD1C7 + s), 2 << 10))
            .collect();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        let profile = Profile::derive(
            class.name(),
            &refs,
            nx_deflate::CompressionLevel::new(6).unwrap(),
            nx_deflate::profile::DEFAULT_DICT_CAP,
        )
        .expect("derive");
        let data = class.generate(seed, len);
        for format in [Format::RawDeflate, Format::Zlib, Format::Gzip] {
            let out = software::compress_with_profile(
                &data,
                nx_deflate::Engine::Auto,
                &profile,
                format,
            );
            prop_assert_eq!(
                decode_canned(&out, format, &profile),
                data.clone(),
                "{:?}", format
            );
        }
        // The gzip member (dictionary-free by construction) also passes
        // the system referee.
        let gz = software::compress_with_profile(
            &data,
            nx_deflate::Engine::Auto,
            &profile,
            Format::Gzip,
        );
        if let Some(theirs) = gzip_dc(&gz) {
            prop_assert_eq!(theirs, data);
        }
    }
}
