//! Decoders of socket, pipe, and journal bytes must return `Err`
//! on bad input, never panic or abort. Count-prefixed decoders must
//! refuse a count the payload cannot hold — returning `Err` instead of
//! sizing an allocation from it (a `u32::MAX` count once aborted the
//! process inside `Vec::with_capacity`) — and a fuzz property feeds
//! every decoder arbitrary bytes.

use miniperf::cli::{self, JobKind, JobSpec, SweepOutcome};
use miniperf::serve::{decode_profile_meta, decode_sample, decode_stat};
use miniperf::shard_exec::{decode_cell, encode_cell};
use miniperf::sweep_supervisor::{decode_run, encode_run};
use miniperf::{cli_triad_setup, CommonOpts, RooflineRequest, SetupSpec, ShardedCellSpec};
use mperf_sim::{Platform, PlatformSpec};
use mperf_sweep::proto::read_msg;
use mperf_sweep::wire::{crc32, Enc};
use mperf_sweep::{journal, Journal};
use mperf_vm::ExecConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

fn bytes(fill: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    fill(&mut e);
    e.into_bytes()
}

#[test]
fn count_prefixed_decoders_refuse_impossible_counts() {
    let max = u32::MAX;

    // A sample: ip, then the callchain length.
    let sample = bytes(|e| {
        e.u64(0x1000);
        e.u32(max);
    });
    assert!(decode_sample(&sample).is_err());

    // A profile summary: platform, strategy, three u64s, then the
    // function-name count.
    let meta = bytes(|e| {
        e.u8(0);
        e.u8(0);
        e.u64(0);
        e.u64(0);
        e.u64(0);
        e.u32(max);
    });
    assert!(decode_profile_meta(&meta).is_err());

    // A stat summary: cycles, instructions, then the counter count.
    let stat = bytes(|e| {
        e.u64(1);
        e.u64(1);
        e.u32(max);
    });
    assert!(decode_stat(&stat, &cli::stat_events(Platform::SpacemitX60)).is_err());

    // A journaled run: platform name, frequency, then the region count…
    let spec = PlatformSpec::x60();
    let regions = bytes(|e| {
        e.str(spec.name);
        e.u64(spec.freq_hz);
        e.u32(max);
    });
    assert!(decode_run(&regions, &spec).is_err());
    // …or no regions, the run totals, and a phase whose PMU counter
    // count is impossible.
    let pmu = bytes(|e| {
        e.str(spec.name);
        e.u64(spec.freq_hz);
        e.u32(0);
        for _ in 0..3 {
            e.u64(0);
        }
        for _ in 0..5 {
            e.u64(0);
        }
        e.u32(max);
    });
    assert!(decode_run(&pmu, &spec).is_err());

    // A sweep summary: each of its four lists in turn.
    for list in 0..4 {
        let summary = bytes(|e| {
            for _ in 0..list {
                e.u32(0);
            }
            e.u32(max);
        });
        assert!(
            SweepOutcome::decode_summary(&summary, vec![], vec![]).is_err(),
            "summary list {list}"
        );
    }
}

/// A real measurement's journal encoding, built once.
fn valid_run() -> &'static [u8] {
    static RUN: OnceLock<Vec<u8>> = OnceLock::new();
    RUN.get_or_init(|| {
        let p = Platform::SpacemitX60;
        let setup = cli_triad_setup(8);
        encode_run(
            &RooflineRequest::new()
                .run(&cli::triad_module(p), &p.spec(), "triad", &setup)
                .unwrap(),
        )
    })
}

/// Feed `raw` to `decode`, then `raw` spliced behind a prefix of
/// `valid`, so fuzz bytes also reach past leading schema and name
/// fields.
fn fuzz(valid: &[u8], raw: &[u8], cut: usize, decode: impl Fn(&[u8])) {
    decode(raw);
    decode(&[&valid[..cut % (valid.len() + 1)], raw].concat());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every decoder returns `Ok` or `Err` on arbitrary bytes — the
    /// payload codecs, crc-valid IPC frames with arbitrary bodies, and
    /// a journal magic followed by garbage — and never panics.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        raw in collection::vec(0usize..256, 0..257),
        cut in 0usize..4096,
    ) {
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        fuzz(&[], &raw, cut, |b| {
            let _ = decode_sample(b);
        });
        // Behind a valid platform and strategy code.
        fuzz(&[0, 1], &raw, cut, |b| {
            let _ = decode_profile_meta(b);
        });
        fuzz(&[], &raw, cut, |b| {
            for p in Platform::ALL {
                let _ = decode_stat(b, &cli::stat_events(p));
            }
        });
        fuzz(valid_run(), &raw, cut, |b| {
            for p in Platform::ALL {
                let _ = decode_run(b, &p.spec());
            }
        });
        let cell = ShardedCellSpec {
            workload: "cli".into(),
            source: cli::KERNEL.into(),
            entry: "triad".into(),
            platform: Platform::SifiveU74,
            setup: SetupSpec::CliTriad { n: 8 },
        };
        fuzz(&encode_cell(&cell, ExecConfig::default()), &raw, cut, |b| {
            let _ = decode_cell(b);
        });
        let job = JobSpec::from_opts(JobKind::Sweep, &CommonOpts::default());
        fuzz(&job.encode(), &raw, cut, |b| {
            let _ = JobSpec::decode(b);
        });
        // Behind an empty summary's four zero counts.
        fuzz(&[0; 16], &raw, cut, |b| {
            let _ = SweepOutcome::decode_summary(b, cli::platform_names(), vec![None; 4]);
        });

        // Crc-valid frames: the raw body, and the body behind a tag.
        for body in [raw.clone(), [&[(cut % 13) as u8][..], &raw].concat()] {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(&body).to_le_bytes());
            frame.extend_from_slice(&body);
            let _ = read_msg(&mut frame.as_slice());
        }

        let path = std::env::temp_dir().join(format!("mperf-fuzz-jrnl-{}", std::process::id()));
        std::fs::write(&path, [&journal::MAGIC[..], &raw].concat()).unwrap();
        let _ = Journal::open(&path);
        let _ = std::fs::remove_file(&path);
    }
}
