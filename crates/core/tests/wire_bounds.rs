//! Count-prefixed decoders of socket, pipe, and journal bytes must
//! refuse a count the payload cannot hold — returning `Err` instead of
//! sizing an allocation from it (a `u32::MAX` count once aborted the
//! process inside `Vec::with_capacity`).

use miniperf::cli::{self, SweepOutcome};
use miniperf::serve::{decode_profile_meta, decode_sample, decode_stat};
use miniperf::sweep_supervisor::decode_run;
use mperf_sim::{Platform, PlatformSpec};
use mperf_sweep::wire::Enc;

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
