//! The registry is a fold over the event log: a fixed event sequence that
//! uses every event kind — including a job replayed from its cache record —
//! folds to exact counters and histogram counts, and environmental events
//! reach only the full snapshot.

use snbc_metrics::progress::parse_stream;
use snbc_metrics::{buckets, Metrics, MetricsSnapshot, Progress, ProgressEvent};

fn rung(round: u64, rung: &str, feasible: bool) -> ProgressEvent {
    ProgressEvent::VerifyRung {
        round,
        rung: rung.to_string(),
        feasible,
        margin: if feasible { 0.125 } else { -0.25 },
    }
}

fn job_done(name: &str, waves: u64) -> ProgressEvent {
    ProgressEvent::JobDone {
        name: name.to_string(),
        certified: true,
        candidates: 2,
        waves,
        winner_index: Some(1),
        iterations: Some(1),
    }
}

/// A two-candidate race as `race` delivers it: candidate 0 fails
/// round 1, needs the interval fallback (which finds nothing) and reseeds;
/// candidate 1 certifies.
fn race_events(job: &Progress) {
    job.emit(ProgressEvent::Wave { wave: 1, live: 2, certified: 0 });
    let c0 = job.with_candidate(0);
    c0.emit(ProgressEvent::LearnEpoch { round: 1, loss: 0.5 });
    c0.emit(rung(1, "init", true));
    c0.emit(rung(1, "unsafe", true));
    c0.emit(rung(1, "flow", false));
    c0.emit(ProgressEvent::IntervalQuery {
        round: 1,
        rung: "flow".to_string(),
        boxes: 250,
    });
    c0.emit(ProgressEvent::Cex { round: 1, points: 0, interval_fallback: true });
    c0.emit(ProgressEvent::Reseed { round: 1 });
    c0.emit(ProgressEvent::Round { round: 1, status: "in-progress".to_string() });
    let c1 = job.with_candidate(1);
    c1.emit(ProgressEvent::LearnEpoch { round: 1, loss: 0.25 });
    for r in ["init", "unsafe", "flow"] {
        c1.emit(rung(1, r, true));
    }
    c1.emit(ProgressEvent::Round { round: 1, status: "certified".to_string() });
    job.emit(ProgressEvent::Wave { wave: 2, live: 1, certified: 1 });
}

fn hist<'a>(snap: &'a MetricsSnapshot, name: &str) -> &'a snbc_metrics::HistogramSnapshot {
    snap.hists
        .iter()
        .find(|h| h.name == name)
        .unwrap_or_else(|| panic!("histogram `{name}` missing"))
}

#[test]
fn every_event_kind_folds_into_its_entries() {
    let metrics = Metrics::recording();
    let sink = metrics.sink();

    // Job 0 races (a miss) and records its race for the cache.
    let job0 = sink.with_job(0);
    job0.emit(ProgressEvent::JobStart { name: "a".to_string() });
    job0.emit(ProgressEvent::CacheMiss);
    let record = Progress::buffer();
    race_events(&Progress::fanout(vec![job0.clone(), record.clone()]));
    job0.emit(job_done("a", 2));

    // Job 1 is the same job served from the cache: its race is replayed.
    let job1 = sink.with_job(1);
    job1.emit(ProgressEvent::JobStart { name: "b".to_string() });
    job1.emit(ProgressEvent::CacheHit);
    job1.replay(&parse_stream(&record.record()).expect("record parses"));
    job1.emit(job_done("b", 2));

    let canonical = metrics.snapshot(true);
    let expected = [
        ("boxes", 500),
        ("candidates", 4),
        ("cex_points", 0),
        ("interval_fallbacks", 2),
        ("jobs", 2),
        ("jobs_certified", 2),
        ("reseeds", 2),
        ("rounds", 4),
        ("verify_rung_feasible", 10),
        ("verify_rung_infeasible", 2),
        ("waves", 4),
    ];
    let got: Vec<(&str, u64)> = canonical.counters.iter().map(|c| (c.name, c.value)).collect();
    assert_eq!(got, expected, "canonical counters, name-sorted, zero entries included");
    assert!(canonical.counters.iter().all(|c| !c.env));

    let h = hist(&canonical, "learn_loss_per_round");
    assert_eq!((h.counts.as_slice(), h.sum, h.count), (&[0, 0, 0, 0, 4, 0, 0][..], 1.5, 4));
    let h = hist(&canonical, "cex_points_per_round");
    assert_eq!((h.counts.as_slice(), h.count), (&[2, 0, 0, 0, 0, 0, 0, 0, 0][..], 2));
    let h = hist(&canonical, "boxes_per_query");
    assert_eq!((h.counts.as_slice(), h.sum, h.count), (&[0, 2, 0, 0, 0, 0][..], 500.0, 2));
    let h = hist(&canonical, "waves_per_race");
    assert_eq!(h.bounds, buckets::WAVES);
    assert_eq!((h.counts.as_slice(), h.count), (&[0, 2, 0, 0, 0, 0, 0][..], 2));
    assert_eq!(canonical.hists.len(), 4);

    // The environmental events appear only in the full snapshot, flagged.
    let full = metrics.snapshot(false);
    for name in ["cache_hit", "cache_miss"] {
        assert_eq!(canonical.counter(name), 0, "{name} is not canonical");
        assert!(
            full.counters.iter().any(|c| c.name == name && c.value == 1 && c.env),
            "{name} is in the full snapshot"
        );
    }
    assert_eq!(full.counters.len(), canonical.counters.len() + 2);
    assert_eq!(full.hists, canonical.hists);
    let json = canonical.to_json_string();
    assert!(json.contains("\"schema\": \"snbc-metrics/2\""));
    assert!(!json.contains("cache_"));

    // The replayed job folds exactly like the live one.
    let live_only = Metrics::recording();
    let live = live_only.sink().with_job(0);
    race_events(&live);
    live.emit(job_done("a", 2));
    let replay_only = Metrics::recording();
    let replayed = replay_only.sink().with_job(1);
    replayed.replay(&parse_stream(&record.record()).expect("record parses"));
    replayed.emit(job_done("b", 2));
    assert_eq!(
        live_only.snapshot(true).to_json_string(),
        replay_only.snapshot(true).to_json_string()
    );
}

#[test]
fn histogram_bucket_boundaries_are_inclusive() {
    let metrics = Metrics::recording();
    // WAVES grid: [1, 2, 4, 8, 16, 32] → 7 slots (6 bounds + overflow).
    for waves in [0, 1, 2, 3, 32, 33] {
        metrics.sink().emit(job_done("j", waves));
    }
    let snap = metrics.snapshot(true);
    let h = hist(&snap, "waves_per_race");
    // 0 and 1 (== bounds[0]) → slot 0; 2 (== bounds[1]) → slot 1; 3 → slot
    // 2; 32 (== the last bound) → slot 5; 33 → the overflow slot.
    assert_eq!(h.counts, vec![2, 1, 1, 0, 0, 1, 1]);
    assert_eq!((h.sum, h.count), (71.0, 6));
    assert_eq!(snap.counter("waves"), 71);
}

#[test]
fn the_off_registry_records_nothing() {
    let off = Metrics::off();
    assert!(!off.sink().is_on());
    off.sink().emit(ProgressEvent::Reseed { round: 1 });
    assert_eq!(off.snapshot(false), MetricsSnapshot::default());
    // An off registry adds nothing to a fanout.
    assert!(!Progress::fanout(vec![Progress::off(), off.sink()]).is_on());
}
