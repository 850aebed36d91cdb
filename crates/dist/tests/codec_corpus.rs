//! Codec hardening corpus: hostile bytes must produce structured errors,
//! never panics, hangs, or silent misparses.
//!
//! The corpus is real protocol traffic (a `Job`, a `Result` carrying a
//! genuine simulated [`RunRecord`], a `Heartbeat`, a `LeaseDone`) subjected
//! to every truncation point and every single-bit flip, plus adversarial
//! length prefixes. A separate property test drives the sweep journal
//! through seeded random append/abort/done sequences and checks the replay
//! matches a model.

use sysscale::{RunRecord, Scenario, SimSession};
use sysscale_dist::journal::{JournalHeader, SweepJournal};
use sysscale_dist::{LeaseIndices, Message, WireError};
use sysscale_types::rng::SplitMix64;
use sysscale_workloads::spec_workload;

fn sample_record(tag: &str) -> RunRecord {
    let workload = spec_workload("mcf").expect("known workload");
    let mut session = SimSession::new();
    let scenario = Scenario::builder(workload).build().unwrap();
    let mut record = session.run(&scenario).unwrap();
    record.workload = tag.to_string();
    record
}

/// One of each frame type that carries interesting payload structure.
fn corpus_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for message in [
        Message::Job {
            batch_cells: 8,
            quarantine: true,
            fault_after: Some(5),
            fault_hangs: true,
            poison_flat: Some(13),
            poison_crash: true,
            recipe: vec![1, 2, 3, 4, 5, 6, 7, 8],
        },
        Message::Lease {
            lease_id: 7,
            indices: LeaseIndices::from_flats(&[0, 1, 2, 5, 6, 7]),
        },
        Message::Result {
            lease_id: 7,
            flat: 5,
            record: Box::new(sample_record("corpus")),
        },
        Message::Heartbeat {
            lease_id: 7,
            done_cells: 3,
        },
        Message::LeaseDone {
            lease_id: 7,
            cells: 6,
        },
    ] {
        message.write_to(&mut stream).expect("encode corpus");
    }
    stream
}

fn parse_all(bytes: &[u8]) -> Result<Vec<Message>, WireError> {
    let mut r = bytes;
    let mut messages = Vec::new();
    loop {
        match Message::read_from(&mut r)? {
            Some(message) => messages.push(message),
            None => return Ok(messages),
        }
    }
}

#[test]
fn the_clean_corpus_round_trips() {
    let messages = parse_all(&corpus_stream()).expect("clean stream parses");
    assert_eq!(messages.len(), 5);
}

#[test]
fn every_truncation_point_errors_cleanly_and_never_panics() {
    let stream = corpus_stream();
    // Frame boundaries (where a truncated stream reads as a clean EOF):
    // recompute them by parsing prefix lengths.
    let mut boundaries = vec![0usize];
    {
        let mut offset = 0usize;
        while offset < stream.len() {
            let len =
                u32::from_le_bytes(stream[offset + 1..offset + 5].try_into().unwrap()) as usize;
            offset += 9 + len;
            boundaries.push(offset);
        }
    }
    for cut in 0..stream.len() {
        let outcome = parse_all(&stream[..cut]);
        if boundaries.contains(&cut) {
            assert!(
                outcome.is_ok(),
                "cut {cut} is a frame boundary; the prefix must parse clean"
            );
        } else {
            assert!(
                outcome.is_err(),
                "cut {cut} lands inside a frame; the tear must be reported"
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected_never_misparsed() {
    let stream = corpus_stream();
    let clean = parse_all(&stream).expect("clean parse");
    // Exhaustive over a real Result-bearing stream: tens of thousands of
    // mutants, each must either fail structurally or (never) parse to
    // something different — the CRC makes "different but parses" impossible
    // for single-bit damage.
    for byte in 0..stream.len() {
        for bit in 0..8u8 {
            let mut mutant = stream.clone();
            mutant[byte] ^= 1 << bit;
            match parse_all(&mutant) {
                Err(_) => {}
                Ok(messages) => {
                    // The only acceptable Ok is bit-exact equality with the
                    // clean parse — and a single flipped bit cannot be.
                    assert_ne!(
                        format!("{messages:?}"),
                        format!("{clean:?}"),
                        "byte {byte} bit {bit}: a corrupted stream parsed \
                         back to the clean messages?!"
                    );
                    panic!(
                        "byte {byte} bit {bit}: single-bit corruption must \
                         not parse (got {} messages)",
                        messages.len()
                    );
                }
            }
        }
    }
}

#[test]
fn adversarial_length_prefixes_are_rejected_without_allocation_bombs() {
    let stream = corpus_stream();
    for length in [u32::MAX, u32::MAX - 1, 0x4000_0000, 0x1000_0001] {
        let mut mutant = stream.clone();
        mutant[1..5].copy_from_slice(&length.to_le_bytes());
        let error = parse_all(&mutant).expect_err("oversized frames must be rejected");
        assert!(
            error.to_string().contains("exceeds"),
            "the length cap, not an allocation failure, must reject: {error}"
        );
    }
}

/// Model-based journal property test: random interleavings of result /
/// abort / done operations across leases, replayed and checked against a
/// plain in-memory model of "what the journal promised".
#[test]
fn journal_replay_matches_a_model_under_random_operation_sequences() {
    let dir = std::env::temp_dir().join(format!("ssjl-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let record = sample_record("model");

    for seed in 1..=8u64 {
        let path = dir.join(format!("model-{seed}.journal"));
        let _ = std::fs::remove_file(&path);
        let header = JournalHeader {
            recipe_fingerprint: seed,
            slots: 2,
            leases: 4,
            cells: 16,
        };
        let (mut journal, replay) = SweepJournal::open(&path, &header).unwrap();
        assert!(replay.is_none());

        // The model: per lease, its pending (flat) entries and whether a
        // matching Done sealed them.
        let mut rng = SplitMix64::new(seed);
        let mut pending: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut sealed: Vec<Option<Vec<u64>>> = vec![None; 4];
        for _ in 0..40 {
            let lease = (rng.next_u64() % 4) as usize;
            if sealed[lease].is_some() {
                continue; // the dispatcher never touches a retired lease
            }
            match rng.next_u64() % 4 {
                // Result entries twice as likely as the others.
                0 | 1 => {
                    let flat = rng.next_u64() % 16;
                    journal.record_result(lease as u64, flat, &record).unwrap();
                    pending[lease].push(flat);
                }
                2 => {
                    journal.record_abort(lease as u64).unwrap();
                    pending[lease].clear();
                }
                _ => {
                    journal
                        .record_done(lease as u64, pending[lease].len() as u64)
                        .unwrap();
                    sealed[lease] = Some(std::mem::take(&mut pending[lease]));
                }
            }
        }
        journal.flush().unwrap();
        drop(journal);

        let (journal, replay) = SweepJournal::open(&path, &header).unwrap();
        let replay = replay.expect("same header replays");
        let mut replayed: Vec<Option<Vec<u64>>> = vec![None; 4];
        for lease in &replay.leases {
            let flats: Vec<u64> = lease.results.iter().map(|(flat, _)| *flat).collect();
            for (_, rec) in &lease.results {
                assert_eq!(rec, &record, "records must round-trip bit-exactly");
            }
            assert!(
                replayed[lease.lease_id as usize].replace(flats).is_none(),
                "seed {seed}: lease {} replayed twice",
                lease.lease_id
            );
        }
        assert_eq!(
            replayed, sealed,
            "seed {seed}: the replay must match exactly the sealed leases"
        );
        journal.finish().unwrap();
    }
}
