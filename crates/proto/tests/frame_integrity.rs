//! Integrity of the frame trailer: every decode path — the contiguous
//! [`frame::decode_frame`], the blocking [`frame::read_frame_into`] and
//! the push-based [`FrameDecoder`] — refuses a corrupted frame.
//!
//! * Every single-bit flip of every byte is refused, for payload
//!   lengths 0..=72 (short payloads, a whole 32-byte lane stripe, and
//!   every length of the 8-byte word tail) and for every opcode bit.
//! * Flipping the top bit of two payload words is refused, whether the
//!   words share a checksum lane (32 bytes apart) or not.
//! * On a 1024-element batch frame, seeded single-bit flips and seeded
//!   transpositions of two distinct 8-byte words are refused; the
//!   exhaustive sweep of every bit of that frame is `#[ignore]`d here
//!   and run in release by CI.
//! * A golden frame pins the exact version-3 bytes, so a silent change
//!   of the wire format fails this suite.
//! * A version-2 peer is refused at the header, before any payload is
//!   read or buffered.

use std::io::{self, Cursor, Read};

use dds_core::checkpoint::CheckpointError;
use dds_engine::TenantId;
use dds_hash::fnv::{fnv1a_64_update, FNV1A_64_OFFSET};
use dds_hash::splitmix::SplitMix64;
use dds_proto::frame::{self, FrameDecoder, FrameError, HEADER_BYTES, OVERHEAD_BYTES};
use dds_proto::message::{opcode, Request};
use dds_sim::{Element, Slot};

/// What each decode path makes of `wire`, as `(opcode, payload)` when it
/// yields a frame; `Err` carries the refusal.
fn decode_all_paths(wire: &[u8]) -> [Result<(u8, Vec<u8>), String>; 3] {
    let contiguous = frame::decode_frame(wire)
        .map(|(op, payload)| (op, payload.to_vec()))
        .map_err(|e| e.to_string());

    let mut payload = Vec::new();
    let blocking = match frame::read_frame_into(&mut Cursor::new(wire), &mut payload) {
        Ok(Some(op)) => Ok((op, payload)),
        Ok(None) => Err("clean end of stream".to_string()),
        Err(e) => Err(e.to_string()),
    };

    let mut dec = FrameDecoder::new();
    dec.push(wire);
    let mut payload = Vec::new();
    let pushed = match dec.next_frame(&mut payload) {
        Ok(Some(op)) => Ok((op, payload)),
        // At end of input a partial frame is the caller's truncation
        // verdict; a decoder that is not mid-frame would have accepted
        // the stream as cleanly ended.
        Ok(None) if dec.is_mid_frame() => Err("truncated".to_string()),
        Ok(None) => Err("accepted an empty stream".to_string()),
        Err(e) => Err(e.to_string()),
    };
    [contiguous, blocking, pushed]
}

const PATHS: [&str; 3] = ["decode_frame", "read_frame_into", "FrameDecoder"];

fn assert_accepted(wire: &[u8], op: u8, payload: &[u8]) {
    for (path, got) in PATHS.iter().zip(decode_all_paths(wire)) {
        assert_eq!(
            got,
            Ok((op, payload.to_vec())),
            "{path} refused a good frame"
        );
    }
}

fn assert_refused(wire: &[u8], what: &dyn Fn() -> String) {
    for (path, got) in PATHS.iter().zip(decode_all_paths(wire)) {
        if let Ok((op, payload)) = got {
            panic!(
                "{path} accepted {}: opcode {op:#04x}, {} payload bytes",
                what(),
                payload.len()
            );
        }
    }
}

fn seeded_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// A 1024-element timed batch frame of seeded tenants and elements:
/// the bulk-ingest frame shape, 16 KiB of payload.
fn batch_frame(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SplitMix64::new(seed);
    let batch = (0..1024)
        .map(|_| (TenantId(rng.next_below(10_000)), Element(rng.next_u64())))
        .collect();
    let request = Request::ObserveBatchAt {
        now: Slot(rng.next_u64()),
        batch,
    };
    (request.encode(), request.payload())
}

fn flip(wire: &[u8], bit: usize) -> Vec<u8> {
    let mut bad = wire.to_vec();
    bad[bit / 8] ^= 1 << (bit % 8);
    bad
}

#[test]
fn every_single_bit_flip_is_refused_for_payloads_up_to_72_bytes() {
    let mut rng = SplitMix64::new(0x5EED);
    for len in 0..=72 {
        let payload = seeded_bytes(&mut rng, len);
        let wire = frame::frame_bytes(opcode::OBSERVE_BATCH, &payload);
        assert_eq!(wire.len(), OVERHEAD_BYTES + len);
        assert_accepted(&wire, opcode::OBSERVE_BATCH, &payload);
        for bit in 0..wire.len() * 8 {
            assert_refused(&flip(&wire, bit), &|| {
                format!("payload length {len} with bit {bit} flipped")
            });
        }
    }
}

#[test]
fn every_opcode_bit_flip_is_refused() {
    let mut rng = SplitMix64::new(0x0C0DE);
    for op in 0..=u8::MAX {
        for len in [0, 16, 40] {
            let payload = seeded_bytes(&mut rng, len);
            let wire = frame::frame_bytes(op, &payload);
            for bit in 0..8 {
                let mut bad = wire.clone();
                bad[6] ^= 1 << bit;
                assert_refused(&bad, &|| {
                    format!("opcode {op:#04x} with bit {bit} flipped ({len}-byte payload)")
                });
            }
        }
    }
}

#[test]
fn seeded_bit_flips_on_a_batch_frame_are_refused() {
    let (wire, payload) = batch_frame(1);
    assert_eq!(wire.len(), OVERHEAD_BYTES + 8 + 4 + 1024 * 16);
    assert_accepted(&wire, opcode::OBSERVE_BATCH_AT, &payload);
    let mut rng = SplitMix64::new(2);
    let bits = wire.len() as u64 * 8;
    for _ in 0..4096 {
        let bit = rng.next_below(bits) as usize;
        assert_refused(&flip(&wire, bit), &|| {
            format!("batch frame with bit {bit} flipped")
        });
    }
}

#[test]
fn seeded_word_transpositions_on_a_batch_frame_are_refused() {
    let (wire, _) = batch_frame(3);
    let mut rng = SplitMix64::new(4);
    let body = HEADER_BYTES..wire.len() - frame::TRAILER_BYTES;
    let mut swapped = 0;
    while swapped < 1000 {
        // Two non-overlapping 8-byte words anywhere in the payload,
        // aligned to the batch rows or not.
        let words = (body.len() - 8) as u64;
        let a = body.start + rng.next_below(words + 1) as usize;
        let b = body.start + rng.next_below(words + 1) as usize;
        if a.abs_diff(b) < 8 || wire[a..a + 8] == wire[b..b + 8] {
            continue;
        }
        let mut bad = wire.clone();
        bad[a..a + 8].copy_from_slice(&wire[b..b + 8]);
        bad[b..b + 8].copy_from_slice(&wire[a..a + 8]);
        assert_refused(&bad, &|| format!("words at bytes {a} and {b} swapped"));
        swapped += 1;
    }
}

/// Flip bit 63 of payload words `a` and `b` (8-byte words counted from
/// the payload start).
fn flip_top_bits(wire: &[u8], a: usize, b: usize) -> Vec<u8> {
    let top = |w: usize| (HEADER_BYTES + 8 * w + 7) * 8 + 7;
    flip(&flip(wire, top(a)), top(b))
}

#[test]
fn top_bit_flips_of_two_words_are_refused_for_payloads_up_to_72_bytes() {
    let mut rng = SplitMix64::new(0x7095);
    for len in 16..=72 {
        let payload = seeded_bytes(&mut rng, len);
        let wire = frame::frame_bytes(opcode::OBSERVE_BATCH, &payload);
        let words = len / 8;
        for a in 0..words {
            for b in a + 1..words {
                assert_refused(&flip_top_bits(&wire, a, b), &|| {
                    format!("payload length {len} with bit 63 of words {a} and {b} flipped")
                });
            }
        }
    }
}

#[test]
fn top_bit_flips_in_one_lane_of_a_batch_frame_are_refused() {
    let (wire, _) = batch_frame(7);
    let words = (wire.len() - OVERHEAD_BYTES) / 8;
    // Every pair one stripe apart, then seeded pairs further apart in
    // the same lane: the words a lane step folds into one state.
    for a in 0..words - 4 {
        assert_refused(&flip_top_bits(&wire, a, a + 4), &|| {
            format!("bit 63 of words {a} and {} flipped", a + 4)
        });
    }
    let mut rng = SplitMix64::new(8);
    for _ in 0..1000 {
        let a = rng.next_below(words as u64 - 8) as usize;
        let b = a + 4 * (2 + rng.next_below(((words - 1 - a) / 4 - 1) as u64) as usize);
        assert_refused(&flip_top_bits(&wire, a, b), &|| {
            format!("bit 63 of words {a} and {b} flipped")
        });
    }
}

/// Every bit of a 16 KiB frame on three paths: too slow for a debug
/// build, so CI runs it in release with `--include-ignored`.
#[test]
#[ignore = "exhaustive 16 KiB sweep; run in release"]
fn every_single_bit_flip_of_a_batch_frame_is_refused() {
    let (wire, _) = batch_frame(5);
    for bit in 0..wire.len() * 8 {
        assert_refused(&flip(&wire, bit), &|| {
            format!("batch frame with bit {bit} flipped")
        });
    }
}

#[test]
fn golden_frame_pins_the_version_3_bytes() {
    let payload: Vec<u8> = (0u8..45).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
    let wire = frame::frame_bytes(opcode::OBSERVE_BATCH_AT, &payload);
    let mut expected = Vec::new();
    expected.extend_from_slice(b"DDSP");
    expected.extend_from_slice(&[3, 0]); // version 3
    expected.push(opcode::OBSERVE_BATCH_AT);
    expected.extend_from_slice(&[45, 0, 0, 0]);
    expected.extend_from_slice(&payload);
    expected.extend_from_slice(&GOLDEN_TRAILER.to_le_bytes());
    assert_eq!(wire, expected, "the version-3 frame bytes changed");
    assert_eq!(frame::VERSION, 3);
    assert_accepted(&wire, opcode::OBSERVE_BATCH_AT, &payload);
}

/// The checksum of [`golden_frame_pins_the_version_3_bytes`]'s frame.
const GOLDEN_TRAILER: u64 = 0x4E6C_8E0E_4893_53A2;

/// A reader that serves `bytes` and panics on any read past them: a
/// decoder that asks for the payload of a refused header fails loudly.
struct HeaderOnly<'a>(&'a [u8]);

impl Read for HeaderOnly<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        assert!(
            !self.0.is_empty(),
            "read past the header of a refused frame"
        );
        let n = buf.len().min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// A frame as a version-2 peer writes it: the same layout, version 2,
/// and an FNV-1a 64 trailer over `opcode ‖ payload`.
fn v2_frame(op: u8, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(b"DDSP");
    wire.extend_from_slice(&2u16.to_le_bytes());
    wire.push(op);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    let check = fnv1a_64_update(fnv1a_64_update(FNV1A_64_OFFSET, &[op]), payload);
    wire.extend_from_slice(&check.to_le_bytes());
    wire
}

#[test]
fn a_version_2_peer_is_refused_before_its_payload_is_read() {
    let (_, payload) = batch_frame(6);
    let wire = v2_frame(opcode::OBSERVE_BATCH_AT, &payload);
    let header = &wire[..HEADER_BYTES];
    let refused = CheckpointError::UnsupportedVersion(2);

    // Contiguous: the whole frame and the bare header get the same
    // verdict, so the payload is never looked at.
    assert_eq!(frame::decode_frame(&wire), Err(refused));
    assert_eq!(frame::decode_frame(header), Err(refused));

    // Blocking: the reader has nothing past the header, and the payload
    // buffer is never grown.
    let mut payload_buf = Vec::new();
    match frame::read_frame_into(&mut HeaderOnly(header), &mut payload_buf) {
        Err(FrameError::Format(e)) => assert_eq!(e, refused),
        other => panic!("read_frame_into answered {other:?}"),
    }
    assert_eq!(payload_buf.capacity(), 0, "payload buffered for a v2 frame");

    // Push-based: refused on the header alone, nothing past it buffered.
    let mut dec = FrameDecoder::new();
    dec.push(header);
    assert_eq!(dec.next_frame(&mut payload_buf), Err(refused));
    assert_eq!(dec.buffered_bytes(), HEADER_BYTES);
    assert_eq!(payload_buf.capacity(), 0, "payload buffered for a v2 frame");

    // And with the whole v2 frame pushed, still the version verdict,
    // not a checksum mismatch.
    let mut dec = FrameDecoder::new();
    dec.push(&wire);
    assert_eq!(dec.next_frame(&mut payload_buf), Err(refused));
}
