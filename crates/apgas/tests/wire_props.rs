//! Property tests of the APGAS command encodings (`PROTOCOL.md` §4):
//! arbitrary protocol messages round-trip bit-exactly through
//! `apgas::wire`, and every truncation of a valid encoding surfaces a
//! typed [`x10rt::DecodeError`] — never a panic, never a silent success.

use apgas::finish::{Attach, Deltas, FinishId, FinishKind, FinishMsg, FinishRef};
use apgas::wire;
use apgas::PlaceId;
use proptest::prelude::*;
use x10rt::codec::Cursor;
use x10rt::HandlerId;

const KINDS: [FinishKind; 6] = [
    FinishKind::Default,
    FinishKind::Local,
    FinishKind::Async,
    FinishKind::Here,
    FinishKind::Spmd,
    FinishKind::Dense,
];

fn arb_finish_ref() -> impl Strategy<Value = FinishRef> {
    (any::<u32>(), any::<u64>(), 0usize..KINDS.len()).prop_map(|(home, seq, k)| FinishRef {
        id: FinishId {
            home: PlaceId(home),
            seq,
        },
        kind: KINDS[k],
    })
}

fn arb_ascii(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|v| String::from_utf8(v).expect("printable ascii"))
}

fn arb_deltas() -> impl Strategy<Value = Deltas> {
    (
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..5),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..5),
        prop::collection::vec((any::<u32>(), any::<i64>()), 0..5),
        prop::collection::vec(arb_ascii(12), 0..3),
    )
        .prop_map(|(spawned, recv, live, panics)| Deltas {
            spawned,
            recv,
            live,
            panics,
        })
}

/// An arbitrary finish-protocol message, one variant per tag.
fn arb_finish_msg() -> impl Strategy<Value = FinishMsg> {
    (
        (0u8..4, arb_finish_ref()),
        (arb_deltas(), any::<u64>()),
        (arb_ascii(12), any::<bool>()),
    )
        .prop_map(|((tag, fin), (deltas, n), (s, some))| match tag {
            0 => FinishMsg::Flush { fin, deltas },
            1 => FinishMsg::DenseHop { fin, deltas },
            2 => FinishMsg::Done {
                fin,
                completions: n,
                panics: deltas.panics,
            },
            _ => FinishMsg::CreditReturn {
                fin,
                weight: n,
                panic: some.then_some(s),
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// encode → decode → re-encode is the identity on the bytes (FinishMsg
    /// carries Deltas, which has no PartialEq — byte equality is the
    /// canonical comparison, and it is *stronger*: it also proves the
    /// encoding is unambiguous).
    #[test]
    fn finish_msgs_round_trip(msg in arb_finish_msg()) {
        let bytes = wire::encode_finish_msg(&msg);
        let decoded = wire::decode_finish_msg(&bytes).expect("round trip");
        prop_assert_eq!(wire::encode_finish_msg(&decoded), bytes);
    }

    /// Every strict prefix of a valid finish-message encoding decodes to a
    /// typed error.
    #[test]
    fn finish_msg_truncations_are_typed(msg in arb_finish_msg()) {
        let bytes = wire::encode_finish_msg(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(
                wire::decode_finish_msg(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    /// FinishRef and Attach round-trip for arbitrary homes, sequence
    /// numbers, kinds and weights.
    #[test]
    fn attach_round_trips(
        fin in arb_finish_ref(),
        weight in any::<u64>(),
        remote in any::<bool>(),
        uncounted in any::<bool>(),
    ) {
        let a = if uncounted {
            Attach::Uncounted
        } else {
            Attach::Counted { fin, weight, remote }
        };
        let mut buf = Vec::new();
        wire::put_attach(&mut buf, &a);
        let mut cur = Cursor::new(&buf);
        let got = wire::read_attach(&mut cur).expect("round trip");
        cur.finish().expect("no trailing bytes");
        let mut again = Vec::new();
        wire::put_attach(&mut again, &got);
        prop_assert_eq!(again, buf);
    }

    /// Spawn-command encodings round-trip the handler id and argument bytes
    /// for arbitrary attaches.
    #[test]
    fn spawn_cmds_round_trip(
        fin in arb_finish_ref(),
        weight in any::<u64>(),
        handler in any::<u32>(),
        args in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        let attach = Attach::Counted { fin, weight, remote: true };
        let bytes = wire::encode_spawn_cmd(&attach, HandlerId(handler), &args);
        let (got_attach, body) = wire::decode_spawn(&bytes).expect("round trip");
        let mut a = Vec::new();
        let mut b = Vec::new();
        wire::put_attach(&mut a, &attach);
        wire::put_attach(&mut b, &got_attach);
        prop_assert_eq!(a, b);
        match body {
            wire::SpawnWireBody::Cmd { handler: h, args: got } => {
                prop_assert_eq!(h, HandlerId(handler));
                prop_assert_eq!(got, args);
            }
            wire::SpawnWireBody::Closure => prop_assert!(false, "expected a command body"),
        }
    }

    /// Arbitrary garbage never panics any of the decoders.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = wire::decode_finish_msg(&bytes);
        let _ = wire::decode_clock_msg(&bytes);
        let _ = wire::decode_spawn(&bytes);
        let _ = wire::decode_team_wire(&bytes, None);
        let _ = wire::decode_obs_msg(&bytes);
        let _ = wire::read_attach(&mut Cursor::new(&bytes));
        let _ = wire::read_finish_ref(&mut Cursor::new(&bytes));
    }
}
