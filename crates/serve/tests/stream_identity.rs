//! Wire types stream the same bytes their `Value` tree renders to.
//!
//! Every response body, plan-cache key and error body goes out through
//! `Serialize::serialize_into`; these properties compare it with
//! `to_string(&x.to_value())` over randomized instances. The committed
//! goldens (`tests/golden.rs`) pin both against bytes taken before
//! emission streamed.

use arrayflex::sa_sim::Dataflow;
use arrayflex::{compare_network, ArrayFlexModel, NetworkPlan, PlanKey, PlanKind};
use arrayflex_serve::api::{resolve_named_network, SimulateResponse, NAMED_NETWORKS};
use arrayflex_serve::http::HttpResponse;
use cnn::DepthwiseMapping;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Serialize;

const MAPPINGS: [DepthwiseMapping; 2] =
    [DepthwiseMapping::BlockDiagonal, DepthwiseMapping::PerGroup];

fn streamed_and_tree<T: Serialize + ?Sized>(value: &T) -> (String, String) {
    (
        serde_json::to_string(value).unwrap(),
        serde_json::to_string(&value.to_value()).unwrap(),
    )
}

fn plan(
    model: &ArrayFlexModel,
    kind: PlanKind,
    network: &cnn::Network,
    mapping: DepthwiseMapping,
) -> NetworkPlan {
    match kind {
        PlanKind::Conventional => model.plan_conventional(network, mapping),
        PlanKind::ArrayFlex => model.plan_arrayflex(network, mapping),
        PlanKind::Fixed(k) => model.plan_arrayflex_fixed(network, mapping, k),
    }
    .unwrap()
}

/// Random strings over ASCII, every JSON escape class and multi-byte UTF-8.
fn message(rng: &mut TestRng) -> String {
    const ALPHABET: [char; 12] = [
        'a', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '😀',
    ];
    (0..rng.next_u64() % 24)
        .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Six named networks × three designs × two mappings on a random
    /// geometry: the `/v1/plan` body and its plan-cache key.
    #[test]
    fn plans_and_plan_keys_stream_the_tree_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let rows = 1 + (rng.next_u64() % 300) as u32;
        let cols = 1 + (rng.next_u64() % 300) as u32;
        let k = 1 + (rng.next_u64() % 4) as u32;
        let model = ArrayFlexModel::new(rows, cols).unwrap();
        for name in NAMED_NETWORKS {
            let network = resolve_named_network(name).unwrap();
            for kind in [PlanKind::ArrayFlex, PlanKind::Conventional, PlanKind::Fixed(k)] {
                for mapping in MAPPINGS {
                    let (streamed, tree) = streamed_and_tree(&plan(&model, kind, &network, mapping));
                    prop_assert!(streamed == tree, "{name} {rows}x{cols} {kind} {mapping:?}");
                    let key = PlanKey::new(&model, &network, mapping, kind);
                    let inputs = (kind.to_string(), mapping, &model, &network);
                    prop_assert_eq!(key.canonical(), streamed_and_tree(&inputs).1);
                }
            }
        }
    }

    /// `/v1/sweep` entries for both dataflows.
    #[test]
    fn comparisons_stream_the_tree_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let edge = 1 + (rng.next_u64() % 256) as u32;
        let name = NAMED_NETWORKS[(rng.next_u64() % NAMED_NETWORKS.len() as u64) as usize];
        let network = resolve_named_network(name).unwrap();
        for dataflow in Dataflow::ALL {
            let model = ArrayFlexModel::new(edge, edge).unwrap().with_dataflow(dataflow);
            for mapping in MAPPINGS {
                let comparison = compare_network(&model, &network, mapping).unwrap();
                let (streamed, tree) = streamed_and_tree(&comparison);
                prop_assert!(streamed == tree, "{name} {edge} {dataflow} {mapping:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn simulate_responses_stream_the_tree_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let response = SimulateResponse {
            rows: rng.next_u64() as u32,
            cols: rng.next_u64() as u32,
            k: rng.next_u64() as u32,
            dataflow: Dataflow::ALL[(rng.next_u64() % 2) as usize],
            t: rng.next_u64(),
            n: rng.next_u64() >> (rng.next_u64() % 64),
            m: u64::MAX - rng.next_u64() % 3,
            seed: rng.next_u64(),
            simulated_cycles: rng.next_u64(),
            predicted_cycles: rng.next_u64() % 1000,
            cycles_match: rng.next_u64().is_multiple_of(2),
            functionally_correct: rng.next_u64().is_multiple_of(2),
            macs: rng.next_u64(),
            tiles: rng.next_u64() % 10,
        };
        let (streamed, tree) = streamed_and_tree(&response);
        prop_assert_eq!(streamed, tree);
    }

    /// Error bodies render a `Value` tree; a derived struct of the same
    /// shape streams the same bytes, and the body parses back.
    #[test]
    fn error_bodies_match_the_streamed_shape(seed in any::<u64>()) {
        #[derive(Serialize)]
        struct ErrorBody {
            error: ErrorDetail,
        }
        #[derive(Serialize)]
        struct ErrorDetail {
            code: u16,
            message: String,
        }
        let mut rng = TestRng::new(seed);
        let status = 400 + (rng.next_u64() % 200) as u16;
        let message = message(&mut rng);
        let response = HttpResponse::error(status, &message);
        let streamed = serde_json::to_string(&ErrorBody {
            error: ErrorDetail { code: status, message: message.clone() },
        })
        .unwrap();
        prop_assert_eq!(std::str::from_utf8(&response.body).unwrap(), streamed.as_str());
        let parsed: serde::Value = serde_json::from_str(&streamed).unwrap();
        let detail = parsed.get("error").unwrap();
        prop_assert_eq!(detail.get("message"), Some(&serde::Value::Str(message)));
        prop_assert_eq!(detail.get("code"), Some(&serde::Value::Int(i64::from(status))));
    }
}
