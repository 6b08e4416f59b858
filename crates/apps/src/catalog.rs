//! The application catalogue (§4, Fig 17).
//!
//! Eight default applications: the video-surveillance application of §2,
//! six applications from Scrooge \[10\], and the social-media application
//! from InferLine \[27\] with a more complex DAG. For the varying-#apps
//! experiment (Figs 18b/19b), six further applications from Nexus \[23\]
//! are available (they are listed verbatim in §4).
//!
//! SLOs are drawn from the `[400, 600]` ms range of \[10\]; per-node drift
//! profiles follow the paper's observations (object detection essentially
//! stable, fine-grained recognition tasks drifting more).

use crate::dag::{AppSpec, NodeSpec};
use adainf_driftgen::DriftProfile;
use adainf_modelzoo::zoo;
use adainf_simcore::SimDuration;

fn node(
    name: &str,
    profile: adainf_modelzoo::ModelProfile,
    classes: usize,
    drift: DriftProfile,
    upstream: Option<usize>,
) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        profile,
        classes,
        drift,
        upstream,
    }
}

/// App 0 — the video surveillance application of Fig 1.
pub fn video_surveillance(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "video surveillance",
        SimDuration::from_millis(400),
        vec![
            node("object detection", zoo::tiny_yolo_v3(), 3, DriftProfile::Stable, None),
            node("vehicle type recognition", zoo::mobilenet_v2(), 6, DriftProfile::Severe, Some(0)),
            node("person activity recognition", zoo::shufflenet(), 5, DriftProfile::Moderate, Some(0)),
        ],
    )
}

/// App 1 — traffic monitoring \[10\].
pub fn traffic_monitoring(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "traffic monitoring",
        SimDuration::from_millis(450),
        vec![
            node("vehicle detection", zoo::ssdlite(), 3, DriftProfile::Mild, None),
            node("vehicle classification", zoo::resnet18(), 8, DriftProfile::Severe, Some(0)),
        ],
    )
}

/// App 2 — face authentication pipeline \[10\].
pub fn face_authentication(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "face authentication",
        SimDuration::from_millis(500),
        vec![
            node("face detection", zoo::mobilenet_v2(), 2, DriftProfile::Stable, None),
            node("face recognition", zoo::resnet18(), 12, DriftProfile::Mild, Some(0)),
        ],
    )
}

/// App 3 — voice assistant \[10\].
pub fn voice_assistant(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "voice assistant",
        SimDuration::from_millis(550),
        vec![
            node("speech recognition", zoo::audio_net(), 10, DriftProfile::Moderate, None),
            node("intent classification", zoo::intent_net(), 8, DriftProfile::Moderate, Some(0)),
        ],
    )
}

/// App 4 — drone footage analysis \[10\].
pub fn drone_footage(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "drone footage analysis",
        SimDuration::from_millis(600),
        vec![
            node("object detection", zoo::tiny_yolo_v3(), 4, DriftProfile::Mild, None),
            node("land-cover recognition", zoo::shufflenet(), 6, DriftProfile::Moderate, Some(0)),
            node("target recognition", zoo::mobilenet_v2(), 7, DriftProfile::Mild, Some(0)),
        ],
    )
}

/// App 5 — retail shelf analytics \[10\].
pub fn retail_analytics(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "retail analytics",
        SimDuration::from_millis(500),
        vec![
            node("shelf detection", zoo::ssdlite(), 3, DriftProfile::Mild, None),
            node("product recognition", zoo::mobilenet_v2(), 12, DriftProfile::Severe, Some(0)),
        ],
    )
}

/// App 6 — licence-plate reading \[10\].
pub fn license_plate(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "license plate reading",
        SimDuration::from_millis(450),
        vec![
            node("plate detection", zoo::ssdlite(), 2, DriftProfile::Stable, None),
            node("text recognition", zoo::stn_ocr(), 10, DriftProfile::Mild, Some(0)),
        ],
    )
}

/// App 7 — the social media application \[27\] with the complex DAG of §4:
/// image recognition (tag suggestion) and a safety classifier over the
/// linked image, plus language identification feeding translation.
pub fn social_media(id: u32) -> AppSpec {
    AppSpec::new(
        id,
        "social media",
        SimDuration::from_millis(600),
        vec![
            node("image recognition", zoo::image_recognizer(), 10, DriftProfile::Moderate, None),
            node("safety classification", zoo::nsfw_net(), 2, DriftProfile::Mild, Some(0)),
            node("person tag suggestion", zoo::mobilenet_v2(), 12, DriftProfile::Moderate, Some(0)),
            node("language identification", zoo::lang_id(), 6, DriftProfile::Mild, None),
            node("translation", zoo::translator(), 8, DriftProfile::Mild, Some(3)),
        ],
    )
}

/// The eight default applications of §4.
pub fn default_apps() -> Vec<AppSpec> {
    vec![
        video_surveillance(0),
        traffic_monitoring(1),
        face_authentication(2),
        voice_assistant(3),
        drone_footage(4),
        retail_analytics(5),
        license_plate(6),
        social_media(7),
    ]
}

/// The six extension applications from Nexus \[23\], quoted in §4.
pub fn extension_apps() -> Vec<AppSpec> {
    vec![
        // Analyzing video games: SSDLite → STN-OCR + ResNet18.
        AppSpec::new(
            8,
            "video game analysis",
            SimDuration::from_millis(500),
            vec![
                node("object detection", zoo::ssdlite(), 5, DriftProfile::Mild, None),
                node("text recognition", zoo::stn_ocr(), 10, DriftProfile::Mild, Some(0)),
                node("object recognition", zoo::resnet18(), 9, DriftProfile::Moderate, Some(0)),
            ],
        ),
        // Rating dance performance: TinyYOLOv3 → ShuffleNet.
        AppSpec::new(
            9,
            "dance performance rating",
            SimDuration::from_millis(450),
            vec![
                node("person detection", zoo::tiny_yolo_v3(), 2, DriftProfile::Stable, None),
                node("pose recognition", zoo::shufflenet(), 8, DriftProfile::Moderate, Some(0)),
            ],
        ),
        // Billboard response estimation: SSDLite → MobileNetV2 + ResNet18.
        AppSpec::new(
            10,
            "billboard response estimation",
            SimDuration::from_millis(550),
            vec![
                node("object detection", zoo::ssdlite(), 3, DriftProfile::Mild, None),
                node("face recognition", zoo::mobilenet_v2(), 10, DriftProfile::Mild, Some(0)),
                node("gaze recognition", zoo::resnet18(), 5, DriftProfile::Moderate, Some(0)),
            ],
        ),
        // Bike-rack occupancy on buses: TinyYOLOv3 only.
        AppSpec::new(
            11,
            "bike-rack occupancy",
            SimDuration::from_millis(400),
            vec![node("object detection", zoo::tiny_yolo_v3(), 3, DriftProfile::Mild, None)],
        ),
        // Amber-alert vehicle matching: STN-OCR + SSDLite → ResNet18.
        AppSpec::new(
            12,
            "amber alert matching",
            SimDuration::from_millis(500),
            vec![
                node("text recognition", zoo::stn_ocr(), 10, DriftProfile::Mild, None),
                node("object detection", zoo::ssdlite(), 3, DriftProfile::Mild, None),
                node("make/model recognition", zoo::resnet18(), 12, DriftProfile::Severe, Some(1)),
            ],
        ),
        // Corporate logo placement: TinyYOLOv3 → MobileNetV2 + ShuffleNet.
        AppSpec::new(
            13,
            "logo placement rating",
            SimDuration::from_millis(600),
            vec![
                node("object detection", zoo::tiny_yolo_v3(), 3, DriftProfile::Stable, None),
                node("icon recognition", zoo::mobilenet_v2(), 9, DriftProfile::Moderate, Some(0)),
                node("pose recognition", zoo::shufflenet(), 8, DriftProfile::Mild, Some(0)),
            ],
        ),
    ]
}

/// The first `n` applications (defaults first, then extensions),
/// re-numbered contiguously. Supports `1..=14`.
///
/// # Panics
/// Panics if `n` is 0 or above 14.
pub fn apps_for_count(n: usize) -> Vec<AppSpec> {
    assert!((1..=14).contains(&n), "supported app counts are 1..=14");
    let mut all = default_apps();
    all.extend(extension_apps());
    all.truncate(n);
    for (i, app) in all.iter_mut().enumerate() {
        app.id = i as u32;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalogue_has_eight_apps() {
        let apps = default_apps();
        assert_eq!(apps.len(), 8);
        for (i, app) in apps.iter().enumerate() {
            assert_eq!(app.id, i as u32);
            let slo = app.slo.as_millis_f64();
            assert!((400.0..=600.0).contains(&slo), "{} slo {slo}", app.name);
        }
    }

    #[test]
    fn extensions_bring_total_to_fourteen() {
        assert_eq!(extension_apps().len(), 6);
        let all = apps_for_count(14);
        assert_eq!(all.len(), 14);
        assert_eq!(all[13].id, 13);
    }

    #[test]
    fn social_media_has_complex_dag() {
        let app = social_media(7);
        assert_eq!(app.num_models(), 5);
        // Two roots (image branch, text branch).
        let roots = app.nodes.iter().filter(|n| n.upstream.is_none()).count();
        assert_eq!(roots, 2);
        assert!(app.leaves().len() >= 3);
    }

    #[test]
    fn surveillance_drift_matches_observations() {
        let app = video_surveillance(0);
        assert_eq!(app.nodes[0].drift, DriftProfile::Stable);
        assert_eq!(app.nodes[1].drift, DriftProfile::Severe);
        assert_eq!(app.nodes[2].drift, DriftProfile::Moderate);
    }

    #[test]
    #[should_panic(expected = "supported app counts")]
    fn zero_apps_rejected() {
        apps_for_count(0);
    }

    #[test]
    fn every_app_is_well_formed() {
        for app in apps_for_count(14) {
            // At least one root and one leaf; topological parent order.
            assert!(app.nodes.iter().any(|n| n.upstream.is_none()), "{}", app.name);
            assert!(!app.leaves().is_empty(), "{}", app.name);
            for (i, n) in app.nodes.iter().enumerate() {
                if let Some(up) = n.upstream {
                    assert!(up < i);
                }
                assert!(n.classes >= 2, "{}: {}", app.name, n.name);
                assert!(n.profile.num_layers() >= 2);
            }
            // Cost aggregation is strictly positive and finite.
            let c = app.full_structure_cost();
            assert!(c.flops_per_sample > 0.0 && c.flops_per_sample.is_finite());
            assert!(c.param_bytes > 0.0);
        }
    }

    /// Every catalog model's cut → head-exit map, built once, equals
    /// the depth-fraction formula it replaced, at every cut.
    #[test]
    fn head_exit_map_matches_the_depth_formula() {
        use adainf_modelzoo::head::HEAD_EXITS;
        use adainf_modelzoo::TrainableModel;
        let mut rng = adainf_simcore::Prng::new(3);
        for app in apps_for_count(14) {
            for n in &app.nodes {
                let model = TrainableModel::new(n.profile.clone(), n.classes, &mut rng);
                let layers = n.profile.num_layers();
                for cut in 0..layers {
                    let frac = (cut + 1) as f64 / layers as f64;
                    let want =
                        ((frac * HEAD_EXITS as f64).ceil() as usize).clamp(1, HEAD_EXITS) - 1;
                    assert_eq!(
                        model.head_exit_for_cut(cut),
                        want,
                        "{} / {} cut {cut}",
                        app.name,
                        n.name
                    );
                }
            }
        }
    }

    #[test]
    fn app_ids_are_contiguous_for_every_count() {
        for n in 1..=14 {
            let apps = apps_for_count(n);
            assert_eq!(apps.len(), n);
            for (i, a) in apps.iter().enumerate() {
                assert_eq!(a.id, i as u32);
            }
        }
    }

    #[test]
    fn single_model_app_exists() {
        // §1: "AdaInf is also applicable to single-model applications" —
        // the bike-rack app is single-model.
        let apps = apps_for_count(14);
        assert!(apps.iter().any(|a| a.num_models() == 1));
    }
}
