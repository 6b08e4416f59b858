//! The named backbones used across the paper's applications (§2, §4).
//!
//! Magnitudes are for the **compressed** variants ("we compressed the
//! remaining models using DeepSpeed", §4), calibrated so the surveillance
//! application's full DAG sums to the latency model's reference structure
//! (~1.5×10⁸ FLOPs, ~2 MB activations per sample — see
//! `adainf_gpusim::latency`). Absolute values are calibrations; relative
//! magnitudes track the real architectures (TinyYOLOv3 ≫ MobileNetV2 >
//! ShuffleNet, ResNet18 heavier than both, etc.).

use crate::profile::ModelProfile;

/// TinyYOLOv3 — object detection (compressed). 13 conv layers.
pub fn tiny_yolo_v3() -> ModelProfile {
    ModelProfile::synth("TinyYOLOv3", 13, 9.0e7, 8_600_000, 1_200_000)
}

/// MobileNetV2 — lightweight recognition. 18 bottleneck stages.
pub fn mobilenet_v2() -> ModelProfile {
    ModelProfile::synth("MobileNetV2", 18, 4.0e7, 3_400_000, 500_000)
}

/// ShuffleNet — lightweight recognition. 16 stages.
pub fn shufflenet() -> ModelProfile {
    ModelProfile::synth("ShuffleNet", 16, 2.0e7, 2_300_000, 300_000)
}

/// ResNet18 (compressed) — mid-weight recognition. 18 layers.
pub fn resnet18() -> ModelProfile {
    ModelProfile::synth("ResNet18", 18, 1.4e8, 11_000_000, 900_000)
}

/// SSDLite (compressed) — mobile object detection. 14 layers.
pub fn ssdlite() -> ModelProfile {
    ModelProfile::synth("SSDLite", 14, 6.5e7, 4_500_000, 800_000)
}

/// STN-OCR (compressed) — text recognition. 12 layers.
pub fn stn_ocr() -> ModelProfile {
    ModelProfile::synth("STN-OCR", 12, 5.5e7, 6_000_000, 600_000)
}

/// A compressed ResNet-style image recogniser for the social-media app.
pub fn image_recognizer() -> ModelProfile {
    ModelProfile::synth("ImageRecNet", 20, 1.6e8, 14_000_000, 1_000_000)
}

/// NSFW/safety image classifier (MobileNet-class).
pub fn nsfw_net() -> ModelProfile {
    ModelProfile::synth("NSFWNet", 14, 3.5e7, 3_000_000, 450_000)
}

/// Language identification (TextCNN-class).
pub fn lang_id() -> ModelProfile {
    ModelProfile::synth("LangIdNet", 8, 1.5e7, 1_800_000, 150_000)
}

/// Compressed translation model (GNMT-lite) for the social-media app.
pub fn translator() -> ModelProfile {
    ModelProfile::synth("GNMT-lite", 16, 1.8e8, 18_000_000, 700_000)
}

/// Keyword/speech recognition model (wav2letter-class) for audio apps.
pub fn audio_net() -> ModelProfile {
    ModelProfile::synth("AudioNet", 12, 5.0e7, 5_000_000, 400_000)
}

/// Intent classification model for audio apps.
pub fn intent_net() -> ModelProfile {
    ModelProfile::synth("IntentNet", 8, 1.2e7, 1_500_000, 120_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surveillance_dag_matches_reference_structure() {
        // TinyYOLOv3 + MobileNetV2 + ShuffleNet must sum to the latency
        // model's reference (1.5e8 FLOPs, 2e6 activation bytes) — the
        // calibration anchor for Figs 8–10.
        let total = tiny_yolo_v3()
            .full_cost()
            .plus(mobilenet_v2().full_cost())
            .plus(shufflenet().full_cost());
        assert!((total.flops_per_sample - 1.5e8).abs() / 1.5e8 < 0.01);
        assert!((total.activation_bytes - 2.0e6).abs() / 2.0e6 < 0.01);
    }

    #[test]
    fn relative_magnitudes_track_architectures() {
        assert!(
            tiny_yolo_v3().full_cost().flops_per_sample
                > mobilenet_v2().full_cost().flops_per_sample
        );
        assert!(
            mobilenet_v2().full_cost().flops_per_sample > shufflenet().full_cost().flops_per_sample
        );
        assert!(
            resnet18().full_cost().flops_per_sample > mobilenet_v2().full_cost().flops_per_sample
        );
    }

    #[test]
    fn every_backbone_has_multiple_exit_points() {
        for p in [
            tiny_yolo_v3(),
            mobilenet_v2(),
            shufflenet(),
            resnet18(),
            ssdlite(),
            stn_ocr(),
            image_recognizer(),
            nsfw_net(),
            lang_id(),
            translator(),
            audio_net(),
            intent_net(),
        ] {
            assert!(p.exit_points().len() >= 3, "{} has too few exits", p.name);
        }
    }
}
