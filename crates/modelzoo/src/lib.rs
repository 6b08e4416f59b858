//! # adainf-modelzoo
//!
//! The DNN backbones of the paper's applications, represented as **cost
//! profiles** (per-layer FLOPs, parameter bytes, activation bytes) for the
//! GPU simulator, plus a **trainable head** per model instance that binds
//! the profile to a drifting task stream through a real
//! [`adainf_nn::EarlyExitMlp`].
//!
//! Splitting cost from learning mirrors the substitution described in
//! DESIGN.md: the latency/memory behaviour of TinyYOLOv3, MobileNetV2,
//! ShuffleNet, ResNet18, SSDLite, STN-OCR, … is captured by profiles
//! (with DeepSpeed-style compression applied, §4), while the accuracy
//! dynamics under drift and retraining come from actual SGD on the head.
//!
//! * [`profile`] — [`profile::ModelProfile`]: layered cost description,
//!   early-exit cut points every 3 layers (as in SPINN \[22\]).
//! * [`zoo`] — the named backbones with calibrated magnitudes.
//! * [`head`] — [`head::TrainableModel`]: profile + MLP head + retraining
//!   state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod head;
pub mod profile;
pub mod zoo;

pub use head::{TrainSliceScratch, TrainableModel};
pub use profile::ModelProfile;
