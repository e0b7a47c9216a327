//! Offline activation-range calibration (the Ristretto deployment flow,
//! \[6\] in the paper).
//!
//! Real hardware cannot rescale feature maps per image: the Sum/Round
//! stage uses a *fixed*, per-layer output format chosen offline by
//! running a calibration set and recording each layer's activation
//! range. [`calibrate`] implements that procedure; the resulting
//! [`Calibration`] plugs into [`crate::infer::Inferencer`] so deployment
//! inference uses the same formats for every image (with saturation on
//! out-of-range outliers, counted and reported).

use crate::infer::{Engine, InferenceResult, Inferencer};
use abm_fault::AbmError;
use abm_model::SparseModel;
use abm_tensor::quantize::choose_frac;
use abm_tensor::{QFormat, Tensor3};

/// Fixed per-layer output formats for the accelerated layers, in
/// execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    formats: Vec<QFormat>,
}

impl Calibration {
    /// Builds a calibration directly from per-layer formats (one per
    /// conv/FC layer, in execution order).
    pub fn from_formats(formats: Vec<QFormat>) -> Self {
        Self { formats }
    }

    /// The fixed output format of the `i`-th accelerated layer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn format(&self, i: usize) -> QFormat {
        self.formats[i]
    }

    /// Number of calibrated layers.
    pub fn len(&self) -> usize {
        self.formats.len()
    }

    /// Whether no layer was calibrated.
    pub fn is_empty(&self) -> bool {
        self.formats.is_empty()
    }
}

/// Runs the calibration set through the model and picks, per accelerated
/// layer, the 8-bit output format that just covers the largest
/// activation magnitude seen.
///
/// Calibration runs with the exact dense engine (any integer engine
/// would give identical ranges).
///
/// # Errors
///
/// Returns [`AbmError`] if the model cannot be prepared or an input
/// shape mismatches the network.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn calibrate(
    model: &SparseModel,
    inputs: &[Tensor3<i16>],
    input_format: QFormat,
) -> Result<Calibration, AbmError> {
    assert!(!inputs.is_empty(), "calibration needs at least one input");
    let inferencer = Inferencer::new(model)
        .engine(Engine::Dense)
        .input_format(input_format);
    let mut max_real: Vec<f32> = vec![0.0; model.layers.len()];
    for input in inputs {
        let result = inferencer.run(input)?;
        for (i, m) in result.layer_max_activation.iter().enumerate() {
            max_real[i] = max_real[i].max(*m);
        }
    }
    let formats = max_real
        .into_iter()
        .map(|m| QFormat::new(8, choose_frac(&[m], 8)))
        .collect();
    Ok(Calibration { formats })
}

/// Validates a calibration on held-out inputs: fraction of feature
/// values that saturate.
///
/// # Errors
///
/// Returns [`AbmError`] if the model cannot be prepared or an input
/// shape mismatches the network.
pub fn saturation_rate(
    model: &SparseModel,
    cal: &Calibration,
    inputs: &[Tensor3<i16>],
    input_format: QFormat,
) -> Result<f64, AbmError> {
    let inferencer = Inferencer::new(model)
        .engine(Engine::Dense)
        .input_format(input_format)
        .calibration(cal.clone());
    let mut saturated = 0u64;
    let mut total = 0u64;
    for input in inputs {
        let r: InferenceResult = inferencer.run(input)?;
        saturated += r.saturated_features;
        total += r.total_features;
    }
    Ok(if total == 0 {
        0.0
    } else {
        saturated as f64 / total as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use abm_model::{synthesize_model, zoo, LayerProfile, PruneProfile};
    use abm_tensor::Shape3;

    fn setup() -> (SparseModel, Vec<Tensor3<i16>>) {
        let net = zoo::tiny();
        let profile = PruneProfile::uniform(LayerProfile::new(0.6, 12));
        let model = synthesize_model(&net, &profile, 5);
        let inputs = (0..4)
            .map(|salt| {
                Tensor3::from_fn(Shape3::new(3, 32, 32), |c, r, col| {
                    ((((c + salt) * 997 + r * 31 + col) * 13 % 255) as i16) - 127
                })
            })
            .collect();
        (model, inputs)
    }

    #[test]
    fn calibration_covers_all_layers() {
        let (model, inputs) = setup();
        let cal = calibrate(&model, &inputs, QFormat::new(8, 0)).unwrap();
        assert_eq!(cal.len(), model.layers.len());
        assert!(!cal.is_empty());
        for i in 0..cal.len() {
            assert_eq!(cal.format(i).bits(), 8);
        }
    }

    #[test]
    fn calibrated_engines_stay_bit_exact() {
        let (model, inputs) = setup();
        let cal = calibrate(&model, &inputs, QFormat::new(8, 0)).unwrap();
        let dense = Inferencer::new(&model)
            .engine(Engine::Dense)
            .calibration(cal.clone())
            .run(&inputs[0])
            .unwrap();
        let abm = Inferencer::new(&model)
            .engine(Engine::Abm)
            .calibration(cal.clone())
            .run(&inputs[0])
            .unwrap();
        assert_eq!(dense.logits, abm.logits);
    }

    #[test]
    fn calibration_inputs_do_not_saturate() {
        // By construction the calibration set fits its own formats.
        let (model, inputs) = setup();
        let cal = calibrate(&model, &inputs, QFormat::new(8, 0)).unwrap();
        let rate = saturation_rate(&model, &cal, &inputs, QFormat::new(8, 0)).unwrap();
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn held_out_inputs_saturate_rarely() {
        let (model, inputs) = setup();
        let cal = calibrate(&model, &inputs[..2], QFormat::new(8, 0)).unwrap();
        let rate = saturation_rate(&model, &cal, &inputs[2..], QFormat::new(8, 0)).unwrap();
        assert!(rate < 0.05, "saturation rate {rate}");
    }

    #[test]
    fn deployment_is_image_invariant() {
        // The fixed formats must not depend on the inference image: two
        // different images go through identical per-layer formats.
        let (model, inputs) = setup();
        let cal = calibrate(&model, &inputs, QFormat::new(8, 0)).unwrap();
        let inf = Inferencer::new(&model).calibration(cal);
        let a = inf.run(&inputs[0]).unwrap();
        let b = inf.run(&inputs[1]).unwrap();
        assert_eq!(
            a.formats, b.formats,
            "calibrated formats must be image-invariant"
        );
        assert_ne!(a.logits, b.logits);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_calibration_set_panics() {
        let (model, _) = setup();
        let _ = calibrate(&model, &[], QFormat::new(8, 0));
    }
}
