//! Segmentation metrics: confusion matrix, per-class and mean IoU.
//!
//! §VII-D reports intersection-over-union on the validation set: 59 % for
//! Tiramisu and 73 % for the modified DeepLabv3+.

use crate::loss::Labels;
use exaclim_tensor::Tensor;

/// Per-pixel argmax over the channel axis: logits `[N, C, H, W]` → labels.
pub fn argmax_channels(logits: &Tensor) -> Labels {
    let (n, c, h, w) = logits.shape().nchw();
    let hw = h * w;
    let xs = logits.as_slice();
    let mut data = vec![0u8; n * hw];
    for ni in 0..n {
        for p in 0..hw {
            let mut best = f32::NEG_INFINITY;
            let mut best_c = 0u8;
            for ci in 0..c {
                let v = xs[(ni * c + ci) * hw + p];
                if v > best {
                    best = v;
                    best_c = ci as u8;
                }
            }
            data[ni * hw + p] = best_c;
        }
    }
    Labels::new(n, h, w, data)
}

/// A `C×C` confusion matrix; rows = true class, columns = predicted class.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Empty matrix over `n_classes`.
    pub fn new(n_classes: usize) -> ConfusionMatrix {
        ConfusionMatrix {
            n_classes,
            counts: vec![0; n_classes * n_classes],
        }
    }

    /// Accumulates a batch of predictions against ground truth.
    ///
    /// # Panics
    /// Panics if the label maps have different sizes.
    pub fn update(&mut self, pred: &Labels, truth: &Labels) {
        assert_eq!(pred.numel(), truth.numel(), "prediction/truth size mismatch");
        for (&p, &t) in pred.data.iter().zip(truth.data.iter()) {
            self.counts[t as usize * self.n_classes + p as usize] += 1;
        }
    }

    /// Raw count for `(true_class, predicted_class)`.
    pub fn count(&self, t: usize, p: usize) -> u64 {
        self.counts[t * self.n_classes + p]
    }

    /// Overall pixel accuracy.
    pub fn accuracy(&self) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|i| self.count(i, i)).sum();
        correct as f64 / total as f64
    }

    /// Intersection-over-union for one class:
    /// `TP / (TP + FP + FN)`; `None` when the class never appears in either
    /// prediction or truth.
    pub fn class_iou(&self, c: usize) -> Option<f64> {
        let tp = self.count(c, c);
        let fp: u64 = (0..self.n_classes).filter(|&t| t != c).map(|t| self.count(t, c)).sum();
        let fn_: u64 = (0..self.n_classes).filter(|&p| p != c).map(|p| self.count(c, p)).sum();
        let denom = tp + fp + fn_;
        if denom == 0 {
            None
        } else {
            Some(tp as f64 / denom as f64)
        }
    }

    /// Mean IoU over classes that appear.
    pub fn mean_iou(&self) -> f64 {
        let ious: Vec<f64> = (0..self.n_classes).filter_map(|c| self.class_iou(c)).collect();
        if ious.is_empty() {
            0.0
        } else {
            ious.iter().sum::<f64>() / ious.len() as f64
        }
    }

    /// Recall (true-positive rate) for one class.
    #[cfg(test)]
    fn class_recall(&self, c: usize) -> Option<f64> {
        let row: u64 = (0..self.n_classes).map(|p| self.count(c, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(c, c) as f64 / row as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_tensor::DType;

    #[test]
    fn argmax_picks_max_channel() {
        let logits = Tensor::from_vec(
            [1, 3, 1, 2],
            DType::F32,
            vec![0.1, 5.0, 0.2, 0.0, 0.9, -1.0],
        );
        let l = argmax_channels(&logits);
        assert_eq!(l.data, vec![2, 0]);
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let t = Labels::new(1, 2, 2, vec![0, 1, 2, 1]);
        let mut cm = ConfusionMatrix::new(3);
        cm.update(&t, &t);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.mean_iou(), 1.0);
        for c in 0..3 {
            assert_eq!(cm.class_iou(c), Some(1.0));
        }
    }

    #[test]
    fn known_confusion_case() {
        // truth: [0,0,1,1]; pred: [0,1,1,1]
        let truth = Labels::new(1, 1, 4, vec![0, 0, 1, 1]);
        let pred = Labels::new(1, 1, 4, vec![0, 1, 1, 1]);
        let mut cm = ConfusionMatrix::new(2);
        cm.update(&pred, &truth);
        assert_eq!(cm.accuracy(), 0.75);
        // class 0: TP=1, FP=0, FN=1 → 0.5
        assert_eq!(cm.class_iou(0), Some(0.5));
        // class 1: TP=2, FP=1, FN=0 → 2/3
        assert!((cm.class_iou(1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.mean_iou() - (0.5 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
        assert_eq!(cm.class_recall(0), Some(0.5));
        assert_eq!(cm.class_recall(1), Some(1.0));
    }

    #[test]
    fn all_background_predictor_has_high_accuracy_low_iou() {
        // The paper's collapse mode: 98.2 % accuracy, near-zero minority IoU.
        let mut truth = vec![0u8; 1000];
        for v in truth.iter_mut().take(18) {
            *v = 1; // 1.8 % minority
        }
        let truth = Labels::new(1, 10, 100, truth);
        let pred = Labels::new(1, 10, 100, vec![0u8; 1000]);
        let mut cm = ConfusionMatrix::new(2);
        cm.update(&pred, &truth);
        assert!(cm.accuracy() > 0.98);
        assert_eq!(cm.class_iou(1), Some(0.0));
        assert!(cm.mean_iou() < 0.5);
    }

    #[test]
    fn absent_class_is_excluded_from_mean() {
        let truth = Labels::new(1, 1, 2, vec![0, 0]);
        let pred = Labels::new(1, 1, 2, vec![0, 0]);
        let mut cm = ConfusionMatrix::new(3);
        cm.update(&pred, &truth);
        assert_eq!(cm.class_iou(2), None);
        assert_eq!(cm.mean_iou(), 1.0);
    }
}
