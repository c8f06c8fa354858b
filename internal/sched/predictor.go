package sched

import "time"

// DefaultEWMAAlpha is the smoothing factor for the predictor's running
// calibration when the caller does not choose one.
const DefaultEWMAAlpha = 0.3

// Predictor refines per-program cost estimates from execution history,
// the BioWorkbench approach: the static model (darwin's CostModel, or a
// task's declared cost) predicts the shape of an activity's runtime, and
// an EWMA over the observed actual/estimated ratio calibrates it to the
// cluster actually running the work. Completed-activity durations flow in
// through Observe; Estimate scales a fresh model estimate by the learned
// ratio.
//
// The predictor is deterministic (no clock reads; observations arrive in
// engine order) and not safe for concurrent use — the engine serializes
// access under its dispatch lock.
type Predictor struct {
	alpha float64
	ratio map[string]float64
}

// NewPredictor returns a predictor with the given EWMA smoothing factor
// in (0, 1]; out-of-range values fall back to DefaultEWMAAlpha.
func NewPredictor(alpha float64) *Predictor {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &Predictor{alpha: alpha, ratio: make(map[string]float64)}
}

// Observe feeds one completed activity: the estimate it was scheduled
// with and the CPU time it actually consumed. Observations without a key
// or with non-positive durations are ignored.
func (p *Predictor) Observe(key string, estimated, actual time.Duration) {
	if key == "" || estimated <= 0 || actual <= 0 {
		return
	}
	r := float64(actual) / float64(estimated)
	if old, ok := p.ratio[key]; ok {
		p.ratio[key] = old + p.alpha*(r-old)
	} else {
		p.ratio[key] = r
	}
}

// Estimate scales a model estimate by the key's learned calibration
// ratio; with no history (or no model estimate) it returns the model
// estimate unchanged.
func (p *Predictor) Estimate(key string, model time.Duration) time.Duration {
	if r, ok := p.ratio[key]; ok && model > 0 {
		return time.Duration(float64(model) * r)
	}
	return model
}
