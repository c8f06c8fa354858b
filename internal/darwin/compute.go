package darwin

// This file holds the real (non-simulated) compute kernels behind the
// all-vs-all activities. The engine's local executor calls these; on the
// simulated cluster only their cost model is charged.

// FixedPAMOptions configure the fast first pass.
type FixedPAMOptions struct {
	// PAM is the fixed distance of the fast pass (the paper uses one
	// fixed matrix before refining). Default 120.
	PAM float64
	// Threshold is the minimum score (tenth-bits) for a pair to count
	// as a match. Default 80.
	Threshold float64
}

func (o *FixedPAMOptions) fill() {
	if o.PAM == 0 {
		o.PAM = 120
	}
	if o.Threshold == 0 {
		o.Threshold = 80
	}
}

// FixedPAMPass computes the fast fixed-PAM alignment of every pair owned
// by queue positions [ownedStart, ownedStart+ownedLen) and returns the
// pairs whose score reaches the threshold (the set Q_i of §4).
func FixedPAMPass(d *Dataset, full Queue, ownedStart, ownedLen int, opts FixedPAMOptions) []Match {
	opts.fill()
	sm := ScoreAt(opts.PAM)
	var out []Match
	PairsOwned(full, ownedStart, ownedLen, func(a, b int) bool {
		sa, sb := d.Entries[a], d.Entries[b]
		score, _ := ScoreOnly(sa, sb, sm)
		if score >= opts.Threshold {
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			out = append(out, Match{A: lo, B: hi, Score: score, PAM: opts.PAM})
		}
		return true
	})
	return out
}

// RefineOptions configure the PAM-parameter refinement pass.
type RefineOptions struct {
	// LoPAM and HiPAM bound the distance search. Defaults 5 and 250.
	LoPAM, HiPAM float64
	// Threshold drops refined matches whose best score falls below it.
	// Default 80.
	Threshold float64
}

func (o *RefineOptions) fill() {
	if o.LoPAM == 0 {
		o.LoPAM = 5
	}
	if o.HiPAM == 0 {
		o.HiPAM = 250
	}
	if o.Threshold == 0 {
		o.Threshold = 80
	}
}

// RefinePass re-aligns each match searching for the PAM distance that
// maximizes similarity (the set R_i of §4).
func RefinePass(d *Dataset, matches []Match, opts RefineOptions) []Match {
	opts.fill()
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		res := RefinePAM(d.Entries[m.A], d.Entries[m.B], opts.LoPAM, opts.HiPAM)
		if res.Score < opts.Threshold {
			continue
		}
		out = append(out, Match{
			A: m.A, B: m.B,
			Score:    res.Score,
			PAM:      res.PAM,
			Identity: res.Identity,
			Length:   res.Length,
		})
	}
	return out
}

// AllVsAllSerial runs the whole two-phase all-vs-all in-process, without
// the engine — the ground truth the integration tests compare engine runs
// against.
//
//bioopera:allow deadcode the reference the all-vs-all tests in internal/allvsall and internal/darwin compare engine runs against
func AllVsAllSerial(d *Dataset, fixed FixedPAMOptions, refine RefineOptions) []Match {
	full := QueueRange(0, d.Len())
	q := FixedPAMPass(d, full, 0, len(full), fixed)
	return RefinePass(d, q, refine)
}
