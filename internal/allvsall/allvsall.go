// Package allvsall implements the paper's flagship workload (§4, Fig. 3):
// the self-comparison of every entry in a protein dataset, expressed as a
// BioOpera process —
//
//	UserInput → [QueueGeneration] → TaskPreprocessing →
//	    Alignment (parallel: FixedPAMAlignment → PAMRefinement per TEU) →
//	    MergeByEntry + MergeByPAMDistance
//
// The package provides the OCR process definition and the activity
// programs behind it. Programs run in one of two modes:
//
//   - real: alignments are actually computed with internal/darwin —
//     used by the integration tests and the runnable examples;
//   - simulated: programs return deterministic summaries and their Cost
//     functions charge the darwin.CostModel, so the virtual cluster pays
//     realistic CPU time without computing 3.2 billion alignments — used
//     by the Fig. 4 / Fig. 5 / Fig. 6 / Table 1 experiments.
//
// Queue files and partitions are encoded as [start, count] ranges over
// dataset positions, which keeps whiteboard values small at Swiss-Prot
// scale.
package allvsall

import (
	"fmt"
	"sync"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/darwin"
	"bioopera/internal/ocr"
)

// TemplateName is the registered name of the process.
const TemplateName = "AllVsAll"

// Source is the OCR definition of the Fig. 3 process.
const Source = `
PROCESS AllVsAll "Self-comparison of all entries in a dataset (paper Fig. 3)" {
  INPUT db_name, queue_file, output_files, n_teus;
  OUTPUT master_file, pam_sorted_file, match_count;

  ACTIVITY UserInput {
    DOC "Request from the user the names of output files and database to use";
    CALL avsa.user_input(db = db_name, queue = queue_file, out = output_files);
    OUT db, queue, out_files;
    MAP db -> db, queue -> queue, out_files -> outf;
  }

  ACTIVITY QueueGeneration {
    DOC "If user does not provide a queue file, generate the full entry queue";
    CALL avsa.queue_gen(db = db);
    OUT queue;
    MAP queue -> queue;
  }

  ACTIVITY TaskPreprocessing {
    DOC "Create data partition P = {P1..Pn} based on given input data";
    CALL avsa.partition(queue = queue, n = n_teus);
    OUT partitions;
    MAP partitions -> partitions;
    RETRY 1;
  }

  BLOCK Alignment PARALLEL OVER partitions AS part {
    MAP results -> alignment_results;
    OUTPUT refined;
    ACTIVITY FixedPAMAlignment {
      DOC "First alignment, using a fixed PAM distance";
      CALL avsa.align_fixed(part = part, queue = queue, db = db);
      OUT matches;
      MAP matches -> q;
      RETRY 3;
    }
    ACTIVITY PAMRefinement {
      DOC "Alignment algorithm finding PAM distance maximizing similarity";
      CALL avsa.refine(matches = q, part = part, queue = queue, db = db);
      OUT refined;
      MAP refined -> refined;
      RETRY 3;
    }
    FixedPAMAlignment -> PAMRefinement;
  }

  ACTIVITY MergeByEntry {
    DOC "Merge results, sorting by entry number";
    CALL avsa.merge_entry(results = alignment_results, out = outf);
    OUT master_file, match_count;
    MAP master_file -> master_file, match_count -> match_count;
  }

  ACTIVITY MergeByPAM {
    DOC "Merge results, sorting by PAM distance of each alignment";
    CALL avsa.merge_pam(results = alignment_results, out = outf);
    OUT pam_sorted_file;
    MAP pam_sorted_file -> pam_sorted_file;
  }

  UserInput -> QueueGeneration IF !defined(queue);
  UserInput -> TaskPreprocessing IF defined(queue);
  QueueGeneration -> TaskPreprocessing;
  TaskPreprocessing -> Alignment;
  Alignment -> MergeByEntry;
  Alignment -> MergeByPAM;
}
`

// Config selects the dataset, algorithm parameters and execution mode.
type Config struct {
	// Dataset is the sequence collection. In simulated mode only its
	// entry lengths are consulted.
	Dataset *darwin.Dataset
	// Fixed configures the fast first pass.
	Fixed darwin.FixedPAMOptions
	// Simulate switches programs to cost-model-only execution.
	Simulate bool
	// Cost is the model charged in simulated mode (zero value →
	// darwin.DefaultCostModel).
	Cost darwin.CostModel
	// RefineNodes optionally pins the refinement stage to specific
	// nodes (§5.4: "the slower ik-sun cluster was responsible for the
	// refinement stages").
	RefineNodes []string

	tableMu sync.Mutex
	tables  map[[2]int]*darwin.CostTable // (queue start, count) → table
}

// costTable returns (building and caching on demand) the closed-form cost
// table for a queue range, so TEU costs at 80k-entry scale are O(TEU)
// instead of O(pairs).
func (c *Config) costTable(qs, qn int) *darwin.CostTable {
	c.tableMu.Lock()
	defer c.tableMu.Unlock()
	if c.tables == nil {
		c.tables = make(map[[2]int]*darwin.CostTable)
	}
	key := [2]int{qs, qn}
	if t, ok := c.tables[key]; ok {
		return t
	}
	t := darwin.NewCostTable(c.Cost, darwin.QueueRange(qs, qn), c.Dataset.Lengths())
	c.tables[key] = t
	return t
}

func (c *Config) fill() {
	if c.Cost == (darwin.CostModel{}) {
		c.Cost = darwin.DefaultCostModel()
	}
}

// Inputs builds the process inputs for a run over the whole dataset split
// into teus partitions.
func (c *Config) Inputs(teus int) map[string]ocr.Value {
	return map[string]ocr.Value{
		"db_name":      ocr.Str(c.Dataset.Name),
		"output_files": ocr.Str("allvsall-out"),
		"n_teus":       ocr.Int(teus),
	}
}

// InputsWithQueue is Inputs with an explicit queue range [start, count) —
// the paper's mechanism for re-running a subset after discarding
// ill-behaving entries.
func (c *Config) InputsWithQueue(teus, start, count int) map[string]ocr.Value {
	in := c.Inputs(teus)
	in["queue_file"] = queueValue(start, count)
	return in
}

func queueValue(start, count int) ocr.Value {
	return ocr.List(ocr.Int(start), ocr.Int(count))
}

func queueRange(v ocr.Value) (start, count int, err error) {
	if v.Kind() != ocr.KindList || v.Len() != 2 {
		return 0, 0, fmt.Errorf("allvsall: queue value %v is not a [start, count] range", v)
	}
	return v.At(0).AsInt(), v.At(1).AsInt(), nil
}

// Register installs the avsa.* programs into a library. The config is
// captured; register one config per engine.
func Register(lib *core.Library, cfg *Config) error {
	if cfg.Dataset == nil {
		return fmt.Errorf("allvsall: config needs a dataset")
	}
	cfg.fill()

	programs := []core.Program{
		{
			Name: "avsa.user_input",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				if got := args["db"].AsStr(); got != cfg.Dataset.Name {
					return nil, fmt.Errorf("unknown dataset %q (have %q)", got, cfg.Dataset.Name)
				}
				return map[string]ocr.Value{
					"db":        args["db"],
					"queue":     args["queue"],
					"out_files": args["out"],
				}, nil
			},
			Cost: constCost(500 * time.Millisecond),
		},
		{
			Name: "avsa.queue_gen",
			Run: func(_ core.ProgramCtx, _ map[string]ocr.Value) (map[string]ocr.Value, error) {
				return map[string]ocr.Value{"queue": queueValue(0, cfg.Dataset.Len())}, nil
			},
			Cost: constCost(time.Second),
		},
		{
			Name: "avsa.partition",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				start, count, err := queueRange(args["queue"])
				if err != nil {
					return nil, err
				}
				if start < 0 || count < 1 || start+count > cfg.Dataset.Len() {
					return nil, fmt.Errorf("queue range [%d,%d) outside dataset of %d entries", start, start+count, cfg.Dataset.Len())
				}
				n := args["n"].AsInt()
				if n < 1 {
					n = 1
				}
				if n > count {
					n = count
				}
				// Partitions are [start, count] ranges of *queue
				// positions*, so only queued entries take part in
				// the comparison.
				parts := make([]ocr.Value, 0, n)
				base, rem := count/n, count%n
				pos := 0
				for i := 0; i < n; i++ {
					size := base
					if i < rem {
						size++
					}
					parts = append(parts, ocr.List(ocr.Int(pos), ocr.Int(size)))
					pos += size
				}
				return map[string]ocr.Value{"partitions": ocr.List(parts...)}, nil
			},
			Cost: constCost(2 * time.Second),
		},
		{
			Name: "avsa.align_fixed",
			Run:  cfg.runAlignFixed,
			Cost: func(args map[string]ocr.Value) time.Duration {
				qs, qn, s, n, err := teuRangeBounds(args)
				if err != nil {
					return time.Second
				}
				return cfg.costTable(qs, qn).FixedTEUCost(s, n)
			},
		},
		{
			Name: "avsa.refine",
			Run:  cfg.runRefine,
			Cost: func(args map[string]ocr.Value) time.Duration {
				qs, qn, s, n, err := teuRangeBounds(args)
				if err != nil {
					return time.Second
				}
				return cfg.costTable(qs, qn).RefineTEUCost(s, n)
			},
			Nodes: cfg.RefineNodes,
		},
		{
			Name: "avsa.merge_entry",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				merged, count := cfg.merge(args["results"])
				darwin.SortByEntry(merged)
				return map[string]ocr.Value{
					"master_file": matchesValue(merged, cfg.Simulate, "master"),
					"match_count": ocr.Int(count),
				}, nil
			},
			Cost: cfg.mergeCost,
		},
		{
			Name: "avsa.merge_pam",
			Run: func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
				merged, _ := cfg.merge(args["results"])
				darwin.SortByPAM(merged)
				return map[string]ocr.Value{
					"pam_sorted_file": matchesValue(merged, cfg.Simulate, "pam-sorted"),
				}, nil
			},
			Cost: cfg.mergeCost,
		},
	}
	for _, p := range programs {
		if err := lib.Register(p); err != nil {
			return err
		}
	}
	return nil
}

func constCost(d time.Duration) core.CostFunc {
	return func(map[string]ocr.Value) time.Duration { return d }
}

// teuRangeBounds extracts the queue range and owned part range from the
// activity arguments.
func teuRangeBounds(args map[string]ocr.Value) (qs, qn, start, count int, err error) {
	qs, qn, err = queueRange(args["queue"])
	if err != nil {
		return 0, 0, 0, 0, err
	}
	start, count, err = queueRange(args["part"])
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return qs, qn, start, count, nil
}

// teuRange materializes a TEU's effective queue and its owned range.
func teuRange(args map[string]ocr.Value) (q darwin.Queue, start, count int, err error) {
	qs, qn, start, count, err := teuRangeBounds(args)
	if err != nil {
		return nil, 0, 0, err
	}
	return darwin.QueueRange(qs, qn), start, count, nil
}

// runAlignFixed is the fast-pass activity body.
func (cfg *Config) runAlignFixed(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
	q, s, n, err := teuRange(args)
	if err != nil {
		return nil, err
	}
	if cfg.Simulate {
		// Deterministic expected match count for this TEU.
		pairs := cfg.costTable(q[0], len(q)).Pairs(s, n)
		expected := int(float64(pairs) * cfg.Cost.MatchFraction)
		return map[string]ocr.Value{"matches": ocr.Int(expected)}, nil
	}
	ms := darwin.FixedPAMPass(cfg.Dataset, q, s, n, cfg.Fixed)
	return map[string]ocr.Value{"matches": encodeMatches(ms)}, nil
}

// runRefine is the refinement activity body.
func (cfg *Config) runRefine(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
	if cfg.Simulate {
		// Pass the expected count through.
		return map[string]ocr.Value{"refined": args["matches"]}, nil
	}
	ms, err := decodeMatches(args["matches"])
	if err != nil {
		return nil, err
	}
	refined := darwin.RefinePass(cfg.Dataset, ms, darwin.RefineOptions{})
	return map[string]ocr.Value{"refined": encodeMatches(refined)}, nil
}

// merge combines per-TEU results. In simulated mode results are counts;
// in real mode they are match lists.
func (cfg *Config) merge(results ocr.Value) ([]darwin.Match, int) {
	if cfg.Simulate {
		total := 0
		for i := 0; i < results.Len(); i++ {
			total += results.At(i).AsInt()
		}
		return nil, total
	}
	var sets [][]darwin.Match
	for i := 0; i < results.Len(); i++ {
		ms, err := decodeMatches(results.At(i))
		if err != nil {
			continue
		}
		sets = append(sets, ms)
	}
	merged := darwin.MergeMatches(sets...)
	return merged, len(merged)
}

func (cfg *Config) mergeCost(args map[string]ocr.Value) time.Duration {
	results := args["results"]
	var n int64
	if cfg.Simulate {
		for i := 0; i < results.Len(); i++ {
			n += int64(results.At(i).AsInt())
		}
	} else {
		for i := 0; i < results.Len(); i++ {
			n += int64(results.At(i).Len())
		}
	}
	return cfg.Cost.MergeCost(n)
}

// encodeMatches turns match records into a whiteboard value.
func encodeMatches(ms []darwin.Match) ocr.Value {
	vs := make([]ocr.Value, len(ms))
	for i, m := range ms {
		vs[i] = ocr.List(
			ocr.Int(m.A), ocr.Int(m.B),
			ocr.Num(m.Score), ocr.Num(m.PAM),
			ocr.Num(m.Identity), ocr.Int(m.Length),
		)
	}
	return ocr.List(vs...)
}

// decodeMatches reverses encodeMatches.
func decodeMatches(v ocr.Value) ([]darwin.Match, error) {
	if v.Kind() != ocr.KindList {
		return nil, fmt.Errorf("allvsall: match set is %s, want list", v.Kind())
	}
	ms := make([]darwin.Match, 0, v.Len())
	for i := 0; i < v.Len(); i++ {
		rec := v.At(i)
		if rec.Kind() != ocr.KindList || rec.Len() < 6 {
			return nil, fmt.Errorf("allvsall: bad match record %v", rec)
		}
		ms = append(ms, darwin.Match{
			A:        rec.At(0).AsInt(),
			B:        rec.At(1).AsInt(),
			Score:    rec.At(2).AsNum(),
			PAM:      rec.At(3).AsNum(),
			Identity: rec.At(4).AsNum(),
			Length:   rec.At(5).AsInt(),
		})
	}
	return ms, nil
}

// matchesValue renders the merged output: the match list in real mode, a
// file label in simulated mode.
func matchesValue(ms []darwin.Match, simulate bool, label string) ocr.Value {
	if simulate {
		return ocr.Str(label)
	}
	return encodeMatches(ms)
}

// DecodeMatches exposes match decoding for examples and tests reading
// process outputs.
func DecodeMatches(v ocr.Value) ([]darwin.Match, error) { return decodeMatches(v) }
