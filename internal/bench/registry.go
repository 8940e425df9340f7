package bench

import (
	"cmp"
	"fmt"
	"slices"
)

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) []Table
}

// experiments indexes every experiment by ID.
var experiments = []Experiment{
	{"table1", "Statistics of the five data sources", Table1},
	{"table2", "Parameter settings", Table2},
	{"fig7", "Heatmaps of the five data sources", Fig7},
	{"fig8", "Index construction time and memory vs θ", Fig8},
	{"fig9", "OJSP search time vs k", Fig9},
	{"fig10", "OJSP search time vs θ", Fig10},
	{"fig11", "OJSP search time vs q", Fig11},
	{"fig12", "OJSP search time vs f", Fig12},
	{"fig13", "OJSP communication cost vs q (also emits fig14)", Fig13And14},
	{"fig14", "OJSP transmission time vs q (also emits fig13)", Fig13And14},
	{"fig15", "CJSP search time vs k", Fig15},
	{"fig16", "CJSP search time vs θ", Fig16},
	{"fig17", "CJSP search time vs q", Fig17},
	{"fig18", "CJSP search time vs δ", Fig18},
	{"fig19", "CJSP communication cost vs q (also emits fig20)", Fig19And20},
	{"fig20", "CJSP transmission time vs q (also emits fig19)", Fig19And20},
	{"fig21", "Index updating time vs dataset inserts", Fig21},
	{"fig22", "Index updating time vs dataset updates", Fig22},
	{"ablation", "Ablation of DITS design choices (extension)", Ablation},
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), experiments...)
	slices.SortFunc(out, func(a, b Experiment) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) ([]Table, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e.Run(cfg), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (try: table1, table2, fig7..fig22, ablation)", id)
}
