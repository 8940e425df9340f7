package bench

import (
	"reflect"
	"strings"
	"testing"
)

// tinyConfig keeps the smoke tests fast: a few datasets per source.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	cfg.OverlapScale = 0.004
	cfg.Q = 2
	cfg.K = 3
	cfg.CoverageSources = []string{"Transit"}
	return cfg
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	cfg := tinyConfig()
	// fig14 and fig20 are emitted by fig13 and fig19: one function each,
	// so the alias is checked to resolve there instead of running twice.
	aliases := map[string]string{"fig14": "fig13", "fig20": "fig19"}
	byID := map[string]Experiment{}
	for _, e := range All() {
		if _, dup := byID[e.ID]; dup {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		byID[e.ID] = e
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if primary, ok := aliases[e.ID]; ok {
				if reflect.ValueOf(e.Run).Pointer() != reflect.ValueOf(byID[primary].Run).Pointer() {
					t.Fatalf("%s no longer shares %s's function; run it on its own", e.ID, primary)
				}
				return
			}
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s returned no tables", e.ID)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row width %d != header width %d", e.ID, len(row), len(tbl.Header))
					}
				}
				if !strings.Contains(tbl.String(), tbl.Title) {
					t.Errorf("%s: String() misses the title", e.ID)
				}
				if !strings.Contains(tbl.CSV(), tbl.Header[0]) {
					t.Errorf("%s: CSV() misses the header", e.ID)
				}
			}
		})
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Error("unknown experiment should error")
	}
	tables, err := Run("table2", tinyConfig())
	if err != nil || len(tables) != 1 {
		t.Fatalf("table2 run: %v, %d tables", err, len(tables))
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "with,comma"}, {"22", `with"quote`}},
		Notes:  []string{"note"},
	}
	s := tbl.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "# note") {
		t.Errorf("String output wrong:\n%s", s)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("CSV did not quote comma cell:\n%s", csv)
	}
	if !strings.Contains(csv, `"with""quote"`) {
		t.Errorf("CSV did not escape quote cell:\n%s", csv)
	}
}
