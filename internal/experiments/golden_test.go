package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_seed*.txt from this build")

// TestRunAllGolden pins every decision the paper's evaluation makes:
// All (what `xflow-experiments -run all -seed N` prints) must match the
// checked-in output byte for byte on three seeds. A change that moves a
// figure fails here, naming the table, row and column of the first
// number that moved; if the move is intended, rerun with -update and
// the goldens' diff shows every number that changed.
func TestRunAllGolden(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		var out bytes.Buffer
		if _, _, err := All(&out, SimOptions{Seed: seed}, LiveOptions{Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		path := filepath.Join("testdata", fmt.Sprintf("all_seed%d.txt", seed))
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if d := firstDiff(string(want), out.String()); d != "" {
			t.Errorf("seed %d differs from %s at %s", seed, path, d)
		}
	}
}

// columns splits a rendered table line into its cells (metrics.Table
// separates them by two or more spaces; a cell holds single spaces).
var columnGap = regexp.MustCompile(`\s{2,}`)

func columns(line string) []string {
	if line = strings.TrimSpace(line); line == "" {
		return nil
	}
	return columnGap.Split(line, -1)
}

// firstDiff locates the first line where got departs from want and
// names it: the table it is in (the last unindented title above it),
// the row (its cells before the first that differs) and that cell's
// column. It returns "" when the two are equal.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	title, header := "", []string(nil)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			wc, gc := columns(w), columns(g)
			k := 0
			for k < len(wc) && k < len(gc) && wc[k] == gc[k] {
				k++
			}
			column := "?"
			if k < len(header) {
				column = header[k]
			}
			return fmt.Sprintf("line %d: %q, row %q, column %q\n  golden: %s\n  got:    %s",
				i+1, title, strings.Join(wc[:k], " / "), column, w, g)
		}
		switch {
		case w != "" && !strings.HasPrefix(w, " "):
			title, header = w, nil
		case header == nil && w != "":
			header = columns(w)
		}
	}
	return ""
}
