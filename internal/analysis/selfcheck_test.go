package analysis

import "testing"

// TestModuleIsClean runs the full analyzer suite over the real module
// and requires zero findings — the same gate CI applies with
// `go run ./cmd/xflow-vet ./...`. Any new violation of the vclock
// invariants fails this test with the offending position.
func TestModuleIsClean(t *testing.T) {
	// Guard the suite's composition first: the protocol-aware rules and
	// their fact layer must be part of every full run, so a clean module
	// check really does certify dispatch exhaustiveness, map-order
	// determinism, goroutine ownership, and suppression hygiene (the
	// stale-suppression audit is active on this path).
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	for _, want := range []string{"maporder", "msgexhaustive", "loopowned", "servedblock"} {
		if !names[want] {
			t.Fatalf("analyzer %q missing from All()", want)
		}
	}

	findings, err := Check("../..", All())
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
