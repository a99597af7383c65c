package simtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"crossflow/internal/core"
	"crossflow/internal/sweep"
)

// corpusDigest is the sha256 over FormatReport, FormatTrace and the run
// error of short-profile seeds 1..seeds under every built-in policy, in
// (seed, policy) order. The runs go through sweep.Each on every core;
// each is deterministic, so the digest does not depend on how many.
func corpusDigest(t *testing.T, seeds int) string {
	t.Helper()
	pols := core.Policies()
	sums, err := sweep.Each(runtime.GOMAXPROCS(0), seeds*len(pols), func(i int) ([sha256.Size]byte, error) {
		seed, pol := int64(i/len(pols)+1), pols[i%len(pols)]
		r := Execute(Generate(seed, ShortLimits()), pol)
		out := fmt.Sprintf("seed %d policy %s err %v\n", seed, pol.Name, r.Err) +
			FormatReport(r.Report) + FormatTrace(r.Events)
		return sha256.Sum256([]byte(out)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range sums {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShortCorpusDigest pins what the fuzz corpus's first 40 short
// seeds produce under every policy: reports, traces and errors. A
// refactor must leave testdata/short40.sha256 unmoved; a change that
// moves it on purpose writes the new digest there and says why.
func TestShortCorpusDigest(t *testing.T) {
	want, err := os.ReadFile("testdata/short40.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusDigest(t, 40); got != strings.TrimSpace(string(want)) {
		t.Errorf("short seeds 1-40 x every policy digest %s, testdata/short40.sha256 says %s",
			got, strings.TrimSpace(string(want)))
	}
}
