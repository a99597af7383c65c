package bench

import "testing"

// BenchmarkSuite runs every suite entry as a sub-benchmark:
// `go test -run '^$' -bench Suite/<name> ./internal/bench`.
func BenchmarkSuite(b *testing.B) {
	for _, s := range Suite() {
		b.Run(s.Name, s.F)
	}
}

// The repository benchmark finds entries by name at run time
// (benchmark/probes.go, suiteNs), so a missing one would compile and
// then panic mid-run. These are the names it passes.
func TestSuiteHasTheEntriesBenchmarkReads(t *testing.T) {
	have := map[string]bool{}
	for _, s := range Suite() {
		if have[s.Name] {
			t.Errorf("suite entry %q appears twice", s.Name)
		}
		have[s.Name] = true
	}
	for _, name := range []string{
		"vclock_sleep_events",
		"vclock_mailbox_pingpong",
		"vclock_afterfunc_timers",
		"broker_direct_send",
		"broker_publish_fanout",
		"storage_cache_put_access",
		"fleet_shard_s1_w500",
		"fleet_shard_s2_w500",
	} {
		if !have[name] {
			t.Errorf("suite has no entry %q, which benchmark/probes.go reads", name)
		}
	}
}
