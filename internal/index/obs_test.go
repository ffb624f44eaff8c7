package index

import (
	"testing"

	"ktg/internal/obs"
)

// TestBuildMetrics pins the index metrics: every build bumps
// ktg_index_builds_total.
func TestBuildMetrics(t *testing.T) {
	g := fixture()
	const builds = "ktg_index_builds_total"
	counter := func() int64 { return obs.Default().Counter(builds, "").Value() }
	b0 := counter()
	if _, err := BuildNL(g, NLOptions{H: 2}); err != nil {
		t.Fatal(err)
	}
	if got := counter(); got != b0+1 {
		t.Errorf("BuildNL: %s went %d -> %d, want +1", builds, b0, got)
	}
	if _, err := BuildNLRNLWith(g, NLRNLOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := counter(); got != b0+2 {
		t.Errorf("BuildNLRNLWith: %s went %d -> %d, want +2", builds, b0, got)
	}
}

func TestBuildNLRNLWithoutOptionsStillWorks(t *testing.T) {
	g := fixture()
	a, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNLRNLWith(g, NLRNLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries() != b.Entries() {
		t.Errorf("BuildNLRNL and BuildNLRNLWith disagree: %d vs %d entries", a.Entries(), b.Entries())
	}
}
